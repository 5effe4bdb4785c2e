"""Command-line workbench over the library.

Subcommands: construct, verify, cayley, aut, qh, spectrum, prime.  Exit
codes: 0 on success, 2 when a verification fails (an order identity or an
oracle comparison), 1 on usage errors and on inputs too large for memory.
Output is deterministic for fixed inputs and seed; seeds are echoed in
report headers where randomness exists.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from typing import Optional

from . import gensets, numth, quasiham, spectral
from .cayley import build_cayley
from .automorphisms import graph_aut_order, verify_order_identity
from .errors import CayleykitError
from .graphs import export_dot, export_edge_list, import_edge_list
from .groups import build_chain, generates, orbits
from .perms import CycleType

USAGE_ERROR = 1
VERIFICATION_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _write(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _load_graph(path: str):
    return import_edge_list(_read(path))


# -- subcommands -----------------------------------------------------------


def cmd_construct(args) -> int:
    cycle_type = CycleType.from_text(args.type)
    T = gensets.construct(cycle_type, args.n)
    bound = gensets.f_lower_bound(cycle_type, args.n)
    _write(T.to_text(), args.out)
    print(f"type=({cycle_type}) n={args.n} size={len(T)} lower_bound={bound}")
    degree = gensets.construction_degree(cycle_type)
    if cycle_type.k == 1:
        print(f"threshold report: smallest supported degree {degree}")
    else:
        plan = gensets.general_plan(cycle_type)
        if degree == plan.degree:
            base = f"p={plan.p}, m={plan.m}"
        else:
            base = f"basic tree, K_{2 * cycle_type.k + 1}"
        print(
            f"threshold report: construction degree {degree} "
            f"({base}); worst-case bound {plan.phi_bound}"
        )
    return 0


def cmd_verify(args) -> int:
    try:
        T = gensets.GeneratorSet.from_text(_read(args.file))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFICATION_FAILURE
    chain = build_chain(T.elements, T.degree)
    order = chain.order()
    verdict = generates(T.elements, T.degree, chain)
    preds = gensets.predicates(T, include_balance=args.balance)
    print(f"degree={T.degree}")
    print(f"type={T.cycle_type}")
    print(f"size={len(T)}")
    print(f"order={order}")
    print(f"n_factorial={math.factorial(T.degree)}")
    print(f"generates={verdict}")
    print(f"semi_connected={'yes' if preds['semi_connected'] else 'no'}")
    print(f"split={'yes' if preds['split'] else 'no'}")
    if args.balance:
        certificate = preds["balanced"]
        print(f"balanced={'yes' if certificate is not None else 'no'}")
        if certificate is not None:
            print(f"balance_class_sizes={','.join(str(s) for s in certificate.sizes)}")
    print(f"lower_bound={gensets.f_lower_bound(T.cycle_type, T.degree)}")
    return 0


def cmd_cayley(args) -> int:
    T = gensets.GeneratorSet.from_text(_read(args.set))
    graph = build_cayley(T, cap=args.cap)
    if args.format == "dot":
        _write(export_dot(graph), args.out)
    else:
        _write(export_edge_list(graph), args.out)
    print(f"vertices={graph.vertex_count} edges={len(graph.edges)}")
    return 0


def cmd_aut(args) -> int:
    started = time.perf_counter()
    if args.set:
        T = gensets.GeneratorSet.from_text(_read(args.set))
        report = verify_order_identity(T, budget=args.budget)
        text = report.to_csv() if args.format == "csv" else report.to_text()
        if args.timing:
            # opt-in: timing lines break byte-determinism by nature
            text += f"elapsed_seconds={time.perf_counter() - started:.3f}\n"
        _write(text, args.out)
        return 0 if report.identity_holds else VERIFICATION_FAILURE
    graph = _load_graph(args.graph)
    order, gens = graph_aut_order(graph, budget=args.budget)
    text = f"vertices={graph.vertex_count}\naut_order={order}\ngenerators={len(gens)}\n"
    if args.timing:
        text += f"elapsed_seconds={time.perf_counter() - started:.3f}\n"
    _write(text, args.out)
    return 0


def cmd_qh(args) -> int:
    if args.k < 0:
        raise ValueError("--k must be >= 0 (0 means n - 2)")
    graph = _load_graph(args.graph)
    if args.check_hamiltonian:
        via = quasiham.hamiltonian_via_qh(graph)
        verdict = "hamiltonian" if via else "non-hamiltonian"
        guard = quasiham._BRUTE_VERTEX_GUARD
        if graph.vertex_count > guard:
            note, code = f"oracle skipped above {guard} vertices", 0
        elif via == (oracle := quasiham.brute_hamiltonian(graph)):
            note, code = "matches oracle", 0
        else:
            note, code = f"oracle disagrees: {oracle}", VERIFICATION_FAILURE
        _write(f"{verdict} ({note})\n", args.out)
        return code
    k_max = args.k if args.k else max(1, graph.vertex_count - 2)
    rows = quasiham.qh_report(graph, k_max)
    lines = ["k,edges,connected"]
    lines.extend(f"{k},{count},{'yes' if conn else 'no'}" for k, count, conn in rows)
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_spectrum(args) -> int:
    graph = _load_graph(args.graph)
    report = spectral.spectrum_topk(graph, args.kind, k=args.top, tol=args.tol, seed=args.seed)
    _write(f"# seed={args.seed}\n" + report.to_csv(), args.out)
    return 0


def cmd_prime(args) -> int:
    value = numth.cyclotomic_eval(args.m, args.m)
    p = numth.prime_one_mod(args.m)
    print(f"p={p} Phi={value}")
    if not (numth.is_prime(p) and p % args.m == 1 and value % p == 0):
        return VERIFICATION_FAILURE
    return 0


@functools.cache
def make_parser() -> _Parser:
    """The CLI parser, built on the first call and shared after that."""
    parser = _Parser(prog="cayleykit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a minimal one-class generating set")
    p.add_argument("--type", required=True, help="cycle type, e.g. 2,2,2")
    p.add_argument("--n", type=int, required=True, help="target degree")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="analyze a generating-set file")
    p.add_argument("file", help="generating-set file")
    p.add_argument("--balance", action="store_true", help="also search a balance certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cayley", help="export the Cayley graph of a set")
    p.add_argument("--set", required=True, help="generating-set file")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("edgelist", "dot"), default="edgelist")
    p.add_argument("--cap", type=int, default=100_000, help="vertex cap")
    p.set_defaults(func=cmd_cayley)

    p = sub.add_parser("aut", help="automorphism group orders and the product identity")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--set", help="generating-set file (full identity report)")
    group.add_argument("--graph", help="edge-list file (graph automorphisms only)")
    p.add_argument("--budget", type=int, default=2000, help="vertex budget")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--timing", action="store_true",
                   help="append elapsed time (breaks byte-determinism)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("qh", help="quasi-hamiltonicity reports")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--k", type=int, default=0, help="largest level to report")
    p.add_argument("--check-hamiltonian", action="store_true",
                   help="decide Hamiltonicity by the hierarchy and compare it with the "
                        f"brute oracle (skipped above {quasiham._BRUTE_VERTEX_GUARD} vertices)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_qh)

    p = sub.add_parser("spectrum", help="top eigenvalues of a graph")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--kind", choices=("adjacency", "laplacian"), default="adjacency")
    p.add_argument("--top", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("prime", help="the prime = 1 (mod m) dividing Phi_m(m)")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_prime)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (CayleykitError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        pass  # report below, once the traceback has released the frames holding the memory
    print(f"error: out of memory in {args.command}", file=sys.stderr)
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
