"""Independent oracles for the benchmark's jobs.

Nothing here imports cayleykit.  Expected values come from closed forms,
brute force, sympy, numpy and scipy:

* construct: size ceil((n-1)/c(A)) and every element of cycle type A;
* verify: order n! and ``generates=symmetric``; a relabelled copy prints
  exactly what the original printed;
* prime: p prime, p = 1 (mod m), p divides Phi_m(m) (sympy);
* cayley: n! vertices and n!|T u T^-1|/2 edges;
* aut: n!|Aut(tree)| for transposition trees (Feng, JCTB 2006), and
  n!|Stab(T u T^-1)| found by brute force over S_n otherwise;
* spectrum: for transposition trees the Laplacian gap of Cay(S_n, T) is the
  tree's algebraic connectivity a (Caputo-Liggett-Richthammer, JAMS 2010),
  so the top two are [n-1, n-1-a] (adjacency) and [2(n-1), 2(n-1)-a]
  (Laplacian, the graph being bipartite); other sets use scipy's eigsh;
* qh: DFS Hamiltonicity, and for reports the level-(n-2) flag and the
  level-1 edge count from brute-force 2-factors.

Run as ``python3 oracles.py JOBS.json VERDICTS.json``: JOBS is a list of
{id, check, rc, stdout, stderr, file}; VERDICTS maps each failing id to a
reason.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from pathlib import Path

TOLERANCE = 1e-6


# -- permutations on 0..n-1 as image tuples -----------------------------------


def perm_from_cycles(cycles, n: int) -> tuple:
    table = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            table[a - 1] = b - 1
    return tuple(table)


def invert(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def connection_set(gens, n: int) -> set:
    perms = [perm_from_cycles([list(c)], n) for c in gens]
    return set(perms) | {invert(p) for p in perms}


def conjugation_stabilizer(gens, n: int) -> int:
    """|{sigma in S_n : sigma^-1 S sigma = S}| for S = T u T^-1, by brute force."""
    S = connection_set(gens, n)
    count = 0
    for sigma in itertools.permutations(range(n)):
        inv = invert(sigma)
        # sigma^-1 g sigma as a map: x -> sigma(g(sigma^-1(x)))
        if all(tuple(sigma[g[inv[x]]] for x in range(n)) in S for g in S):
            count += 1
    return count


def is_transposition_tree(gens) -> bool:
    return all(len(c) == 2 for c in gens)


def tree_algebraic_connectivity(gens, n: int) -> float:
    import numpy as np

    L = np.zeros((n, n))
    for a, b in gens:
        L[a - 1, b - 1] = L[b - 1, a - 1] = -1.0
        L[a - 1, a - 1] += 1.0
        L[b - 1, b - 1] += 1.0
    return float(np.linalg.eigvalsh(L)[1])


def cayley_top2(gens, n: int, matrix: str) -> list:
    """Top two eigenvalues of Cay(S_n, T u T^-1) by scipy's Lanczos solver."""
    import numpy as np
    from scipy.sparse import coo_matrix, diags
    from scipy.sparse.linalg import eigsh

    S = sorted(connection_set(gens, n))
    elements = [tuple(p) for p in itertools.permutations(range(n))]
    index = {p: i for i, p in enumerate(elements)}
    rows, cols = [], []
    for i, x in enumerate(elements):
        for s in S:
            rows.append(i)
            cols.append(index[tuple(s[v] for v in x)])
    size = len(elements)
    A = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(size, size)).tocsr()
    M = A if matrix == "adjacency" else diags(np.asarray(A.sum(axis=1)).ravel()) - A
    values = eigsh(M, k=2, which="LA", return_eigenvectors=False, tol=1e-12)
    return sorted((float(v) for v in values), reverse=True)


# -- graphs on 0..n-1 ----------------------------------------------------------


def hamiltonian(n: int, edges) -> bool:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    visited = [False] * n
    visited[0] = True

    def extend(v: int, count: int) -> bool:
        if count == n:
            return 0 in adj[v]
        for w in adj[v]:
            if not visited[w]:
                visited[w] = True
                if extend(w, count + 1):
                    return True
                visited[w] = False
        return False

    return n >= 3 and extend(0, 1)


def two_factor_edges(n: int, edges) -> set:
    """Edges lying in some spanning 2-regular subgraph, over all of them."""
    edges = sorted(edges)
    degree = [0] * n
    remaining = [0] * n
    for u, v in edges:
        remaining[u] += 1
        remaining[v] += 1
    chosen: list = []
    union: set = set()

    def place(i: int) -> None:
        if i == len(edges):
            if all(d == 2 for d in degree):
                union.update(chosen)
            return
        u, v = edges[i]
        remaining[u] -= 1
        remaining[v] -= 1
        if degree[u] < 2 and degree[v] < 2:
            degree[u] += 1
            degree[v] += 1
            chosen.append((u, v))
            place(i + 1)
            chosen.pop()
            degree[u] -= 1
            degree[v] -= 1
        if degree[u] + remaining[u] >= 2 and degree[v] + remaining[v] >= 2:
            place(i + 1)
        remaining[u] += 1
        remaining[v] += 1

    place(0)
    return union


# -- checks per job kind: each returns a reason string or None -------------------


def _fields(stdout: str) -> dict:
    return dict(m.groups() for m in re.finditer(r"(\w+)=(\S+)", stdout))


def check_construct(spec, stdout, path) -> str | None:
    parts = sorted((int(x) for x in spec["type"].split(",")), reverse=True)
    n = spec["n"]
    want = -(-(n - 1) // sum(p - 1 for p in parts))
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    header = dict(tok.split("=", 1) for tok in lines[0].split())
    if int(header["n"]) != n:
        return f"file degree {header['n']} != {n}"
    elements = lines[1:]
    if len(elements) != want or _fields(stdout).get("size") != str(want):
        return f"size {len(elements)} (printed {_fields(stdout).get('size')}) != ceil((n-1)/c) = {want}"
    if len(set(elements)) != len(elements):
        return "duplicate elements"
    for text in elements:
        cycles = [[int(x) for x in c.split()] for c in re.findall(r"\(([^()]*)\)", text)]
        points = [x for c in cycles for x in c]
        if len(points) != len(set(points)) or not all(1 <= x <= n for x in points):
            return f"element {text} is not a permutation of 1..{n}"
        if sorted((len(c) for c in cycles if len(c) > 1), reverse=True) != parts:
            return f"element {text} is not of cycle type {spec['type']}"
    return None


def check_verify(spec, stdout, _path) -> str | None:
    fields = _fields(stdout)
    n = spec["n"]
    if fields.get("degree") != str(n):
        return f"degree {fields.get('degree')} != {n}"
    if fields.get("order") != str(math.factorial(n)):
        return f"order {fields.get('order')} != {n}!"
    if fields.get("generates") != "symmetric":
        return f"generates={fields.get('generates')}, expected symmetric"
    return None


def check_prime(spec, stdout, _path) -> str | None:
    import sympy

    m = spec["m"]
    fields = _fields(stdout)
    try:
        p, phi = int(fields["p"]), int(fields["Phi"])
    except (KeyError, ValueError):
        return f"no p=/Phi= in output {stdout!r}"
    expected_phi = int(sympy.cyclotomic_poly(m, m))
    if phi != expected_phi:
        return f"Phi={phi} != Phi_{m}({m}) = {expected_phi}"
    if not (sympy.isprime(p) and p % m == 1 and expected_phi % p == 0):
        return f"p={p} is not a prime = 1 (mod {m}) dividing Phi_{m}({m})"
    return None


def check_cayley(spec, stdout, path) -> str | None:
    n = spec["n"]
    vertices = math.factorial(n)
    edges = vertices * len(connection_set(spec["gens"], n)) // 2
    want = f"vertices={vertices} edges={edges}"
    if stdout.strip() != want:
        return f"printed {stdout.strip()!r}, expected {want!r}"
    lines = Path(path).read_text().splitlines()
    if lines[0] != f"vertices={vertices}" or len(lines) - 1 != edges:
        return f"edge list has header {lines[0]!r} and {len(lines) - 1} edges"
    return None


def _aut_orders(spec) -> tuple:
    n, gens = spec["n"], spec["gens"]
    if is_transposition_tree(gens):
        # Aut(tree) acts faithfully on the transpositions, so the stabilizer
        # of the connection set is the tree's automorphism group
        edges = {frozenset(e) for e in gens}
        stab = sum(
            1
            for sigma in itertools.permutations(range(1, n + 1))
            if {frozenset(sigma[x - 1] for x in e) for e in edges} == edges
        )
    else:
        stab = conjugation_stabilizer(gens, n)
    return math.factorial(n) * stab, stab


def check_aut_set(spec, stdout, _path) -> str | None:
    graph_order, stab = _aut_orders(spec)
    fields = _fields(stdout)
    got = (fields.get("graph_aut_order"), fields.get("aut_snt_order"))
    if got != (str(graph_order), str(stab)):
        return f"graph_aut_order, aut_snt_order = {got}, expected ({graph_order}, {stab})"
    return None


def check_aut_graph(spec, stdout, _path) -> str | None:
    graph_order, _ = _aut_orders(spec)
    fields = _fields(stdout)
    if fields.get("vertices") != str(math.factorial(spec["n"])):
        return f"vertices={fields.get('vertices')}"
    if fields.get("aut_order") != str(graph_order):
        return f"aut_order={fields.get('aut_order')}, expected {graph_order}"
    return None


def check_spectrum(spec, stdout, _path) -> str | None:
    n, gens, matrix = spec["n"], spec["gens"], spec["matrix"]
    if is_transposition_tree(gens):
        a = tree_algebraic_connectivity(gens, n)
        top = (n - 1) if matrix == "adjacency" else 2 * (n - 1)
        want = [top, top - a]
    else:
        want = cayley_top2(gens, n, matrix)
    got = []
    for line in stdout.splitlines():
        cols = line.split(",")
        if len(cols) == 5 and cols[0] == matrix:
            got.extend([float(cols[2])] * int(cols[3]))
    if len(got) < 2 or any(abs(g - w) > TOLERANCE for g, w in zip(got, want)):
        return f"top two {got[:2]}, expected {want}"
    return None


def check_qh_ham(spec, stdout, _path) -> str | None:
    verdict = "hamiltonian" if hamiltonian(spec["n"], spec["edges"]) else "non-hamiltonian"
    want = f"{verdict} (matches oracle)"
    if stdout.strip() != want:
        return f"printed {stdout.strip()!r}, expected {want!r}"
    return None


def check_qh_report(spec, stdout, _path) -> str | None:
    n, edges, k = spec["n"], spec["edges"], spec["k"]
    rows = {}
    for line in stdout.splitlines()[1:]:
        level, count, flag = line.split(",")
        rows[int(level)] = (int(count), flag)
    if sorted(rows) != list(range(1, k + 1)):
        return f"report levels {sorted(rows)}, expected 1..{k}"
    level1 = len(two_factor_edges(n, edges))
    if rows[1][0] != level1:
        return f"level-1 count {rows[1][0]}, expected {level1}"
    if k >= n - 2:
        flag = "yes" if hamiltonian(n, edges) else "no"
        if rows[n - 2][1] != flag:
            return f"level-{n - 2} flag {rows[n - 2][1]}, expected {flag}"
    return None


CHECKS = {
    "construct": check_construct,
    "verify": check_verify,
    "prime": check_prime,
    "cayley": check_cayley,
    "aut_set": check_aut_set,
    "aut_graph": check_aut_graph,
    "spectrum": check_spectrum,
    "qh_ham": check_qh_ham,
    "qh_report": check_qh_report,
}


def verdicts(records: list) -> dict:
    """Map each failing job id to the reason it failed."""
    by_id = {r["id"]: r for r in records}
    failures = {}
    for record in records:
        spec = record["check"]
        problems = []
        if record["rc"] != 0:
            stderr = record["stderr"].strip()[-200:]
            problems.append(f"exit code {record['rc']}" + (f" ({stderr})" if stderr else ""))
        reference = spec.get("same_as")
        if reference and record["stdout"] != by_id[reference]["stdout"]:
            problems.append(f"stdout differs from {reference}")
        else:
            try:
                problems.append(CHECKS[spec["kind"]](spec, record["stdout"], record["file"]))
            except (KeyError, ValueError, IndexError, OSError) as exc:
                problems.append(f"unparsable output: {type(exc).__name__}: {exc}")
        problems = [p for p in problems if p]
        if problems:
            failures[record["id"]] = "; ".join(problems)
    return failures


if __name__ == "__main__":
    source, target = sys.argv[1:3]
    Path(target).write_text(json.dumps(verdicts(json.loads(Path(source).read_text()))))
