"""Seeded inputs and job lists for the benchmark's three workloads.

A workload is a fixed list of short CLI job pipelines.  ``build`` writes the
input files a seed generates and returns the jobs in the order one pass runs
them.  cayleykit sees only these files and the command lines; nothing here
imports it.  Each job carries an oracle spec that ``oracles.py`` checks
without cayleykit.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("gensets", "cayley", "qh")

# -- gensets ------------------------------------------------------------------

# (cycle type, degrees).  Degrees whose canonical-labelling `verify` takes
# over 1 s here are left out on cost, as the k=5 basic tree is: (4) at
# 29, 31, 34 and 38-40, (6) at 36, (2,2,2) at 29-37 and 40 (up to 6.7 s each).
# Kept fallback cases (the pump stalls and the Schreier check runs):
# (4)@22 and 30, (6)@17-21, (2,2,2)@22.
GENSET_FAMILIES = (
    ("4", [n for n in range(7, 38) if n not in (29, 31, 34)]),
    ("6", [n for n in range(11, 41) if n != 36]),
    ("2,2,2", list(range(22, 29)) + [38, 39]),
    ("2,3", list(range(16, 41))),
    ("2,3,3", list(range(36, 46))),
    ("2,4,4", list(range(50, 56))),
)
# A relabelled copy costs 0.01 s or, when the relabelling makes the pump
# stall, up to 7 s at 40 points.  Up to 16 points the stall costs at most
# about 0.15 s, so the seed moves a pass by a few percent, not by half.
RELABEL_MAX_DEGREE = 16
BALANCE_DEGREE = 22
# prime --m 19 and 31 stop on the factoring effort bound (exit 1); they are
# known defects, run by `run.py --defects` instead of the timed list.
PRIME_RANGE = [m for m in range(2, 44) if m not in (19, 31)]

# -- cayley -------------------------------------------------------------------

# Transposition trees as point-edge lists on 1..n.
TREES = {
    "path3": (3, [(1, 2), (2, 3)]),
    "path4": (4, [(1, 2), (2, 3), (3, 4)]),
    "star4": (4, [(1, 2), (1, 3), (1, 4)]),
    "path5": (5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
    "star5": (5, [(1, 2), (1, 3), (1, 4), (1, 5)]),
    "fork5": (5, [(1, 2), (2, 3), (3, 4), (3, 5)]),
    "path6": (6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
    "star6": (6, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)]),
    "caterpillar6": (6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
    "path7": (7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]),
    "star7": (7, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)]),
}
# The k=4 cycle pair {(1 2 3 4), (4 5 6 7)}: the one set of non-involutions.
CYCLE_PAIR = (7, [(1, 2, 3, 4), (4, 5, 6, 7)])

# -- qh -----------------------------------------------------------------------

# (vertices, edges, graphs drawn).  Flow cost grows steeply with the edge
# count and differs twofold between graphs of one (n, m), so the graphs are
# drawn once, stratified by (n, m), from a fixed corpus seed (c12's); a run's
# seed relabels their vertices, which moves a job's time by under 10%.
# Seven-vertex graphs stop at 14 edges (16 edges cost 1.4 s, 20 edges 4 s)
# and eight-vertex random graphs are left out (one took 71 s).  The four
# (6, 12) graphs put the 90th percentile of job times inside their cluster.
QH_CORPUS_SEED = 1212
QH_STRATA = (
    [(5, m, 4) for m in range(5, 11)]
    + [(6, m, 2) for m in range(6, 12)]
    + [(6, 12, 4)]
    + [(6, m, 1) for m in range(13, 16)]
    + [(7, m, 1) for m in range(7, 15)]
)
QH_REPORT_MAX_VERTICES = 6


@dataclass
class Job:
    """One CLI invocation: ``argv`` for ``cayleykit.cli.main``.

    ``sub`` groups jobs into the per-subcommand times; ``check`` is the
    oracle spec; ``out`` is an output file hashed into the digest and handed
    to the oracle; ``prepare`` is untimed glue run just before the job.
    """

    id: str
    sub: str
    argv: list
    check: dict
    out: Optional[str] = None
    prepare: Optional[Callable[[], None]] = field(default=None, repr=False)


def build(workload: str, seed: int, workdir: Path) -> list:
    """Write the seed's input files under ``workdir``; return one pass of jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    builders = {"gensets": _gensets, "cayley": _cayley, "qh": _qh}
    return builders[workload](random.Random(f"{workload}:{seed}"), workdir)


def defects(workdir: Path) -> list:
    """The jobs that fail at the commit the benchmark was written against."""
    workdir.mkdir(parents=True, exist_ok=True)
    pair = workdir / "pair7.set"
    _write_set(pair, CYCLE_PAIR[0], "4", CYCLE_PAIR[1])
    jobs = [
        Job(f"gensets/prime/{m}", "prime", ["prime", "--m", str(m)], {"kind": "prime", "m": m})
        for m in (19, 31)
    ]
    jobs.append(Job("cayley/aut-set/pair7", "aut",
                    ["aut", "--set", str(pair), "--budget", "6000"],
                    {"kind": "aut_set", "n": 7, "gens": CYCLE_PAIR[1]}))
    return jobs


# -- gensets ------------------------------------------------------------------


_POINT = re.compile(r"\d+")


def _relabel_text(text: str, rng: random.Random) -> str:
    """A generator-set file under a random point relabelling, lines shuffled."""
    header, *body = [line for line in text.splitlines() if line.strip()]
    n = int(header.split()[0].split("=", 1)[1])
    images = list(range(1, n + 1))
    rng.shuffle(images)
    body = [_POINT.sub(lambda mo: str(images[int(mo.group()) - 1]), line) for line in body]
    rng.shuffle(body)
    return "\n".join([header] + body) + "\n"


def _gensets(rng: random.Random, workdir: Path) -> list:
    jobs = []
    for ctype, degrees in GENSET_FAMILIES:
        for n in degrees:
            tag = f"{ctype}@{n}"
            path = workdir / f"set-{ctype.replace(',', '_')}-{n}.txt"
            jobs.append(Job(f"gensets/construct/{tag}", "construct",
                            ["construct", "--type", ctype, "--n", str(n), "--out", str(path)],
                            {"kind": "construct", "type": ctype, "n": n}, out=str(path)))
            verify_id = f"gensets/verify/{tag}"
            jobs.append(Job(verify_id, "verify", ["verify", str(path)],
                            {"kind": "verify", "n": n}))
            if n <= RELABEL_MAX_DEGREE:
                copy = path.with_name(path.stem + "-relabelled.txt")
                # one relabelling per seed, reused by every pass
                jobs.append(Job(f"gensets/verify-relabelled/{tag}", "verify", ["verify", str(copy)],
                                {"kind": "verify", "n": n, "same_as": verify_id},
                                prepare=_relabeller(path, copy, rng.getrandbits(64))))
            if n == BALANCE_DEGREE:
                jobs.append(Job(f"gensets/verify-balance/{tag}", "verify",
                                ["verify", "--balance", str(path)],
                                {"kind": "verify", "n": n}))
    for m in PRIME_RANGE:
        jobs.append(Job(f"gensets/prime/{m}", "prime", ["prime", "--m", str(m)],
                        {"kind": "prime", "m": m}))
    return jobs


def _relabeller(source: Path, target: Path, seed: int) -> Callable[[], None]:
    def prepare() -> None:
        target.write_text(_relabel_text(source.read_text(), random.Random(seed)))
    return prepare


# -- cayley -------------------------------------------------------------------


def _write_set(path: Path, n: int, ctype: str, cycles: list) -> None:
    lines = [f"n={n} type={ctype}"]
    lines.extend("(" + " ".join(str(x) for x in cycle) + ")" for cycle in cycles)
    path.write_text("\n".join(lines) + "\n")


def _relabel_cycles(rng: random.Random, n: int, cycles: list) -> list:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    out = [tuple(images[x - 1] for x in cycle) for cycle in cycles]
    rng.shuffle(out)
    return out


def _cayley(rng: random.Random, workdir: Path) -> list:
    jobs = []

    def instance(name: str, n: int, ctype: str, cycles: list,
                 aut_set: bool = False, aut_graph: bool = False, spectra: tuple = ()) -> None:
        cycles = _relabel_cycles(rng, n, cycles)
        spec = {"n": n, "gens": cycles}
        set_path = workdir / f"{name}.set"
        graph_path = workdir / f"{name}.el"
        _write_set(set_path, n, ctype, cycles)
        jobs.append(Job(f"cayley/cayley/{name}", "cayley",
                        ["cayley", "--set", str(set_path), "--out", str(graph_path)],
                        dict(spec, kind="cayley"), out=str(graph_path)))
        if aut_set:
            jobs.append(Job(f"cayley/aut-set/{name}", "aut", ["aut", "--set", str(set_path)],
                            dict(spec, kind="aut_set")))
        if aut_graph:
            jobs.append(Job(f"cayley/aut-graph/{name}", "aut", ["aut", "--graph", str(graph_path)],
                            dict(spec, kind="aut_graph")))
        for kind in spectra:
            jobs.append(Job(f"cayley/spectrum-{kind}/{name}", "spectrum",
                            ["spectrum", "--graph", str(graph_path), "--kind", kind],
                            dict(spec, kind="spectrum", matrix=kind)))

    def trees(shape: str, copies: int, aut_graph: int = 0, spectra: int = 0) -> None:
        """``copies`` seeded labellings; the first few also get graph-side jobs."""
        n, edges = TREES[shape]
        for i in range(copies):
            instance(f"{shape}{'abcdefghijkl'[i]}", n, "2", edges, aut_set=n <= 5,
                     aut_graph=i < aut_graph,
                     spectra=("adjacency", "laplacian") if i < spectra else ())

    # 6, 24 and 120 vertices: many short jobs, so a pass has over 100 and the
    # 90th percentile has ten beyond it.  Job times come in clusters, one
    # per (shape, subcommand); a percentile that falls between two clusters
    # jumps with small shifts.  The copy counts put the median in the middle
    # of the twenty path4 `aut --set` and star4 `aut --graph` jobs, and the
    # 90th percentile in the middle of the thirteen star5 `aut` jobs, with
    # at least five jobs of each cluster on either side of it; the sixteen
    # 24-vertex spectra sit between the two.  They take the dense Jacobi side
    # of the solver switch; 120-vertex spectra (2.3 s each) are left out on
    # cost.
    trees("path3", 4, aut_graph=4)
    for shape in ("path4", "star4"):
        trees(shape, 10, aut_graph=10, spectra=4)
    for shape, copies in (("path5", 4), ("star5", 12), ("fork5", 4)):
        trees(shape, copies, aut_graph=1)
    # 720 vertices: one graph automorphism search (1.2 s)
    trees("path6", 1, aut_graph=1)
    trees("star6", 1)
    trees("caterpillar6", 1)
    # 5040 vertices: the iterative side of the solver switch
    for shape, kind in (("path7", "adjacency"), ("star7", "laplacian")):
        n, edges = TREES[shape]
        instance(shape, n, "2", edges, spectra=(kind,))
    n, cycles = CYCLE_PAIR
    instance("pair7", n, "4", cycles, spectra=("adjacency", "laplacian"))
    return jobs


# -- qh -----------------------------------------------------------------------


def _connected(n: int, edges: list) -> bool:
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _random_graph(rng: random.Random, n: int, m: int) -> list:
    """G(n, p) with p uniform in [0.3, 0.9], redrawn until connected with m edges."""
    while True:
        p = rng.uniform(0.3, 0.9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if len(edges) == m and _connected(n, edges):
            return edges


def _write_graph(path: Path, n: int, edges: list) -> None:
    lines = [f"vertices={n}"] + [f"{u} {v}" for u, v in sorted(edges)]
    path.write_text("\n".join(lines) + "\n")


def _cycle(n: int) -> list:
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def _petersen() -> list:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return [(min(u, v), max(u, v)) for u, v in outer + spokes + inner]


def _qh(rng: random.Random, workdir: Path) -> list:
    jobs = []

    def graph(name: str, n: int, edges: list, report_k: int, decide: bool = True) -> None:
        images = list(range(n))
        rng.shuffle(images)
        edges = sorted((min(images[u], images[v]), max(images[u], images[v])) for u, v in edges)
        path = workdir / f"{name}.el"
        _write_graph(path, n, edges)
        spec = {"n": n, "edges": edges}
        if decide:
            jobs.append(Job(f"qh/ham/{name}", "qh_ham",
                            ["qh", "--graph", str(path), "--check-hamiltonian"],
                            dict(spec, kind="qh_ham")))
        if report_k:
            jobs.append(Job(f"qh/report/{name}", "qh_report",
                            ["qh", "--graph", str(path), "--k", str(report_k)],
                            dict(spec, kind="qh_report", k=report_k)))

    corpus = random.Random(QH_CORPUS_SEED)
    for n, m, count in QH_STRATA:
        for i in range(count):
            report_k = n - 2 if n <= QH_REPORT_MAX_VERTICES else 0
            graph(f"g{n}m{m}{'abcd'[i]}", n, _random_graph(corpus, n, m), report_k)
    for n in range(5, 9):
        graph(f"cycle{n}", n, _cycle(n), n - 2)
    graph("k33", 6, [(i, j) for i in range(3) for j in range(3, 6)], 4)
    # The Petersen decision (3 s) is left out: as one job it was 40% of a
    # pass, so its swings with the machine's speed set the pass time.  Its
    # report stops at level 2.
    graph("petersen", 10, _petersen(), 2, decide=False)
    return jobs
