"""Cycle factors with forced edges via symmetric bipartite flow, the
quasi-hamiltonicity hierarchy, Hamiltonicity detection, and left coset
partitions.

The doubling network has nodes s, t, x_0..x_{m-1}, y_0..y_{m-1}; each graph
adjacency (i, j) contributes unit arcs x_i->y_j and x_j->y_i, and s feeds
every x (capacity 2) while every y drains into t (capacity 2).  A cycle
factor containing the forced edge set R exists iff a flow of value 2m exists
with all R arcs saturated.  The network is one residual table (arcs and
their reverses); a forced arc has zero residual both ways.  Augmentations
are applied in mirror pairs (swap the two sides and reverse the path), which
keeps flow(x_i->y_j) equal to flow(x_j->y_i) at every step; this symmetry is
what rules out doubled-edge components, and it is asserted after every
augmentation.  Edges are forced only on a flow of value 2m.  Forcing and
augmentation share one path search over the x and y nodes: the shortest
residual path, applied with its mirror when the mirror still has capacity,
else one exhaustive search for a path that cannot collide with its own
mirror (a "regular" path in Goldberg and Karzanov's skew-symmetric flow
theory), which settles the question.

The quasi-hamiltonicity hierarchy (Gutin and Yeo, JCTB 2000, carried over
to undirected graphs) is decided on one network per analyzer, witness first: every
Hamiltonian cycle a flow produces is verified and kept, and any QH_k(G, R)
whose R lies on a kept cycle is connected without further flows (the lemma
is in the ``QuasiHamiltonian`` docstring).  The speculative forcings of one
analyzer run under ``_QH_FORCING_BUDGET``.

Flow computation is single-threaded per instance; instances are independent
and the brute-force oracles deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceeded
from .graphs import SimpleGraph, connected_components
from .perms import Permutation

# Node budget of one exhaustive conflict-free path search (a DFS over simple
# residual paths, exponential in the worst case).  Searches on the test graphs
# enter at most 54 nodes (233 where a bare network augments a graph with a
# degree-1 vertex), on the benchmark's graphs at most 9.
_CONFLICT_FREE_NODE_BUDGET = 100_000

# Node budget of one coset partition search (exact-cover backtracking, one
# scan of the group per node).  Seeded random subsets of S_4 enter at most
# 553 nodes; 100,000 nodes take about 5 s on S_5, where random subsets of
# 4 or 5 elements already exceed it.
_COSET_NODE_BUDGET = 100_000

# Speculative forcings (one residual path search deciding one edge of QH_1)
# that one QuasiHamiltonian analyzer may make.  A forcing, with its share of
# the flows, costs 0.07-0.09 ms on the 20-vertex flower snark J_5 and 0.20-0.25
# ms on the 120-vertex S_5 path Cayley graph (2-core host), so the budget stops
# those two, which no witness decides, after 3-5 and 10-13 s CPU.  The test
# suite makes at most 43,054 forcings in one analyzer, a benchmark `qh` job 32.
_QH_FORCING_BUDGET = 50_000


def _normalize_edges(edges: Iterable[tuple]) -> frozenset:
    return frozenset((min(u, v), max(u, v)) for u, v in edges)


@dataclass(frozen=True)
class CycleFactor:
    """A spanning subgraph in which every vertex has degree exactly 2."""

    edges: frozenset

    @staticmethod
    def validate(edges: frozenset, graph: SimpleGraph) -> "CycleFactor":
        degree = [0] * graph.vertex_count
        edge_set = set(graph.edges)
        for u, v in edges:
            if (u, v) not in edge_set:
                raise ValueError(f"factor edge ({u},{v}) not in the graph")
            degree[u] += 1
            degree[v] += 1
        if any(d != 2 for d in degree):
            raise ValueError("factor is not 2-regular spanning")
        return CycleFactor(frozenset(edges))


class FlowNetwork:
    """The bipartite doubling of a graph with mirror-paired augmentation.

    Node encoding: x_i = i, y_j = m + j, s = 2m, t = 2m + 1.  All state is
    one residual table: ``res[a][b]`` is the residual capacity of arc a->b.
    A unit arc x_i->y_j carrying flow f has residual 1 - f and its reverse
    f; s->x_i and y_j->t start at 2 with reverses at 0.  Each row lists its
    arcs in search order: x_i its y's in adjacency order, then s; y_j its
    x's, then t; s every x; t every y.  A forced arc has zero residual in
    both directions, so no path can cancel it.  ``mirror`` swaps the sides
    (x_i <-> y_i, s <-> t), and the mirror of arc a->b is
    mirror[b]->mirror[a].  Every change journals the arc pair's two old
    residuals so speculative forcing can roll back.  Edges are forced only
    on a flow of value 2m; ``force_edge_pair`` and ``augment_pair`` both
    push flow through ``_augment``, the one mirror-pair path search, which
    walks the x and y nodes.
    """

    def __init__(self, graph: SimpleGraph):
        self.graph = graph
        m = self.m = graph.vertex_count
        s, t = self.s, self.t = 2 * m, 2 * m + 1
        adj = graph.adjacency
        self.res = (
            [{m + j: 1 for j in adj[i]} | {s: 0} for i in range(m)]  # x rows
            + [{i: 0 for i in adj[j]} | {t: 2} for j in range(m)]  # y rows
            + [{i: 2 for i in range(m)}, {m + j: 0 for j in range(m)}]
        )
        self.mirror = [*range(m, 2 * m), *range(m), t, s]
        self._journal: list = []
        self.mirror_checks = 0

    # -- journaled mutations ------------------------------------------------

    def _apply_path(self, path: list) -> None:
        """Push one unit along every arc of ``path``."""
        res, journal = self.res, self._journal
        for a, b in zip(path, path[1:]):
            journal.append((a, b, res[a][b], res[b][a]))
            res[a][b] -= 1
            res[b][a] += 1

    def _force(self, a: int, b: int) -> None:
        """Saturate the unit arc a->b and lock it."""
        res = self.res
        self._journal.append((a, b, res[a][b], res[b][a]))
        res[a][b] = res[b][a] = 0

    def checkpoint(self) -> int:
        return len(self._journal)

    def rollback(self, mark: int) -> None:
        res, journal = self.res, self._journal
        while len(journal) > mark:
            a, b, forward, backward = journal.pop()
            res[a][b] = forward
            res[b][a] = backward

    # -- residual structure ---------------------------------------------------

    def value(self) -> int:
        return 2 * self.m - sum(self.res[self.s].values())

    def _saturated(self, i: int, j: int) -> bool:
        """Whether both arcs of edge {i, j} carry flow."""
        return not self.res[i][self.m + j] and not self.res[j][self.m + i]

    def _residual_from(self, node: int) -> list:
        """Residual out-neighbours of ``node`` among the x and y nodes, in search order."""
        return [nb for nb, r in self.res[node].items() if r and nb < self.s]

    def _bfs(self, source: int, targets):
        """Shortest residual path from ``source`` to any node in ``targets``."""
        parent = {source: None}
        frontier = [source]
        while frontier:
            nxt = []
            for node in frontier:
                for nb in self._residual_from(node):
                    if nb in parent:
                        continue
                    parent[nb] = node
                    if nb in targets:
                        path = [nb]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return path
                    nxt.append(nb)
            frontier = nxt
        return None

    # -- conflict-free search -------------------------------------------------
    #
    # A path whose mirror is applied alongside it loads an arc and its
    # mirror arc equally: each crossing of either by the path is one use of
    # both.  So the pair may be crossed min(res[arc], res[mirror arc]) times
    # in total.  No arc is its own mirror, as the graph has no loops.

    def _conflict_free_path(self, source: int, targets):
        """Exhaustive DFS for a simple residual path whose mirror is jointly
        feasible with it; None when no such path exists.  Deterministic.

        Raises BudgetExceeded once the DFS has entered more than
        ``_CONFLICT_FREE_NODE_BUDGET`` nodes.
        """
        res, mirror = self.res, self.mirror
        crossed: dict = {}
        path = [source]
        on_path = {source}
        nodes = 0

        def descend(node: int):
            nonlocal nodes
            nodes += 1
            if nodes > _CONFLICT_FREE_NODE_BUDGET:
                raise BudgetExceeded(
                    f"conflict-free path search exceeded {_CONFLICT_FREE_NODE_BUDGET} nodes"
                )
            for nb in self._residual_from(node):
                if nb in on_path:
                    continue
                twin = (mirror[nb], mirror[node])
                pair = min((node, nb), twin)
                uses = crossed.get(pair, 0)
                if uses >= min(res[node][nb], res[twin[0]][twin[1]]):
                    continue
                crossed[pair] = uses + 1
                path.append(nb)
                on_path.add(nb)
                found = list(path) if nb in targets else descend(nb)
                if found is not None:
                    return found
                path.pop()
                on_path.discard(nb)
                crossed[pair] = uses
            return None

        return descend(source)

    def assert_mirror(self) -> None:
        """The symmetric-augmentation invariant, checked after every step.

        The x rows hold every flow: x_i->y_j against x_j->y_i, and x_i->s
        (the flow on s->x_i) against t->y_i (the flow on y_i->t).
        """
        self.mirror_checks += 1
        res, mirror = self.res, self.mirror
        for a in range(self.m):
            for b, r in res[a].items():
                if r != res[mirror[b]][mirror[a]]:
                    raise AssertionError(f"mirror invariant broken at arc ({a},{b})")

    # -- the one path search --------------------------------------------------

    def _apply_pair(self, path: list) -> bool:
        """Apply ``path`` and then its mirror (sides swapped, orientation
        reversed); False, with rollback, when the mirror lacks capacity."""
        mark = self.checkpoint()
        self._apply_path(path)
        res, mirror = self.res, self.mirror
        mirrored = [mirror[node] for node in reversed(path)]
        if all(res[a][b] for a, b in zip(mirrored, mirrored[1:])):
            self._apply_path(mirrored)
            self.assert_mirror()
            return True
        self.rollback(mark)
        return False

    def _augment(self, source: int, targets, head: tuple = (), tail: tuple = ()) -> bool:
        """Push one unit from ``source`` to ``targets`` together with its mirror.

        The shortest residual path goes first; when its mirror no longer
        has capacity, the exhaustive conflict-free search runs once and
        settles the question.  A source with no residual path at all cannot
        have a conflict-free one.  ``head`` and ``tail`` wrap the path (s
        and t for an augmentation).  ``source`` is on the other side from
        every target (y_j to {x_i}, or x_a to y's), so no path is empty.
        """
        path = self._bfs(source, targets)
        if path is None:
            return False
        if self._apply_pair([*head, *path, *tail]):
            return True
        path = self._conflict_free_path(source, targets)
        return path is not None and self._apply_pair([*head, *path, *tail])

    def force_edge_pair(self, i: int, j: int) -> bool:
        """Force flow through both arcs of the undirected edge {i, j} on a
        flow of value 2m, mirror-pairing the repair paths; False (with
        rollback) if impossible, ValueError on a flow below value 2m.

        Both arcs are locked first; then one repair path from y_j back to
        x_i restores the balance of the first arc, and its mirror that of
        the second.  Every s->x and y->t arc is saturated, so the repair
        stays off s and t and keeps the value.  While the edge is not
        saturated neither arc carries flow (mirror invariant), so locking
        the partner arc x_j->y_i only keeps the repair and its mirror off it.
        """
        if self.value() < 2 * self.m:
            raise ValueError("edges are forced only on a flow of value 2m")
        x_i, y_j, x_j, y_i = i, self.m + j, j, self.m + i
        saturated = self._saturated(i, j)
        mark = self.checkpoint()
        self._force(x_i, y_j)
        self._force(x_j, y_i)
        if saturated or self._augment(y_j, {x_i}):
            return True
        self.rollback(mark)
        return False

    def augment_pair(self) -> bool:
        """One symmetric augmentation (value +2); False when none was found.

        Each x_a that s still feeds, in order, searches for a y that still
        drains into t (y_a itself only while x_a carries no flow).
        """
        s, t, m, res = self.s, self.t, self.m, self.res
        for a in range(m):
            if not res[s][a]:
                continue
            allow_self = not res[a][s]  # x_a carries no flow yet
            targets = {m + b for b in range(m) if res[m + b][t] and (b != a or allow_self)}
            if targets and self._augment(a, targets, (s,), (t,)):
                return True
        return False

    def run_to_max(self) -> int:
        while self.value() < 2 * self.m:
            if not self.augment_pair():
                break
        return self.value()

    def saturated_edges(self) -> frozenset:
        return frozenset(e for e in self.graph.edges if self._saturated(*e))

    def edge_usable(self, i: int, j: int) -> Optional[frozenset]:
        """The saturated edges of a symmetric flow of value 2m that also
        saturates edge {i, j}, or None when no such flow exists; decided by
        speculatively forcing the pair and rolling back."""
        mark = self.checkpoint()
        factor = self.saturated_edges() if self.force_edge_pair(i, j) else None
        self.rollback(mark)
        return factor


def _check_forced(graph: SimpleGraph, R: frozenset) -> None:
    edge_set = set(graph.edges)
    for e in sorted(R):
        if e not in edge_set:
            raise ValueError(f"forced edge {e} is not an edge of the graph")


def _max_flow(graph: SimpleGraph) -> Optional[FlowNetwork]:
    """A network carrying a symmetric flow of value 2m, or None when the
    graph has no cycle factor.  A vertex with fewer than two neighbours lies
    on no cycle, so no network is built for it.
    """
    if any(len(nbrs) < 2 for nbrs in graph.adjacency):
        return None
    net = FlowNetwork(graph)
    return net if net.run_to_max() == 2 * net.m else None


def cycle_factor_forced(graph: SimpleGraph, forced: Iterable[tuple]) -> Optional[CycleFactor]:
    """A cycle factor containing every edge of ``forced``, or None.

    Thm-6 style: push mirror-paired augmentations to a flow of 2m, then
    force flow through both mirror arcs of every forced edge in sorted
    order, each repair keeping the value; the saturated symmetric arcs are
    the factor.  Raises ValueError for a forced pair that is not an edge.
    """
    R = _normalize_edges(forced)
    _check_forced(graph, R)
    net = _max_flow(graph)
    if net is None or not all(net.force_edge_pair(i, j) for i, j in sorted(R)):
        return None
    factor = net.saturated_edges()
    if not R <= factor:
        raise AssertionError("forced edges missing from the computed factor")
    return CycleFactor.validate(factor, graph)


# -- brute-force oracles ------------------------------------------------------

_BRUTE_VERTEX_GUARD = 12


def brute_cycle_factor(graph: SimpleGraph, forced: Iterable[tuple]) -> Optional[CycleFactor]:
    """Exhaustive 2-regular spanning subgraph search (independent oracle)."""
    if graph.vertex_count > _BRUTE_VERTEX_GUARD:
        raise ValueError(f"oracle guarded to {_BRUTE_VERTEX_GUARD} vertices")
    R = _normalize_edges(forced)
    _check_forced(graph, R)
    n = graph.vertex_count
    adj = graph.adjacency
    chosen: set = set()

    def descend(v: int) -> Optional[frozenset]:
        if v == n:
            return frozenset(chosen)
        have = sum(1 for w in adj[v] if (min(v, w), max(v, w)) in chosen and w < v)
        must = [w for w in adj[v] if w > v and (v, w) in R]
        candidates = [w for w in adj[v] if w > v]
        need = 2 - have
        if need < len(must) or need > len(candidates):
            return None
        for combo in itertools.combinations(candidates, need):
            if not set(must) <= set(combo):
                continue
            # partner vertices must keep room for degree 2
            if any(sum(1 for u in adj[w] if (min(u, w), max(u, w)) in chosen) >= 2 for w in combo):
                continue
            added = [(v, w) for w in combo]
            chosen.update(added)
            result = descend(v + 1)
            if result is not None:
                return result
            chosen.difference_update(added)
        return None

    solution = descend(0)
    if solution is None:
        return None
    return CycleFactor.validate(solution, graph)


def brute_hamiltonian(graph: SimpleGraph) -> bool:
    """Backtracking Hamiltonian-cycle search (independent oracle)."""
    n = graph.vertex_count
    if n > _BRUTE_VERTEX_GUARD:
        raise ValueError(f"oracle guarded to {_BRUTE_VERTEX_GUARD} vertices")
    if n < 3:
        return False
    if not graph.is_connected():
        return False
    adj = graph.adjacency
    start = 0
    visited = [False] * n
    visited[start] = True

    def descend(v: int, count: int) -> bool:
        if count == n:
            return start in adj[v]
        for w in adj[v]:
            if not visited[w]:
                visited[w] = True
                if descend(w, count + 1):
                    return True
                visited[w] = False
        return False

    return descend(start, 1)


# -- the quasi-hamiltonicity hierarchy ----------------------------------------


class QuasiHamiltonian:
    """Memoized evaluation of the recursive edge sets QH_k(G, R).

    QH_1(G, R) holds the edges that extend R inside some cycle factor; for
    k > 1, QH_k(G, R) holds the edges e of QH_1(G, R) for which
    QH_{k-1}(G, e u R) is connected.  "Connected" for an edge set means
    spanning and connected: the set touches every vertex and forms one
    component.

    Witnesses.  If a Hamiltonian cycle C contains R, then C lies inside
    QH_k(G, R) for every k >= 1, by induction on k: for each edge e of C,
    C is a cycle factor through R u {e}, so e is in QH_1(G, R), and C lies
    inside QH_{k-1}(G, R u {e}), which is therefore connected.  So
    QH_k(G, R) is connected as soon as a known Hamiltonian cycle contains
    R.  ``qh1`` keeps every factor its flows produce that is one spanning
    cycle, verified edge by edge against the graph, in ``witnesses`` (one
    set per analyzer, so duplicates collapse); ``qh_conn`` asks the
    witnesses before computing QH_1(G, R) and again right after it.

    Two memos: ``_qh1_cache`` holds QH_1(G, R) by R, and ``_conn_memo``
    holds the predicate "QH_k(G, R) is connected" by (k, R) (``qh_conn``,
    which is all the recursion and the Hamiltonicity decision ask).  Full
    edge sets (``qh_set``, which reports need) are built from the two and not
    stored: a report asks each (k, {}) once.  ``qh_conn`` walks the
    edges of QH_1(G, R) in sorted order and decides each one at level k-1;
    since the property is monotone in the edge set, it accepts as soon as
    the accepted edges are connected and rejects as soon as the accepted
    plus the undecided edges are not.  Every level sits inside QH_1 of the
    same R, so a disconnected QH_1 answers every deeper level at once.

    Flow and budget.  One network per analyzer holds a flow of value 2m;
    ``qh1`` forces R on it and always rolls it back.  Each speculative
    forcing in ``qh1`` (one residual path search deciding one edge) counts
    against ``_QH_FORCING_BUDGET`` for the whole analyzer; past it,
    BudgetExceeded is raised.
    """

    def __init__(self, graph: SimpleGraph):
        self.graph = graph
        self._net = _max_flow(graph)
        self.witnesses: set = set()
        self.forcings = 0
        self._qh1_cache: dict = {}
        self._conn_memo: dict = {}

    def _spanning_connected(self, edges) -> bool:
        # one component over all the vertices is already spanning
        return bool(edges) and len(connected_components(self.graph.vertex_count, edges)) == 1

    def _keep(self, factor: frozenset) -> frozenset:
        """Keep the cycle factor ``factor`` as a witness when it is one
        spanning cycle; returns it.  A cycle factor spans the graph and is
        2-regular, so it is one cycle exactly when it has one component."""
        if factor not in self.witnesses and self._spanning_connected(factor):
            self.witnesses.add(CycleFactor.validate(factor, self.graph).edges)
        return factor

    def _witnessed(self, R: frozenset) -> bool:
        return any(R <= cycle for cycle in self.witnesses)

    def qh1(self, R: frozenset) -> frozenset:
        """QH_1(G, R) in one pass: every edge of a factor found so far is
        usable, and each other edge is forced speculatively; a successful
        forcing leaves a factor through R and the edge, all of it usable."""
        if R in self._qh1_cache:
            return self._qh1_cache[R]
        _check_forced(self.graph, R)
        net = self._net
        usable: set = set()
        if net is not None:
            mark = net.checkpoint()
            try:
                if all(net.force_edge_pair(i, j) for i, j in sorted(R)):
                    usable |= self._keep(net.saturated_edges())
                    for e in self.graph.edges:
                        if e in usable:
                            continue
                        self.forcings += 1
                        if self.forcings > _QH_FORCING_BUDGET:
                            raise BudgetExceeded(
                                f"quasi-hamiltonicity hierarchy exceeded {_QH_FORCING_BUDGET} forcings"
                            )
                        factor = net.edge_usable(*e)
                        if factor is not None:
                            usable |= self._keep(factor)
            finally:
                net.rollback(mark)
        result = self._qh1_cache[R] = frozenset(usable)
        return result

    def qh_conn(self, R: frozenset, k: int) -> bool:
        """Whether QH_k(G, R) is spanning and connected; ``R`` normalized."""
        key = (k, R)
        if key not in self._conn_memo:
            self._conn_memo[key] = self._witnessed(R) or self._decide(R, k)
        return self._conn_memo[key]

    def _decide(self, R: frozenset, k: int) -> bool:
        """``qh_conn`` for an R that no witness contained before QH_1(G, R)."""
        edges = sorted(self.qh1(R))
        if self._witnessed(R):
            return True
        if not self._spanning_connected(edges):
            return False
        if k == 1:
            return True
        accepted: list = []
        for index, e in enumerate(edges):
            if self.qh_conn(R | {e}, k - 1):
                accepted.append(e)
                if self._spanning_connected(accepted):
                    return True
            elif not self._spanning_connected(accepted + edges[index + 1:]):
                return False
        return False

    def qh_set(self, R: Iterable[tuple], k: int) -> frozenset:
        if k < 1:
            raise ValueError("k must be >= 1")
        R = _normalize_edges(R)
        base = self.qh1(R)
        if k == 1:
            return base
        if not self._spanning_connected(base):
            # deeper sets live inside base, so none can be spanning-connected
            return frozenset()
        return frozenset(e for e in base if self.qh_conn(R | {e}, k - 1))

    def is_k_quasi_hamiltonian(self, k: int) -> bool:
        if k < 1:
            raise ValueError("k must be >= 1")
        return self.qh_conn(frozenset(), k)


def hamiltonian_via_qh(graph: SimpleGraph) -> bool:
    """Hamiltonicity decided through (n-2)-quasi-hamiltonicity."""
    n = graph.vertex_count
    if n < 3:
        raise ValueError("hamiltonicity via the hierarchy needs n >= 3")
    if not graph.is_connected():
        return False
    return QuasiHamiltonian(graph).is_k_quasi_hamiltonian(n - 2)


def qh_report(graph: SimpleGraph, k_max: int) -> list:
    """Rows (k, |QH_k(G, {})|, spanning-connected?) for k = 1..k_max."""
    analyzer = QuasiHamiltonian(graph)
    rows = []
    for k in range(1, k_max + 1):
        edges = analyzer.qh_set(frozenset(), k)
        rows.append((k, len(edges), analyzer._spanning_connected(edges)))
    return rows


# -- left coset partitions -----------------------------------------------------


def coset_partition(group_elements: Sequence[Permutation], subset: Sequence[Permutation]):
    """A set S with the translates sT (s in S) exactly tiling the group, or None.

    Exact-cover backtracking over left translates; an immediate None when |T|
    does not divide the group size.  The returned witness is verified.
    Raises BudgetExceeded once the search has entered more than
    ``_COSET_NODE_BUDGET`` nodes.
    """
    if not subset:
        raise ValueError("the translated subset must be nonempty")
    elements = list(group_elements)
    index = {g: i for i, g in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate group elements")
    size = len(elements)
    t_size = len(set(subset))
    if t_size != len(subset):
        raise ValueError("duplicate elements in the subset")
    if size % t_size != 0:
        return None

    translate_cache: dict = {}

    def translate(s: Permutation) -> Optional[int]:
        if s in translate_cache:
            return translate_cache[s]
        mask = 0
        for t in subset:
            product = s * t
            pos = index.get(product)
            if pos is None:
                translate_cache[s] = None
                return None
            mask |= 1 << pos
        if mask.bit_count() != t_size:
            mask = None
        translate_cache[s] = mask
        return mask

    full = (1 << size) - 1
    witness: list = []
    nodes = 0

    def cover(done: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > _COSET_NODE_BUDGET:
            raise BudgetExceeded(f"coset partition search exceeded {_COSET_NODE_BUDGET} nodes")
        if done == full:
            return True
        pivot = (done ^ full) & -(done ^ full)
        for s in elements:
            mask = translate(s)
            if mask is None or not mask & pivot or mask & done:
                continue
            witness.append(s)
            if cover(done | mask):
                return True
            witness.pop()
        return False

    if not cover(0):
        return None
    covered: set = set()
    for s in witness:
        block = {s * t for t in subset}
        if covered & block:
            raise AssertionError("witness translates overlap")
        covered |= block
    if covered != set(elements):
        raise AssertionError("witness translates do not tile the group")
    return sorted(witness)
