"""Graph automorphism groups at desk scale, the conjugations stabilizing a
connection set T u T^-1, and the semidirect-product order identity report.

The graph search is individualization-refinement: vertices are colored by an
equitable refinement whose signatures mix neighbor colors with per-edge
4-cycle counts (cheap and highly discriminating on these graphs; on a
Cayley graph every edge takes the count of the identity edge that carries
its label tuple, so only the |T u T^-1| identity edges are counted).
Refinement is one array pass per round over a CSR (neighbour, 4-cycle
count) table built once per search: each round sorts every vertex's
encoded neighbour codes and ranks the vertex keys with one lexsort.  The
first path of individualized base points is refined once; the backtracking
search refines only target colorings, pruning candidate images by one
union-find per level over the base point's cell, joined along each
automorphism found there.  The returned order is the product of the
base-point orbit sizes, so no separate stabilizer chain over the vertex
set is needed.  Every automorphism the
search finds is verified edge-preserving before it is trusted.

The same search gives Aut(S_n, S), as the automorphisms of one colored
graph, for every cycle type, that act faithfully on its point vertices: no
chain is needed for the order.

The order identity is decided by counting, as ``verify_order_identity``
argues: when |Aut(S_n, S)| equals the product of the first path's cells
below level 0, the stabilizer of the identity vertex is the conjugation
group and nothing is searched; otherwise the search runs below level 0.

The search is single-threaded and deterministic; the generator list is
canonically sorted, so results do not depend on scheduling.  numpy is
imported inside the search methods that use it, so ``import cayleykit``
stays numpy-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetExceeded, CapExceeded
from .cayley import CayleyGraph, build_cayley, count_4cycles_through, cycle_graph_of, is_normal
from .gensets import GeneratorSet
from .graphs import SimpleGraph
from .groups import enumerate_elements
from .perms import Permutation

# Most conjugations ``aut_snt`` lists; a larger group is refused from its
# order, before any element is formed.
_CONJUGATION_LIST_CAP = 200_000

# Most ``_extend`` calls (search nodes) one ``_AutSearch.run`` makes before
# it raises BudgetExceeded.  K_{1,60} takes 70,210; the test suite and the
# benchmark's Cayley graphs take at most 385.
_SEARCH_NODE_BUDGET = 100_000


class GraphAutomorphism:
    """A vertex bijection verified to map the edge set onto itself."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Sequence[int], graph: SimpleGraph):
        m = self.mapping = tuple(mapping)
        if sorted(m) != list(range(graph.vertex_count)):
            raise AssertionError("mapping is not a bijection of the vertices")
        images = sorted((m[u], m[v]) if m[u] < m[v] else (m[v], m[u]) for u, v in graph.edges)
        if tuple(images) != graph.edges:
            raise AssertionError("mapping does not preserve adjacency")

    def __call__(self, v: int) -> int:
        return self.mapping[v]

    def __eq__(self, other) -> bool:
        return isinstance(other, GraphAutomorphism) and self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash(self.mapping)


class _AutSearch:
    """One individualization-refinement search, source side precomputed.

    The first path (McKay and Piperno 2014) is built once: ``path[0]`` is
    the refined unit coloring, ``base[i]`` the least vertex of the first
    non-singleton cell of ``path[i]`` by color order, and ``path[i + 1]``
    refines ``path[i]`` with ``base[i]`` individualized, until the coloring
    is discrete.  The search then refines target colorings only.  Colorings
    are int64 arrays throughout; ``colours`` (nonnegative ints, default
    unit) is the starting coloring, whose classes every map found keeps.
    """

    def __init__(self, graph: SimpleGraph, colours: Optional[Sequence[int]] = None):
        import numpy as np

        self.graph = graph
        n = self.n = graph.vertex_count
        adj = graph.adjacency
        # CSR neighbour table: entry i is the edge rows[i] -> nbrs[i] with
        # its 4-cycle count; rows ascend and each row's neighbours ascend.
        degrees = np.array([len(nbrs) for nbrs in adj], dtype=np.int64)
        self.rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        self.nbrs = np.array([w for nbrs in adj for w in nbrs], dtype=np.int64)
        self.edge_keys = self.rows * n + self.nbrs
        # the entries with rows < nbrs are the edges in edge order, so each
        # entry finds its edge number among their keys
        edge_of = np.searchsorted(
            self.edge_keys[self.rows < self.nbrs],
            np.minimum(self.rows, self.nbrs) * n + np.maximum(self.rows, self.nbrs),
        )
        self.counts = np.array(_edge_4cycle_counts(graph), dtype=np.int64)[edge_of]
        self.radix = int(self.counts.max(initial=0)) + 1
        # a row's entries fill the first degree slots of its padded key row
        self.width = int(degrees.max(initial=0))
        starts = np.cumsum(degrees) - degrees
        self.slots = self.rows * self.width + np.arange(len(self.rows)) - starts[self.rows]
        self.padding = np.arange(self.width) >= degrees[:, None]
        colors = self.refine(np.zeros(n, dtype=np.int64) if colours is None else colours)
        self.path, self.base = [colors], []
        while True:
            cells = np.flatnonzero(np.bincount(colors) > 1)
            if not cells.size:
                break
            self.base.append(int(np.argmax(colors == cells[0])))
            colors = self.refine(self._individualize(colors, self.base[-1]))
            self.path.append(colors)
        self.signatures = [np.sort(colors) for colors in self.path]

    def refine(self, colors: np.ndarray) -> np.ndarray:
        """Equitable refinement of nonnegative int colors; the result is
        dense ints, canonical by key order.

        A vertex's key is its own color followed by the sorted codes
        ``neighbour color * radix + 4-cycle count`` of its edges, padded
        with -1 so that a shorter key sorts first; keys are ranked in
        lexicographic order, one array pass per round.  The search keeps
        colors at most 2n, so the codes fit int64 on any graph that fits in
        memory.
        """
        import numpy as np

        colors = np.asarray(colors, dtype=np.int64)
        n, width = self.n, self.width
        keys = np.empty((width + 1, n), dtype=np.int64)  # primary key last
        while True:
            table = np.full(n * width, np.iinfo(np.int64).max)
            table[self.slots] = colors[self.nbrs] * self.radix + self.counts
            table = table.reshape(n, width)
            table.sort(axis=1)
            table[self.padding] = -1
            keys[:width] = table.T[::-1]
            keys[width] = colors
            order = np.lexsort(keys)
            ranked = keys[:, order]
            fresh = np.ones(n, dtype=bool)
            fresh[1:] = np.any(ranked[:, 1:] != ranked[:, :-1], axis=0)
            new_colors = np.empty(n, dtype=np.int64)
            new_colors[order] = np.cumsum(fresh) - 1
            if np.array_equal(new_colors, colors):
                return colors
            colors = new_colors

    def _individualize(self, colors: np.ndarray, v: int) -> np.ndarray:
        out = colors.copy()
        out[v] = self.n + colors.max() + 1
        return out

    def _extend(self, level: int, tgt: np.ndarray) -> Optional[tuple]:
        """An automorphism taking ``path[level]`` to the refined coloring
        ``tgt``, or None; ``tgt`` follows the path's cells down to a leaf."""
        import numpy as np

        self.nodes += 1
        if self.nodes > _SEARCH_NODE_BUDGET:
            raise BudgetExceeded(f"automorphism search exceeded {_SEARCH_NODE_BUDGET} nodes")
        if not np.array_equal(np.sort(tgt), self.signatures[level]):
            return None
        src = self.path[level]
        if level == len(self.base):
            # Both discrete: read the color-aligned bijection and verify
            # that it maps the edge set onto itself.
            inv_tgt = np.empty(self.n, dtype=np.int64)
            inv_tgt[tgt] = np.arange(self.n)
            mapping = inv_tgt[src]
            mapped = np.sort(mapping[self.rows] * self.n + mapping[self.nbrs])
            if not np.array_equal(mapped, self.edge_keys):
                return None
            return tuple(mapping.tolist())
        cell_color = src[self.base[level]]
        for u in np.flatnonzero(tgt == cell_color):
            found = self._extend(level + 1, self.refine(self._individualize(tgt, u)))
            if found is not None:
                return found
        return None

    def run(self, start: int = 0) -> tuple:
        """Returns (order, generator mappings) of the pointwise stabilizer
        of ``base[:start]``; the default is the whole automorphism group.

        Raises BudgetExceeded past ``_SEARCH_NODE_BUDGET`` search nodes."""
        import numpy as np

        self.nodes = 0
        gens: list = []
        order = 1
        for level, b in enumerate(self.base[start:], start):
            colors = self.path[level]
            cell = np.flatnonzero(colors == colors[b]).tolist()
            # One union-find over the cell, joined along each map found at
            # this level (each fixes the prefix and maps b into the cell).
            # The orbit count is exact because every cell vertex outside b's
            # class is tried; joining deeper levels' maps as well would try
            # fewer (ROADMAP direction 3).
            parent = {v: v for v in cell}
            for u in cell[1:]:
                if _find(parent, u) == _find(parent, b):
                    continue
                found = self._extend(
                    level + 1, self.refine(self._individualize(colors, u))
                )
                if found is not None:
                    gens.append(found)
                    for v in cell:
                        _union(parent, v, found[v])
            root = _find(parent, b)
            order *= sum(_find(parent, v) == root for v in cell)
        return order, gens


def _find(parent: dict, v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _union(parent: dict, u: int, v: int) -> None:
    parent[_find(parent, u)] = _find(parent, v)


def _edge_4cycle_counts(graph: SimpleGraph) -> list:
    """The number of 4-cycles through each edge, in edge order.

    On a Cayley graph every element s of S = T u T^-1 has the identity edge
    {e, s}, carrying s's label tuple, and right translation carries every
    other edge of s onto it.  So the |S| identity edges are counted and the
    rest read their count by label tuple.
    """
    if not isinstance(graph, CayleyGraph):
        return [count_4cycles_through(graph, e) for e in graph.edges]
    labels = graph.edge_labels
    by_labels = {labels[0, w]: count_4cycles_through(graph, (0, w)) for w in graph.adjacency[0]}
    return list(map(by_labels.__getitem__, map(labels.__getitem__, graph.edges)))


def graph_aut_order(graph: SimpleGraph, budget: int = 2000) -> tuple:
    """Exact |Aut(G)| with verified generating automorphisms.

    Raises BudgetExceeded when the vertex count is past ``budget``, or the
    search past ``_SEARCH_NODE_BUDGET`` nodes.
    """
    if graph.vertex_count > budget:
        raise BudgetExceeded(f"{graph.vertex_count} vertices exceeds budget {budget}")
    order, raw = _AutSearch(graph).run()
    gens = [GraphAutomorphism(m, graph) for m in sorted(raw)]
    return order, gens


# -- group-side automorphisms -------------------------------------------------


def aut_snt(T: GeneratorSet) -> list:
    """All conjugations of S_n, n = T.degree, preserving S = T u T^-1, sorted.

    S, not T, is what the Cayley graph sees; the two stabilizers agree when
    T consists of involutions.  Inner automorphisms only; this is the whole
    automorphism group of S_n for n != 6, and callers at n = 6 get the
    caveat flagged in reports.  A group of more than
    ``_CONJUGATION_LIST_CAP`` elements raises CapExceeded unlisted.
    """
    order, gens = _conjugations(T)
    if order > _CONJUGATION_LIST_CAP:
        raise CapExceeded(f"{order} conjugations exceed the list cap {_CONJUGATION_LIST_CAP}")
    return sorted(enumerate_elements(gens, T.degree, _CONJUGATION_LIST_CAP))


def _conjugations(T: GeneratorSet) -> tuple:
    """(|Aut(S_n, S)|, generators), each generator checked to map S onto S.

    The search runs on one graph for every cycle type, whose automorphisms,
    restricted to vertices 0..n-1 (the points), are these conjugations,
    acting faithfully.  Each s in S gets a vertex, and each point x that s
    moves an arc vertex joined to x, to s and to a head vertex joined to
    s(x), with colours points, elements, arcs, heads: the arc x -> s(x) of
    s goes to an arc sigma(x) -> sigma(s(x)) of the image of s, which is
    therefore sigma s sigma^-1.  The head keeps the arc directed; joining
    the arcs (x, s) and (s(x), s) directly lets an automorphism swap s with
    s^-1, or reverse one cycle of an element with several.
    """
    n = T.degree
    S = sorted(set(T.elements) | {g.inverse() for g in T.elements})
    colours, edges = [0] * n + [1] * len(S), []
    for vertex, s in enumerate(S, n):
        for x in sorted(s.support()):
            arc = len(colours)
            colours += [2, 3]
            edges += [(x - 1, arc), (vertex, arc), (arc, arc + 1), (arc + 1, s(x) - 1)]
    order, raw = _AutSearch(SimpleGraph(len(colours), edges), colours).run()
    gens = [Permutation._from_zero_based(m[:n]) for m in raw]
    if any(sorted(g.conjugate_by(sigma) for g in S) != S for sigma in gens):
        raise AssertionError("a conjugation-graph automorphism does not preserve S")
    return order, gens


# -- the order identity -------------------------------------------------------


@dataclass(frozen=True)
class AutReport:
    """Orders around Aut(Cay(S_n, T)) = R(S_n) x| Aut(S_n, T).

    The fields are what was measured; the rest is derived from them.
    ``identity_holds`` is the exact integer identity
    graph_aut_order == n_factorial * aut_snt_order, where aut_snt_order
    counts the conjugations preserving S = T u T^-1.  ``cyc_aut_order`` is the
    automorphism count of the point-level cycle graph, reported for
    comparison only.  ``normal`` records whether the hypothesis held, and
    ``n6_caveat`` flags that outer automorphisms were not searched at n = 6.
    """

    degree: int
    set_size: int
    normal: bool
    normal_reasons: tuple
    graph_aut_order: int
    aut_snt_order: int
    cyc_aut_order: Optional[int]

    @property
    def n_factorial(self) -> int:
        return math.factorial(self.degree)

    @property
    def identity_holds(self) -> bool:
        return self.graph_aut_order == self.n_factorial * self.aut_snt_order

    @property
    def n6_caveat(self) -> bool:
        return self.degree == 6

    def to_text(self) -> str:
        lines = [
            f"degree={self.degree}",
            f"set_size={self.set_size}",
            f"normal={'yes' if self.normal else 'no'}",
        ]
        for reason in self.normal_reasons:
            lines.append(f"normal_note={reason}")
        lines.extend(
            [
                f"graph_aut_order={self.graph_aut_order}",
                f"aut_snt_order={self.aut_snt_order}",
                f"n_factorial={self.n_factorial}",
                f"product={self.n_factorial * self.aut_snt_order}",
                f"identity_holds={'yes' if self.identity_holds else 'no'}",
                f"cyc_aut_order={self.cyc_aut_order if self.cyc_aut_order is not None else 'n/a'}",
            ]
        )
        if self.n6_caveat:
            lines.append("caveat=outer automorphisms of S_6 not searched")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        header = (
            "degree,set_size,normal,graph_aut_order,aut_snt_order,"
            "n_factorial,identity_holds,cyc_aut_order,n6_caveat"
        )
        row = ",".join(
            str(x)
            for x in (
                self.degree,
                self.set_size,
                int(self.normal),
                self.graph_aut_order,
                self.aut_snt_order,
                self.n_factorial,
                int(self.identity_holds),
                self.cyc_aut_order if self.cyc_aut_order is not None else "",
                int(self.n6_caveat),
            )
        )
        return header + "\n" + row + "\n"


def verify_order_identity(T: GeneratorSet, budget: int = 2000) -> AutReport:
    """Compute both sides of the semidirect order identity.

    Right side: n! (n = T.degree) times |C|, C the conjugations
    x -> sigma^-1 * x * sigma with sigma^-1 S sigma = S, S = T u T^-1
    (the group ``aut_snt`` lists).  Left side: |Aut(G)| = n! * |A_e| for
    G = Cay(S_n, T), since right translations are automorphisms and T
    generates (the refined level-0 cell must hold all n! vertices); A_e is
    the stabilizer of e.

    - Let e = b_0, ..., b_m be the first-path base; the last coloring is
      discrete, so only the identity fixes every b_L.  Each orbit of b_L
      under A_L, the pointwise stabilizer of b_0, ..., b_{L-1}, lies inside
      its refined cell, so |A_e| <= prod_{L>=1} |cell_L|.
    - C <= A_e acts faithfully for n >= 3 (S_n has trivial centre), so |C|
      is the product of its own orbit sizes along the same base, each at
      most the A_L-orbit.
    - A product equal to |C| therefore forces every orbit to fill its cell:
      |A_e| = |C| and nothing is searched.  Otherwise the search below
      level 0 gives |A_e|, exact where the identity fails (C_4, K_n) and at
      n = 6.  At n = 2 conjugation by (1 2) acts trivially: the product 1
      against |C| = 2 sends it to the search.

    |C| comes from ``_conjugations``, except for transpositions: there
    S = T, and sigma preserves a set of transpositions exactly when it is
    an automorphism of the graph whose edges they are, so |C| is the
    cycle-graph order already searched for ``cyc_aut_order``.

    Non-tree inputs still produce a report (the hypothesis status is
    recorded), since those data points bear on the conjecture that the
    identity holds anyway.  A set that does not generate S_n raises
    ValueError: the identity is stated for Cay(S_n, T).
    """
    graph = build_cayley(T, cap=max(budget, 1))
    n_factorial = math.factorial(T.degree)
    if graph.vertex_count != n_factorial:
        raise ValueError(
            f"<T> has order {graph.vertex_count}, not {T.degree}! = {n_factorial}; "
            "the order identity is stated for Cay(S_n, T)"
        )
    search = _AutSearch(graph)
    cells = [int((c == c[b]).sum()) for c, b in zip(search.path, search.base)]
    if cells and cells[0] != n_factorial:
        raise AssertionError("a Cayley graph refined to several cells")
    if all(len(g.cycles()) == 1 for g in T.elements):
        normal, reasons = is_normal(T)
        cyc_aut = graph_aut_order(cycle_graph_of(T), budget)[0]
    else:
        normal, reasons = False, ["elements are not single cycles"]
        cyc_aut = None
    conjugations = cyc_aut if T.cycle_type.parts == (2,) else _conjugations(T)[0]
    stabilizer = math.prod(cells[1:])
    if stabilizer != conjugations:
        stabilizer = search.run(start=1)[0]
    return AutReport(
        degree=T.degree,
        set_size=len(T),
        normal=normal,
        normal_reasons=tuple(reasons),
        graph_aut_order=n_factorial * stabilizer,
        aut_snt_order=conjugations,
        cyc_aut_order=cyc_aut,
    )
