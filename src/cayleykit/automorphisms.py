"""Graph automorphism groups at desk scale, the conjugations stabilizing a
connection set T u T^-1, and the semidirect-product order identity report.

The graph search is individualization-refinement: vertices are colored by an
equitable refinement whose signatures mix neighbor colors with per-edge
4-cycle counts (cheap and highly discriminating on these graphs; on a
Cayley graph every edge takes the count at the identity edge of its first
label's generator, so only |T| edges are counted).  Refinement is one array
pass per round over a CSR (neighbour, 4-cycle count) table built once per
search: each round sorts every vertex's encoded neighbour codes and ranks
the vertex keys with one lexsort.  The first path of individualized base
points is refined once; the backtracking search refines only target
colorings, pruning candidate images by one union-find per level over the
base point's cell, joined along each automorphism found there.  The
returned order is the product of the base-point orbit sizes, so no separate
stabilizer chain over the vertex set is needed.  Every automorphism the
search finds is verified edge-preserving before it is trusted.

The order identity seeds that search with what the group side proves:
right translations make level 0 one orbit, and the conjugations of
``aut_snt`` give each lower level a part of its base point's orbit.  A level
whose seeded orbit fills its refined cell is not searched; any other level
is searched as without seeds, so the order stays exact.  The seeds are
trusted, not re-verified as graph maps: they rest on the edge rule and on
``aut_snt``'s exact sigma^-1 S sigma = S check.

The search is single-threaded and deterministic; the generator list is
canonically sorted, so results do not depend on scheduling.  numpy is
imported inside the search methods that use it, so ``import cayleykit``
stays numpy-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetExceeded
from .cayley import CayleyGraph, build_cayley, count_4cycles_through, cycle_graph_of, is_normal
from .gensets import GeneratorSet
from .graphs import SimpleGraph
from .perms import Permutation, compose_maps, invert_map

# Node budget of one conjugation search.  It enters at most one node per
# partial injection, e * 8! (about 109,600) for n <= 8; the star on 9 points
# already needs 109,610 and the star on 10 points 986,420.
_CONJUGATION_NODE_BUDGET = 200_000


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
    are int64 arrays throughout.
    """

    def __init__(self, graph: SimpleGraph):
        import numpy as np

        self.graph = graph
        n = self.n = graph.vertex_count
        adj = graph.adjacency
        count = _edge_4cycle_counts(graph)
        # CSR neighbour table: entry i is the edge rows[i] -> nbrs[i] with
        # its 4-cycle count; rows ascend and each row's neighbours ascend.
        degrees = np.array([len(nbrs) for nbrs in adj], dtype=np.int64)
        self.rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        self.nbrs = np.array([w for nbrs in adj for w in nbrs], dtype=np.int64)
        self.counts = np.array(
            [count[min(u, w), max(u, w)] for u, nbrs in enumerate(adj) for w in nbrs],
            dtype=np.int64,
        )
        self.radix = int(self.counts.max(initial=0)) + 1
        # a row's entries fill the first degree slots of its padded key row
        self.width = int(degrees.max(initial=0))
        starts = np.cumsum(degrees) - degrees
        self.slots = self.rows * self.width + np.arange(len(self.rows)) - starts[self.rows]
        self.padding = np.arange(self.width) >= degrees[:, None]
        self.edge_keys = self.rows * n + self.nbrs
        colors = self.refine(np.zeros(n, dtype=np.int64))
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

    def run(self, conjugations: Optional[list] = None) -> tuple:
        """Returns (order, generator mappings).

        ``conjugations``, the list ``aut_snt(T)`` of a Cayley graph of S_n,
        seeds the search as ``verify_order_identity`` describes; the
        generators are then only those the search found.
        """
        import numpy as np

        gens: list = []
        order = 1
        if conjugations is not None:
            # row i: the images of the base points under conjugation i; the
            # rows kept fix the base prefix of the current level
            rows = [_conjugation_images(self.graph, s, self.base) for s in conjugations]
        for level, b in enumerate(self.base):
            colors = self.path[level]
            cell = np.flatnonzero(colors == colors[b]).tolist()
            orbit = {b}
            if conjugations is not None:
                if level == 0:
                    # right translations by T are automorphisms, and T generates
                    if len(cell) != self.n:
                        raise AssertionError("a Cayley graph refined to several cells")
                    orbit = set(cell)
                else:
                    orbit = {row[level] for row in rows}
                rows = [row for row in rows if row[level] == b]
                if len(orbit) == len(cell):
                    order *= len(cell)
                    continue
            # Only automorphisms found at this level fix the whole prefix and
            # preserve ``cell`` (deeper ones fix b too and cannot enlarge its
            # orbit), so one union-find over the cell, joined along each
            # map found here and along the seeded orbit, holds the orbit of b.
            parent = {v: v for v in cell}
            for v in orbit:
                _union(parent, b, v)
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


def _edge_4cycle_counts(graph: SimpleGraph) -> dict:
    """The number of 4-cycles through each edge.

    On a Cayley graph, right translation by x^-1 is an automorphism taking
    an edge {x, t * x} to the identity edge {e, t}, so each edge takes the
    count at the identity edge of its first label's generator: |T| counts
    instead of |E|.
    """
    if not isinstance(graph, CayleyGraph):
        return {e: count_4cycles_through(graph, e) for e in graph.edges}
    per_generator = [
        count_4cycles_through(graph, (0, graph.vertex_of(t)))
        for t in graph.generating_set.elements
    ]
    return {
        e: per_generator[int(labels[0][:-1])] for e, labels in graph.edge_labels.items()
    }


def _conjugation_images(graph: CayleyGraph, sigma: Permutation, vertices) -> list:
    """The images of ``vertices`` under x -> sigma^-1 * x * sigma, point by
    point: a graph automorphism fixing the identity whenever sigma maps
    T u T^-1 onto itself."""
    inverse, table = invert_map(sigma._map), sigma._map
    return [
        graph._index[compose_maps(compose_maps(inverse, graph.vertex_perm[v]._map), table)]
        for v in vertices
    ]


def graph_aut_order(graph: SimpleGraph, budget: int = 2000) -> tuple:
    """Exact |Aut(G)| with verified generating automorphisms.

    Raises BudgetExceeded when the vertex count is past ``budget``.
    """
    if graph.vertex_count > budget:
        raise BudgetExceeded(f"{graph.vertex_count} vertices exceeds budget {budget}")
    order, raw = _AutSearch(graph).run()
    gens = [GraphAutomorphism(m, graph) for m in sorted(raw)]
    return order, gens


# -- group-side automorphisms -------------------------------------------------


def aut_snt(T: GeneratorSet) -> list:
    """All conjugations of S_n, n = T.degree, preserving S = T u T^-1.

    S, not T, is what the Cayley graph sees; the two stabilizers agree when
    T consists of involutions.  Inner automorphisms only; this is the whole
    automorphism group of S_n for n != 6, and callers at n = 6 get the
    caveat flagged in reports.  One pruned backtracking search serves every
    n; it raises BudgetExceeded past ``_CONJUGATION_NODE_BUDGET`` nodes.
    """
    target = set(T.elements) | {g.inverse() for g in T.elements}
    return sorted(_conjugation_search(list(target), T.degree))


def _conjugation_search(elements: list, n: int) -> list:
    """Backtracking over point images; a partial map must send every element's
    partial relabeling into the support structure of some target element."""
    point_pairs = {}
    for g in elements:
        for x in range(1, n + 1):
            point_pairs.setdefault(x, set()).add(g(x))

    results = []
    images = [0] * (n + 1)
    used = set()
    nodes = 0

    def feasible(x: int) -> bool:
        # every mapped arrow x -> g(x) must appear as an arrow of the image set
        for g in elements:
            y = g(x)
            if images[y]:
                if images[x] not in point_pairs or images[y] not in point_pairs[images[x]]:
                    return False
        return True

    def descend(x: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > _CONJUGATION_NODE_BUDGET:
            raise BudgetExceeded(
                f"conjugation search exceeded {_CONJUGATION_NODE_BUDGET} nodes"
            )
        if x > n:
            sigma = Permutation(images[1:])
            if {g.conjugate_by(sigma) for g in elements} == set(elements):
                results.append(sigma)
            return
        for y in range(1, n + 1):
            if y in used:
                continue
            images[x] = y
            used.add(y)
            if feasible(x):
                descend(x + 1)
            used.discard(y)
            images[x] = 0

    descend(1)
    return results


# -- representation helpers ---------------------------------------------------


def right_representation(graph: CayleyGraph, g: Permutation) -> GraphAutomorphism:
    """The vertex map x -> x * g; verified edge-preserving on construction."""
    mapping = [graph.vertex_of(x * g) for x in graph.vertex_perm]
    return GraphAutomorphism(mapping, graph)


def translate_automorphism(graph: CayleyGraph, phi: GraphAutomorphism,
                           y: Permutation) -> GraphAutomorphism:
    """The translate phi_y(x) = phi(x*y) * phi(y)^-1; fixes the identity vertex.

    Under the package's left-quotient edge rule, x ~ t*x implies
    phi_y(t*x) * phi_y(x)^-1 = phi(t*(x*y)) * phi(x*y)^-1, which lies in
    T union T^-1 because phi preserves edges; a verification failure here
    would mean the orientation convention broke, so it raises rather than
    returning silently.
    """
    tail = graph.vertex_perm[phi(graph.vertex_of(y))].inverse()
    mapping = [
        graph.vertex_of(graph.vertex_perm[phi(graph.vertex_of(x * y))] * tail)
        for x in graph.vertex_perm
    ]
    result = GraphAutomorphism(mapping, graph)
    if result(0) != 0:
        raise AssertionError("translated automorphism failed to fix the identity")
    return result


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

    Right side: n! (n = T.degree) times the number of conjugations
    preserving T u T^-1 (``aut_snt``).  Left side: the graph automorphism
    order by the partition-refinement search, seeded with what the group
    side already proves.  Right translations make level 0 one orbit, and
    each conjugation sigma gives the automorphism x -> sigma^-1 * x * sigma
    fixing the identity, whose base-point images seed the lower levels.  A
    seeded orbit is a lower bound on the true orbit and the refined cell an
    upper bound: a level is skipped only when the two meet, and is searched
    as in ``graph_aut_order`` otherwise, so the order stays exact where the
    identity fails (C_4, K_n) and at n = 6.  The conjugations are trusted,
    not re-verified as graph maps: they rest on ``aut_snt``'s exact
    sigma^-1 S sigma = S check.

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
    stabilizing = aut_snt(T)
    aut_order, _ = _AutSearch(graph).run(stabilizing)
    if all(len(g.cycles()) == 1 for g in T.elements):
        normal, reasons = is_normal(T)
        cyc_aut = graph_aut_order(cycle_graph_of(T), budget)[0]
    else:
        normal, reasons = False, ["elements are not single cycles"]
        cyc_aut = None
    return AutReport(
        degree=T.degree,
        set_size=len(T),
        normal=normal,
        normal_reasons=tuple(reasons),
        graph_aut_order=aut_order,
        aut_snt_order=len(stabilizing),
        cyc_aut_order=cyc_aut,
    )
