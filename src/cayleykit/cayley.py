"""Cayley graphs of generating sets, the point-level cycle graph, and the
local cycle-structure probes used to pin down automorphisms.

Edge convention, fixed package-wide: vertices x and y are adjacent iff
y * x^-1 lies in T union T^-1, i.e. y = t * x with the generator applied
first (left multiplication in the left-to-right word order).  Under this
rule right translation x -> x * g is a graph automorphism, which the
automorphism module relies on.

A CayleyGraph is a labeled SimpleGraph that also keeps the group element of
each vertex.  Graph construction is single-threaded and deterministic:
vertices are the BFS closure order of the group engine, so indices are
reproducible.  Edges are read off one neighbour column per element of
S = T u T^-1, each column formed by one getter over all vertex tables, so
no product and no label is computed twice.  A finished graph is never
mutated.
"""

from __future__ import annotations

from itertools import compress, count
from operator import lt

from . import groups
from .graphs import SimpleGraph
from .gensets import GeneratorSet, is_split
from .perms import Permutation, composer, invert_map


class CayleyGraph(SimpleGraph):
    """Cay(<T>, T): a SimpleGraph plus the group data behind its vertices.

    ``vertex_perm[i]`` is the group element of vertex i (vertex 0 is the
    identity); ``vertex_of`` is the reverse lookup, through one index keyed
    by image table.  The label of edge (u, v), u < v, is read from u: "i+"
    when v = t_i * u and "i-" when v = t_i^-1 * u; an involution carries
    only "i+".  Labels of an edge are in generator-index order.

    Edges are found once per element s of S = T u T^-1.  One getter forms
    s * x for every vertex x, which gives the neighbour column of s; the
    edges of s are the pairs (u, s * u) with u < s * u, in ascending u.
    Distinct elements of S never join the same ordered pair, so the runs
    are disjoint, and SimpleGraph's one sort merges them.  When t_j is the
    inverse of t_i, one element of S carries two tags, such as "i+" and
    "j-"; all edges of an element share one label tuple.
    """

    def __init__(self, generating_set: GeneratorSet, cap: int = 1_000_000):
        if len(generating_set) == 0:
            raise ValueError("cannot build a Cayley graph on an empty generating set")
        self.generating_set = generating_set
        self.vertex_perm = groups.enumerate_elements(
            generating_set.elements, generating_set.degree, cap
        )
        index = self._index = {x._map: i for i, x in enumerate(self.vertex_perm)}

        tags: dict = {}  # image table of s in S -> its labels in generator order
        for i, t in enumerate(generating_set.elements):
            tags.setdefault(t._map, []).append(f"{i}+")
            inverse = invert_map(t._map)
            if inverse != t._map:
                tags.setdefault(inverse, []).append(f"{i}-")
        edges: list = []
        labels: dict = {}
        for s, names in tags.items():
            column = list(map(index.__getitem__, map(composer(s), index)))
            run = list(compress(zip(count(), column), map(lt, count(), column)))
            edges += run
            labels.update(dict.fromkeys(run, tuple(names)))
        super().__init__(len(index), edges, labels)

    def vertex_of(self, perm: Permutation) -> int:
        try:
            return self._index[perm._map]
        except KeyError:
            raise ValueError(f"{perm.to_text()} is not a vertex") from None

    def to_simple_graph(self) -> SimpleGraph:
        return self


def build_cayley(generating_set: GeneratorSet, cap: int = 1_000_000) -> CayleyGraph:
    """Cayley graph of <T> with x ~ y iff y * x^-1 in T union T^-1."""
    return CayleyGraph(generating_set, cap)


# -- the cycle graph on points ----------------------------------------------


def _single_cycles(generating_set: GeneratorSet) -> list:
    """Each element's one cycle, written from its smallest point."""
    cycles = [g.cycles() for g in generating_set.elements]
    if any(len(c) != 1 for c in cycles):
        raise ValueError("the cycle graph is defined for sets of single cycles")
    return [c[0] for c in cycles]


def cycle_graph_of(generating_set: GeneratorSet) -> SimpleGraph:
    """Graph on the points 1..n (as vertices 0..n-1) with the path edges of
    each generator cycle: (x1 x2 .. xk), written from its smallest point,
    contributes x1x2, .., x(k-1)xk."""
    edges = [
        (a - 1, b - 1)
        for cycle in _single_cycles(generating_set)
        for a, b in zip(cycle, cycle[1:])
    ]
    return SimpleGraph(generating_set.degree, edges)


def element_degrees(generating_set: GeneratorSet) -> list:
    """Per element: how many of its support points other elements also move."""
    sups = generating_set.supports()
    out = []
    for i, s in enumerate(sups):
        others = set()
        for j, t in enumerate(sups):
            if i != j:
                others |= s & t
        out.append(len(others))
    return out


def is_normal(generating_set: GeneratorSet) -> tuple:
    """Decide the tree-with-sparse-leaves condition; returns (bool, reasons).

    Requires: more than two single-cycle elements, a split set, a cycle
    graph that is a tree, and every element sharing support with at most
    one leaf (a leaf is an element of degree 1).

    The tree test counts.  Two supports of a split set share at most one
    point, so the cycle paths are edge-disjoint, and each path connects its
    own support whichever point its cycle is written from.  The cycle graph
    is therefore a tree exactly when the point orbits are one and the paths
    hold n - 1 edges in all.
    """
    reasons = []
    if len(generating_set) <= 2:
        reasons.append(f"|T| = {len(generating_set)} (need more than two cycles)")
    if not is_split(generating_set):
        reasons.append("set is not split")
        return False, reasons
    path_edges = sum(len(c) - 1 for c in _single_cycles(generating_set))
    n = generating_set.degree
    if not (path_edges == n - 1 and groups.orbits(generating_set.elements, n).is_single):
        reasons.append("cycle graph is not a tree")
    degrees = element_degrees(generating_set)
    leaves = {i for i, d in enumerate(degrees) if d == 1}
    sups = generating_set.supports()
    for i, s in enumerate(sups):
        adjacent_leaves = [
            j for j in leaves if j != i and s & sups[j]
        ]
        if len(adjacent_leaves) > 1:
            reasons.append(
                f"element {i} touches {len(adjacent_leaves)} leaves"
            )
    return (not reasons), reasons


# -- local cycle-structure probes ---------------------------------------------


def count_4cycles_through(graph: SimpleGraph, edge: tuple) -> int:
    """Number of 4-cycles through the undirected edge {x, y}."""
    x, y = edge
    adj = graph.adjacency
    if y not in adj[x]:
        raise ValueError(f"({x}, {y}) is not an edge")
    ny = set(adj[y])
    ny.discard(x)
    return sum(len(ny.intersection(adj[a])) for a in adj[x] if a != y)


def commuting_4cycle(graph: CayleyGraph, t1: Permutation, t2: Permutation):
    """The unique 4-cycle through the path t2 -> identity -> t1, if any.

    For split sets one exists iff t1 and t2 commute, and it is
    identity -> t1 -> t1*t2 -> t2 -> identity; this is verified against an
    exhaustive common-neighbor search.  For non-split sets the probe still
    runs but the iff is not asserted.
    """
    if t1 == t2:
        return None
    e = 0
    v1 = graph.vertex_of(t1)
    v2 = graph.vertex_of(t2)
    common = (set(graph.adjacency[v1]) & set(graph.adjacency[v2])) - {e}
    strict = is_split(graph.generating_set)
    if t1 * t2 == t2 * t1:
        w = graph.vertex_of(t1 * t2)
        if strict and common != {w}:
            raise AssertionError(
                "commuting generators must close a unique 4-cycle through the product"
            )
        return (e, v1, w, v2)
    if strict and common:
        raise AssertionError("non-commuting generators closed an unexpected 4-cycle")
    return None


def commutator_cycle(t1: Permutation, t2: Permutation) -> list:
    """Vertex word of the closed commutator walk at the identity.

    For transpositions the word is (t1 t2)^3 (six steps); otherwise it is
    (t1 t2 t1^-1 t2^-1)^3 (twelve steps).  Returns the partial products
    [e, w1, w1*w2, ...]; the last entry equals the identity and all the
    intermediate vertices are distinct, so the word traces a genuine cycle.
    """
    if t1 * t2 == t2 * t1:
        raise ValueError("commutator cycles need non-commuting generators")
    if t1.cycle_type().parts == (2,) and t2.cycle_type().parts == (2,):
        letters = [t1, t2] * 3
    else:
        letters = [t1, t2, t1.inverse(), t2.inverse()] * 3
    word = [Permutation.identity(t1.degree)]
    for letter in letters:
        word.append(word[-1] * letter)
    if not word[-1].is_identity():
        raise AssertionError("commutator word did not close at the identity")
    interior = word[:-1]
    if len(set(interior)) != len(interior):
        raise AssertionError("commutator word revisited a vertex")
    return word


def walk_in_graph(graph: CayleyGraph, word: list) -> list:
    """Map a closed vertex word to the literal walk in the graph.

    Under the left-quotient edge rule the inverse images of the partial
    products step by single generators, so that is the walk returned; it is
    verified edge by edge.
    """
    walk = [graph.vertex_of(p.inverse()) for p in word]
    for a, b in zip(walk, walk[1:]):
        if b not in graph.adjacency[a]:
            raise AssertionError("vertex word does not trace a walk in the graph")
    return walk
