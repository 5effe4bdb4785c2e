import hashlib
import itertools
import random

import pytest

from cayleykit.cayley import (
    build_cayley,
    commutator_cycle,
    commuting_4cycle,
    count_4cycles_through,
    cycle_graph_of,
    is_normal,
    walk_in_graph,
)
from cayleykit.errors import CapExceeded
from cayleykit.gensets import GeneratorSet, construct_cycle_pair, is_split
from cayleykit.graphs import SimpleGraph, connected_components, export_dot, export_edge_list
from cayleykit.groups import enumerate_elements
from cayleykit.perms import CycleType, Permutation


def P(text, n):
    return Permutation.from_text(text, n)


def make_set(texts, n, parts):
    return GeneratorSet(n, [P(t, n) for t in texts], CycleType(parts))


PATH5 = make_set(["(1 2)", "(2 3)", "(3 4)", "(4 5)"], 5, [2])


def label_multiplicity(graph, u):
    """Labels on the edges at u: one per involution, two per other generator."""
    return sum(len(graph.edge_labels[(min(u, v), max(u, v))]) for v in graph.adjacency[u])


def same_element_criterion(graph, x, y, z):
    """True iff edges xy and yz carry equal 4-cycle counts.

    For tree-with-sparse-leaves sets this matches whether the two edges
    represent the same group element.
    """
    return count_4cycles_through(graph, (x, y)) == count_4cycles_through(graph, (y, z))


def random_cycle_set(rng):
    """A set of k-cycles on up to 10 points.  A third are cycles on random
    points.  The rest grow tree-like, each cycle meeting the points so far
    in one point, and may add a stray cycle on the points used; half of
    them stop short of the last points and always add one, so that a cycle
    graph with n - 1 edges is often disconnected."""
    k = rng.randint(2, 4)
    n = rng.randint(k + 1, 10)
    points = rng.sample(range(1, n + 1), n)
    mode = rng.randrange(3)
    if mode == 0:
        cycles = [rng.sample(points, k) for _ in range(rng.randint(1, 5))]
    else:
        used, fresh, cycles = points[:1], points[1:], []
        while len(fresh) >= (k - 1) * mode and len(cycles) < 5:
            cycles.append([rng.choice(used)] + fresh[: k - 1])
            used, fresh = used + fresh[: k - 1], fresh[k - 1 :]
        if len(used) >= k and (mode == 2 or rng.random() < 0.5):
            cycles.append(rng.sample(used, k))
    elements = sorted({Permutation.from_cycles([c], n) for c in cycles})
    return GeneratorSet(n, elements, CycleType([k]))


def rotated_path_graph(T, rng):
    """Oracle: the cycle graph with each cycle written from a random point."""
    edges = []
    for g in T.elements:
        cycle = g.cycles()[0]
        r = rng.randrange(len(cycle))
        writing = cycle[r:] + cycle[:r]
        edges += [(a - 1, b - 1) for a, b in zip(writing, writing[1:])]
    return SimpleGraph(T.degree, edges)


def random_connection_set(rng):
    """Elements of one cycle type among 2, 3, 4, 2+2 and 3+2 on 3 to 6
    points; each element is joined by its inverse with probability 0.3."""
    n = rng.randint(3, 6)
    parts = rng.choice([t for t in ((2,), (3,), (4,), (2, 2), (3, 2)) if sum(t) <= n])
    elements = []
    for _ in range(rng.randint(1, 3)):
        points = rng.sample(range(1, n + 1), sum(parts))
        cycles = [points[sum(parts[:i]):sum(parts[:i + 1])] for i in range(len(parts))]
        g = Permutation.from_cycles(cycles, n)
        elements.append(g)
        if rng.random() < 0.3:
            elements.append(g.inverse())
    return GeneratorSet(n, list(dict.fromkeys(elements)), CycleType(list(parts)))


def reference_cayley(T):
    """Oracle from the definition: vertices in breadth-first order of right
    multiplication by T from the identity; for every vertex x and every s in
    T u T^-1 the edge {x, s*x}, labelled from its smaller end a by every
    "i+" with t_i*a = b and "i-" with t_i^-1*a = b (t_i not an involution)."""
    order = [Permutation.identity(T.degree)]
    index = {order[0]: 0}
    for x in order:
        for t in T.elements:
            y = x * t
            if y not in index:
                index[y] = len(order)
                order.append(y)
    moves = []
    for i, t in enumerate(T.elements):
        moves.append((t, f"{i}+"))
        if t.inverse() != t:
            moves.append((t.inverse(), f"{i}-"))
    labels = {}
    for x in order:
        for s, _ in moves:
            a, b = sorted((index[x], index[s * x]))
            if a != b:
                labels[(a, b)] = tuple(
                    label for s2, label in moves if s2 * order[a] == order[b]
                )
    return order, SimpleGraph(len(order), labels.keys(), labels)


class TestBuildCayley:
    def test_s3_pair_is_a_six_cycle(self):
        g = build_cayley(make_set(["(1 2)", "(2 3)"], 3, [2]))
        assert g.vertex_count == 6
        assert len(g.edges) == 6
        assert all(len(g.adjacency[v]) == 2 for v in range(6))
        # isomorphic to the 6-cycle: connected 2-regular on six vertices

    def test_single_edge(self):
        g = build_cayley(make_set(["(1 2)"], 2, [2]))
        assert g.vertex_count == 2 and len(g.edges) == 1
        assert label_multiplicity(g, 0) == 1

    def test_non_involution_labels(self):
        # a 3-cycle and its inverse: every edge carries one label of each
        # generator, read from the smaller endpoint, in generator-index order
        g = build_cayley(make_set(["(1 2 3)", "(1 3 2)"], 3, [3]))
        assert export_edge_list(g) == "vertices=3\n0 1 0+,1-\n0 2 0-,1+\n1 2 0+,1-\n"
        assert [label_multiplicity(g, v) for v in range(3)] == [4, 4, 4]

    def test_labels_keep_numeric_generator_order(self):
        # generator 10 is the inverse of generator 2, so their labels share
        # edges; "2+" must precede "10-" although it sorts after it as text
        texts = ["(1 2 3)", "(1 2 4)", "(1 2 5)", "(1 3 4)", "(1 3 5)", "(1 4 5)",
                 "(2 3 4)", "(2 3 5)", "(2 4 5)", "(3 4 5)", "(1 5 2)"]
        g = build_cayley(make_set(texts, 5, [3]))
        assert g.edge_labels[(0, g.vertex_of(P("(1 2 5)", 5)))] == ("2+", "10-")

    def test_cycle_pair_graph_shape(self):
        g = build_cayley(construct_cycle_pair(4), cap=6000)
        assert g.vertex_count == 5040
        degrees = {len(g.adjacency[v]) for v in range(g.vertex_count)}
        assert degrees == {4}
        assert len(g.edges) == 5040 * 4 // 2

    def test_edge_rule_is_left_multiplication(self):
        g = build_cayley(PATH5)
        for u, x in enumerate(g.vertex_perm[:30]):
            for i, t in enumerate(PATH5.elements):
                v = g.vertex_of(t * x)
                assert v in g.adjacency[u]

    def test_right_multiplication_preserves_edges(self):
        g = build_cayley(make_set(["(1 2)", "(2 3)"], 3, [2]))
        rng = random.Random(8)
        elements = g.vertex_perm
        edge_set = {frozenset(e) for e in g.edges}
        for _ in range(50):
            h = rng.choice(elements)
            mapped = {
                frozenset((g.vertex_of(elements[u] * h), g.vertex_of(elements[v] * h)))
                for u, v in g.edges
            }
            assert mapped == edge_set

    def test_cap(self):
        with pytest.raises(CapExceeded):
            build_cayley(PATH5, cap=10)

    def test_vertex_order_matches_enumeration(self):
        g = build_cayley(PATH5)
        assert g.vertex_perm == enumerate_elements(PATH5.elements, 5, 1000)

    def test_matches_reference_builder_on_random_sets(self):
        rng = random.Random(2026)
        seen = set()
        for _ in range(220):
            T = random_connection_set(rng)
            order, reference = reference_cayley(T)
            g = build_cayley(T)
            assert g.vertex_perm == order
            assert export_edge_list(g) == export_edge_list(reference), T.to_text()
            inverses = [t.inverse() for t in T.elements]
            seen.add(T.cycle_type.parts)
            if any(t != s for t, s in zip(T.elements, inverses)):
                seen.add("non-involution")
            if any(s in T.elements and s != t for t, s in zip(T.elements, inverses)):
                seen.add("t and t^-1")
        assert seen >= {(2,), (3,), (4,), (2, 2), (3, 2), "non-involution", "t and t^-1"}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# (set, SHA-256 of the edge list, of the vertex order as image lines, of the DOT text)
AT_SCALE = {
    "S7 path": ([f"({i} {i + 1})" for i in range(1, 7)], 7, [2], (
        "c9306171b3755e47800185a9d343b65ad08ceed712ef2bf553c144201ff194dc",
        "8feba36304b56962e095e675e2609f432a9d4f356488a05fc4eea363e6b2f64d",
        "6e99789d61855b429840a33284c78706b25dc46cd363d35e687d046252a8a96a")),
    "S7 star": ([f"(1 {i})" for i in range(2, 8)], 7, [2], (
        "98fce3bf418f7ee4d6d1e31346ea23bfa1224d89edff67efedd99a994127c7eb",
        "b992cddeb311477613ff45b17601ef910870b4f64c9bc55b3bf870dcd1ffc467",
        "05aaedf2aa638058aa0b2e64a26f517552504cb1c815f2b551e673b04292f6f2")),
    "S7 cycle pair": (["(1 2 3 4)", "(4 5 6 7)"], 7, [4], (
        "94e250cb2fa91d3f97487d95d98d8904c235637761b1575b76aac3604c2feccd",
        "168cf32adcc050dd446516bce5eed988c61444dca438f8241e3888d6ab9714ae",
        "5641ff8aa3f4ae007f2276133e6786d41d25826c0f3f2ab656413f017bf75301")),
    "S8 path": ([f"({i} {i + 1})" for i in range(1, 8)], 8, [2], (
        "e17cde948e51bb4d8420ee4ece379e2f4cd89c092e0dbf9705bdb7a24444b25f",
        "d282f8097984ac4fb6d79507bb7bce7e42b8e65b65b62db3c43f1b014e5f3073",
        "a33eb04fa545aa8e8d7db851b7c77ebb08a52e1b7028e40e1819fb46abe68def")),
}


@pytest.mark.parametrize("name", [
    "S7 path", "S7 star", "S7 cycle pair",
    pytest.param("S8 path", marks=pytest.mark.slow),
])
def test_exports_and_vertex_order_are_pinned_at_scale(name):
    """Byte identity beyond the reference builder's small corpus: the
    digests were taken from the builder that composed each generator with
    each vertex and re-sorted the edges in SimpleGraph."""
    texts, n, parts, (edge_list, order, dot) = AT_SCALE[name]
    g = build_cayley(make_set(texts, n, parts))
    assert _sha(export_edge_list(g)) == edge_list
    assert _sha("\n".join(" ".join(map(str, x.images)) for x in g.vertex_perm)) == order
    assert _sha(export_dot(g)) == dot


class TestCycleGraphAndNormality:
    def test_path_is_normal(self):
        ok, reasons = is_normal(PATH5)
        assert ok and not reasons

    def test_four_point_path_is_not(self):
        ok, reasons = is_normal(make_set(["(1 2)", "(2 3)", "(3 4)"], 4, [2]))
        assert not ok
        assert any("leaves" in r for r in reasons)

    def test_two_elements_are_never_normal(self):
        ok, reasons = is_normal(make_set(["(1 2)", "(2 3)"], 3, [2]))
        assert not ok
        assert any("|T| = 2" in r for r in reasons)

    def test_degrees_and_leaves(self):
        # the leaf clause against per-element degrees: an element's degree
        # is how many of its support points other elements also move, and
        # a leaf is an element of degree 1
        def leaf_reasons(T):
            sups = T.supports()
            degrees = [
                len(set().union(*(s & t for j, t in enumerate(sups) if j != i)))
                for i, s in enumerate(sups)
            ]
            leaves = [j for j, d in enumerate(degrees) if d == 1]
            touched = [sum(j != i and bool(s & sups[j]) for j in leaves) for i, s in enumerate(sups)]
            return [f"element {i} touches {t} leaves" for i, t in enumerate(touched) if t > 1]

        assert is_normal(PATH5) == (True, []) and leaf_reasons(PATH5) == []
        spider = make_set(["(1 2)", "(1 3)", "(1 4)", "(4 5)"], 5, [2])
        assert is_normal(spider) == (False, ["element 2 touches 3 leaves"])
        assert leaf_reasons(spider) == ["element 2 touches 3 leaves"]
        rng = random.Random(7)
        flagged = 0
        for _ in range(400):
            T = random_cycle_set(rng)
            if is_split(T):
                found = [r for r in is_normal(T)[1] if r.endswith(" leaves")]
                assert found == leaf_reasons(T), T.to_text()
                flagged += bool(found)
        assert flagged >= 50

    def test_cycle_graph_edges(self):
        graph = cycle_graph_of(make_set(["(1 2 3 4)", "(4 5 6 7)"], 7, [4]))
        assert graph.edges == (
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
        )
        assert graph.is_connected()

    def test_tree_test_matches_rotated_path_oracle(self):
        # the counting test against the cycle graph itself, each cycle
        # written from a random point
        rng = random.Random(2024)
        kinds = ("not split", "tree", "cyclic", "n - 1 edges, split up", "split up, other")
        seen = dict.fromkeys(kinds, 0)
        for _ in range(600):
            T = random_cycle_set(rng)
            ok, reasons = is_normal(T)
            assert ok == (not reasons)
            if not is_split(T):
                assert not ok and reasons[-1] == "set is not split"
                seen["not split"] += 1
                continue
            graph = rotated_path_graph(T, rng)
            one = len(connected_components(T.degree, graph.edges)) == 1
            full = len(graph.edges) == T.degree - 1
            assert ("cycle graph is not a tree" in reasons) == (not (one and full))
            seen[kinds[1 + 2 * (not one) + (not full)]] += 1
        assert min(seen.values()) >= 10, seen

    def test_multi_cycle_elements_rejected(self):
        T = make_set(["(1 2)(3 4)", "(4 5)(6 7)", "(7 8)(9 10)"], 10, [2, 2])
        with pytest.raises(ValueError):
            cycle_graph_of(T)
        with pytest.raises(ValueError):
            is_normal(T)

    def test_cycle_graph_with_a_cycle_is_not_normal(self):
        T = make_set(["(1 2)", "(2 3)", "(1 3)"], 3, [2])
        ok, reasons = is_normal(T)
        assert not ok
        assert any("tree" in r for r in reasons)


class TestFourCycleProbes:
    def test_girth_six_graph_has_none(self):
        g = build_cayley(make_set(["(1 2)", "(2 3)"], 3, [2]))
        for edge in g.edges:
            assert count_4cycles_through(g, edge) == 0

    def test_commuting_labels_share_a_4cycle(self):
        g = build_cayley(PATH5)
        t1, t2 = PATH5.elements[0], PATH5.elements[2]
        e_t1 = (0, g.vertex_of(t1))
        assert count_4cycles_through(g, e_t1) >= 1

    def test_exhaustive_commutation_iff(self):
        g = build_cayley(PATH5)
        for t1, t2 in itertools.permutations(PATH5.elements, 2):
            cycle = commuting_4cycle(g, t1, t2)
            commutes = t1 * t2 == t2 * t1
            assert (cycle is not None) == commutes
            if cycle is not None:
                e, v1, w, v2 = cycle
                assert e == 0
                assert v1 == g.vertex_of(t1)
                assert w == g.vertex_of(t1 * t2)
                assert v2 == g.vertex_of(t2)

    def test_equal_generators_have_no_path(self):
        g = build_cayley(PATH5)
        assert commuting_4cycle(g, PATH5.elements[0], PATH5.elements[0]) is None

    def test_same_label_forces_equal_counts(self):
        # same labels always give equal counts; the converse direction is
        # checked separately because it genuinely fails on symmetric trees
        g = build_cayley(PATH5)
        rng = random.Random(9)
        for _ in range(50):
            y = rng.randrange(g.vertex_count)
            x, z = rng.sample(g.adjacency[y], 2)
            lx = g.edge_labels[(min(x, y), max(x, y))]
            lz = g.edge_labels[(min(y, z), max(y, z))]
            if {label[:-1] for label in lx} == {label[:-1] for label in lz}:
                assert same_element_criterion(g, x, y, z)

    def test_equal_counts_do_not_pin_the_label_on_symmetric_trees(self):
        # the two leaf transpositions of the 5-point path each commute with
        # exactly two others, so their edges carry equal 4-cycle counts
        # while representing different elements: the count criterion is
        # necessary, not sufficient, on label-symmetric sets
        g = build_cayley(PATH5)
        t1, t4 = PATH5.elements[0], PATH5.elements[3]
        x = g.vertex_of(t1)
        z = g.vertex_of(t4)
        assert same_element_criterion(g, x, 0, z)
        assert count_4cycles_through(g, (0, x)) == count_4cycles_through(g, (0, z)) == 2


class TestCommutatorCycles:
    def test_split_four_cycles_close_in_twelve_steps(self):
        a = P("(1 2 3 4)", 7)
        b = P("(4 5 6 7)", 7)
        word = commutator_cycle(a, b)
        assert len(word) == 13
        assert word[-1].is_identity()
        assert len(set(word[:-1])) == 12
        g = build_cayley(construct_cycle_pair(4), cap=6000)
        walk = walk_in_graph(g, word)
        assert walk[0] == walk[-1] == 0

    def test_transpositions_close_in_six(self):
        word = commutator_cycle(P("(1 2)", 3), P("(2 3)", 3))
        assert len(word) == 7
        assert word[-1].is_identity()
        assert len(set(word[:-1])) == 6

    def test_commuting_input_rejected(self):
        with pytest.raises(ValueError):
            commutator_cycle(P("(1 2)", 4), P("(3 4)", 4))

    def test_star_word_counterexample_closes(self):
        # four 4-cycles through a common point: the long mixed word
        # a b c d c b~ a~ b c~ d~ c~ b~ also evaluates to the identity
        n = 13
        a, b, c, d = (
            P("(1 2 3 4)", n),
            P("(1 5 6 7)", n),
            P("(1 8 9 10)", n),
            P("(1 11 12 13)", n),
        )
        letters = [a, b, c, d, c, b.inverse(), a.inverse(),
                   b, c.inverse(), d.inverse(), c.inverse(), b.inverse()]
        product = Permutation.identity(n)
        for letter in letters:
            product = product * letter
        assert product.is_identity()

    def test_commutator_of_adjacent_split_cycles_is_a_3cycle(self):
        rng = random.Random(10)
        for _ in range(30):
            k = rng.choice((3, 4, 5))
            n = 2 * k - 1
            points = list(range(1, n + 1))
            rng.shuffle(points)
            shared = points[0]
            a = Permutation.from_cycles([[shared] + points[1:k]], n)
            b = Permutation.from_cycles([[shared] + points[k:]], n)
            word = commutator_cycle(a, b)
            assert len(word) == 13 and word[-1].is_identity()
