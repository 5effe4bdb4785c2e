import itertools
import math
import random
import time

import numpy as np
import pytest

from cayleykit import automorphisms
from cayleykit.automorphisms import (
    GraphAutomorphism,
    _edge_4cycle_counts,
    aut_snt,
    graph_aut_order,
    verify_order_identity,
)
from cayleykit.cayley import CayleyGraph, build_cayley, count_4cycles_through
from cayleykit.cli import main
from cayleykit.errors import BudgetExceeded, CapExceeded
from cayleykit.gensets import GeneratorSet
from cayleykit.graphs import (
    SimpleGraph,
    complete_graph,
    connected_components,
    cycle_graph,
    export_edge_list,
    petersen_graph,
)
from cayleykit.perms import CycleType, Permutation
from cayleykit.spectral import spectrum_topk


def P(text, n):
    return Permutation.from_text(text, n)


def make_set(texts, n, parts):
    return GeneratorSet(n, [P(t, n) for t in texts], CycleType(parts))


PATH5 = make_set(["(1 2)", "(2 3)", "(3 4)", "(4 5)"], 5, [2])
STAR4 = make_set(["(1 2)", "(1 3)", "(1 4)"], 4, [2])


def brute_aut_order(graph):
    """Factorial-scan oracle for tiny graphs."""
    n = graph.vertex_count
    sets = [set(nbrs) for nbrs in graph.adjacency]
    count = 0
    for images in itertools.permutations(range(n)):
        if all({images[w] for w in graph.adjacency[u]} == sets[images[u]] for u in range(n)):
            count += 1
    return count


def brute_aut_snt(T, n):
    """Exhaustive-scan oracle: every sigma in S_n preserving T u T^-1.

    Conjugation is injective, so sigma^-1 S sigma lies in S exactly when it
    equals S; the scan stops at the first element that leaves S.
    """
    target = set(T.elements) | {g.inverse() for g in T.elements}
    found = []
    for images in itertools.permutations(range(1, n + 1)):
        sigma = Permutation(images)
        if all(g.conjugate_by(sigma) in target for g in target):
            found.append(sigma)
    return sorted(found)


def reference_conjugations(T):
    """The backtracking search that listed Aut(S_n, S) before the
    refinement search did: point images are chosen in order 1..n, and a
    partial map must send each arrow x -> g(x) of S, both ends mapped, to
    an arrow of S; each complete map is kept if it conjugates S onto S."""
    elements = list(set(T.elements) | {g.inverse() for g in T.elements})
    n = T.degree
    point_pairs = {}
    for g in elements:
        for x in range(1, n + 1):
            point_pairs.setdefault(x, set()).add(g(x))
    results = []
    images = [0] * (n + 1)
    used = set()

    def feasible(x):
        for g in elements:
            y = g(x)
            if images[y]:
                if images[x] not in point_pairs or images[y] not in point_pairs[images[x]]:
                    return False
        return True

    def descend(x):
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
    return sorted(results)


def right_representation(graph, g):
    """The vertex map x -> x * g; verified edge-preserving on construction."""
    mapping = [graph.vertex_of(x * g) for x in graph.vertex_perm]
    return GraphAutomorphism(mapping, graph)


def translate_automorphism(graph, phi, y):
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


def tree_set(n, pairs):
    return make_set([f"({a} {b})" for a, b in pairs], n, [2])


def reference_neighbours(graph):
    """Per vertex, its (neighbour, 4-cycles through the edge) pairs.

    A 4-cycle through the edge uv is a 3-walk u-a-b-v with a != v and
    b != u, so it is counted as (A^3)[u, v] - deg u - deg v + 1.
    """
    n = graph.vertex_count
    adjacency = np.zeros((n, n))
    for u, v in graph.edges:
        adjacency[u, v] = adjacency[v, u] = 1
    walks = adjacency @ adjacency @ adjacency  # exact: entries stay below 2**53
    degree = adjacency.sum(axis=1)
    nbrs = [[] for _ in range(n)]
    for u, v in graph.edges:
        count = int(walks[u, v] - degree[u] - degree[v] + 1)
        nbrs[u].append((v, count))
        nbrs[v].append((u, count))
    return nbrs


def reference_refine(nbrs, colors):
    """The tuple-sorting refinement the array pass replaced: each round keys
    every vertex by (own color, sorted (neighbour color, 4-cycle count)
    pairs) and recolors it by the dense rank of its key."""
    colors = list(colors)
    while True:
        keys = [
            (colors[v], tuple(sorted((colors[w], count) for w, count in row)))
            for v, row in enumerate(nbrs)
        ]
        ranking = {key: i for i, key in enumerate(sorted(set(keys)))}
        new_colors = [ranking[k] for k in keys]
        if new_colors == colors:
            return colors
        colors = new_colors


def random_graph(rng, lo, hi):
    n = rng.randint(lo, hi)
    p = rng.random()
    return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


# One vertex of degree 3 and two of degree 2 on a pendant vertex each: the
# unit coloring's first round sees keys that are strict prefixes of others.
PREFIX_GRAPH = SimpleGraph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)])


class TestRefinement:
    """``_AutSearch.refine`` against the tuple-sorting reference."""

    @staticmethod
    def _colorings(rng, search):
        n = search.n
        yield [0] * n
        for _ in range(2):
            yield [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        yield [rng.randrange(3 * n) for _ in range(n)]
        for level in (0, len(search.path) - 1):
            yield search._individualize(search.path[level], rng.randrange(n)).tolist()

    def test_matches_reference_on_random_graphs(self):
        rng = random.Random(1009)
        for _ in range(300):
            g = random_graph(rng, 1, 40)
            search = automorphisms._AutSearch(g)
            nbrs = reference_neighbours(g)
            for colors in self._colorings(rng, search):
                assert search.refine(colors).tolist() == reference_refine(nbrs, colors)

    @pytest.mark.parametrize(
        "graph",
        [
            lambda: build_cayley(tree_set(4, [(1, 2), (2, 3), (3, 4)])),
            lambda: build_cayley(PATH5),
            lambda: build_cayley(tree_set(6, [(i, i + 1) for i in range(1, 6)])),
            lambda: build_cayley(STAR4),
            lambda: build_cayley(tree_set(5, [(1, i) for i in range(2, 6)])),
            lambda: build_cayley(tree_set(6, [(1, i) for i in range(2, 7)])),
            petersen_graph,
            lambda: SimpleGraph(6, [(a, b) for a in range(3) for b in range(3, 6)]),
        ],
        ids=["path4", "path5", "path6", "star4", "star5", "star6", "petersen", "k33"],
    )
    def test_matches_reference_on_named_graphs(self, graph):
        g = graph()
        search = automorphisms._AutSearch(g)
        nbrs = reference_neighbours(g)
        assert search.path[0].tolist() == reference_refine(nbrs, [0] * g.vertex_count)
        for level, b in enumerate(search.base):
            # individualize the first vertices of the base cell, as the search does
            colors = search.path[level]
            for v in [v for v, c in enumerate(colors.tolist()) if c == colors[b]][:4]:
                start = search._individualize(colors, v)
                assert search.refine(start).tolist() == reference_refine(nbrs, start.tolist())

    def test_prefix_keys_rank_first(self):
        search = automorphisms._AutSearch(PREFIX_GRAPH)
        nbrs = reference_neighbours(PREFIX_GRAPH)
        assert search.refine([0] * 6).tolist() == reference_refine(nbrs, [0] * 6)
        # degree 1 < degree 2 < degree 3 before anything else splits them
        assert search.path[0].tolist() == [3, 2, 2, 1, 0, 0]


# Two strongly regular graphs SRG(16, 6, 2, 2) on the cells (a, b) of Z_4^2,
# vertex 4a + b: the Shrikhande graph, the Cayley graph of Z_4^2 on
# +-(1, 0), +-(0, 1), +-(1, 1), and the 4 x 4 rook graph K_4 x K_4, its
# non-isomorphic twin.  Each refines to one cell and the Shrikhande search
# exhausts cells (no candidate image extends) on its way to the order.
SHRIKHANDE = SimpleGraph(16, sorted({
    tuple(sorted((4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)))
    for a in range(4) for b in range(4) for da, db in ((1, 0), (0, 1), (1, 1))
}))
ROOK4 = SimpleGraph(16, [
    (u, v) for u in range(16) for v in range(u + 1, 16) if (u // 4 == v // 4) != (u % 4 == v % 4)
])


def assert_star_search(m):
    star = SimpleGraph(m + 1, [(0, leaf) for leaf in range(1, m + 1)])
    order, gens = graph_aut_order(star)
    assert (order, len(gens)) == (math.factorial(m), m - 1)
    search = automorphisms._AutSearch(star)
    found, raw = search.run()
    assert (found, sorted(raw)) == (order, [g.mapping for g in gens])
    assert search.nodes == m * (m - 1) // 2


class TestGraphAutOrder:
    def test_known_graphs(self):
        assert graph_aut_order(cycle_graph(6))[0] == 12
        assert graph_aut_order(complete_graph(4))[0] == 24
        assert graph_aut_order(petersen_graph())[0] == 120

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(1, 7)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.45
            ]
            g = SimpleGraph(n, edges)
            assert graph_aut_order(g)[0] == brute_aut_order(g)

    def test_generators_preserve_adjacency(self):
        g = petersen_graph()
        _, gens = graph_aut_order(g)
        sets = [set(nbrs) for nbrs in g.adjacency]
        for phi in gens:
            for u in range(g.vertex_count):
                assert {phi(w) for w in g.adjacency[u]} == sets[phi(u)]

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            graph_aut_order(cycle_graph(10), budget=5)

    def test_search_node_budget(self, monkeypatch):
        search = automorphisms._AutSearch(petersen_graph())
        assert search.run()[0] == 120
        monkeypatch.setattr(automorphisms, "_SEARCH_NODE_BUDGET", search.nodes)
        assert graph_aut_order(petersen_graph())[0] == 120
        monkeypatch.setattr(automorphisms, "_SEARCH_NODE_BUDGET", search.nodes - 1)
        with pytest.raises(BudgetExceeded, match=f"exceeded {search.nodes - 1} nodes"):
            graph_aut_order(petersen_graph())

    @pytest.mark.parametrize("m", [60, 68])
    def test_stars_search_one_node_per_leaf_pair(self, m):
        # the maps held from deeper levels permute the rest of level L's
        # cell transitively, so level L tries one leaf, and its map takes
        # one node per level from L + 1 down: m(m-1)/2 nodes, m-1 generators
        assert_star_search(m)

    @pytest.mark.parametrize(
        "graph, order",
        [
            (SimpleGraph(0, []), 1),
            (SimpleGraph(1, []), 1),
            (SimpleGraph(3, []), 6),
            (SimpleGraph(4, [(0, 1)]), 4),
            (PREFIX_GRAPH, 2),
        ],
        ids=["empty0", "edgeless1", "edgeless3", "edge-plus-isolated", "prefix-keys"],
    )
    def test_edge_cases(self, graph, order):
        assert graph_aut_order(graph)[0] == order == brute_aut_order(graph)

    @pytest.mark.parametrize(
        "graph, generators",
        [
            (lambda: build_cayley(PATH5), 3),
            (lambda: build_cayley(tree_set(5, [(1, 2), (1, 3), (1, 4), (1, 5)])), 5),
            (lambda: build_cayley(tree_set(6, [(i, i + 1) for i in range(1, 6)])), 4),
            (petersen_graph, 3),
            (lambda: SimpleGraph(6, [(a, b) for a in range(3) for b in range(3, 6)]), 5),
        ],
        ids=["path5", "star5", "path6", "petersen", "k33"],
    )
    def test_cli_generator_counts_are_pinned(self, graph, generators, tmp_path, capsys):
        # the count follows the search order, so a change of order shows here
        graph_file = tmp_path / "g.el"
        graph_file.write_text(export_edge_list(graph()))
        assert main(["aut", "--graph", str(graph_file)]) == 0
        assert f"generators={generators}" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("graph, order", [(SHRIKHANDE, 192), (ROOK4, 1152)],
                             ids=["shrikhande", "rook4x4"])
    def test_strongly_regular_twins_match_networkx(self, graph, order):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        g = nx.Graph(list(graph.edges))
        assert graph_aut_order(graph)[0] == order
        assert sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter()) == order

    def test_shrikhande_search_exhausts_a_cell(self, monkeypatch):
        # the branch where every vertex of the target cell is tried and none
        # extends: the order stays exact only if those failures are counted
        exhausted = []
        extend = automorphisms._AutSearch._extend

        def spied(search, level, tgt):
            found = extend(search, level, tgt)
            if (found is None and level < len(search.base)
                    and np.array_equal(np.sort(tgt), search.signatures[level])):
                exhausted.append(level)
            return found

        monkeypatch.setattr(automorphisms._AutSearch, "_extend", spied)
        assert graph_aut_order(SHRIKHANDE)[0] == 192
        assert exhausted

    def test_order_divisible_by_vertices_on_cayley_graphs(self):
        g = build_cayley(make_set(["(1 2)", "(2 3)", "(3 4)"], 4, [2]))
        order, _ = graph_aut_order(g)
        assert order % g.vertex_count == 0


class TestAutSnt:
    def test_path_has_only_the_reversal(self):
        stabilizing = aut_snt(PATH5)
        assert len(stabilizing) == 2
        assert P("(1 5)(2 4)", 5) in stabilizing

    def test_star_fixes_the_hub(self):
        stabilizing = aut_snt(STAR4)
        assert len(stabilizing) == 6
        assert all(sigma(1) == 1 for sigma in stabilizing)

    def test_whole_class_is_stabilized_by_everything(self):
        n = 4
        cls = [
            Permutation.from_cycles([(a, b)], n)
            for a, b in itertools.combinations(range(1, n + 1), 2)
        ]
        T = GeneratorSet(n, cls, CycleType([2]))
        assert len(aut_snt(T)) == math.factorial(n)

    def test_backtracking_path_matches_exhaustive(self):
        # degree 9, past the exhaustive oracle; only the reversal preserves
        # it, as the backtracking reference finds too
        T9 = make_set(
            ["(1 2)", "(2 3)", "(3 4)", "(4 5)", "(5 6)", "(6 7)", "(7 8)", "(8 9)"],
            9,
            [2],
        )
        found = aut_snt(T9)
        assert len(found) == 2
        assert P("(1 9)(2 8)(3 7)(4 6)", 9) in found
        assert found == reference_conjugations(T9)

    def test_counts_the_connection_set_of_a_cycle_pair(self):
        # Aut(Cay(S_7, T)) has 40320 = 7! * 8 elements; the graph sees
        # T u T^-1, whose stabilizer has 8 elements (T's alone has 2)
        T = make_set(["(1 2 3 4)", "(4 5 6 7)"], 7, [4])
        assert len(aut_snt(T)) == 8

    def test_backtracking_counts_the_connection_set(self):
        texts = ["(1 2 3 4)", "(4 5 6 7)", "(6 7 8 9)"]
        T = make_set(texts, 9, [4])
        with_inverses = make_set(texts + ["(1 4 3 2)", "(4 7 6 5)", "(6 9 8 7)"], 9, [4])
        assert aut_snt(T) == aut_snt(with_inverses)

    def test_matches_exhaustive_scan_on_random_sets(self):
        # 3-cycles and 4-cycles are not involutions, so there S != T
        rng = random.Random(2718)
        for i in range(21):
            k = (2, 3, 4)[i % 3]
            n = rng.randint(max(k, 3), 6)
            elements = set()
            for _ in range(rng.randint(1, 4)):
                elements.add(Permutation.from_cycles([rng.sample(range(1, n + 1), k)], n))
            T = GeneratorSet(n, sorted(elements), CycleType([k]))
            assert aut_snt(T) == brute_aut_snt(T, n)

    def test_list_cap(self, monkeypatch):
        # STAR4 has 6 conjugations; past the cap, none is listed
        monkeypatch.setattr(automorphisms, "_CONJUGATION_LIST_CAP", 5)
        with pytest.raises(CapExceeded, match="6 conjugations exceed the list cap 5"):
            aut_snt(STAR4)

    def test_cli_budget_is_an_error_line(self, tmp_path, capsys):
        gens = tmp_path / "path5.gens"
        gens.write_text("n=5 type=2\n(1 2)\n(2 3)\n(3 4)\n(4 5)\n")
        assert main(["aut", "--set", str(gens), "--budget", "100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("n", [10, 12])
    def test_large_stars(self, n):
        # the order (n - 1)! comes from the search, and the list is refused
        # from that order alone
        T = tree_set(n, [(1, i) for i in range(2, n + 1)])
        started = time.process_time()
        assert automorphisms._conjugations(T)[0] == math.factorial(n - 1)
        assert time.process_time() - started < 1.0
        started = time.process_time()
        with pytest.raises(CapExceeded):
            aut_snt(T)
        assert time.process_time() - started < 1.0


class TestGraphAutomorphism:
    def test_rejects_an_isolated_vertex_sent_onto_another(self):
        # the edge maps onto itself, but vertex 0 has two preimages
        g = SimpleGraph(3, [(0, 1)])
        with pytest.raises(AssertionError):
            GraphAutomorphism((0, 1, 0), g)

    def test_rejects_a_bijection_that_breaks_one_edge(self):
        # swapping 2 with the isolated 3 keeps (0, 1) and sends (1, 2) to (1, 3)
        g = SimpleGraph(4, [(0, 1), (1, 2)])
        with pytest.raises(AssertionError):
            GraphAutomorphism((0, 1, 3, 2), g)
        assert GraphAutomorphism((2, 1, 0, 3), g).mapping == (2, 1, 0, 3)

    @pytest.mark.parametrize(
        "graph", [petersen_graph, lambda: build_cayley(PATH5)], ids=["petersen", "path5"]
    )
    def test_accepts_every_search_generator(self, graph):
        g = graph()
        _, gens = graph_aut_order(g)
        assert gens
        for phi in gens:
            assert GraphAutomorphism(phi.mapping, g) == phi


class TestRepresentations:
    def test_right_representation_by_generators(self):
        g = build_cayley(STAR4)
        for t in STAR4.elements:
            phi = right_representation(g, t)
            assert phi(0) == g.vertex_of(t)

    def test_identity_translation(self):
        g = build_cayley(make_set(["(1 2)", "(2 3)"], 3, [2]))
        identity_map = GraphAutomorphism(range(g.vertex_count), g)
        for y in g.vertex_perm:
            assert translate_automorphism(g, identity_map, y).mapping == identity_map.mapping

    def test_translations_fix_the_identity_vertex(self):
        g = build_cayley(PATH5)
        _, gens = graph_aut_order(g)
        rng = random.Random(17)
        for _ in range(100):
            phi = rng.choice(gens) if gens else None
            if phi is None:
                break
            y = g.vertex_perm[rng.randrange(g.vertex_count)]
            assert translate_automorphism(g, phi, y)(0) == 0


class TestOrderIdentity:
    def test_path_on_five_points(self):
        report = verify_order_identity(PATH5)
        assert report.normal
        assert report.graph_aut_order == 240
        assert report.aut_snt_order == 2
        assert report.n_factorial == 120
        assert report.identity_holds
        assert report.cyc_aut_order == 2

    def test_two_generator_case_recorded(self):
        T = make_set(["(1 2)", "(2 3)"], 3, [2])
        report = verify_order_identity(T)
        assert not report.normal
        assert report.graph_aut_order == 12
        assert report.aut_snt_order == 2
        assert report.identity_holds

    def test_non_normal_path_still_reports(self):
        T = make_set(["(1 2)", "(2 3)", "(3 4)"], 4, [2])
        report = verify_order_identity(T)
        assert not report.normal
        assert report.graph_aut_order == 48
        assert report.identity_holds  # the identity extends past the hypothesis here

    def test_budget_caps_the_cayley_graph(self):
        with pytest.raises(CapExceeded):
            verify_order_identity(PATH5, budget=119)
        assert verify_order_identity(PATH5, budget=120).identity_holds

    def test_n6_caveat_flagged(self):
        T = make_set(["(1 2)", "(2 3)", "(3 4)", "(4 5)", "(5 6)"], 6, [2])
        report = verify_order_identity(T)
        assert report.n6_caveat

    @pytest.mark.parametrize(
        "text, order",
        [("n=4 type=4\n(1 2 4 3)\n", 4), ("n=4 type=3\n(1 2 3)\n(2 3 4)\n", 12)],
        ids=["cyclic-4", "alternating-4"],
    )
    def test_set_not_generating_sn_is_refused(self, text, order, tmp_path, capsys):
        message = f"<T> has order {order}, not 4! = 24"
        with pytest.raises(ValueError, match=message) as refusal:
            verify_order_identity(GeneratorSet.from_text(text))
        assert "stated for Cay(S_n, T)" in str(refusal.value)
        gens = tmp_path / "small.gens"
        gens.write_text(text)
        assert main(["aut", "--set", str(gens)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert "Traceback" not in captured.err

    def test_report_serialization_round(self):
        report = verify_order_identity(PATH5)
        text = report.to_text()
        assert "identity_holds=yes" in text
        csv = report.to_csv()
        assert csv.splitlines()[1].split(",")[3] == "240"


# Ganesan (Discrete Math. 313, 2013): the order identity fails for the
# transpositions of C_4 and of K_n, and holds for C_5 and for every tree.
GANESAN = {
    "C4": (tree_set(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), 768, 192),
    "K4": (tree_set(4, itertools.combinations(range(1, 5), 2)), 1152, 576),
    "K5": (tree_set(5, itertools.combinations(range(1, 6), 2)), 28800, 14400),
    "K6": (tree_set(6, itertools.combinations(range(1, 7), 2)), 1036800, 518400),
    "C5": (tree_set(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]), 1200, 1200),
}
# One transposition tree per isomorphism class on 4, 5 and 6 points.
TREES = {
    "path4": [(1, 2), (2, 3), (3, 4)],
    "star4": [(1, 2), (1, 3), (1, 4)],
    "path5": [(1, 2), (2, 3), (3, 4), (4, 5)],
    "star5": [(1, 2), (1, 3), (1, 4), (1, 5)],
    "fork5": [(1, 2), (2, 3), (3, 4), (3, 5)],
    "path6": [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
    "star6": [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)],
    "spur6": [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6)],
    "centre6": [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)],
    "claw6": [(1, 2), (2, 3), (3, 4), (2, 5), (2, 6)],
    "bistar6": [(1, 2), (2, 3), (3, 4), (2, 5), (3, 6)],
}
CORPUS = {name: case[0] for name, case in GANESAN.items()}
CORPUS.update((name, tree_set(int(name[-1]), pairs)) for name, pairs in TREES.items())


# Every set that the other tests in this file hand to ``aut_snt`` or to
# ``verify_order_identity`` (the Ganesan and tree corpus among them), and
# one multi-cycle element.
AUT_SNT_CORPUS = dict(CORPUS)
AUT_SNT_CORPUS.update(
    {
        "two-points": tree_set(2, [(1, 2)]),
        "class4": tree_set(4, itertools.combinations(range(1, 5), 2)),
        "path9": tree_set(9, [(i, i + 1) for i in range(1, 9)]),
        "pair7": make_set(["(1 2 3 4)", "(4 5 6 7)"], 7, [4]),
        "tree9": make_set(["(1 2 3 4)", "(4 5 6 7)", "(6 7 8 9)"], 9, [4]),
        "cyclic4": make_set(["(1 2 4 3)"], 4, [4]),
        "alternating4": make_set(["(1 2 3)", "(2 3 4)"], 4, [3]),
        "3cycle-pair5": make_set(["(1 2 3)", "(3 4 5)"], 5, [3]),
        "a7-instance": make_set(
            ["(1 2 3)", "(1 3 2)", "(1 4 5)", "(1 5 4)", "(1 6 7)", "(1 7 6)"], 7, [3]
        ),
        # 36 conjugations; an undirected arc link admits 144 graph maps
        "two-3-cycles7": make_set(["(1 5 3)(4 7 6)"], 7, [3, 3]),
    }
)

# The cycle types of the seeded random sets, on at most 7 points.
RANDOM_TYPES = [(2,), (3,), (4,), (2, 2), (3, 3), (2, 3), (2, 4), (2, 2, 2)]


def random_set(rng, parts):
    n = rng.randint(max(sum(parts), 3), 7)
    elements = set()
    for _ in range(rng.randint(1, 4)):
        points = rng.sample(range(1, n + 1), sum(parts))
        ends = list(itertools.accumulate(parts))
        cycles = [points[end - part:end] for part, end in zip(parts, ends)]
        elements.add(Permutation.from_cycles(cycles, n))
    return GeneratorSet(n, sorted(elements), CycleType(parts))


class TestConjugationOracles:
    """``aut_snt``, the closure of the refinement search's generators, equals
    the backtracking reference and, up to 8 points, the exhaustive scan."""

    @staticmethod
    def check(T):
        found = aut_snt(T)
        assert found == reference_conjugations(T), T.to_text()
        if T.degree <= 8:
            assert found == brute_aut_snt(T, T.degree), T.to_text()

    @pytest.mark.parametrize("name", sorted(AUT_SNT_CORPUS))
    def test_corpus(self, name):
        self.check(AUT_SNT_CORPUS[name])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_transposition_tree(self, n):
        nx = pytest.importorskip("networkx")
        for tree in nx.nonisomorphic_trees(n):
            self.check(tree_set(n, sorted((a + 1, b + 1) for a, b in tree.edges())))

    def test_seeded_random_sets_of_eight_types(self):
        rng = random.Random(4127)
        for i in range(120):
            self.check(random_set(rng, RANDOM_TYPES[i % len(RANDOM_TYPES)]))


def first_path_cells(graph):
    """The size of the cell of base[L] in path[L], for each level L of the
    search's first path."""
    search = automorphisms._AutSearch(graph)
    return [int((c == c[b]).sum()) for c, b in zip(search.path, search.base)]


def patch_run(monkeypatch, on_cayley_graph):
    """Replace ``_AutSearch.run``: a search of a Cayley graph calls
    ``on_cayley_graph(start)`` first; any other search runs unchanged."""
    run = automorphisms._AutSearch.run

    def patched(search, start=0):
        if isinstance(search.graph, CayleyGraph):
            on_cayley_graph(start)
        return run(search, start)

    monkeypatch.setattr(automorphisms._AutSearch, "run", patched)


class TestSeededSearch:
    """``verify_order_identity`` takes |A_e|, the stabilizer of the identity
    vertex, from the group side when |Aut(S_n, S)| meets the product of the
    first-path cells below level 0, and searches below level 0 otherwise;
    ``graph_aut_order`` of the same graph, a full search, is the oracle."""

    @pytest.mark.parametrize("name", sorted(GANESAN))
    def test_ganesan_orders(self, name):
        T, order, product = GANESAN[name]
        report = verify_order_identity(T)
        assert report.graph_aut_order == order
        assert report.n_factorial * report.aut_snt_order == product
        assert report.identity_holds == (order == product)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_seeded_order_equals_unseeded(self, name):
        T = CORPUS[name]
        g = build_cayley(T)
        order = graph_aut_order(g)[0]
        report = verify_order_identity(T)
        assert report.graph_aut_order == order
        # |Aut(S_n, S)| <= |A_e| <= the product of the cells below level 0
        cells = math.prod(first_path_cells(g)[1:])
        assert report.n_factorial * report.aut_snt_order <= order <= report.n_factorial * cells
        # on this corpus the count fires exactly where the identity holds
        assert (cells == report.aut_snt_order) == report.identity_holds

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_trees_search_no_level(self, name, monkeypatch):
        def refuse(start):
            raise AssertionError(f"Cayley graph searched from level {start}")

        patch_run(monkeypatch, refuse)
        assert verify_order_identity(CORPUS[name]).identity_holds

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_trees_run_one_point_level_search(self, name, monkeypatch):
        entered = []
        run = automorphisms._AutSearch.run

        def counted(search, start=0):
            entered.append(search.graph)
            return run(search, start)

        monkeypatch.setattr(automorphisms._AutSearch, "run", counted)
        verify_order_identity(CORPUS[name])
        assert len(entered) == 1
        assert entered[0].vertex_count == CORPUS[name].degree

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_transposition_sets_reuse_the_cycle_graph_order(self, name):
        T = CORPUS[name]
        assert T.cycle_type.parts == (2,)
        report = verify_order_identity(T)
        assert report.aut_snt_order == report.cyc_aut_order == len(reference_conjugations(T))

    def test_two_points_take_the_order_from_the_search(self, monkeypatch):
        # conjugation by (1 2) acts trivially on S_2: the cells give 1, |C| = 2
        starts = []
        patch_run(monkeypatch, starts.append)
        report = verify_order_identity(tree_set(2, [(1, 2)]))
        assert (report.graph_aut_order, report.aut_snt_order) == (2, 2)
        assert starts == [1]

    @pytest.mark.parametrize("name", ["C4", "K4", "K5", "K6"])
    def test_identity_failures_are_searched(self, name, monkeypatch):
        # the cell product equals |A_e| here too, so the orders alone would
        # not show a count accepted without the search
        starts = []
        patch_run(monkeypatch, starts.append)
        T, order, _ = GANESAN[name]
        assert verify_order_identity(T).graph_aut_order == order
        assert starts == [1]

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_seeds_are_automorphisms(self, name):
        # the count rests on this: each sigma of aut_snt, as the full map
        # x -> sigma^-1 x sigma, is a graph automorphism fixing the identity
        T = CORPUS[name]
        g = build_cayley(T)
        for t in T.elements:
            right_representation(g, t)  # verified on construction
        for sigma in aut_snt(T):
            full = [g.vertex_of(x.conjugate_by(sigma)) for x in g.vertex_perm]
            assert GraphAutomorphism(full, g)(0) == 0

    def test_csr_count_column_matches_every_entry(self):
        # the scatter by edge number, on a Cayley graph (counts by label)
        # and on graphs without labels (counts by edge)
        pair = build_cayley(GeneratorSet(
            5, [Permutation.from_cycles([c], 5) for c in ((1, 2, 3), (3, 4, 5))], CycleType([3])))
        for g in (pair, petersen_graph(), complete_graph(5), SimpleGraph(4, [(0, 1)])):
            search = automorphisms._AutSearch(g)
            expected = [
                count_4cycles_through(g, (min(u, w), max(u, w)))
                for u in range(g.vertex_count) for w in g.adjacency[u]
            ]
            assert search.counts.tolist() == expected

    def test_label_counts_match_every_edge(self):
        rng = random.Random(2013)
        for case in range(40):
            k, n, size = (2, 3, 4)[case % 3], rng.randint(4, 6), rng.randint(2, 3)
            elements = set()
            while len(elements) < size:
                elements.add(Permutation.from_cycles([rng.sample(range(1, n + 1), k)], n))
            T = GeneratorSet(n, sorted(elements), CycleType([k]))
            g = build_cayley(T)
            counts = dict(zip(g.edges, _edge_4cycle_counts(g)))
            at_identity = [counts[0, g.vertex_of(t)] for t in T.elements]
            for edge, labels in g.edge_labels.items():
                expected = count_4cycles_through(g, edge)
                assert counts[edge] == expected, (T.to_text(), edge)
                for label in labels:
                    assert at_identity[int(label[:-1])] == expected, (T.to_text(), edge, label)

    @pytest.mark.parametrize(
        "texts, n, parts, identity_tags",
        [
            # generator 10 is the inverse of generator 2: one element of S
            # carries both tags, so its count is keyed by the pair
            (["(1 2 3)", "(1 2 4)", "(1 2 5)", "(1 3 4)", "(1 3 5)", "(1 4 5)",
              "(2 3 4)", "(2 3 5)", "(2 4 5)", "(3 4 5)", "(1 5 2)"], 5, [3], ("2+", "10-")),
            (["(1 2 3 4)", "(2 5 4 3)", "(1 3 5 2)"], 5, [4], ("1-",)),
        ],
        ids=["inverse-pair", "non-involutions"],
    )
    def test_label_tuple_counts_match_every_edge(self, texts, n, parts, identity_tags):
        g = build_cayley(make_set(texts, n, parts))
        assert identity_tags in {g.edge_labels[0, w] for w in g.adjacency[0]}
        expected = [count_4cycles_through(g, edge) for edge in g.edges]
        assert _edge_4cycle_counts(g) == expected


def transposition_graph_classes(n):
    """One connected graph on the points 0..n-1 per isomorphism class, as
    the least sorted edge tuple among its relabellings, with its
    automorphism count over all n! point permutations."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen, classes = set(), []
    for mask in range(1, 1 << len(pairs)):
        edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
        if edges in seen or len(connected_components(n, edges)) != 1:
            continue
        images = [tuple(sorted(tuple(sorted((s[a], s[b]))) for a, b in edges)) for s in perms]
        seen.update(images)
        classes.append((min(images), images.count(edges)))
    return classes


def assert_gap_of_the_point_graph(cayley, n, edges):
    """Cay(S_n, T) is |T|-regular and its Laplacian gap |T| - mu_2 is the
    Laplacian gap of G_T (Caputo, Liggett and Richthammer, JAMS 2010);
    returns that gap."""
    laplacian = np.zeros((n, n))
    for a, b in edges:
        laplacian[a, a] += 1
        laplacian[b, b] += 1
        laplacian[a, b] = laplacian[b, a] = -1
    gap = np.linalg.eigvalsh(laplacian)[1]
    mu2 = spectrum_topk(cayley, "adjacency", k=2).eigenvalues[1]
    assert len(edges) - mu2 == pytest.approx(gap, abs=1e-8)
    return gap


class TestTranspositionClosedForm:
    """For a set T of transpositions, the edges of a connected point graph
    G_T on n >= 3 points: sigma preserves T iff it is an automorphism of
    G_T, so |Aut(S_n, T)| = |Aut(G_T)|, and |Aut(Cay(S_n, T))| equals
    n! |Aut(G_T)| except on C_4 (768) and K_n (2 (n!)^2) (Ganesan 2013).
    The spectral gap of Cay(S_n, T) is that of G_T (Caputo, Liggett and
    Richthammer 2010)."""

    @pytest.mark.parametrize("n, count", [(3, 2), (4, 6), (5, 21)])
    def test_every_connected_point_graph(self, n, count):
        classes = transposition_graph_classes(n)
        assert len(classes) == count
        for edges, aut in classes:
            T = tree_set(n, [(a + 1, b + 1) for a, b in edges])
            cycle4 = n == 4 and len(edges) == 4 and all(
                sum(v in e for e in edges) == 2 for v in range(4)
            )
            complete = len(edges) == n * (n - 1) // 2
            order = 768 if cycle4 else 2 * math.factorial(n) ** 2 if complete else None
            cayley = build_cayley(T)
            assert graph_aut_order(cayley)[0] == (order or math.factorial(n) * aut)
            report = verify_order_identity(T)
            assert report.aut_snt_order == aut
            assert report.identity_holds == (order is None)
            assert_gap_of_the_point_graph(cayley, n, edges)

    @pytest.mark.parametrize("edges, gap", [
        ([(i, i + 1) for i in range(5)], 2 - 2 * math.cos(math.pi / 6)),
        ([(0, i) for i in range(1, 6)], 1.0),
    ], ids=["path6", "star6"])
    def test_six_point_gap(self, edges, gap):
        cayley = build_cayley(tree_set(6, [(a + 1, b + 1) for a, b in edges]))
        assert assert_gap_of_the_point_graph(cayley, 6, edges) == pytest.approx(gap, abs=1e-12)


@pytest.mark.slow
def test_seven_point_graphs_at_full_scale():
    """Both 5040-vertex graphs within the order-identity budget: the path's
    order is 7! * 2 (Feng), the cycle pair's 7! * 8."""
    path = build_cayley(tree_set(7, [(i, i + 1) for i in range(1, 7)]), cap=6000)
    order, gens = graph_aut_order(path, budget=6000)
    assert (order, len(gens)) == (10080, 4)
    pair = make_set(["(1 2 3 4)", "(4 5 6 7)"], 7, [4])
    order, gens = graph_aut_order(build_cayley(pair, cap=6000), budget=6000)
    assert (order, len(gens)) == (40320, 4)
    assert "identity_holds=yes" in verify_order_identity(pair, budget=6000).to_text()


@pytest.mark.slow
def test_alternating_seven_three_cycle_instance_recorded():
    """2520-vertex instance with six 3-cycles through a point; the order is
    recorded (it matched 120960 = |A_7| * 48 when computed) but not asserted."""
    n = 7
    T = make_set(
        ["(1 2 3)", "(1 3 2)", "(1 4 5)", "(1 5 4)", "(1 6 7)", "(1 7 6)"],
        n,
        [3],
    )
    g = build_cayley(T, cap=3000)
    assert g.vertex_count == 2520
    order, _ = graph_aut_order(g, budget=3000)
    stabilizing = aut_snt(T)
    print(f"A7 instance: |Aut| = {order}, |Aut(S7,T)| = {len(stabilizing)}, "
          f"|A7| * {len(stabilizing)} = {2520 * len(stabilizing)}")


@pytest.mark.slow
def test_eight_point_path_through_the_order_identity():
    """The 40320-vertex S_8 path by the count: order 8! * 2 (Feng)."""
    report = verify_order_identity(tree_set(8, [(i, i + 1) for i in range(1, 8)]), budget=40320)
    assert report.graph_aut_order == 80640
    assert report.aut_snt_order == 2
    assert report.identity_holds


@pytest.mark.slow
def test_rook_and_shrikhande_union_stops_at_the_node_budget():
    """Each graph alone takes about 40 search nodes; their disjoint union
    needs about 860,000, so the search stops at the budget."""
    union = SimpleGraph(32, list(ROOK4.edges) + [(u + 16, v + 16) for u, v in SHRIKHANDE.edges])
    with pytest.raises(BudgetExceeded, match=f"exceeded {automorphisms._SEARCH_NODE_BUDGET} nodes"):
        graph_aut_order(union)


@pytest.mark.slow
def test_star_with_two_hundred_leaves_searches_one_node_per_leaf_pair():
    assert_star_search(200)
