import random

import pytest
from hypothesis import given, settings, strategies as st

from cayleykit.cayley import build_cayley
from cayleykit.gensets import GeneratorSet
from cayleykit.graphs import (
    SimpleGraph,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    export_dot,
    export_edge_list,
    import_edge_list,
    path_graph,
    petersen_graph,
)
from cayleykit.perms import CycleType, Permutation


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    token = st.text(alphabet="0123456789+-ab", min_size=1, max_size=3)
    labels = {}
    for e in edges:
        tags = draw(st.lists(token, max_size=3))
        if tags:
            labels[e] = tuple(tags)
    return SimpleGraph(n, edges, labels)


def seeded_cycle_set(seed):
    """1-3 distinct k-cycles on at most 5 points, drawn from ``seed``."""
    rng = random.Random(seed)
    n = rng.randint(3, 5)
    k = rng.randint(2, n)
    elements = []
    for _ in range(rng.randint(1, 3)):
        g = Permutation.from_cycles([rng.sample(range(1, n + 1), k)], n)
        if g not in elements:
            elements.append(g)
    return GeneratorSet(n, elements, CycleType([k]))


class TestSimpleGraph:
    def test_edges_normalized_and_sorted(self):
        g = SimpleGraph(4, [(2, 1), (0, 3), (1, 2)])
        assert g.edges == ((0, 3), (1, 2))

    def test_no_loops(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, [(1, 1)])

    def test_range_check(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, [(0, 3)])

    def test_connectivity(self):
        assert cycle_graph(5).is_connected()
        assert not SimpleGraph(4, [(0, 1), (2, 3)]).is_connected()

    def test_factories(self):
        assert len(complete_graph(5).edges) == 10
        assert len(complete_bipartite(3, 3).edges) == 9
        pet = petersen_graph()
        assert pet.vertex_count == 10
        assert all(pet.degree(v) == 3 for v in range(10))
        assert len(path_graph(4).edges) == 3


class TestEdgeListFormat:
    def test_six_cycle_is_six_lines_plus_header(self):
        text = export_edge_list(cycle_graph(6))
        lines = text.strip().splitlines()
        assert lines[0] == "vertices=6"
        assert len(lines) == 7

    def test_round_trip_random_graphs(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 12)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            g = SimpleGraph(n, edges)
            assert import_edge_list(export_edge_list(g)) == g

    def test_labels_survive_round_trip(self):
        g = SimpleGraph(3, [(0, 1), (1, 2)], {(0, 1): ("0+",), (1, 2): ("1+", "0-")})
        back = import_edge_list(export_edge_list(g))
        assert back.edge_labels == g.edge_labels

    def test_equality_compares_labels(self):
        labeled = SimpleGraph(2, [(0, 1)], {(0, 1): ("0+",)})
        assert labeled != SimpleGraph(2, [(0, 1)])
        assert labeled != SimpleGraph(2, [(0, 1)], {(0, 1): ("0-",)})
        assert labeled == SimpleGraph(2, [(1, 0)], {(0, 1): ("0+",)})

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(labeled_graphs())
    def test_round_trip_labeled_graphs(self, g):
        assert import_edge_list(export_edge_list(g)) == g

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_round_trip_cayley_graphs(self, seed):
        g = build_cayley(seeded_cycle_set(seed))
        assert import_edge_list(export_edge_list(g)) == g

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 1"):
            import_edge_list("nonsense")
        with pytest.raises(ValueError, match="line 3"):
            import_edge_list("vertices=3\n0 1\n0 x\n")
        with pytest.raises(ValueError, match="line 2"):
            import_edge_list("vertices=3\n0 1 2 3\n")

    def test_deterministic_export(self):
        g = petersen_graph()
        assert export_edge_list(g) == export_edge_list(petersen_graph())


def test_dot_export_mentions_every_edge():
    g = cycle_graph(4)
    dot = export_dot(g)
    assert dot.startswith("graph G {")
    assert dot.count(" -- ") == 4


def test_connected_components_partition():
    comps = connected_components(6, [(0, 1), (2, 3), (3, 4)])
    assert comps == [[0, 1], [2, 3, 4], [5]]
