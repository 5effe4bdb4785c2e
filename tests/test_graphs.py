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

    def test_first_bad_edge_in_input_order_range_before_loop(self):
        with pytest.raises(ValueError) as err:
            SimpleGraph(3, [(0, 1), (1, 1), (0, 5)])
        assert str(err.value) == "self-loop at vertex 1"
        with pytest.raises(ValueError) as err:
            SimpleGraph(3, [(0, 1), (0, 5), (1, 1)])
        assert str(err.value) == "edge (0,5) out of range"
        with pytest.raises(ValueError) as err:
            SimpleGraph(3, [(5, 5)])
        assert str(err.value) == "edge (5,5) out of range"
        with pytest.raises(ValueError) as err:
            SimpleGraph(3, [(2, -1)])
        assert str(err.value) == "edge (2,-1) out of range"
        with pytest.raises(ValueError) as err:
            SimpleGraph(-1, [])
        assert str(err.value) == "vertex count must be nonnegative"

    def test_edges_from_a_generator_or_dict_keys(self):
        expected = ((0, 1), (0, 2), (1, 2))
        assert SimpleGraph(3, ((v, u) for u, v in expected)).edges == expected
        labels = {(1, 2): ("a",), (0, 2): ("b",), (0, 1): ("c",)}
        g = SimpleGraph(3, labels.keys(), labels)
        assert g.edges == expected and g.edge_labels == labels

    def test_repeated_and_reversed_edges_collapse(self):
        g = SimpleGraph(4, [(3, 2), (0, 1), (2, 3), (1, 0), (0, 1)])
        assert g.edges == ((0, 1), (2, 3))

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

    def test_reversed_line_labels_the_ordered_edge(self):
        g = import_edge_list("vertices=2\n1 0 0+\n")
        assert g.edges == ((0, 1),)
        assert g.edge_labels == {(0, 1): ("0+",)}

    def test_repeated_edge_line_keeps_one_edge_and_the_later_label(self):
        g = import_edge_list("vertices=3\n0 1 a\n1 2\n1 0 b,c\n")
        assert g.edges == ((0, 1), (1, 2))
        assert g.edge_labels == {(0, 1): ("b", "c")}

    def test_blank_whitespace_tab_and_crlf_lines(self):
        text = "vertices=4\r\n\r\n0\t1\r\n   \r\n\t\n 2  3 x,y \r\n1 2\n"
        g = import_edge_list(text)
        assert g.vertex_count == 4
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert g.edge_labels == {(2, 3): ("x", "y")}

    def test_zero_vertices(self):
        g = import_edge_list("vertices=0\n")
        assert (g.vertex_count, g.edges, g.edge_labels) == (0, (), {})
        assert export_edge_list(g) == "vertices=0\n"

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: expected 'vertices=<count>' header"),
        ("0 1\n", "line 1: expected 'vertices=<count>' header"),
        ("vertices=x\n", "line 1: malformed vertex count in 'vertices=x'"),
        ("vertices=3\n0 1\n\n0\n", "line 4: expected 'u v [labels]', got '0'"),
        ("vertices=3\n0 1 a b\n", "line 2: expected 'u v [labels]', got '0 1 a b'"),
        ("vertices=3\n0 1\n1 2\n2 z\n", "line 4: malformed vertex ids in '2 z'"),
        ("vertices=3\r\n0 1\r\n1.0 2\r\n", "line 3: malformed vertex ids in '1.0 2'"),
        ("vertices=3\n0 1\n0 3\n", "edge list invalid: edge (0,3) out of range"),
        ("vertices=3\n0 1\n2 2\n", "edge list invalid: self-loop at vertex 2"),
        ("vertices=3\n2 -1\n1 1\n", "edge list invalid: edge (2,-1) out of range"),
    ])
    def test_each_parse_error_names_its_line(self, text, message):
        with pytest.raises(ValueError) as err:
            import_edge_list(text)
        assert str(err.value) == message

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
