import itertools
import random

import pytest

from cayleykit import quasiham
from cayleykit.errors import BudgetExceeded
from cayleykit.groups import enumerate_elements
from cayleykit.graphs import (
    SimpleGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    petersen_graph,
)
from cayleykit.perms import Permutation
from cayleykit.quasiham import (
    CycleFactor,
    FlowNetwork,
    QuasiHamiltonian,
    brute_cycle_factor,
    brute_hamiltonian,
    coset_partition,
    cycle_factor_forced,
    hamiltonian_via_qh,
    is_k_quasi_hamiltonian,
    qh_report,
)

from samplers import random_connected_graph, random_graph


class TestCycleFactorForced:
    def test_cycle_is_its_own_factor(self):
        factor = cycle_factor_forced(cycle_graph(6), [])
        assert factor.edges == frozenset(cycle_graph(6).edges)

    def test_petersen_has_a_factor(self):
        factor = cycle_factor_forced(petersen_graph(), [])
        assert factor is not None
        degree = [0] * 10
        for u, v in factor.edges:
            degree[u] += 1
            degree[v] += 1
        assert all(d == 2 for d in degree)

    def test_odd_bipartition_has_none(self):
        assert cycle_factor_forced(complete_bipartite(2, 3), []) is None

    def test_forced_edges_always_appear(self):
        g = complete_graph(5)
        for edge in g.edges:
            factor = cycle_factor_forced(g, [edge])
            assert factor is not None and edge in factor.edges

    def test_unknown_forced_edge_rejected(self):
        with pytest.raises(ValueError):
            cycle_factor_forced(cycle_graph(4), [(0, 2)])

    @pytest.mark.parametrize("edge", [(0, 3), (0, 9), (2, 2)],
                             ids=["non-edge", "out-of-range", "loop"])
    def test_forced_non_edge_is_named(self, edge):
        message = rf"forced edge \({edge[0]}, {edge[1]}\) is not an edge"
        with pytest.raises(ValueError, match=message):
            QuasiHamiltonian(cycle_graph(6)).qh_set([edge], 1)
        with pytest.raises(ValueError, match=message):
            cycle_factor_forced(cycle_graph(6), [edge])

    def test_agreement_with_oracle_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_graph(rng, 3, 10)
            if not g.edges:
                continue
            count = rng.randint(0, min(2, len(g.edges)))
            forced = rng.sample(list(g.edges), count)
            mine = cycle_factor_forced(g, forced)
            oracle = brute_cycle_factor(g, forced)
            assert (mine is None) == (oracle is None)
            if mine is not None:
                assert set(forced) <= mine.edges

    def test_petersen_factor_is_pinned(self):
        # The factor the demo prints; a change of search order changes it.
        factor = cycle_factor_forced(petersen_graph(), [])
        assert factor.edges == frozenset([
            (0, 1), (0, 4), (1, 2), (2, 3), (3, 4),
            (5, 7), (5, 8), (6, 8), (6, 9), (7, 9),
        ])

    def test_mirror_invariant_is_checked_during_runs(self):
        g = petersen_graph()
        net = FlowNetwork(g)
        assert net.force_edge_pair(0, 1)
        net.run_to_max()
        assert net.mirror_checks > 0
        net.assert_mirror()


class TestFactorValidation:
    def test_factor_must_be_2_regular(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError):
            CycleFactor.validate(frozenset([(0, 1)]), g)

    def test_factor_edges_must_exist(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError):
            CycleFactor.validate(frozenset([(0, 2)]), g)


class TestQHSets:
    def test_every_cycle_edge_is_in_the_factor(self):
        assert QuasiHamiltonian(cycle_graph(6)).qh_set([], 1) == frozenset(cycle_graph(6).edges)

    def test_petersen_level_one_nonempty(self):
        assert QuasiHamiltonian(petersen_graph()).qh_set([], 1)

    def test_odd_bipartite_level_one_empty(self):
        assert QuasiHamiltonian(complete_bipartite(2, 3)).qh_set([], 1) == frozenset()

    def test_levels_shrink_inside_level_one(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_connected_graph(rng, 4, 7)
            level1 = QuasiHamiltonian(g).qh_set([], 1)
            for k in (2, 3):
                assert QuasiHamiltonian(g).qh_set([], k) <= level1

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            QuasiHamiltonian(cycle_graph(4)).qh_set([], 0)


def tietze_graph():
    """Petersen with vertex 0 replaced by a triangle: 12 vertices, cubic, not
    Hamiltonian.  QH_1 to QH_3 are spanning-connected and QH_4 is not, so the
    hierarchy's reject rule at k > 1 decides it."""
    kept = [(u - 1, v - 1) for u, v in petersen_graph().edges if u != 0]
    return SimpleGraph(12, kept + [(9, 10), (10, 11), (9, 11), (0, 9), (3, 10), (4, 11)])


class TestHamiltonicity:
    CORPUS = [
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("C6", cycle_graph(6)),
        ("C7", cycle_graph(7)),
        ("C8", cycle_graph(8)),
        ("K4", complete_graph(4)),
        ("K5", complete_graph(5)),
        ("K6", complete_graph(6)),
        ("K33", complete_bipartite(3, 3)),
        ("K23", complete_bipartite(2, 3)),
        ("Petersen", petersen_graph()),
        ("Tietze", tietze_graph()),
    ]

    @pytest.mark.parametrize("name,graph", CORPUS)
    def test_equivalence_on_named_graphs(self, name, graph):
        assert hamiltonian_via_qh(graph) == brute_hamiltonian(graph)

    def test_cycle_is_quasi_hamiltonian_at_full_depth(self):
        assert is_k_quasi_hamiltonian(cycle_graph(6), 4)

    def test_small_degree_guard(self):
        with pytest.raises(ValueError):
            hamiltonian_via_qh(SimpleGraph(2, [(0, 1)]))

    def test_oracle_guard(self):
        with pytest.raises(ValueError):
            brute_hamiltonian(complete_graph(13))

    def test_report_rows(self):
        rows = qh_report(cycle_graph(5), 3)
        assert rows == [(1, 5, True), (2, 5, True), (3, 5, True)]


def _full_set_reference(analyzer, R, k, memo):
    """QH_k(G, R) as the full edge set at every level (the definition)."""
    key = (k, R)
    if key not in memo:
        base = analyzer.qh1(R)
        if k == 1:
            result = base
        elif not analyzer._spanning_connected(base):
            result = frozenset()
        else:
            result = frozenset(
                e
                for e in base
                if analyzer._spanning_connected(_full_set_reference(analyzer, R | {e}, k - 1, memo))
            )
        memo[key] = result
    return memo[key]


def _assert_predicate_matches_full_sets(g, k_max):
    reference = QuasiHamiltonian(g)
    memo: dict = {}
    analyzer = QuasiHamiltonian(g)
    forced_sets = [frozenset()] + [frozenset({e}) for e in g.edges]
    for k in range(1, k_max + 1):
        for R in forced_sets:
            full = _full_set_reference(reference, R, k, memo)
            assert analyzer.qh_conn(R, k) == reference._spanning_connected(full), (k, R)
            assert analyzer.qh_set(R, k) == full, (k, R)


class TestConnectivityPredicate:
    def test_predicate_matches_the_full_sets(self):
        rng = random.Random(606)
        for _ in range(40):
            g = random_connected_graph(rng, 3, 6)
            _assert_predicate_matches_full_sets(g, max(1, g.vertex_count - 2))

    def test_predicate_rejects_where_level_one_is_connected(self):
        # QH_1 of the Petersen graph is connected for every R of size <= 1, but
        # QH_3(G, {e}) and QH_4(G, {}) are not: the predicate's reject rule
        # runs here, which it never does on the small random graphs above.
        _assert_predicate_matches_full_sets(petersen_graph(), 4)

    def test_tietze_levels(self):
        rows = qh_report(tietze_graph(), 4)
        assert [connected for _, _, connected in rows] == [True, True, True, False]

    def test_report_rows_keep_the_full_sets(self):
        g = petersen_graph()
        reference = QuasiHamiltonian(g)
        memo: dict = {}
        expected = []
        for k in (1, 2):
            full = _full_set_reference(reference, frozenset(), k, memo)
            expected.append((k, len(full), reference._spanning_connected(full)))
        assert qh_report(g, 2) == expected

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            QuasiHamiltonian(cycle_graph(4)).is_k_quasi_hamiltonian(0)


# Forcing an edge of this graph after the maximum flow (inside qh1) reaches the
# exhaustive conflict-free fallback.
FALLBACK_GRAPH = SimpleGraph(8, [
    (0, 2), (0, 4), (1, 3), (1, 4), (1, 6), (2, 5),
    (2, 7), (3, 7), (4, 6), (5, 6), (5, 7), (6, 7),
])


# Augmenting to the maximum flow here (in cycle_factor_forced or qh1) meets a
# shortest path whose mirror is blocked, and the exhaustive search finds one.
AUGMENT_FALLBACK_GRAPH = SimpleGraph(9, [
    (0, 2), (0, 5), (0, 6), (0, 7), (0, 8), (1, 2), (1, 5), (1, 6), (1, 7), (2, 5),
    (2, 7), (3, 4), (3, 6), (3, 7), (3, 8), (4, 5), (4, 7), (5, 7), (6, 7), (7, 8),
])


class TestConflictFreeBudget:
    def _fallback_calls(self, monkeypatch, found=None):
        calls = []
        search = FlowNetwork._conflict_free_path

        def recorded(self, source, targets, terminals):
            calls.append(terminals)
            path = search(self, source, targets, terminals)
            if found is not None:
                found.append((terminals, path is not None))
            return path

        monkeypatch.setattr(FlowNetwork, "_conflict_free_path", recorded)
        return calls

    def test_augmentation_reaches_the_fallback(self, monkeypatch):
        found = []
        self._fallback_calls(monkeypatch, found)
        g = AUGMENT_FALLBACK_GRAPH
        factor = cycle_factor_forced(g, [])
        assert (False, True) in found  # an augmentation path came from the exhaustive search
        assert factor is not None and brute_cycle_factor(g, []) is not None
        found.clear()
        expected = frozenset(e for e in g.edges if brute_cycle_factor(g, [e]) is not None)
        assert QuasiHamiltonian(g).qh1(frozenset()) == expected
        assert (False, True) in found

    def test_forcing_reaches_the_fallback_within_budget(self, monkeypatch):
        calls = self._fallback_calls(monkeypatch)
        net = FlowNetwork(FALLBACK_GRAPH)
        assert net.run_to_max() == 16
        assert not calls
        for i, j in FALLBACK_GRAPH.edges:
            net.edge_usable(i, j)
        assert True in calls  # a forcing repair went to the exhaustive search

    def test_tiny_budget_raises(self, monkeypatch):
        net = FlowNetwork(FALLBACK_GRAPH)
        net.run_to_max()
        monkeypatch.setattr(quasiham, "_CONFLICT_FREE_NODE_BUDGET", 1)
        with pytest.raises(BudgetExceeded):
            for i, j in FALLBACK_GRAPH.edges:
                net.edge_usable(i, j)


# With (0, 5) forced, deciding (0, 3) here takes the exhaustive search, and
# only a path that respects the mirror rule leads to the factor.
MIRROR_RULE_GRAPH = SimpleGraph(8, [
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5), (1, 7),
    (2, 3), (2, 5), (2, 7), (3, 4), (3, 6), (3, 7), (5, 6), (5, 7), (6, 7),
])


class TestLevelOneOracle:
    """QH_1(G, R) against its definition, decided by exhaustive search."""

    @staticmethod
    def _assert_level_one_matches_oracle(g):
        for R in [frozenset()] + [frozenset({f}) for f in g.edges]:
            expected = frozenset(
                e for e in g.edges if brute_cycle_factor(g, R | {e}) is not None
            )
            assert QuasiHamiltonian(g).qh1(R) == expected, sorted(R)

    @pytest.mark.parametrize("graph", [
        petersen_graph(), complete_bipartite(3, 3), FALLBACK_GRAPH, MIRROR_RULE_GRAPH,
    ], ids=["Petersen", "K33", "fallback", "mirror-rule"])
    def test_named_graphs(self, graph):
        self._assert_level_one_matches_oracle(graph)

    def test_random_connected_graphs(self):
        rng = random.Random(77)
        for _ in range(30):
            self._assert_level_one_matches_oracle(random_connected_graph(rng, 3, 8))


class TestCosetPartition:
    def setup_method(self):
        self.s3 = enumerate_elements(
            [Permutation.from_text("(1 2)", 3), Permutation.from_text("(2 3)", 3)],
            3,
            10,
        )

    def test_subgroup_cosets(self):
        T = [Permutation.identity(3), Permutation.from_text("(1 2)", 3)]
        witness = coset_partition(self.s3, T)
        assert witness is not None and len(witness) == 3
        covered = {s * t for s in witness for t in T}
        assert covered == set(self.s3)

    def test_whole_group_needs_one_translate(self):
        witness = coset_partition(self.s3, self.s3)
        assert witness == [Permutation.identity(3)]

    def test_divisibility_shortcut(self):
        assert coset_partition(self.s3, self.s3[:4]) is None

    def test_non_subgroup_subset_can_still_tile(self):
        # {e, (1 2), (1 3)} has size 3 dividing 6; search decides honestly
        T = [
            Permutation.identity(3),
            Permutation.from_text("(1 2)", 3),
            Permutation.from_text("(1 3)", 3),
        ]
        witness = coset_partition(self.s3, T)
        if witness is not None:
            covered = [s * t for s in witness for t in T]
            assert len(covered) == len(set(covered)) == 6

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            coset_partition(self.s3, [])

    def test_node_budget(self, monkeypatch):
        # the three cosets of <(1 2)> take four nodes: the root and one per translate
        T = [Permutation.identity(3), Permutation.from_text("(1 2)", 3)]
        monkeypatch.setattr(quasiham, "_COSET_NODE_BUDGET", 4)
        assert len(coset_partition(self.s3, T)) == 3
        monkeypatch.setattr(quasiham, "_COSET_NODE_BUDGET", 3)
        with pytest.raises(BudgetExceeded, match="exceeded 3 nodes"):
            coset_partition(self.s3, T)
        # the divisibility shortcut answers without entering the search
        monkeypatch.setattr(quasiham, "_COSET_NODE_BUDGET", 0)
        assert coset_partition(self.s3, self.s3[:4]) is None


def test_full_equivalence_over_random_connected_corpus():
    rng = random.Random(2024)
    for _ in range(30):
        g = random_connected_graph(rng, 3, 7)
        assert hamiltonian_via_qh(g) == brute_hamiltonian(g)


@pytest.mark.slow
def test_equivalence_on_eight_vertex_corpus():
    rng = random.Random(808)
    for _ in range(30):
        g = random_connected_graph(rng, 8, 8)
        assert hamiltonian_via_qh(g) == brute_hamiltonian(g)
