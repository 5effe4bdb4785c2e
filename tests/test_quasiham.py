import functools
import itertools
import random

import pytest

from cayleykit import quasiham
from cayleykit.cayley import build_cayley
from cayleykit.errors import BudgetExceeded
from cayleykit.gensets import GeneratorSet
from cayleykit.groups import enumerate_elements
from cayleykit.graphs import (
    SimpleGraph,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    petersen_graph,
)
from cayleykit.perms import CycleType, Permutation
from cayleykit.quasiham import (
    CycleFactor,
    FlowNetwork,
    QuasiHamiltonian,
    brute_cycle_factor,
    brute_hamiltonian,
    coset_partition,
    cycle_factor_forced,
    hamiltonian_via_qh,
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

    def test_vertex_below_degree_two_has_no_factor(self):
        # G(300, 4/300) has isolated and degree-1 vertices; without the
        # degree test the flow search runs out of its budget first
        nx = pytest.importorskip("networkx")
        sparse = nx.gnp_random_graph(300, 4 / 300, seed=0)
        g = SimpleGraph(300, sparse.edges)
        assert cycle_factor_forced(g, []) is None
        assert QuasiHamiltonian(g).qh1(frozenset()) == frozenset()

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
        net.run_to_max()
        assert net.force_edge_pair(0, 1)
        assert net.mirror_checks > 0
        net.assert_mirror()

    def test_forcing_needs_a_flow_of_value_2m(self):
        net = FlowNetwork(petersen_graph())
        with pytest.raises(ValueError, match="value 2m"):
            net.force_edge_pair(0, 1)
        assert net.value() == 0 and net.checkpoint() == 0


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
        assert QuasiHamiltonian(cycle_graph(6)).is_k_quasi_hamiltonian(4)

    def test_small_degree_guard(self):
        with pytest.raises(ValueError):
            hamiltonian_via_qh(SimpleGraph(2, [(0, 1)]))

    def test_oracle_guard(self):
        with pytest.raises(ValueError):
            brute_hamiltonian(complete_graph(13))

    def test_report_rows(self):
        rows = qh_report(cycle_graph(5), 3)
        assert rows == [(1, 5, True), (2, 5, True), (3, 5, True)]


def _counted_networks(monkeypatch):
    """The graph of every FlowNetwork built from now on, in order."""
    networks = []
    build = FlowNetwork.__init__

    def counted(self, graph):
        networks.append(graph)
        build(self, graph)

    monkeypatch.setattr(FlowNetwork, "__init__", counted)
    return networks


def transposition_cayley(n, pairs):
    T = GeneratorSet(n, [Permutation.from_text(f"({a} {b})", n) for a, b in pairs], CycleType([2]))
    return build_cayley(T)


def prism_graph(m):
    """C_m x K_2: two m-cycles joined by a perfect matching."""
    ring = [(i, (i + 1) % m) for i in range(m)]
    return SimpleGraph(2 * m, ring + [(m + u, m + v) for u, v in ring] + [(i, m + i) for i in range(m)])


def hypercube(d):
    return SimpleGraph(2 ** d, [(v, v | 1 << b) for v in range(2 ** d) for b in range(d) if not v >> b & 1])


class TestNamedInstances:
    """Hamiltonian graphs decided through kept witnesses; the hierarchy
    without them takes 1.5 s on the 10-vertex prism and over a minute on
    each of the others."""

    @pytest.mark.parametrize("pairs", [[(1, 2), (2, 3), (3, 4)], [(1, 2), (1, 3), (1, 4)]],
                             ids=["path", "star"])
    def test_s4_transposition_cayley_graphs(self, pairs):
        # Kompel'maher and Liskovets: Cay(S_n, T) is Hamiltonian for every
        # transposition generating set T.
        g = transposition_cayley(4, pairs)
        assert g.vertex_count == 24
        assert hamiltonian_via_qh(g)

    @pytest.mark.parametrize("graph", [prism_graph(5), prism_graph(7), hypercube(4)],
                             ids=["prism10", "prism14", "Q4"])
    def test_prisms_and_the_4_cube(self, graph):
        assert hamiltonian_via_qh(graph)
        if graph.vertex_count <= 12:
            assert brute_hamiltonian(graph)

    def test_cycle_decides_after_one_flow(self, monkeypatch):
        networks = _counted_networks(monkeypatch)
        assert hamiltonian_via_qh(cycle_graph(8))
        assert len(networks) == 1


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
    return analyzer


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


class TestWitnesses:
    @staticmethod
    def _assert_witnesses_sound(analyzer):
        g = analyzer.graph
        for cycle in analyzer.witnesses:
            CycleFactor.validate(cycle, g)
            assert len(connected_components(g.vertex_count, sorted(cycle))) == 1

    def test_random_graphs_keep_sound_witnesses_and_exact_sets(self):
        rng = random.Random(4242)
        kept = 0
        for _ in range(15):
            g = random_connected_graph(rng, 3, 7)
            analyzer = _assert_predicate_matches_full_sets(g, max(1, g.vertex_count - 2))
            self._assert_witnesses_sound(analyzer)
            kept += len(analyzer.witnesses)
        assert kept  # the shortcut ran

    @pytest.mark.parametrize("graph,k_max", [(tietze_graph(), 4), (petersen_graph(), 8)],
                             ids=["Tietze", "Petersen"])
    def test_graphs_without_witnesses(self, graph, k_max):
        analyzer = _assert_predicate_matches_full_sets(graph, k_max)
        assert not analyzer.witnesses

    def test_named_instances_keep_sound_witnesses(self):
        for g in (transposition_cayley(4, [(1, 2), (1, 3), (1, 4)]), hypercube(4)):
            analyzer = QuasiHamiltonian(g)
            assert analyzer.is_k_quasi_hamiltonian(g.vertex_count - 2)
            assert analyzer.witnesses
            self._assert_witnesses_sound(analyzer)


class TestHierarchyBudget:
    def test_budget_bounds_the_forcings(self, monkeypatch):
        g = petersen_graph()
        analyzer = QuasiHamiltonian(g)
        assert not analyzer.is_k_quasi_hamiltonian(8)
        needed = analyzer.forcings
        assert needed > 0
        monkeypatch.setattr(quasiham, "_QH_FORCING_BUDGET", needed)
        assert not QuasiHamiltonian(g).is_k_quasi_hamiltonian(8)
        monkeypatch.setattr(quasiham, "_QH_FORCING_BUDGET", needed - 1)
        with pytest.raises(BudgetExceeded, match=f"exceeded {needed - 1} forcings"):
            QuasiHamiltonian(g).is_k_quasi_hamiltonian(8)

    def test_a_witness_needs_no_forcing(self, monkeypatch):
        monkeypatch.setattr(quasiham, "_QH_FORCING_BUDGET", 0)
        assert hamiltonian_via_qh(cycle_graph(8))
        with pytest.raises(BudgetExceeded):
            hamiltonian_via_qh(petersen_graph())


# Forcing an edge of this graph after the maximum flow (inside qh1) reaches the
# exhaustive conflict-free fallback.
FALLBACK_GRAPH = SimpleGraph(8, [
    (0, 2), (0, 4), (1, 3), (1, 4), (1, 6), (2, 5),
    (2, 7), (3, 7), (4, 6), (5, 6), (5, 7), (6, 7),
])


# Augmenting to the maximum flow here (in cycle_factor_forced or when an
# analyzer builds its network) meets a shortest path whose mirror is blocked,
# and the exhaustive search finds one.
AUGMENT_FALLBACK_GRAPH = SimpleGraph(9, [
    (0, 2), (0, 5), (0, 6), (0, 7), (0, 8), (1, 2), (1, 5), (1, 6), (1, 7), (2, 5),
    (2, 7), (3, 4), (3, 6), (3, 7), (3, 8), (4, 5), (4, 7), (5, 7), (6, 7), (7, 8),
])


class TestConflictFreeBudget:
    def _fallback_calls(self, monkeypatch, found=None):
        calls = []
        search = FlowNetwork._conflict_free_path

        def recorded(self, source, targets):
            repair = source >= self.m  # a forcing's repair starts at a y, an augmentation at an x
            calls.append(repair)
            path = search(self, source, targets)
            if found is not None:
                found.append((repair, path is not None))
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


# With (1, 2) forced, deciding (1, 3) here takes the exhaustive search, and
# only a path that respects the mirror rule leads to the factor.
MIRROR_RULE_GRAPH = SimpleGraph(8, [
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5), (1, 7),
    (2, 3), (2, 5), (2, 7), (3, 4), (3, 6), (3, 7), (5, 6), (5, 7), (6, 7),
])


class TestLevelOneOracle:
    """QH_1(G, R) against its definition, decided by exhaustive search."""

    @staticmethod
    def _assert_level_one_matches_oracle(g, pairs=None, triples=8, seed=0):
        """R empty, every edge, every pair of edges (or ``pairs`` seeded
        ones) and ``triples`` seeded triples, all on one analyzer, so each R
        is forced edge by edge on the analyzer's one maximum flow."""
        rng = random.Random(seed)
        two = [frozenset(c) for c in itertools.combinations(g.edges, 2)]
        forced = [frozenset()] + [frozenset({e}) for e in g.edges]
        forced += two if pairs is None else rng.sample(two, min(pairs, len(two)))
        if len(g.edges) >= 3:
            forced += [frozenset(rng.sample(g.edges, 3)) for _ in range(triples)]
        oracle = functools.cache(lambda S: brute_cycle_factor(g, S))
        analyzer = QuasiHamiltonian(g)
        for R in forced:
            factor = oracle(R)  # a factor through R already covers its own edges
            expected = frozenset(
                e for e in g.edges if e in factor.edges or oracle(R | {e})
            ) if factor else frozenset()
            assert analyzer.qh1(R) == expected, sorted(R)

    @pytest.mark.parametrize("graph", [
        petersen_graph(), complete_bipartite(3, 3), FALLBACK_GRAPH, MIRROR_RULE_GRAPH,
    ], ids=["Petersen", "K33", "fallback", "mirror-rule"])
    def test_named_graphs(self, graph):
        self._assert_level_one_matches_oracle(graph)

    def test_random_connected_graphs(self):
        rng = random.Random(77)
        for _ in range(30):
            self._assert_level_one_matches_oracle(random_connected_graph(rng, 3, 8), pairs=8)


class TestOneNetworkPerAnalyzer:
    def test_one_network_per_analyzer(self, monkeypatch):
        networks = _counted_networks(monkeypatch)
        qh_report(petersen_graph(), 3)
        assert len(networks) == 1
        assert hamiltonian_via_qh(AUGMENT_FALLBACK_GRAPH) == brute_hamiltonian(AUGMENT_FALLBACK_GRAPH)
        assert networks == [petersen_graph(), AUGMENT_FALLBACK_GRAPH]

    # Both forced edges lie off the network's maximum flow.  (1, 6) is forced
    # and the first speculative forcing stops; (2, 7) lies in no factor, and
    # forcing it reaches the exhaustive search, which stops.
    @pytest.mark.parametrize("budget,edge", [("_QH_FORCING_BUDGET", (1, 6)),
                                             ("_CONFLICT_FREE_NODE_BUDGET", (2, 7))])
    def test_a_budget_stop_rolls_the_network_back(self, monkeypatch, budget, edge):
        g = FALLBACK_GRAPH
        analyzer = QuasiHamiltonian(g)
        net = analyzer._net
        mark, flow = net.checkpoint(), net.saturated_edges()
        R = frozenset({edge})
        assert not R <= flow
        limit = getattr(quasiham, budget)
        monkeypatch.setattr(quasiham, budget, 0)
        with pytest.raises(BudgetExceeded):
            analyzer.qh1(R)
        assert net.checkpoint() == mark and net.saturated_edges() == flow
        monkeypatch.setattr(quasiham, budget, limit)
        fresh = QuasiHamiltonian(g)
        for R in [frozenset()] + [frozenset({e}) for e in g.edges]:
            assert analyzer.qh1(R) == fresh.qh1(R), sorted(R)
        assert net.checkpoint() == mark and net.saturated_edges() == flow


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


def test_equivalence_on_eight_vertex_corpus():
    rng = random.Random(808)
    for _ in range(30):
        g = random_connected_graph(rng, 8, 8)
        assert hamiltonian_via_qh(g) == brute_hamiltonian(g)
