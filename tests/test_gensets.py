import itertools
import math
import random
import warnings

import pytest

from cayleykit import gensets
from cayleykit.errors import BudgetExceeded, NoCircuit, ParityError
from cayleykit.gensets import (
    GeneratorSet,
    brute_force_f,
    construct,
    construct_basic_tree,
    construct_cycle_pair,
    construct_cycle_tree,
    construct_general,
    construction_degree,
    eulerian_circuit_complete,
    extend_tree,
    extended_class_elements,
    f_lower_bound,
    find_balance_certificate,
    general_plan,
    predicates,
    split_divisor,
)
from cayleykit.groups import build_chain, generates, orbits
from cayleykit.perms import CycleType, Permutation

from reference_tables import BASIC_22_TABLE, GENERAL_245_TABLE, PRIME7_22_TABLE
from samplers import random_circuit_basic_set, random_split_semiconnected_basic


def P(text, n):
    return Permutation.from_text(text, n)


def make_set(texts, n, parts):
    return GeneratorSet(n, [P(t, n) for t in texts], CycleType(parts))


def order_of(T):
    return build_chain(T.elements, T.degree).order()


class TestGeneratorSet:
    def test_type_validation(self):
        with pytest.raises(ValueError):
            make_set(["(1 2)", "(1 2 3)"], 3, [2])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            make_set(["(1 2)", "(1 2)"], 3, [2])

    def test_text_round_trip(self):
        T = make_set(["(1 2)(5 6)(12 13)", "(2 3)(9 10)(19 20)"], 22, [2, 2, 2])
        parsed = GeneratorSet.from_text(T.to_text())
        assert parsed == T
        assert parsed.cycle_type.parts == (2, 2, 2)

    def test_header_format(self):
        T = make_set(["(1 2)"], 3, [2])
        assert T.to_text().splitlines()[0] == "n=3 type=2"


class TestLowerBound:
    def test_basic_type_on_22_points(self):
        assert f_lower_bound(CycleType([2, 2, 2]), 22) == 7

    def test_even_count_is_infinite(self):
        assert f_lower_bound(CycleType([3]), 10) == math.inf
        assert f_lower_bound(CycleType([2, 4, 5]), 57) == math.inf

    def test_single_cycle(self):
        assert f_lower_bound(CycleType([4]), 7) == 2


class TestPredicates:
    def test_published_basic_set(self):
        T = make_set(BASIC_22_TABLE, 22, [2, 2, 2])
        result = predicates(T, include_balance=False)
        assert result["semi_connected"]
        assert result["split"]

    def test_disconnected_pair(self):
        result = predicates(make_set(["(1 2)", "(3 4)"], 4, [2]), include_balance=False)
        assert not result["semi_connected"]
        assert result["split"]

    def test_published_mixed_table_is_balanced(self):
        T = make_set(GENERAL_245_TABLE, 57, [2, 4, 5])
        result = predicates(T)
        assert result["semi_connected"]
        assert result["split"]
        certificate = result["balanced"]
        assert certificate is not None
        assert sorted(certificate.sizes) == [2, 4, 5]
        # every class holds all seven cycles of its length
        assert sorted(len(cls) for cls in certificate.classes) == [7, 7, 7]

    def test_lone_element_is_not_balanced(self):
        T = make_set(["(1 2)(3 4)"], 4, [2, 2])
        assert predicates(T)["balanced"] is None

    def test_overlapping_pairs_are_balanced(self):
        T = make_set(["(1 2)(3 4)", "(1 3)(2 4)"], 4, [2, 2])
        assert predicates(T)["balanced"] is not None

    def test_strong_connectivity_predicate_is_separate(self):
        path = make_set(["(1 2)", "(2 3)"], 3, [2])
        assert generates(path.elements, path.degree) == "symmetric"
        even_only = make_set(["(1 2)(3 4)", "(1 3)(2 4)"], 4, [2, 2])
        assert orbits(even_only.elements, 4).is_single
        assert generates(even_only.elements, even_only.degree) != "symmetric"


def _meets(x, y):
    return bool(set(x[1]) & set(y[1]))


def partition_oracle(T):
    """Balanced by definition: for every length L of multiplicity k, some
    partition of the L-cycles into exactly k classes leaves no cycle alone
    in its class.  Enumerates every set partition (restricted growth)."""
    cycles = [(i, c) for i, g in enumerate(T.elements) for c in g.cycles()]
    for length in set(T.cycle_type.parts):
        k = T.cycle_type.parts.count(length)
        members = [x for x in cycles if len(x[1]) == length]

        def fits(labels):
            return len(set(labels)) == k and all(
                any(labels[j] == labels[i] and _meets(members[i], members[j])
                    for j in range(len(members)) if j != i)
                for i in range(len(members))
            )

        def grow(labels):
            if len(labels) == len(members):
                return fits(labels)
            return any(grow(labels + [lab]) for lab in range(min(max(labels, default=-1) + 2, k)))

        if not grow([]):
            return False
    return True


def assert_valid_certificate(T, certificate):
    cycles = sorted((i, c) for i, g in enumerate(T.elements) for c in g.cycles())
    assert sorted(x for cls in certificate.classes for x in cls) == cycles
    assert sorted(certificate.sizes) == sorted(T.cycle_type.parts)
    for cls, size in zip(certificate.classes, certificate.sizes):
        assert cls and all(len(c) == size for _, c in cls)
        assert all(any(y != x and _meets(x, y) for y in cls) for x in cls)


def random_repeated_part_set(rng):
    """1-4 random elements of a type with a repeated part, on a few spare points."""
    parts = rng.choice([(2, 2), (3, 3), (2, 2, 2), (2, 2, 3), (3, 3, 2), (2, 2, 4), (4, 4)])
    cycle_type = CycleType(parts)
    n = sum(parts) + rng.randint(0, 4)
    elements = []
    for _ in range(rng.randint(1, 8 // max(parts.count(p) for p in parts))):
        points = rng.sample(range(1, n + 1), sum(parts))
        cuts = list(itertools.accumulate(parts, initial=0))
        g = Permutation.from_cycles(
            [tuple(points[a:b]) for a, b in zip(cuts, cuts[1:])], n
        )
        if g not in elements:
            elements.append(g)
    return GeneratorSet(n, elements, cycle_type)


class TestBalanceCertificate:
    def test_agrees_with_the_partition_oracle(self):
        rng = random.Random(11_011)
        verdicts = []
        for _ in range(400):
            T = random_repeated_part_set(rng)
            certificate = find_balance_certificate(T)
            assert (certificate is not None) == partition_oracle(T), T.to_text()
            if certificate is not None:
                assert_valid_certificate(T, certificate)
            verdicts.append(certificate is not None)
        assert 50 < sum(verdicts) < 350

    def test_search_leaves_a_cycle_out(self):
        # (1 2) pairs with (2 3) first; (3 4) then meets no free cycle and must
        # be left out before (5 6) and (5 7) give the second pair
        T = make_set(["(1 2)(3 4)", "(2 3)(5 6)", "(5 7)(6 8)"], 8, [2, 2])
        assert partition_oracle(T)
        certificate = find_balance_certificate(T)
        assert certificate is not None
        assert_valid_certificate(T, certificate)

    @pytest.mark.parametrize("build", [
        lambda: extend_tree(construct_basic_tree(3), CycleType([2, 2, 2]), 22),
        lambda: extend_tree(construct_basic_tree(3), CycleType([2, 2, 2]), 40),
        lambda: extend_tree(construct_cycle_pair(4), CycleType([4]), 79),
        lambda: construct_general(CycleType([2, 4, 5])),
        lambda: construct_general(CycleType([5, 2, 2, 2])),
    ], ids=["222-n22", "222-n40", "4-n79", "245-n57", "5222-n239"])
    def test_constructions_are_certified(self, build):
        T = build()
        certificate = find_balance_certificate(T)
        assert certificate is not None
        assert_valid_certificate(T, certificate)

    def test_node_budget(self, monkeypatch):
        T = construct_basic_tree(3)
        assert find_balance_certificate(T) is not None
        monkeypatch.setattr(gensets, "_BALANCE_NODE_BUDGET", 1)
        with pytest.raises(BudgetExceeded):
            find_balance_certificate(T)


class TestCyclePair:
    def test_k4(self):
        T = construct_cycle_pair(4)
        assert [g.to_text() for g in T.elements] == ["(1 2 3 4)", "(4 5 6 7)"]
        assert T.degree == 7

    def test_k2(self):
        assert [g.to_text() for g in construct_cycle_pair(2).elements] == ["(1 2)", "(2 3)"]

    def test_odd_k_rejected(self):
        with pytest.raises(ParityError):
            construct_cycle_pair(3)


class TestCycleTree:
    def test_exact_division(self):
        T = construct_cycle_tree(4, 10)
        assert [g.to_text() for g in T.elements] == ["(1 2 3 4)", "(4 5 6 7)", "(7 8 9 10)"]

    def test_base_case_is_the_pair(self):
        assert construct_cycle_tree(4, 7) == construct_cycle_pair(4)

    def test_remainder_case_overlaps_deeper(self):
        T = construct_cycle_tree(4, 9)
        assert len(T) == 3
        assert T.elements[-1].to_text() == "(6 7 8 9)"

    def test_errors(self):
        with pytest.raises(ParityError):
            construct_cycle_tree(5, 20)
        with pytest.raises(ValueError):
            construct_cycle_tree(4, 6)

    def test_orders_small_sample(self):
        for k, n in [(2, 5), (4, 12), (6, 14)]:
            T = construct_cycle_tree(k, n)
            assert len(T) == -(-(n - 1) // (k - 1))
            assert order_of(T) == math.factorial(n)


def two_branch_cycle_tree(k, n):
    """The cycle tree's supports by the loop-plus-last-cycle rule it replaced."""
    count = -(-(n - 1) // (k - 1))
    starts = [i * (k - 1) + 1 for i in range(count - 1)]
    if (n - 1) % (k - 1) == 0:
        starts.append((count - 1) * (k - 1) + 1)
    else:
        starts.append(n - k + 1)
    return [set(range(start, start + k)) for start in starts]


class TestCycleTreeStartRule:
    def test_matches_the_two_branch_rule(self):
        for k in range(2, 11, 2):
            for n in range(2 * k - 1, 121):
                assert construct_cycle_tree(k, n).supports() == two_branch_cycle_tree(k, n), (k, n)


class TestConstruct:
    """``construct`` picks the family; each case is pinned to explicit builder calls."""

    @pytest.mark.parametrize(
        "text, n, build",
        [
            ("4", 7, lambda: construct_cycle_pair(4)),
            ("6", 17, lambda: construct_cycle_tree(6, 17)),
            ("2", 9, lambda: construct_cycle_tree(2, 9)),
            ("2,2,2", 22, lambda: construct_basic_tree(3)),
            ("2,2,2", 25, lambda: extend_tree(construct_basic_tree(3), CycleType([2, 2, 2]), 25)),
            ("2,4,4", 50, lambda: construct_general(CycleType([2, 4, 4]))),
            ("2,3", 19,
             lambda: extend_tree(construct_general(CycleType([2, 3])), CycleType([2, 3]), 19)),
        ],
    )
    def test_family_choice(self, text, n, build):
        assert construct(CycleType.from_text(text), n) == build()

    def test_even_count_refused(self):
        with pytest.raises(ParityError) as caught:
            construct(CycleType([2, 4, 5]), 57)
        assert str(caught.value) == (
            "c(A) = 8 is even, so sets of type (5,4,2) contain only even permutations"
            " and cannot generate the symmetric group"
        )

    @pytest.mark.parametrize("parts, n, smallest",
                             [([4], 6, 7), ([2, 2, 2], 21, 22), ([2, 3], 15, 16)])
    def test_below_the_smallest_degree(self, parts, n, smallest):
        cycle_type = CycleType(parts)
        with pytest.raises(ValueError) as caught:
            construct(cycle_type, n)
        assert str(caught.value) == (
            f"smallest supported degree for type ({cycle_type}) is {smallest}"
        )
        assert construct(cycle_type, smallest).degree == smallest

    @pytest.mark.parametrize("parts", [[4], [6], [2, 2, 2], [2, 3], [3, 4], [2] * 5, [2] * 7])
    def test_construction_degree_is_where_construct_starts(self, parts):
        cycle_type = CycleType(parts)
        smallest = construction_degree(cycle_type)
        assert construct(cycle_type, smallest).degree == smallest
        with pytest.raises(ValueError):
            construct(cycle_type, smallest - 1)
        # the basic tree on K_{2k+1} and the general plan agree when 2k+1 is prime
        if cycle_type.k > 1 and set(parts) == {2}:
            k = cycle_type.k
            assert (smallest == general_plan(cycle_type).degree) == (k in (3, 5))


class TestEulerianCircuit:
    def test_triangle(self):
        assert eulerian_circuit_complete(3) == [1, 2, 3, 1]

    def test_k5_covers_every_edge_once(self):
        walk = eulerian_circuit_complete(5)
        edges = [frozenset(e) for e in zip(walk, walk[1:])]
        assert len(edges) == 10
        assert len(set(edges)) == 10
        assert walk[0] == walk[-1] == 1

    def test_even_vertex_count_rejected(self):
        with pytest.raises(NoCircuit):
            eulerian_circuit_complete(4)


class TestBasicTree:
    def test_k1_is_the_transposition_path(self):
        T = construct_basic_tree(1)
        assert [g.to_text() for g in T.elements] == ["(1 2)", "(2 3)", "(3 4)"]

    def test_k3_structure_and_order(self):
        T = construct_basic_tree(3)
        assert T.degree == 22 and len(T) == 7
        result = predicates(T, include_balance=False)
        assert result["semi_connected"] and result["split"]
        assert order_of(T) == math.factorial(22)

    def test_published_table_passes_the_same_checks(self):
        T = make_set(BASIC_22_TABLE, 22, [2, 2, 2])
        result = predicates(T, include_balance=False)
        assert result["semi_connected"] and result["split"]
        assert order_of(T) == math.factorial(22)
        assert generates(T.elements, 22) == "symmetric"

    def test_even_k_rejected(self):
        with pytest.raises(ParityError):
            construct_basic_tree(2)


class TestGeneralConstruction:
    def test_plan_for_three_parts(self):
        plan = general_plan(CycleType([2, 4, 5]))
        assert (plan.p, plan.m, plan.degree, plan.size) == (7, 1, 57, 7)
        assert plan.phi_bound == 8 * 31 + 1

    def test_reproduces_published_245_table(self):
        T = construct_general(CycleType([2, 4, 5]))
        expected = [P(line, 57) for line in GENERAL_245_TABLE]
        assert T.elements == expected

    def test_transposition_case_reproduces_prime7_table(self):
        T = construct_general(CycleType([2, 2, 2]))
        expected = [P(line, 22) for line in PRIME7_22_TABLE]
        assert T.elements == expected

    def test_single_transposition_type_collapses_to_path(self):
        T = construct_general(CycleType([2]))
        assert [g.to_text() for g in T.elements] == ["(1 2)", "(2 3)", "(3 4)"]

    def test_even_count_builds_alternating_generators(self):
        # deliberate deviation: even-c types are permitted and generate the
        # alternating group (they consist of even permutations)
        T = construct_general(CycleType([2, 2]))
        assert all(g.parity() == 0 for g in T.elements)
        assert generates(T.elements, T.degree) == "alternating"

    def test_single_cycle_type_through_the_general_route(self):
        # an alternative to the chained-cycle construction: widening the
        # transposition triangle gives three 4-cycles on 10 points
        T = construct_general(CycleType([4]))
        assert T.degree == 10 and len(T) == 3
        assert order_of(T) == math.factorial(10)
        flags = predicates(T, include_balance=False)
        assert flags["semi_connected"] and flags["split"]

    def test_mixed_type_construct_and_extend(self):
        cycle_type = CycleType([3, 4])
        plan = general_plan(cycle_type)
        assert (plan.p, plan.m, plan.degree) == (5, 1, 26)
        base = construct_general(cycle_type)
        assert order_of(base) == math.factorial(26)
        extended = extend_tree(base, cycle_type, 31)
        assert len(extended) == f_lower_bound(cycle_type, 31) == 6
        assert order_of(extended) == math.factorial(31)

    def test_m2_instance_splits_into_matching_fragments(self):
        cycle_type = CycleType([2, 2, 2, 3])
        plan = general_plan(cycle_type)
        assert plan.m == 2 and plan.p == 17
        T = construct_general(cycle_type)
        assert T.degree == plan.degree and len(T) == plan.size
        result = predicates(T, include_balance=False)
        assert result["semi_connected"] and result["split"]
        # consecutive fragments recombine to elements of the doubled class
        doubled = cycle_type.repeated(2)
        for first, second in zip(T.elements[0::2], T.elements[1::2]):
            assert (first * second).cycle_type().parts == doubled.parts


class TestSplitDivisor:
    def test_m1_is_identity(self):
        T = make_set(["(1 2)", "(2 3)"], 3, [2])
        assert split_divisor(T, CycleType([2]), 1) == T

    def test_disjoint_split(self):
        T = GeneratorSet(4, [P("(1 2)(3 4)", 4)], CycleType([2, 2]))
        parts = split_divisor(T, CycleType([2]), 2)
        assert [g.to_text() for g in parts.elements] == ["(1 2)", "(3 4)"]

    def test_type_mismatch(self):
        T = make_set(["(1 2)", "(2 3)"], 3, [2])
        with pytest.raises(ValueError):
            split_divisor(T, CycleType([2]), 2)

    def test_fragments_compose_to_original(self):
        wide = GeneratorSet(10, [P("(1 2 3)(4 5)(6 7 8)(9 10)", 10)], CycleType([3, 2, 3, 2]))
        parts = split_divisor(wide, CycleType([3, 2]), 2)
        assert len(parts) == 2
        assert parts.elements[0] * parts.elements[1] == wide.elements[0]


class TestExtendTree:
    def test_cycle_pair_to_ten_points(self):
        T = extend_tree(construct_cycle_pair(4), CycleType([4]), 10)
        assert len(T) == 3
        assert order_of(T) == math.factorial(10)

    def test_no_op_extension(self):
        T = construct_cycle_pair(4)
        assert extend_tree(T, CycleType([4]), 7) is T

    def test_basic_tree_to_25_points(self):
        T = extend_tree(construct_basic_tree(3), CycleType([2, 2, 2]), 25)
        assert len(T) == 8
        assert order_of(T) == math.factorial(25)
        result = predicates(T, include_balance=False)
        assert result["semi_connected"] and result["split"]

    def test_remainder_extension_generates(self):
        T = extend_tree(construct_basic_tree(3), CycleType([2, 2, 2]), 24)
        assert len(T) == 8
        assert order_of(T) == math.factorial(24)

    def test_counts_match_lower_bound(self):
        base = construct_basic_tree(3)
        for target in range(22, 31):
            T = extend_tree(base, CycleType([2, 2, 2]), target)
            assert len(T) == f_lower_bound(CycleType([2, 2, 2]), target)
            assert T.degree == target

    def test_parity_gate(self):
        with pytest.raises(ParityError):
            extend_tree(construct_cycle_pair(4), CycleType([3]), 12)


class TestBruteForce:
    def test_transpositions_need_a_spanning_tree(self):
        assert brute_force_f(CycleType([2]), 4, 3) == 3

    def test_four_cycles_on_seven_points(self):
        assert brute_force_f(CycleType([4]), 7, 2) == 2

    def test_not_found_within_cap(self):
        assert brute_force_f(CycleType([2]), 3, 1) is None

    def test_class_enumeration_counts(self):
        assert len(extended_class_elements(CycleType([2]), 4)) == 6
        assert len(extended_class_elements(CycleType([4]), 7)) == 210
        assert len(extended_class_elements(CycleType([2, 2]), 4)) == 3

    def test_agrees_with_lower_bound_where_defined(self):
        for n in (3, 4, 5):
            assert brute_force_f(CycleType([2]), n, 4) == f_lower_bound(CycleType([2]), n)

    @pytest.mark.parametrize("parts", [[2], [3], [4], [2, 2], [3, 2], [2, 2, 2], [3, 3], [4, 2, 2]])
    def test_class_size_formula_matches_the_enumeration(self, parts):
        for n in range(2, 9):
            expected = len(extended_class_elements(CycleType(parts), n))
            assert gensets.extended_class_size(CycleType(parts), n) == expected, n

    def test_guard_trips_before_enumerating(self, monkeypatch):
        # (3,3,3) on 16 points: 16! / (7! 3^3 3!) = 25,625,600 elements
        def never(cycle_type, n):
            raise AssertionError("C(A) was enumerated")

        monkeypatch.setattr(gensets, "extended_class_elements", never)
        with pytest.raises(ValueError, match=r"\|C\(A\)\| = 25625600 exceeds"):
            brute_force_f(CycleType([3, 3, 3]), 16, 2)


def feasible_split_semiconnected(k, n):
    """Necessary counting conditions for a split semi-connected set of m
    elements of type (2,..,2) (k twos) on exactly n points to exist.

    Coverage: the m supports (2k points each) lose one point per sharing
    unit, s = 2km - n of them.  Splitness caps the pairwise sharing budget
    at C(m,2), and the cheapest way to spend s units is doubling distinct
    points, so the minimum pair cost spreads the units evenly over the n
    points (convexity).  Connectivity of the km transposition edges needs
    km >= n - 1.
    """
    for m in range(1, 4 * n + 4):
        s = 2 * k * m - n
        if s < 0 or k * m < n - 1:
            continue
        base, extra = divmod(s, n)
        # units per point: `extra` points carry base+1, the rest carry base
        cost = extra * (base + 1) * (base + 2) // 2 + (n - extra) * base * (base + 1) // 2
        if cost <= m * (m - 1) // 2:
            return True
    return False


class TestSplitSemiconnectedGeneration:
    def test_counting_bound_pins_the_feasible_degrees(self):
        # three-transposition elements admit no split semi-connected set
        # below 21 points; two-transposition ones start at 10
        assert not any(feasible_split_semiconnected(3, n) for n in range(2, 21))
        assert feasible_split_semiconnected(3, 22)
        assert not any(feasible_split_semiconnected(2, n) for n in range(2, 10))
        assert feasible_split_semiconnected(2, 10)

    def test_guided_sampler_two_transpositions(self):
        rng = random.Random(20_002)
        for _ in range(25):
            T = random_split_semiconnected_basic(rng, 2, 13)
            assert generates(T.elements, T.degree) == "alternating"

    def test_circuit_sampler_three_transpositions(self):
        # n <= 13 is provably empty for k = 3 (counting bound above), so the
        # random instances live at the smallest feasible scale, 22 points
        rng = random.Random(20_003)
        for _ in range(25):
            T = random_circuit_basic_set(rng, 3)
            assert T.degree == 22
            assert generates(T.elements, T.degree) == "symmetric"

    def test_balanced_smoke_small_sets(self):
        # random relabelings of balanced constructions stay balanced and
        # generate the symmetric group
        rng = random.Random(31)
        base = construct_basic_tree(1)
        for _ in range(20):
            images = list(range(1, base.degree + 1))
            rng.shuffle(images)
            sigma = Permutation(images)
            conjugated = GeneratorSet(
                base.degree,
                [g.conjugate_by(sigma) for g in base.elements],
                base.cycle_type,
            )
            result = predicates(conjugated)
            assert result["semi_connected"] and result["split"]
            assert result["balanced"] is not None
            assert generates(conjugated.elements, conjugated.degree) == "symmetric"


def test_position_slot_walkthrough_recorded_not_asserted():
    """The k=4 walkthrough word sigma tau sigma^2 tau sigma tau sigma^2 is
    kept as a regression vector under the positions-as-slots reading; a
    mismatch warns instead of failing."""
    k = 4
    n = 2 * k - 1
    sigma = Permutation.from_cycles([tuple(range(1, k + 1))], n)
    tau = Permutation.from_cycles([tuple(range(k, 2 * k))], n)
    word = sigma * tau * sigma * sigma * tau * sigma * tau * sigma * sigma
    arrangement = [word.inverse()(p) for p in range(1, n + 1)]
    tail = tuple(arrangement[k - 1:])
    if tail != (2, 4, 1, 3):
        warnings.warn(
            f"slot walkthrough mismatch: positions {k}..{n} hold {tail}, not (2, 4, 1, 3)"
        )
