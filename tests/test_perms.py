import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cayleykit.perms import (
    CycleType,
    Permutation,
    analyze,
    compose_maps,
    composer,
    in_extended_class,
)


def P(text, n):
    return Permutation.from_text(text, n)


def random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


class TestCompose:
    def test_left_to_right_convention(self):
        # apply (1 2) first, then (2 3): 1->2->3, 2->1->1, 3->3->2
        assert P("(1 2)", 3) * P("(2 3)", 3) == P("(1 3 2)", 3)

    def test_identity_is_neutral(self):
        rng = random.Random(0)
        for _ in range(20):
            sigma = random_perm(rng, 8)
            assert Permutation.identity(8) * sigma == sigma
            assert sigma * Permutation.identity(8) == sigma

    def test_published_product_of_transposition_sets(self):
        # g5 g7 g5 g7 must collapse to the 3-cycle on the shared point block
        g5 = P("(10 11)(14 15)(21 22)", 22)
        g7 = P("(4 5)(8 9)(15 16)", 22)
        assert g5 * g7 * g5 * g7 == P("(14 15 16)", 22)

    def test_degree_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            P("(1 2)", 2) * P("(1 2)", 3)

    def test_associativity_on_random_triples(self):
        rng = random.Random(1)
        for _ in range(1000):
            n = rng.randint(1, 30)
            a, b, c = (random_perm(rng, n) for _ in range(3))
            assert (a * b) * c == a * (b * c)


class TestInverse:
    def test_three_cycle(self):
        sigma = P("(1 2 3)", 3)
        assert sigma.inverse() == P("(1 3 2)", 3)
        assert sigma * sigma.inverse() == Permutation.identity(3)
        assert sigma.inverse() * sigma == Permutation.identity(3)

    def test_identity_and_involution(self):
        assert Permutation.identity(4).inverse() == Permutation.identity(4)
        assert P("(1 2)", 4).inverse() == P("(1 2)", 4)

    def test_random_inverses_cancel(self):
        rng = random.Random(2)
        for _ in range(1000):
            n = rng.randint(1, 30)
            sigma = random_perm(rng, n)
            assert (sigma * sigma.inverse()).is_identity()


def perms_of_degree(n):
    return st.permutations(range(1, n + 1)).map(Permutation)


def perm_tuples(size, max_degree=30):
    """``size`` permutations sharing one degree in 1..max_degree."""
    return st.integers(1, max_degree).flatmap(
        lambda n: st.tuples(*(perms_of_degree(n) for _ in range(size)))
    )


class TestComposeProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(perm_tuples(3))
    def test_associativity(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(perm_tuples(1))
    def test_product_with_inverse_is_identity(self, single):
        (a,) = single
        identity = Permutation.identity(a.degree)
        assert a * a.inverse() == identity
        assert a.inverse() * a == identity

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(perm_tuples(2))
    def test_product_applies_left_factor_first(self, pair):
        a, b = pair
        product = a * b
        assert isinstance(product._map, tuple)
        assert all(product(x) == b(a(x)) for x in range(1, a.degree + 1))

    @settings(deadline=None, derandomize=True)
    @given(perm_tuples(2, max_degree=2))
    def test_degree_one_and_two_products_are_tables(self, pair):
        a, b = pair
        table = compose_maps(a._map, b._map)
        assert type(table) is tuple and len(table) == a.degree
        assert (a * b).images == tuple(b(a(x)) for x in range(1, a.degree + 1))

    @settings(deadline=None, derandomize=True)
    @given(perm_tuples(3, max_degree=4))
    def test_composer_is_compose_maps_with_the_left_table_fixed(self, triple):
        a, b, c = triple
        compose_a = composer(a._map)
        for other in (b, c):
            assert compose_a(other._map) == compose_maps(a._map, other._map)


class TestCycleCodec:
    def test_parse_published_generator(self):
        g1 = P("(1 2)(5 6)(12 13)", 22)
        assert g1.support() == frozenset({1, 2, 5, 6, 12, 13})
        assert g1(1) == 2 and g1(2) == 1 and g1(12) == 13

    def test_identity_round_trip(self):
        assert Permutation.identity(5).to_text() == "()"
        assert P("()", 5) == Permutation.identity(5)
        assert P("", 5) == Permutation.identity(5)

    def test_canonical_rotation(self):
        assert P("(2 3 1)", 3).to_text() == "(1 2 3)"

    def test_cycles_sorted_by_minimum_and_rotated(self):
        sigma = P("(7 8)(2 4 3)", 9)
        assert sigma.to_text() == "(2 4 3)(7 8)"

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(200):
            sigma = random_perm(rng, rng.randint(1, 15))
            assert P(sigma.to_text(), sigma.degree) == sigma

    @pytest.mark.parametrize("bad", ["(1 2", "(1 2)(2 3)", "(0 1)", "(1 99)", "1 2"])
    def test_malformed_text_rejected(self, bad):
        with pytest.raises(ValueError):
            P(bad, 5)

    def test_from_cycles_rejects_repeats_and_range(self):
        with pytest.raises(ValueError):
            Permutation.from_cycles([(1, 2), (2, 3)], 5)
        with pytest.raises(ValueError):
            Permutation.from_cycles([(1, 6)], 5)


class TestAnalyze:
    def test_mixed_type(self):
        report = analyze(P("(1 2)(3 4 5)", 5))
        assert report["support"] == frozenset({1, 2, 3, 4, 5})
        assert report["parity"] == "odd"
        assert report["cycle_type"].parts == (3, 2)
        assert report["order"] == 6

    def test_identity(self):
        report = analyze(Permutation.identity(6))
        assert report["support"] == frozenset()
        assert report["parity"] == "even"
        assert report["cycle_type"] is None
        assert report["order"] == 1

    def test_four_cycle_is_odd(self):
        report = analyze(P("(1 2 3 4)", 4))
        assert report["parity"] == "odd"
        assert report["order"] == 4

    def test_parity_is_a_homomorphism(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(2, 12)
            a, b = random_perm(rng, n), random_perm(rng, n)
            assert (a * b).parity() == a.parity() ^ b.parity()

    def test_order_matches_iteration(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 12)
            sigma = random_perm(rng, n)
            power = sigma
            m = 1
            while not power.is_identity():
                power = power * sigma
                m += 1
            assert sigma.order() == m

    def test_split_cycle_products_merge(self):
        # two k-cycles whose supports share exactly one point multiply to a
        # (2k-1)-cycle
        rng = random.Random(6)
        for _ in range(100):
            k = rng.randint(2, 6)
            n = 2 * k - 1
            points = list(range(1, n + 1))
            rng.shuffle(points)
            shared = points[0]
            left = [shared] + points[1:k]
            right = [shared] + points[k:]
            a = Permutation.from_cycles([left], n)
            b = Permutation.from_cycles([right], n)
            assert (a * b).cycle_type().parts == (2 * k - 1,)


class TestExtendDegree:
    def test_explicit_extension(self):
        sigma = P("(1 2 3)", 3)
        wide = sigma.extend(7)
        assert wide.degree == 7
        assert wide.support() == frozenset({1, 2, 3})

    def test_no_shrinking(self):
        with pytest.raises(ValueError):
            P("(1 2)", 5).extend(3)


class TestCycleType:
    def test_sorted_descending(self):
        assert CycleType([2, 5, 4]).parts == (5, 4, 2)

    def test_c_value(self):
        assert CycleType([2, 2, 2]).c_value == 3
        assert CycleType([2, 4, 5]).c_value == 8

    def test_rejects_small_parts(self):
        with pytest.raises(ValueError):
            CycleType([1, 2])
        with pytest.raises(ValueError):
            CycleType([])

    def test_repeated(self):
        assert CycleType([2, 3]).repeated(2).parts == (3, 3, 2, 2)

    def test_text_round_trip(self):
        assert str(CycleType.from_text("2,4,5")) == "5,4,2"


class TestExtendedClass:
    def test_published_generator_is_basic(self):
        assert in_extended_class(P("(1 2)(5 6)(12 13)", 22), CycleType([2, 2, 2]))

    def test_extra_cycles_are_forbidden(self):
        assert not in_extended_class(P("(1 2)(3 4 5)", 5), CycleType([2, 2]))

    def test_identity_never_in_a_class(self):
        assert not in_extended_class(Permutation.identity(4), CycleType([2]))


def test_order_of_mixed_element():
    assert P("(1 2)(3 4 5)", 5).order() == math.lcm(2, 3)
