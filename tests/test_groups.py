import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cayleykit.errors import CapExceeded
from cayleykit.gensets import construct, construct_basic_tree, construct_cycle_tree
from cayleykit.groups import (
    StabilizerChain,
    _Level,
    build_chain,
    enumerate_elements,
    generates,
    orbits,
)
from cayleykit.perms import CycleType, Permutation, compose_maps, invert_map


def P(text, n):
    return Permutation.from_text(text, n)


def mulclose(gens, n):
    """Independent brute-force closure oracle over image tables."""
    tables = [g._map for g in gens]
    identity = tuple(range(n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            for t in tables:
                b = tuple(t[x] for x in a)
                if b not in elements:
                    elements.add(b)
                    new.append(b)
        frontier = new
    return elements


def random_group_generators(rng, n):
    """Seeded generator tuples of degree n: random, intransitive,
    imprimitive (block-preserving) and dihedral groups."""
    kind = rng.choice(("random", "intransitive", "imprimitive", "dihedral"))
    points = list(range(n))
    if kind == "dihedral":
        rotation = points[1:] + points[:1]
        reflection = [(-i) % n for i in points]
        return kind, [rotation, reflection]
    gens = []
    for _ in range(rng.randint(1, 3)):
        if kind == "random":
            table = points[:]
            rng.shuffle(table)
        elif kind == "intransitive":
            cut = rng.randint(1, n - 1)
            low, high = points[:cut], points[cut:]
            rng.shuffle(low)
            rng.shuffle(high)
            table = low + high
        else:
            size = next((b for b in (3, 2) if n % b == 0 and n > b), 1)
            blocks = [points[i:i + size] for i in range(0, n, size)]
            rng.shuffle(blocks)
            for block in blocks:
                rng.shuffle(block)
            table = [0] * n
            for src, dst in zip(range(0, n, size), blocks):
                for offset, point in enumerate(dst):
                    table[src + offset] = point
        gens.append(table)
    return kind, gens


def random_group_corpus():
    """The seeded corpus of (n, kind, tables): 160 groups of degree 3-9, 111
    of which reach the Schreier fallback."""
    rng = random.Random(2024)
    corpus = []
    for _ in range(160):
        n = rng.randint(3, 9)
        corpus.append((n, *random_group_generators(rng, n)))
    return corpus


def schreier_repair_corpus():
    """The seeded (n, tables) of 64 random groups of degree 3-9 that the
    Schreier check completes when the pump is off."""
    rng = random.Random(3517)
    corpus = []
    for _ in range(64):
        n = rng.randint(3, 9)
        corpus.append((n, [rng.sample(range(n), n) for _ in range(rng.randint(1, 3))]))
    return corpus


# One member of each construction family, as `cayleykit construct` builds it.
FAMILY_MEMBERS = (("4", 22), ("6", 17), ("2,2,2", 22), ("2,3", 16), ("2,3,3", 36), ("2,4,4", 50))


def family_member(text, n):
    return construct(CycleType.from_text(text), n).elements, n


class TestBuildChain:
    def test_transposition_plus_cycle_gives_full_group(self):
        chain = build_chain([P("(1 2)", 5), P("(2 3 4 5)", 5)], 5)
        assert chain.order() == 120
        assert len(mulclose(chain.generators, 5)) == 120

    def test_empty_generators(self):
        assert build_chain([], 4).order() == 1

    def test_cyclic_group(self):
        assert build_chain([P("(1 2 3)", 3)], 3).order() == 3

    @pytest.mark.parametrize(
        "gens, n",
        [pytest.param([P("(1 2)", 5), P("(2 3 4 5)", 5)], 5, id="S5")]
        + [pytest.param(*family_member(text, n), id=f"{text}@{n}")
           for text, n in FAMILY_MEMBERS]
        + [pytest.param([Permutation._from_zero_based(tuple(t)) for t in tables], n,
                        id=f"{i}-{kind}-{n}")
           for i, (n, kind, tables) in enumerate(random_group_corpus())],
    )
    def test_chain_invariants(self, gens, n):
        chain = build_chain(gens, n)
        product = 1
        for depth, (point, (transversal, level_gens)) in enumerate(
            zip(chain.base, chain.levels)
        ):
            product *= len(transversal)
            for target, representative in transversal.items():
                assert representative(point) == target
            for g in level_gens:
                assert all(g(earlier) == earlier for earlier in chain.base[:depth])
        assert product == chain.order()
        assert all(chain.contains(g) for g in gens)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            build_chain([P("(1 2)", 3)], 4)


# Sets the pump alone certifies, once stalling into the Schreier check.
PUMP_SETS = [
    pytest.param(lambda: construct_cycle_tree(4, 22), id="4@22"),
    pytest.param(lambda: construct_cycle_tree(4, 30), id="4@30"),
    *(pytest.param(lambda n=n: construct_cycle_tree(6, n), id=f"6@{n}")
      for n in range(17, 22)),
    pytest.param(lambda: construct_basic_tree(3), id="2,2,2@22"),
    pytest.param(lambda: construct_basic_tree(5), id="basic-k5@56"),
]


class TestPump:
    """The product-replacement pump alone certifies S_n on sets whose
    correlated state-word sifting used to stall into the Schreier check."""

    @pytest.mark.parametrize("make", PUMP_SETS)
    def test_certifies_symmetric_group_without_fallback(self, make, monkeypatch):
        def no_fallback(self):
            raise AssertionError("the pump fell back to the Schreier check")

        monkeypatch.setattr(StabilizerChain, "_verify_schreier", no_fallback)
        T = make()
        assert build_chain(T.elements, T.degree).order() == math.factorial(T.degree)

    def test_generates_reuses_a_built_chain(self, monkeypatch):
        gens = [P("(1 2)", 4), P("(2 3)", 4), P("(3 4)", 4)]
        chain = build_chain(gens, 4)
        monkeypatch.setattr("cayleykit.groups.build_chain", None)
        assert generates(gens, 4, chain) == "symmetric"


class TestSchreierRepair:
    """With the pump off, the chain starts from the generators' residues
    alone and the Schreier check completes it: each residue it finds is
    installed and verification resumes from the residue's stop level."""

    def test_repaired_orders_match_sympy_and_the_closure(self, monkeypatch):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        monkeypatch.setattr(StabilizerChain, "_pump", lambda self: False)
        repairs = []
        check_level = StabilizerChain._check_level

        def counted(self, i):
            stop = check_level(self, i)
            if stop is not None:
                repairs.append(stop)
            return stop

        monkeypatch.setattr(StabilizerChain, "_check_level", counted)
        for n, tables in schreier_repair_corpus():
            gens = [Permutation._from_zero_based(tuple(t)) for t in tables]
            order = build_chain(gens, n).order()
            oracle = combinatorics.PermutationGroup([combinatorics.Permutation(t) for t in tables])
            assert order == oracle.order(), tables
            if n <= 7:
                assert order == len(enumerate_elements(gens, n, math.factorial(n))), tables
        assert len(repairs) >= 60


def sweep(level, g, g_inv):
    """Reference: install (g, g^-1) on ``level`` and sweep its orbit, as every
    install did before a level whose orbit fills its room skipped the sweep."""
    level.gens.append((g, g_inv))
    trans = level.transversal
    orbit = list(trans)
    start = len(orbit)
    for p in orbit:
        q = g[p]
        if q not in trans:
            trans[q] = compose_maps(g_inv, trans[p])
            orbit.append(q)
    frontier = orbit[start:]
    while frontier:
        nxt = []
        for p in frontier:
            for h, h_inv in level.gens:
                q = h[p]
                if q not in trans:
                    trans[q] = compose_maps(h_inv, trans[p])
                    nxt.append(q)
        frontier = nxt


def sweeping_add_element(self, g, start=0):
    """Reference ``StabilizerChain._add_element``: every level up to the stop
    level sweeps its orbit with the new residue."""
    residue, stop = self._strip(g, start)
    if residue == self._identity:
        return None
    if stop == len(self._levels):
        base_point = next(i for i, x in enumerate(residue) if x != i)
        self._levels.append(_Level(base_point, self._identity, self.degree - stop))
    residue_inv = invert_map(residue)
    for j in range(stop + 1):
        sweep(self._levels[j], residue, residue_inv)
    return stop


def chain_state(chain):
    """Per level: base point, transversal items in insertion order, gens."""
    return [(level.point, list(level.transversal.items()), list(level.gens))
            for level in chain._levels]


def tables_to_gens(corpus):
    return [([Permutation._from_zero_based(tuple(t)) for t in tables], n)
            for n, tables in corpus]


def construct_sets():
    return [(construct(CycleType.from_text(text), n).elements, n)
            for text, n in (("2,4,4", 55), ("2,3,3", 45), ("6", 40))]


class TestFullLevels:
    """A level whose orbit holds n - depth points takes new generators
    without a sweep; the chain is the one the always-sweeping reference
    builds, level by level."""

    @staticmethod
    def assert_same_chains(cases, monkeypatch):
        built = [chain_state(build_chain(gens, n)) for gens, n in cases]
        with monkeypatch.context() as patched:
            patched.setattr(StabilizerChain, "_add_element", sweeping_add_element)
            reference = [chain_state(build_chain(gens, n)) for gens, n in cases]
        assert built == reference

    @pytest.mark.parametrize("make", PUMP_SETS)
    def test_pump_sets(self, make, monkeypatch):
        T = make()
        self.assert_same_chains([(T.elements, T.degree)], monkeypatch)

    def test_random_intransitive_and_imprimitive_groups(self, monkeypatch):
        corpus = [(n, tables) for n, _, tables in random_group_corpus()]
        self.assert_same_chains(tables_to_gens(corpus), monkeypatch)

    def test_schreier_repair(self, monkeypatch):
        monkeypatch.setattr(StabilizerChain, "_pump", lambda self: False)
        self.assert_same_chains(tables_to_gens(schreier_repair_corpus()), monkeypatch)

    def test_construct_sets(self, monkeypatch):
        self.assert_same_chains(construct_sets(), monkeypatch)

    def test_no_sweep_runs_on_a_full_level(self, monkeypatch):
        sweeps = []
        add_gen = _Level.add_gen

        def spy(level, g, g_inv):
            sweeps.append(len(level.transversal) == level.room)
            add_gen(level, g, g_inv)

        monkeypatch.setattr(_Level, "add_gen", spy)
        installs = 0
        for gens, n in construct_sets():
            chain = build_chain(gens, n)
            assert chain.order() == math.factorial(n)
            installs += sum(len(level.gens) for level in chain._levels)
        assert not any(sweeps)
        assert len(sweeps) < installs  # some installs skipped the sweep

    def test_a_room_one_short_loses_orbit_points(self, monkeypatch):
        init = _Level.__init__

        def one_short(level, point, identity, room):
            init(level, point, identity, room - 1)

        # With the pump on, a short level would keep taking residues it
        # cannot sift; the Schreier check instead meets a point the short
        # level never reached.
        monkeypatch.setattr(StabilizerChain, "_pump", lambda self: False)
        monkeypatch.setattr(_Level, "__init__", one_short)
        with pytest.raises(KeyError):
            build_chain([P("(1 2)", 5), P("(2 3 4 5)", 5)], 5)


class TestSympyOracle:
    def test_orders_and_verdicts_match_sympy(self):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        kinds = set()
        for n, kind, tables in random_group_corpus():
            kinds.add(kind)
            gens = [Permutation._from_zero_based(tuple(t)) for t in tables]
            oracle = combinatorics.PermutationGroup(
                [combinatorics.Permutation(t) for t in tables]
            )
            assert build_chain(gens, n).order() == oracle.order(), (kind, tables)
            expected = (
                "symmetric" if oracle.is_symmetric
                else "alternating" if oracle.is_alternating
                else "other"
            )
            assert generates(gens, n) == expected, (kind, tables)
        assert kinds == {"random", "intransitive", "imprimitive", "dihedral"}


@st.composite
def generator_words(draw):
    n = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(range(1, n + 1)).map(Permutation), min_size=1, max_size=3))
    word = draw(st.lists(st.tuples(st.integers(0, len(gens) - 1), st.booleans()), max_size=12))
    return n, gens, word


class TestMembership:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(generator_words())
    def test_random_generator_words_are_members(self, case):
        n, gens, word = case
        chain = build_chain(gens, n)
        product = Permutation.identity(n)
        for index, inverted in word:
            product = product * (gens[index].inverse() if inverted else gens[index])
        assert chain.contains(product)


class TestGroupOrder:
    def test_cycle_pair_order(self):
        chain = build_chain([P("(1 2 3 4)", 7), P("(4 5 6 7)", 7)], 7)
        assert chain.order() == 5040
        assert len(mulclose(chain.generators, 7)) == 5040

    def test_22_point_basic_set_order_is_exact(self):
        from reference_tables import BASIC_22_TABLE

        gens = [P(line, 22) for line in BASIC_22_TABLE]
        assert build_chain(gens, 22).order() == math.factorial(22)

    def test_matches_brute_closure_on_random_groups(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 7)
            gens = []
            for _ in range(rng.randint(0, 3)):
                images = list(range(1, n + 1))
                rng.shuffle(images)
                gens.append(Permutation(images))
            chain = build_chain(gens, n)
            assert chain.order() == len(mulclose(gens, n))

    def test_order_invariant_under_generator_shuffle_and_inversion(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 8)
            gens = []
            for _ in range(rng.randint(1, 3)):
                images = list(range(1, n + 1))
                rng.shuffle(images)
                gens.append(Permutation(images))
            reference = build_chain(gens, n).order()
            shuffled = list(gens)
            rng.shuffle(shuffled)
            pick = rng.randrange(len(shuffled))
            shuffled[pick] = shuffled[pick].inverse()
            assert build_chain(shuffled, n).order() == reference


class TestContains:
    def test_parity_exclusion(self):
        chain = build_chain([P("(1 2 3)", 3)], 3)
        assert not chain.contains(P("(1 2)", 3))
        assert chain.contains(P("(1 3 2)", 3))

    def test_generator_membership(self):
        chain = build_chain([P("(1 2 3)", 3), P("(1 2)", 3)], 3)
        assert chain.contains(P("(1 2)", 3))

    def test_degree_mismatch(self):
        chain = build_chain([P("(1 2)", 3)], 3)
        with pytest.raises(ValueError):
            chain.contains(P("(1 2)", 4))

    def test_membership_matches_closure(self):
        rng = random.Random(13)
        gens = [P("(1 2 3 4)", 6), P("(4 5)", 6)]
        chain = build_chain(gens, 6)
        closure = mulclose(gens, 6)
        for _ in range(200):
            images = list(range(1, 7))
            rng.shuffle(images)
            sigma = Permutation(images)
            assert chain.contains(sigma) == (sigma._map in closure)


class TestGenerates:
    def test_adjacent_three_cycles_give_alternating(self):
        assert generates([P("(1 2 3)", 4), P("(2 3 4)", 4)], 4) == "alternating"

    def test_transposition_path_gives_symmetric(self):
        assert generates([P("(1 2)", 4), P("(2 3)", 4), P("(3 4)", 4)], 4) == "symmetric"

    def test_small_group_is_other(self):
        assert generates([P("(1 2)(3 4)", 4)], 4) == "other"

    def test_intransitive_group_is_other(self):
        assert generates([P("(1 2)", 4), P("(3 4)", 4)], 4) == "other"

    def test_all_k_cycles_generate_by_parity(self):
        # even cycle length: symmetric; odd: alternating
        import itertools

        for n in range(2, 8):
            for k in range(2, n + 1):
                gens = []
                for combo in itertools.combinations(range(1, n + 1), k):
                    first = combo[0]
                    for rest in itertools.permutations(combo[1:]):
                        gens.append(Permutation.from_cycles([(first, *rest)], n))
                expected = "symmetric" if k % 2 == 0 else "alternating"
                if n == 2 and k == 2:
                    expected = "symmetric"
                assert generates(gens, n) == expected, (n, k)


class TestOrbits:
    def test_two_blocks_and_a_fixed_point(self):
        assert orbits([P("(1 2)", 5), P("(4 5)", 5)], 5).blocks == ((1, 2), (3,), (4, 5))

    def test_published_set_is_transitive(self):
        from reference_tables import BASIC_22_TABLE

        gens = [P(line, 22) for line in BASIC_22_TABLE]
        assert orbits(gens, 22).is_single

    def test_no_generators(self):
        assert orbits([], 3).blocks == ((1,), (2,), (3,))


class TestEnumerateElements:
    def test_symmetric_group_on_three_points(self):
        elements = enumerate_elements([P("(1 2)", 3), P("(2 3)", 3)], 3, 10)
        assert len(elements) == 6
        assert elements[0].is_identity()
        assert len(set(elements)) == 6

    def test_breadth_first_word_order(self):
        a, b = P("(1 2)", 3), P("(2 3)", 3)
        elements = enumerate_elements([a, b], 3, 10)
        assert elements[:3] == [Permutation.identity(3), a, b]
        # length-2 words in generator-index order: a*a = e (dup), a*b, b*a, b*b = e
        assert elements[3] == a * b
        assert elements[4] == b * a

    def test_cycle_pair_closure_size(self):
        elements = enumerate_elements([P("(1 2 3 4)", 7), P("(4 5 6 7)", 7)], 7, 6000)
        assert len(elements) == 5040

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            enumerate_elements([P("(1 2)", 3), P("(2 3)", 3)], 3, 5)
        assert len(enumerate_elements([P("(1 2)", 3), P("(2 3)", 3)], 3, 6)) == 6

    def test_matches_chain_order(self):
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randint(1, 6)
            gens = []
            for _ in range(rng.randint(0, 2)):
                images = list(range(1, n + 1))
                rng.shuffle(images)
                gens.append(Permutation(images))
            chain_size = build_chain(gens, n).order()
            assert chain_size == len(enumerate_elements(gens, n, 1000))
