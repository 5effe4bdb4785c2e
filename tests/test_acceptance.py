"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 4 and 5 contain clauses that are mathematically
unattainable as stated (see the test docstrings); those assertions are kept
faithful and fail, with the nearest attainable property verified alongside.
"""

import itertools
import math
import random
import subprocess
import sys

import pytest

from cayleykit.automorphisms import aut_snt, graph_aut_order, verify_order_identity
from cayleykit.cayley import build_cayley, commutator_cycle, commuting_4cycle, walk_in_graph
from cayleykit.gensets import (
    GeneratorSet,
    brute_force_f,
    construct_basic_tree,
    construct_cycle_pair,
    construct_cycle_tree,
    construct_general,
    f_lower_bound,
    predicates,
)
from cayleykit.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    petersen_graph,
)
from cayleykit.groups import build_chain, generates
from cayleykit.numth import cyclotomic_eval, is_prime, prime_one_mod
from cayleykit.perms import CycleType, Permutation
from cayleykit.quasiham import (
    FlowNetwork,
    brute_cycle_factor,
    brute_hamiltonian,
    cycle_factor_forced,
    hamiltonian_via_qh,
)
from cayleykit.spectral import check_regular_spectrum, second_eigenvalue_comparison, spectrum_topk

from reference_tables import BASIC_22_TABLE, GENERAL_245_TABLE
from samplers import (
    random_circuit_basic_set,
    random_graph,
    random_connected_graph,
    random_split_semiconnected_basic,
)


def P(text, n):
    return Permutation.from_text(text, n)


def report(line):
    print(f"\nPASS: {line}")


def test_c01_cycle_pairs_generate_the_full_group():
    """Pairs of chained k-cycles generate S_{2k-1} for even k."""
    for k in (2, 4, 6):
        T = construct_cycle_pair(k)
        assert build_chain(T.elements, T.degree).order() == math.factorial(2 * k - 1)
    report("criterion 1: cycle pairs reach order (2k-1)! for k = 2, 4, 6")


def test_c02_cycle_trees_hit_the_bound_up_to_degree_40():
    """ceil((n-1)/(k-1)) chained k-cycles generate S_n for all n up to 40."""
    for k in (4, 6):
        for n in range(2 * k - 1, 41):
            T = construct_cycle_tree(k, n)
            assert len(T) == -(-(n - 1) // (k - 1))
            assert build_chain(T.elements, n).order() == math.factorial(n)
    report("criterion 2: cycle trees are minimal and complete for k in {4,6}, n <= 40")


def test_c03_basic_tree_on_22_points_and_the_published_table():
    """The circuit construction and the published table both generate S_22."""
    constructed = construct_basic_tree(3)
    published = GeneratorSet(22, [P(t, 22) for t in BASIC_22_TABLE], CycleType([2, 2, 2]))
    for T in (constructed, published):
        assert T.degree == 22 and len(T) == 7
        flags = predicates(T, include_balance=False)
        assert flags["semi_connected"] and flags["split"]
        assert build_chain(T.elements, 22).order() == math.factorial(22)
    report("criterion 3: both 22-point transposition sets are split, semi-connected, order 22!")


def test_c04_split_semiconnected_parity_k2():
    """Random split semi-connected two-transposition sets generate the
    alternating group, on degrees up to 13 as stated."""
    rng = random.Random(404)
    for _ in range(50):
        T = random_split_semiconnected_basic(rng, 2, 13)
        assert T.degree <= 13
        assert generates(T.elements, T.degree) == "alternating"
    report("criterion 4a: 50 random split semi-connected 2-transposition sets are alternating (n <= 13)")


def test_c04_split_semiconnected_parity_k3_nearest_feasible():
    """The k = 3 counterpart of the parity check, at the smallest degrees
    where such sets exist at all (22 points)."""
    rng = random.Random(405)
    for _ in range(50):
        T = random_circuit_basic_set(rng, 3)
        assert generates(T.elements, T.degree) == "symmetric"
    report("criterion 4b: 50 random split semi-connected 3-transposition sets are symmetric (n = 22)")


def test_c04_split_semiconnected_k3_at_degree_13_as_stated():
    """UNATTAINABLE AS STATED: no split semi-connected subset of C(2,2,2)
    exists on 13 or fewer points.  Each element covers six points and
    pairwise overlaps are capped at one (coverage >= 6m - C(m,2), tightened
    by convexity over at most n doubled points), while a single orbit needs
    3m >= n - 1; together these force at least 7 elements on at least 21
    points.  The assertion below states the criterion faithfully and fails.
    """
    def instances_possible(n_max):
        for n in range(2, n_max + 1):
            for m in range(1, 5 * n):
                s = 6 * m - n
                if s < 0 or 3 * m < n - 1:
                    continue
                base, extra = divmod(s, n)
                cost = (
                    extra * (base + 1) * (base + 2) // 2
                    + (n - extra) * base * (base + 1) // 2
                )
                if cost <= m * (m - 1) // 2:
                    return True
        return False

    assert instances_possible(13), (
        "no split semi-connected subset of C(2,2,2) exists on n <= 13 points; "
        "the smallest instances live on 21-22 points (criterion 4 as stated "
        "is empty for k = 3; see tests above for the feasible-scale check)"
    )


def test_c05_general_construction_on_57_points():
    """The (2,4,5)-type construction: 7 balanced split generators on 57
    points, byte-identical to the published table.

    The order clause is UNATTAINABLE AS STATED: c((2,4,5)) = 8 is even, so
    all elements are even permutations and generate at most the alternating
    group; the exact order is 57!/2, and the 57! assertion below fails.
    """
    T = construct_general(CycleType([2, 4, 5]))
    assert T.degree == 57 and len(T) == 7
    published = [P(line, 57) for line in GENERAL_245_TABLE]
    assert T.elements == published
    flags = predicates(T)
    assert flags["semi_connected"] and flags["split"]
    assert flags["balanced"] is not None
    assert sorted(flags["balanced"].sizes) == [2, 4, 5]
    order = build_chain(T.elements, 57).order()
    report(
        "criterion 5 (partial): 7 balanced split generators on 57 points match the "
        f"published table; computed order = 57!/2 is {order == math.factorial(57) // 2}"
    )
    assert order == math.factorial(57), (
        f"the construction generates the alternating group exactly "
        f"(order 57!/2 = {order}); order 57! is impossible for even permutations"
    )


def test_c06_brute_force_oracle_agrees_with_the_bound():
    """Exhaustive minimal-size search matches ceil((n-1)/c) where defined."""
    cases = [
        (CycleType([2]), 3),
        (CycleType([2]), 4),
        (CycleType([2]), 5),
        (CycleType([4]), 7),
    ]
    for cycle_type, n in cases:
        assert brute_force_f(cycle_type, n, 4) == f_lower_bound(cycle_type, n)
    report("criterion 6: brute-force minimal sizes agree with the lower bound on 4 instances")


def test_c07_cyclotomic_class_primes():
    """For m = 2..16 a prime = 1 (mod m) divides Phi_m(m)."""
    for m in range(2, 17):
        p = prime_one_mod(m)
        assert is_prime(p)
        assert p % m == 1
        assert cyclotomic_eval(m, m) % p == 0
    report("criterion 7: class primes divide the cyclotomic values for m = 2..16")


def test_c08_order_identity_on_the_5_point_path():
    """|Aut(Cay(S_5, path))| = 240 = 5! * 2, both sides independent; the
    two-generator 6-cycle instance is recorded alongside."""
    path5 = GeneratorSet(5, [P(t, 5) for t in ["(1 2)", "(2 3)", "(3 4)", "(4 5)"]],
                         CycleType([2]))
    rep = verify_order_identity(path5)
    assert rep.normal
    assert rep.graph_aut_order == 240
    assert rep.aut_snt_order == 2
    assert rep.graph_aut_order == rep.n_factorial * rep.aut_snt_order
    pair3 = GeneratorSet(3, [P(t, 3) for t in ["(1 2)", "(2 3)"]], CycleType([2]))
    rep3 = verify_order_identity(pair3)
    assert rep3.graph_aut_order == 12 == 6 * rep3.aut_snt_order
    report("criterion 8: 240 = 120 x 2 on the 5-point path; 12 = 6 x 2 recorded for the 6-cycle")


def test_c09_unique_4cycles_iff_commuting():
    """On the path graph, a unique 4-cycle closes the path t2 -> e -> t1
    exactly for commuting generator pairs, with the algebraic witness."""
    path5 = GeneratorSet(5, [P(t, 5) for t in ["(1 2)", "(2 3)", "(3 4)", "(4 5)"]],
                         CycleType([2]))
    g = build_cayley(path5)
    checked = 0
    for t1, t2 in itertools.permutations(path5.elements, 2):
        cycle = commuting_4cycle(g, t1, t2)  # strict: asserts uniqueness internally
        commutes = t1 * t2 == t2 * t1
        assert (cycle is not None) == commutes
        if cycle is not None:
            e, v1, w, v2 = cycle
            assert (e, v1, w, v2) == (
                0, g.vertex_of(t1), g.vertex_of(t1 * t2), g.vertex_of(t2)
            )
        checked += 1
    assert checked == 12
    report("criterion 9: unique 4-cycle iff commuting, exhaustively over 12 ordered pairs")


def test_c10_commutator_words_close():
    """The 12-step commutator word of split 4-cycles closes through 12
    distinct vertices, and the published 12-letter mixed word collapses."""
    a = P("(1 2 3 4)", 7)
    b = P("(4 5 6 7)", 7)
    word = commutator_cycle(a, b)
    assert word[-1].is_identity()
    assert len(set(word[:-1])) == 12
    g = build_cayley(construct_cycle_pair(4), cap=6000)
    walk = walk_in_graph(g, word)
    assert walk[0] == walk[-1] == 0

    n = 13
    a, b, c, d = (P("(1 2 3 4)", n), P("(1 5 6 7)", n),
                  P("(1 8 9 10)", n), P("(1 11 12 13)", n))
    letters = [a, b, c, d, c, b.inverse(), a.inverse(),
               b, c.inverse(), d.inverse(), c.inverse(), b.inverse()]
    product = Permutation.identity(n)
    for letter in letters:
        product = product * letter
    assert product.is_identity()
    report("criterion 10: 12-step commutator cycle and the 12-letter word both close")


def test_c11_flow_factors_agree_with_brute_force():
    """Forced-edge factors via the mirrored flow match exhaustive search on
    200 seeded random graphs, and the mirror invariant is checked live."""
    rng = random.Random(1111)
    mirror_checks = 0
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
        net = FlowNetwork(g)
        if net.run_to_max() == 2 * net.m:
            for i, j in sorted((min(e), max(e)) for e in forced):
                if not net.force_edge_pair(i, j):
                    break
            else:
                net.assert_mirror()
        mirror_checks += net.mirror_checks
    assert mirror_checks > 0
    report("criterion 11: flow factors match the oracle on 200 seeded instances; "
           f"{mirror_checks} mirror checks held")


def test_c12_hamiltonicity_equivalence():
    """(n-2)-quasi-hamiltonicity equals brute-force Hamiltonicity on the
    named corpus and 100 seeded random connected graphs."""
    corpus = [cycle_graph(n) for n in range(4, 9)]
    corpus += [complete_graph(n) for n in range(4, 7)]
    corpus += [complete_bipartite(3, 3), complete_bipartite(2, 3), petersen_graph()]
    for g in corpus:
        assert hamiltonian_via_qh(g) == brute_hamiltonian(g)
    rng = random.Random(1212)
    for _ in range(100):
        g = random_connected_graph(rng, 3, 7)
        assert hamiltonian_via_qh(g) == brute_hamiltonian(g)
    report("criterion 12: hierarchy Hamiltonicity matches the oracle on 11 named + 100 random graphs")


def test_c13_spectral_sanity_and_the_lambda2_report():
    """Top adjacency eigenvalues equal the degree; Laplacians are positive
    semidefinite; the claimed lambda_2 closed forms are archived as a
    report, not asserted."""
    tol = 1e-8
    assert check_regular_spectrum(cycle_graph(6), tol)["lambda1"] == pytest.approx(2, abs=tol)
    assert check_regular_spectrum(complete_graph(4), tol)["lambda1"] == pytest.approx(3, abs=tol)
    pair_graph = build_cayley(construct_cycle_pair(4), cap=6000).to_simple_graph()
    assert check_regular_spectrum(pair_graph, tol)["lambda1"] == pytest.approx(4, abs=tol)

    for g in (cycle_graph(6), complete_graph(4)):
        rep = spectrum_topk(g, "laplacian", k=g.vertex_count)
        assert all(v >= -tol for v in rep.eigenvalues)

    lines = []
    pair3_graph = build_cayley(
        GeneratorSet(3, [P("(1 2)", 3), P("(2 3)", 3)], CycleType([2]))
    ).to_simple_graph()
    for label, graph, k in (("k=2 (|T|=2 on S_3)", pair3_graph, 2),
                            ("k=4 (|T|=2 on S_7)", pair_graph, 4)):
        comp = second_eigenvalue_comparison(graph, k)
        lines.append(
            f"{label}: lambda2 = {comp['lambda2']:.9f}, 1+sqrt({2 * k - 1}) = "
            f"{comp['candidate']:.9f}, gap = {comp['gap']:.3e}"
        )
    report("criterion 13: lambda1 = degree on all three graphs; Laplacians psd; "
           "lambda2 report archived:\n      " + "\n      ".join(lines))


def test_c14_byte_identical_reruns():
    """Constructions and reports are byte-identical across two runs."""
    first = construct_general(CycleType([2, 4, 5])).to_text()
    second = construct_general(CycleType([2, 4, 5])).to_text()
    assert first == second

    path5 = GeneratorSet(5, [P(t, 5) for t in ["(1 2)", "(2 3)", "(3 4)", "(4 5)"]],
                         CycleType([2]))
    assert verify_order_identity(path5).to_text() == verify_order_identity(path5).to_text()

    script = "import sys; from cayleykit.cli import main; sys.exit(main(sys.argv[1:]))"
    for args in (
        ["construct", "--type", "2,2,2", "--n", "22"],
        ["prime", "--m", "8"],
    ):
        runs = [
            subprocess.run([sys.executable, "-c", script, *args], capture_output=True)
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout and runs[0].returncode == 0
    report("criterion 14: constructions and CLI reports byte-identical across reruns")
