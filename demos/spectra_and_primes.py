"""Spectra of the Cayley graphs and the primes behind the constructions.

Computes adjacency spectra with the in-repo block eigensolver (Chebyshev-
filtered subspace iteration, the same path at every size), archives the
second-eigenvalue comparison against 1 + sqrt(2k - 1) for the two-generator graphs, and
evaluates the cyclotomic values whose prime factors drive the general
construction.

Run:  python demos/spectra_and_primes.py
"""

import math

from cayleykit import (
    CycleType,
    GeneratorSet,
    Permutation,
    build_cayley,
    check_regular_spectrum,
    construct_cycle_pair,
    cycle_graph,
    second_eigenvalue_comparison,
    spectrum_topk,
)
from cayleykit.numth import cyclotomic_eval, prime_one_mod, smallest_prime_one_mod, prime_in_interval

print("=" * 72)
print("1. Small spectra")
print("=" * 72)
report = spectrum_topk(cycle_graph(6), "adjacency", k=6)
print("C6 adjacency spectrum (value, multiplicity):",
      [(round(v, 6), m) for v, m, _ in report.entries])
report = spectrum_topk(cycle_graph(6), "laplacian", k=1)
print("C6 Laplacian top eigenvalue:", round(report.entries[0][0], 9))

print()
print("=" * 72)
print("2. The 5040-vertex two-generator graph")
print("=" * 72)
pair_graph = build_cayley(construct_cycle_pair(4), cap=6000).to_simple_graph()
result = check_regular_spectrum(pair_graph)
print(f"largest adjacency eigenvalue = {result['lambda1']:.9f} (the degree)")
print(f"second largest = {result['lambda2']:.9f}")

print()
print("=" * 72)
print("3. Second-eigenvalue comparisons (archived, not asserted)")
print("=" * 72)
pair3_graph = build_cayley(
    GeneratorSet(3, [Permutation.from_text("(1 2)", 3), Permutation.from_text("(2 3)", 3)],
                 CycleType([2]))
).to_simple_graph()
for label, graph, k in (("two transpositions (6-cycle graph)", pair3_graph, 2),
                        ("two 4-cycles (5040 vertices)", pair_graph, 4)):
    comp = second_eigenvalue_comparison(graph, k)
    print(f"{label}:")
    print(f"  lambda2 = {comp['lambda2']:.9f}, candidate 1+sqrt({2*k-1}) = "
          f"{comp['candidate']:.9f}, gap = {comp['gap']:.3e}")
print("(the k = 2 candidate exceeds the top eigenvalue 2, so the gap there is structural)")

print()
print("=" * 72)
print("4. Cyclotomic values and their class primes")
print("=" * 72)
for m in (2, 4, 6, 8, 11):
    value = cyclotomic_eval(m, m)
    print(f"Phi_{m}({m}) = {value}, smallest prime factor = {prime_one_mod(m)} "
          f"(= 1 mod {m})")
print("smallest primes = 1 (mod 2k) that site the general construction:")
for k in (1, 2, 3, 4):
    print(f"  k = {k}: p = {smallest_prime_one_mod(2 * k)}")
print(f"a prime strictly between 6 and 12: {prime_in_interval(6)}")
