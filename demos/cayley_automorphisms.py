"""Cayley graphs and their automorphism groups.

Builds the Cayley graph of the 5-point transposition path, probes its local
4-cycle structure (commuting pairs close unique squares, commutators close
longer cycles), and verifies the semidirect-product order identity
|Aut(graph)| = n! * |set-preserving conjugations| with both sides computed
independently.

Run:  python demos/cayley_automorphisms.py
"""

import itertools

from cayleykit import (
    CycleType,
    GeneratorSet,
    Permutation,
    aut_snt,
    build_cayley,
    commutator_cycle,
    commuting_4cycle,
    count_4cycles_through,
    construct_cycle_pair,
    graph_aut_order,
    is_normal,
    verify_order_identity,
    walk_in_graph,
)


def P(text, n):
    return Permutation.from_text(text, n)


path5 = GeneratorSet(
    5, [P(t, 5) for t in ("(1 2)", "(2 3)", "(3 4)", "(4 5)")], CycleType([2])
)

print("=" * 72)
print("1. The Cayley graph of the 5-point transposition path")
print("=" * 72)
graph = build_cayley(path5)
print(f"{graph.vertex_count} vertices, {len(graph.edges)} edges, "
      f"all degrees {len(graph.adjacency[0])}")
ok, reasons = is_normal(path5)
print(f"tree-with-sparse-leaves condition: {ok} {reasons or ''}")

print()
print("=" * 72)
print("2. Local 4-cycle structure")
print("=" * 72)
for t1, t2 in itertools.combinations(path5.elements, 2):
    square = commuting_4cycle(graph, t1, t2)
    commutes = t1 * t2 == t2 * t1
    print(f"{t1.to_text()} vs {t2.to_text()}: commute = {commutes}, "
          f"unique square through the corner = {square is not None}")

edge = (0, graph.vertex_of(path5.elements[0]))
print(f"4-cycles through the identity edge of {path5.elements[0].to_text()}: "
      f"{count_4cycles_through(graph, edge)}")

print()
print("=" * 72)
print("3. Commutator cycles of chained 4-cycles")
print("=" * 72)
pair = construct_cycle_pair(4)
a, b = pair.elements
word = commutator_cycle(a, b)
print(f"the word (a b a' b')^3 for a = {a.to_text()}, b = {b.to_text()}")
print(f"  closes at the identity: {word[-1].is_identity()}, "
      f"distinct vertices: {len(set(word[:-1]))}")
big = build_cayley(pair, cap=6000)
walk = walk_in_graph(big, word)
print(f"  traced as a literal closed walk of length {len(walk) - 1} "
      f"in the {big.vertex_count}-vertex graph")

print()
print("=" * 72)
print("4. The order identity, both sides computed independently")
print("=" * 72)
report = verify_order_identity(path5)
print(report.to_text())

print("set-preserving conjugations of the path:",
      [sigma.to_text() for sigma in aut_snt(path5)])
order, gens = graph_aut_order(build_cayley(path5))
print(f"graph side recomputed: order {order} from {len(gens)} verified generators")
