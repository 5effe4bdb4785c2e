"""Construction and analysis of one-class generating sets of S_n.

A generating set here is a list of permutations sharing one cycle type.  This
module provides the size lower bound, the structural predicates
(semi-connected / split / balanced), explicit minimal constructions (cycle
pairs and chains, Eulerian-circuit sets of transposition products, the
general prime-driven construction), the divisor splitting step, extension to
larger degrees, and a brute-force minimal-size oracle for tiny cases.
"Balanced" is decided by its matching characterization (see
``find_balance_certificate``): for each cycle length, every cycle meets
another and there are as many disjoint meeting pairs as the length's
multiplicity.

All constructions are pure and deterministic; outputs are canonical so they
can be serialized byte-stably.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import groups
from .errors import BudgetExceeded, NoCircuit, ParityError
from .numth import cyclotomic_eval, smallest_prime_one_mod
from .perms import CycleType, Permutation, in_extended_class


class GeneratorSet:
    """Permutations of one cycle type acting on 1..n, duplicates forbidden."""

    def __init__(self, degree: int, elements: Sequence[Permutation], cycle_type: CycleType):
        for g in elements:
            if g.degree != degree:
                raise ValueError(f"element degree {g.degree} != {degree}")
            if not in_extended_class(g, cycle_type):
                raise ValueError(
                    f"element {g.to_text()} is not of cycle type ({cycle_type})"
                )
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate elements in generator set")
        self.degree = degree
        self.elements = list(elements)
        self.cycle_type = cycle_type

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GeneratorSet)
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def supports(self) -> list:
        return [g.support() for g in self.elements]

    def to_text(self) -> str:
        """Canonical text form: header line, then one permutation per line."""
        lines = [f"n={self.degree} type={self.cycle_type}"]
        lines.extend(g.to_text() for g in self.elements)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GeneratorSet":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty generator-set text")
        header = lines[0].split()
        try:
            fields = dict(part.split("=", 1) for part in header)
            degree = int(fields["n"])
            cycle_type = CycleType.from_text(fields["type"])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed header {lines[0]!r}: {exc}") from None
        elements = [Permutation.from_text(ln, degree) for ln in lines[1:]]
        return cls(degree, elements, cycle_type)


# -- size bound ----------------------------------------------------------


def f_lower_bound(cycle_type: CycleType, n: int):
    """ceil((n-1) / c) when c is odd, else math.inf.

    An even transposition count makes every element even, so no such set can
    generate the full symmetric group.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    c = cycle_type.c_value
    if c % 2 == 0:
        return math.inf
    return -(-(n - 1) // c)


# -- predicates ------------------------------------------------------------


@dataclass(frozen=True)
class BalanceCertificate:
    """A witness that a set is balanced: cycles grouped into same-length
    classes, each cycle sharing a point with another cycle of its class.

    ``classes[i]`` is a tuple of (element index, cycle) pairs; ``sizes[i]``
    is the common cycle length of class i.  The multiset of sizes equals the
    set's cycle type.
    """

    classes: tuple
    sizes: tuple


# Nodes the disjoint-pair search may enter for one cycle length.
_BALANCE_NODE_BUDGET = 100_000


def find_balance_certificate(T: GeneratorSet) -> Optional[BalanceCertificate]:
    """A balance certificate for T, or None when none exists.

    Take a length L with multiplicity k in the type.  The cycles of length L
    split into k classes in which no cycle is alone exactly when (a) every
    such cycle meets (shares a point with) another one and (b) k pairwise
    disjoint pairs of meeting cycles exist.  Necessity: each class holds a
    cycle and a partner it meets, one pair per class.  Sufficiency: the k
    pairs seed the classes; a cycle joins the class of a cycle it meets, in
    breadth-first order from the seeds; the cycles no seed reaches form
    whole components of the meeting graph, each with two or more cycles by
    (a), so they are a valid class by themselves and join class 0 together
    (a union of valid classes is valid).

    Condition (b) is decided by an exhaustive search: take the first free
    cycle, then pair it with a later free cycle it meets or leave it out.
    Raises BudgetExceeded once one length's search has entered more than
    ``_BALANCE_NODE_BUDGET`` nodes (a node picks one pair).
    """
    parts = T.cycle_type.parts
    cycles = [(idx, cycle) for idx, g in enumerate(T.elements) for cycle in g.cycles()]
    classes = []
    sizes = []
    for length in sorted(set(parts), reverse=True):
        k = parts.count(length)
        members = [c for c in cycles if len(c[1]) == length]
        supports = [frozenset(cycle) for _, cycle in members]
        neighbors = [
            [j for j, other in enumerate(supports) if j != i and own & other]
            for i, own in enumerate(supports)
        ]
        if not all(neighbors):
            return None
        pairs = _disjoint_meeting_pairs(neighbors, k)
        if pairs is None:
            return None
        label = {i: lab for lab, pair in enumerate(pairs) for i in pair}
        queue = list(label)
        for i in queue:
            for j in neighbors[i]:
                if j not in label:
                    label[j] = label[i]
                    queue.append(j)
        for lab in range(k):
            classes.append(tuple(c for i, c in enumerate(members) if label.get(i, 0) == lab))
            sizes.append(length)
    return BalanceCertificate(tuple(classes), tuple(sizes))


def _disjoint_meeting_pairs(neighbors: list, k: int) -> Optional[list]:
    """k pairwise disjoint pairs (i, j) with j in neighbors[i], or None.

    Each node picks one pair, so the recursion is at most k + 1 deep; the
    cycles a node leaves out are skipped in its loop.
    """
    nodes = 0

    def search(free: list, need: int) -> Optional[list]:
        nonlocal nodes
        nodes += 1
        if nodes > _BALANCE_NODE_BUDGET:
            raise BudgetExceeded(f"balance search exceeded {_BALANCE_NODE_BUDGET} nodes")
        if need == 0:
            return []
        for pos in range(len(free) - 2 * need + 1):
            first, rest = free[pos], free[pos + 1:]
            for j in neighbors[first]:
                if j in rest:
                    found = search([x for x in rest if x != j], need - 1)
                    if found is not None:
                        return [(first, j), *found]
        return None

    return search(list(range(len(neighbors))), k)


def predicates(T: GeneratorSet, include_balance: bool = True) -> dict:
    """Structural predicates of a generator set.

    Returns ``semi_connected`` (single point orbit), ``split`` (pairwise
    support intersections of size at most one) and ``balanced`` (a
    BalanceCertificate, or None when no certificate exists; absent entirely
    when ``include_balance`` is False).
    """
    result = {
        "semi_connected": groups.orbits(T.elements, T.degree).is_single,
        "split": is_split(T),
    }
    if include_balance:
        result["balanced"] = find_balance_certificate(T)
    return result


def is_split(T: GeneratorSet) -> bool:
    sups = T.supports()
    return all(
        len(sups[i] & sups[j]) <= 1
        for i in range(len(sups))
        for j in range(i + 1, len(sups))
    )


# -- explicit constructions ------------------------------------------------


def construct_cycle_pair(k: int) -> GeneratorSet:
    """{(1 2 .. k), (k k+1 .. 2k-1)} on 2k-1 points; k must be even."""
    return construct_cycle_tree(k, 2 * k - 1)


def construct_cycle_tree(k: int, n: int) -> GeneratorSet:
    """ceil((n-1)/(k-1)) chained k-cycles generating S_n, for even k, n >= 2k-1.

    Cycles overlap the previous one in a single point; when (k-1) does not
    divide (n-1) the last cycle is (n-k+1 .. n), which overlaps more deeply.
    """
    if k < 2 or k % 2 != 0:
        raise ParityError(f"cycle trees need even k >= 2, got {k}")
    if n < 2 * k - 1:
        raise ValueError(f"cycle trees need n >= {2 * k - 1}, got {n}")
    count = -(-(n - 1) // (k - 1))
    starts = [min(i * (k - 1) + 1, n - k + 1) for i in range(count)]
    elements = [Permutation.from_cycles([tuple(range(s, s + k))], n) for s in starts]
    return GeneratorSet(n, elements, CycleType([k]))


def eulerian_circuit_complete(v: int) -> list:
    """Closed walk through every edge of K_v exactly once, for odd v >= 3.

    Deterministic Hierholzer: always leave along the smallest unused edge,
    splicing subtours in discovery order.  Returns the vertex sequence,
    starting and ending at 1.
    """
    if v < 3 or v % 2 == 0:
        raise NoCircuit(f"K_{v} has no Eulerian circuit (need odd v >= 3)")
    used = [[False] * (v + 1) for _ in range(v + 1)]
    next_try = [1] * (v + 1)
    stack = [1]
    walk = []
    while stack:
        x = stack[-1]
        w = next_try[x]
        while w <= v and (w == x or used[x][w]):
            w += 1
        next_try[x] = w
        if w > v:
            walk.append(stack.pop())
        else:
            used[x][w] = used[w][x] = True
            stack.append(w)
    walk.reverse()
    return walk


def _set_from_circuit(walk: list, vertex_count: int, k: int) -> list:
    """Distribute transpositions (i i+1) along a circuit: the i-th visited
    vertex owns the i-th transposition.  Returns per-vertex cycle lists."""
    edge_count = len(walk) - 1
    owners: list = [[] for _ in range(vertex_count + 1)]
    for i in range(1, edge_count + 1):
        owners[walk[i - 1]].append((i, i + 1))
    assert all(len(owner) == k for owner in owners[1:])
    return owners


def construct_basic_tree(k: int) -> GeneratorSet:
    """2k+1 products of k disjoint transpositions generating S_{k(2k+1)+1}.

    The transposition (i i+1) goes to the generator of the i-th vertex
    visited by an Eulerian circuit of K_{2k+1}; the circuit structure makes
    the set semi-connected and split.  k must be odd.
    """
    if k < 1 or k % 2 == 0:
        raise ParityError(f"basic trees need odd k >= 1, got {k}")
    v = 2 * k + 1
    n = k * v + 1
    walk = eulerian_circuit_complete(v)
    owners = _set_from_circuit(walk, v, k)
    elements = [
        Permutation.from_cycles(owners[vertex], n) for vertex in range(1, v + 1)
    ]
    return GeneratorSet(n, elements, CycleType([2] * k))


def _lap_circuit(p: int) -> list:
    """The arithmetic Eulerian circuit of K_p for prime p: lap j visits
    j, 2j, 3j, ... (mod p), so lap j uses exactly the difference-j edges."""
    walk = []
    for lap in range(1, (p - 1) // 2 + 1):
        for r in range(1, p + 1):
            walk.append((lap * r - 1) % p + 1)
    walk.append(walk[0])
    return walk


@dataclass(frozen=True)
class GeneralConstructionPlan:
    """Parameters of the general construction for a cycle type A.

    ``p`` is the smallest prime = 1 (mod 2|A|), ``m = (p-1)/(2|A|)``, and the
    construction lands on ``degree`` = p*m*c(A)+1 points with p*m elements.
    ``phi_bound`` is the reported worst-case threshold c(A)*Phi_2k(2k)+1.
    """

    cycle_type: CycleType
    p: int
    m: int
    degree: int
    size: int
    phi_bound: int


def general_plan(cycle_type: CycleType) -> GeneralConstructionPlan:
    c = cycle_type.c_value
    k = cycle_type.k
    p = smallest_prime_one_mod(2 * k)
    m = (p - 1) // (2 * k)
    return GeneralConstructionPlan(
        cycle_type=cycle_type,
        p=p,
        m=m,
        degree=p * m * c + 1,
        size=p * m,
        phi_bound=c * cyclotomic_eval(2 * k, 2 * k) + 1,
    )


def construct_general(cycle_type: CycleType) -> GeneratorSet:
    """p*m elements of C(A) on p*m*c(A)+1 points: semi-connected, split, balanced.

    Builds the transposition backbone over the arithmetic circuit of K_p,
    widens backbone transpositions column-by-column with fresh points until
    the columns reach the target lengths (ascending part order, matching the
    canonical table layout), and finally splits each element into its m
    fragments of type A.  When c(A) is odd the elements are odd permutations
    and the set generates the full symmetric group; when c(A) is even every
    element is even and the set can reach at most the alternating group, so
    callers needing S_n should gate on f_lower_bound first.
    """
    plan = general_plan(cycle_type)
    p, m = plan.p, plan.m
    k = cycle_type.k
    ascending = tuple(sorted(cycle_type.parts))
    walk = _lap_circuit(p)
    owners = _set_from_circuit(walk, p, k * m)

    backbone_points = p * (p - 1) // 2 + 1
    n = plan.degree
    fresh = backbone_points + 1
    # owners[v] lists the k*m backbone transpositions of generator v in
    # position order; column t (1-based) targets part ascending[(t-1)//m].
    cycles_per_gen: list = [[list(t) for t in owners[v]] for v in range(p + 1)]
    for col in range(k * m):
        target = ascending[col // m]
        if target == 2:
            continue
        for v in range(1, p + 1):
            x, y = cycles_per_gen[v][col]
            inserted = list(range(fresh, fresh + target - 2))
            fresh += target - 2
            cycles_per_gen[v][col] = [x, *inserted, y]
    assert fresh - 1 == n

    wide_elements = [
        Permutation.from_cycles([tuple(c) for c in cycles_per_gen[v]], n)
        for v in range(1, p + 1)
    ]
    return split_divisor(GeneratorSet(n, wide_elements, cycle_type.repeated(m)), cycle_type, m)


def split_divisor(T: GeneratorSet, cycle_type: CycleType, m: int) -> GeneratorSet:
    """Split each element of C(m copies of A) into m elements of C(A).

    Fragment j of an element takes, for every part length, the j-th block of
    that length's cycles in smallest-moved-point order; the product of an
    element's fragments (in fragment order) equals the element, so the split
    set generates at least the original group.
    """
    if T.cycle_type.parts != cycle_type.repeated(m).parts:
        raise ValueError(
            f"elements have type ({T.cycle_type}), expected {m} copies of ({cycle_type})"
        )
    multiplicity: dict = {}
    for part in cycle_type.parts:
        multiplicity[part] = multiplicity.get(part, 0) + 1
    fragments = []
    for g in T.elements:
        by_length: dict = {}
        for cycle in g.cycles():
            by_length.setdefault(len(cycle), []).append(cycle)
        pieces = []
        for j in range(m):
            chunk = []
            for length, mult in multiplicity.items():
                block = by_length[length][j * mult : (j + 1) * mult]
                chunk.extend(block)
            pieces.append(Permutation.from_cycles(chunk, T.degree))
        product = pieces[0]
        for piece in pieces[1:]:
            product = product * piece
        assert product == g
        fragments.extend(pieces)
    return GeneratorSet(T.degree, fragments, cycle_type)


# -- extension to larger degrees --------------------------------------------


def extend_tree(T: GeneratorSet, cycle_type: CycleType, n_target: int) -> GeneratorSet:
    """Append elements of C(A) so a set generating S_m generates S_{n_target}.

    Each appended element anchors every cycle on one already-covered point
    and fills the rest with fresh points, adding exactly c(A) new points.
    When c(A) does not divide the shortfall, the final element overlaps the
    covered points more deeply.  Anchors go on distinct existing elements
    where ``_pick_anchors`` can manage it; where it cannot, the set is no
    longer split (the type (2,2,2) at n = 23 is one such case).  With
    |T| = f_lower_bound(A, m) the result has exactly
    f_lower_bound(A, n_target) elements.
    """
    c = cycle_type.c_value
    if c % 2 == 0:
        raise ParityError(f"c(A) = {c} is even")
    if T.cycle_type.parts != cycle_type.parts:
        raise ValueError("extension type must match the set's type")
    m = T.degree
    if n_target < m:
        raise ValueError(f"target degree {n_target} below current degree {m}")
    if n_target == m:
        return T

    parts_asc = sorted(cycle_type.parts)
    elements = [g.extend(n_target) for g in T.elements]
    covered = m
    while covered < n_target:
        fresh_needed = min(c, n_target - covered)
        counts = _fresh_distribution(parts_asc, fresh_needed)
        anchors = _pick_anchors(elements, [a - f for a, f in zip(parts_asc, counts)])
        cycles = []
        next_fresh = covered + 1
        for part, fresh_count, anchor in zip(parts_asc, counts, anchors):
            body = anchor + list(range(next_fresh, next_fresh + fresh_count))
            next_fresh += fresh_count
            cycles.append(tuple(body))
        covered += fresh_needed
        elements.append(Permutation.from_cycles(cycles, n_target))
    return GeneratorSet(n_target, elements, cycle_type)


def construct(cycle_type: CycleType, n: int) -> GeneratorSet:
    """The set ``cayleykit construct`` prints: the cycle tree for one part, else
    the basic tree (all parts 2) or the general construction, extended to n.
    Raises ParityError for even c(A), ValueError below ``construction_degree``."""
    c = cycle_type.c_value
    if c % 2 == 0:
        raise ParityError(
            f"c(A) = {c} is even, so sets of type ({cycle_type}) "
            "contain only even permutations and cannot generate the symmetric group"
        )
    smallest = construction_degree(cycle_type)
    if n < smallest:
        raise ValueError(f"smallest supported degree for type ({cycle_type}) is {smallest}")
    if cycle_type.k == 1:
        return construct_cycle_tree(cycle_type.parts[0], n)
    if set(cycle_type.parts) == {2}:
        base = construct_basic_tree(cycle_type.k)
    else:
        base = construct_general(cycle_type)
    return extend_tree(base, cycle_type, n)


def construction_degree(cycle_type: CycleType) -> int:
    """The degree of the set ``construct`` starts from: 2k-1 for the cycle
    tree of one part k, k(2k+1)+1 for the basic tree of k parts 2, else the
    general plan's.  The basic tree's degree is the plan's exactly when
    2k+1 is prime."""
    k = cycle_type.k
    if k == 1:
        return 2 * cycle_type.parts[0] - 1
    if set(cycle_type.parts) == {2}:
        return k * (2 * k + 1) + 1
    return general_plan(cycle_type).degree


def _fresh_distribution(parts_asc: list, fresh: int) -> list:
    """How many fresh points each cycle of the new element receives: fill the
    largest parts first, never exceeding part length - 1."""
    counts = [0] * len(parts_asc)
    for i in reversed(range(len(parts_asc))):
        take = min(parts_asc[i] - 1, fresh)
        counts[i] = take
        fresh -= take
    assert fresh == 0
    return counts


def _pick_anchors(elements: list, needed: list) -> list:
    """Choose covered anchor points for each new cycle: scan down from the
    frontier, using each host element at most once, so the new element
    shares at most one point with any existing one.  When that fails, the
    allowance rises to two uses per host, then to no limit; those anchors
    can give the new element two common points with an old one, and the set
    is then not split."""
    hosts: dict = {}
    for idx, g in enumerate(elements):
        for point in g.support():
            hosts.setdefault(point, set()).add(idx)
    candidates = sorted(hosts, reverse=True)

    for allowance in (1, 2, len(elements) + 1):
        anchors: list = []
        use_count: dict = {}
        taken: set = set()
        ok = True
        for count in needed:
            block: list = []
            for point in candidates:
                if len(block) == count:
                    break
                if point in taken:
                    continue
                owners = hosts[point]
                if any(use_count.get(e, 0) + 1 > allowance for e in owners):
                    continue
                block.append(point)
                taken.add(point)
                for e in owners:
                    use_count[e] = use_count.get(e, 0) + 1
            if len(block) != count:
                ok = False
                break
            anchors.append(sorted(block))
        if ok:
            return anchors
    raise ValueError("could not place anchor points for the extension element")


# -- brute-force size oracle -------------------------------------------------


def extended_class_elements(cycle_type: CycleType, n: int) -> list:
    """Every element of C(A) inside S_n, in a fixed canonical order."""
    parts = sorted(cycle_type.parts, reverse=True)
    results: list = []
    seen = set()

    def place(remaining: list, used: frozenset, acc: list) -> None:
        if not remaining:
            candidate = Permutation.from_cycles(acc, n)
            if candidate not in seen:
                seen.add(candidate)
                results.append(candidate)
            return
        length = remaining[0]
        available = [x for x in range(1, n + 1) if x not in used]
        for combo in itertools.combinations(available, length):
            first = combo[0]
            for rest in itertools.permutations(combo[1:]):
                place(remaining[1:], used | frozenset(combo), acc + [(first, *rest)])

    place(parts, frozenset(), [])
    results.sort()
    return results


def extended_class_size(cycle_type: CycleType, n: int) -> int:
    """|C(A)| inside S_n, n! / ((n - sum a)! prod_L L^k_L k_L!) where k_L
    parts have length L, without enumerating it; 0 when the parts need
    more than n points."""
    parts = cycle_type.parts
    moved = sum(parts)
    if moved > n:
        return 0
    size = math.factorial(n) // math.factorial(n - moved)
    for length in set(parts):
        size //= length ** parts.count(length) * math.factorial(parts.count(length))
    return size


_BRUTE_CLASS_LIMIT = 10_000


def brute_force_f(cycle_type: CycleType, n: int, size_cap: int):
    """Minimal number of C(A) elements generating S_n, by exhaustive search.

    By conjugation symmetry the first element can be fixed to the canonical
    one.  Returns None when no subset within ``size_cap`` works.  Guarded to
    tiny instances: |C(A)| <= 10^4 and size_cap <= 4.
    """
    if size_cap < 1 or size_cap > 4:
        raise ValueError("size_cap must be between 1 and 4")
    size = extended_class_size(cycle_type, n)
    if size > _BRUTE_CLASS_LIMIT:
        raise ValueError(f"|C(A)| = {size} exceeds the search guard")
    if not size:
        return None
    candidates = extended_class_elements(cycle_type, n)
    full = math.factorial(n)
    first = candidates[0]
    others = [g for g in candidates if g != first]
    for size in range(1, size_cap + 1):
        for combo in itertools.combinations(others, size - 1):
            gens = [first, *combo]
            if groups.build_chain(gens, n).order() == full:
                return size
    return None
