"""Permutation-group machinery: stabilizer chains, orbits, closure enumeration.

The stabilizer chain is a Schreier-Sims construction with two phases.  A
seeded, reproducible product-replacement pump (the "rattle" of Leedham-Green
and Murray, after Celler et al. 1995) first feeds near-uniform random group
elements into the chain: it keeps at least ten state slots, replaces one slot
by its product with another, and sifts a running accumulator of the new slots
rather than the strongly correlated slots themselves.  The certificate is
exact, not probabilistic: every level's orbit is an orbit of a subgroup of
the matching point stabilizer, so the product of level-orbit sizes can never
exceed the group order, and reaching n! (or n!/2 when every generator is
even) proves the chain complete.  Groups that miss those targets (anything
but S_n or A_n), and any input on which the pump stalls, fall back to the
classical deterministic Schreier verification, which is exact for any input.
Orders are Python integers, so 22! and beyond stay exact.

A transversal entry is the inverse of its coset representative, the one
table sifting applies; a level generator is kept with its inverse.  The
generators of level j fix the base points b_0..b_{j-1}, so the orbit of b_j
has room for at most n - j points.  A level whose orbit fills that room is
complete: a new generator can add no point to it, so it joins the level's
generators without an orbit sweep, and the chain is the one sweeping builds.

Finished chains are immutable in practice and safe to share between threads;
all queries are pure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceeded
from .graphs import connected_components
from .perms import Permutation, compose_maps, composer, invert_map

_PUMP_SEED = 0x5EED
_PUMP_SLOTS = 10
_PUMP_WARMUP = 30


class _Level:
    """One chain level: base point, level generators, orbit transversal.

    ``transversal[p]`` holds u^-1 for the coset representative u mapping the
    base point to p: the table that sifting applies.  Its keys, in insertion
    order, are the orbit.  ``gens`` holds (g, g^-1) for every strong
    generator fixing all earlier base points, so the lists are nested level
    to level as classical Schreier-Sims requires.  ``room`` is n - depth, the
    number of points those generators can move the base point to: once the
    orbit holds that many, no generator can extend it, and ``_add_element``
    appends to ``gens`` without calling ``add_gen``.
    """

    __slots__ = ("point", "gens", "transversal", "room")

    def __init__(self, point: int, identity: tuple, room: int):
        self.point = point
        self.gens: list = []
        self.transversal: dict = {point: identity}
        self.room = room

    def add_gen(self, g: tuple, g_inv: tuple) -> None:
        self.gens.append((g, g_inv))
        # Sweep the orbit (and the points the sweep adds) with the new
        # generator, then grow the frontier with every generator.  A new
        # point q = h[p] gets u_q^-1 = h^-1 * u_p^-1: one product, no inversion.
        trans = self.transversal
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
                vp = trans[p]
                for h, h_inv in self.gens:
                    q = h[p]
                    if q not in trans:
                        trans[q] = compose_maps(h_inv, vp)
                        nxt.append(q)
            frontier = nxt


class StabilizerChain:
    """Base-and-transversal data for the group generated by ``gens``.

    ``base`` lists the base points (1-based); ``levels`` expose, per base
    point, the transversal (orbit point -> coset representative) and the
    level generators.  The product of transversal sizes is the exact group
    order.
    """

    def __init__(self, gens: Sequence[Permutation], n: int):
        for g in gens:
            if g.degree != n:
                raise ValueError(f"generator degree {g.degree} != {n}")
        self.degree = n
        self.generators = list(gens)
        self._identity = tuple(range(n))
        self._levels: list[_Level] = []
        for g in gens:
            self._add_element(g._map)
        if not self._pump():
            self._verify_schreier()

    # -- construction ---------------------------------------------------

    def _strip(self, g: tuple, start: int):
        """Sift ``g`` through levels ``start``..; return (residue, stop_level)."""
        for i in range(start, len(self._levels)):
            level = self._levels[i]
            p = g[level.point]
            if p == level.point:
                continue
            inverse = level.transversal.get(p)
            if inverse is None:
                return g, i
            g = compose_maps(g, inverse)
        return g, len(self._levels)

    def _add_element(self, g: tuple, start: int = 0):
        """Sift ``g``; install a non-identity residue. Returns the stop level or None."""
        residue, stop = self._strip(g, start)
        if residue == self._identity:
            return None
        if stop == len(self._levels):
            base_point = next(i for i, x in enumerate(residue) if x != i)
            self._levels.append(_Level(base_point, self._identity, self.degree - stop))
        # The residue fixes every base point above its stop level, so it is a
        # level generator for each of those levels as well (nesting).  A level
        # whose orbit fills its room takes it without a sweep.
        residue_inv = invert_map(residue)
        for level in self._levels[:stop + 1]:
            if len(level.transversal) == level.room:
                level.gens.append((residue, residue_inv))
            else:
                level.add_gen(residue, residue_inv)
        return stop

    def _pump(self) -> bool:
        """Sift seeded product-replacement ("rattle") elements until the order
        reaches its parity-forced ceiling (n! or n!/2); True on success.

        The state holds at least ``_PUMP_SLOTS`` slots, filled by cycling
        through the generators and mixed by a short warm-up.  Each step
        replaces one slot by its product with another, distinct slot on a
        random side, multiplies the accumulator by the new slot, and sifts
        the accumulator.  Success is exact (the chain order never exceeds
        the group order); after too many steps without growth the caller
        falls back to ``_verify_schreier``.
        """
        if not self.generators:
            return True
        n = self.degree
        target = math.factorial(n)
        if all(g.parity() == 0 for g in self.generators):
            target = max(1, target // 2)
        if self.order() == target:
            return True
        rng = random.Random(_PUMP_SEED)
        gens = [g._map for g in self.generators]
        state = [gens[i % len(gens)] for i in range(max(_PUMP_SLOTS, len(gens)))]
        slots = range(len(state))
        accumulator = self._identity

        def step():
            nonlocal accumulator
            i, j = rng.sample(slots, 2)
            if rng.random() < 0.5:
                state[i] = compose_maps(state[i], state[j])
            else:
                state[i] = compose_maps(state[j], state[i])
            accumulator = compose_maps(accumulator, state[i])

        for _ in range(_PUMP_WARMUP):
            step()
        stall = 0
        limit = 60 + 6 * len(gens) + 2 * n
        while stall < limit:
            step()
            # Installing a residue always grows the order; None means it sifted.
            if self._add_element(accumulator) is None:
                stall += 1
            elif self.order() == target:
                return True
            else:
                stall = 0
        return False

    def _verify_schreier(self) -> None:
        # Bottom-up verification: every Schreier generator of level i must
        # sift to the identity through the deeper levels; a failure installs
        # the residue and re-verifies from its stop level downward-first.
        i = len(self._levels) - 1
        while i >= 0:
            stop = self._check_level(i)
            i = i - 1 if stop is None else stop

    def _check_level(self, i: int):
        level = self._levels[i]
        for p in sorted(level.transversal):
            u = invert_map(level.transversal[p])
            for g, _ in list(level.gens):
                schreier = compose_maps(compose_maps(u, g), level.transversal[g[p]])
                if schreier == self._identity:
                    continue
                stop = self._add_element(schreier, i + 1)
                if stop is not None:
                    return stop
        return None

    # -- queries ----------------------------------------------------------

    @property
    def base(self) -> list:
        return [level.point + 1 for level in self._levels]

    @property
    def levels(self) -> list:
        """Per base point: (transversal {point: Permutation}, level generators)."""
        out = []
        for level in self._levels:
            trans = {
                p + 1: Permutation._from_zero_based(invert_map(v))
                for p, v in level.transversal.items()
            }
            gens = [Permutation._from_zero_based(g) for g, _ in level.gens]
            out.append((trans, gens))
        return out

    def order(self) -> int:
        result = 1
        for level in self._levels:
            result *= len(level.transversal)
        return result

    def contains(self, sigma: Permutation) -> bool:
        if sigma.degree != self.degree:
            raise ValueError(f"degree mismatch: {sigma.degree} != {self.degree}")
        residue, _ = self._strip(sigma._map, 0)
        return residue == self._identity


def build_chain(gens: Sequence[Permutation], n: int) -> StabilizerChain:
    """Stabilizer chain for <gens> acting on 1..n; deterministic for fixed input order."""
    return StabilizerChain(gens, n)


@dataclass(frozen=True)
class OrbitPartition:
    """Partition of {1..n} into orbits, each block sorted, blocks by minimum."""

    blocks: tuple

    @property
    def is_single(self) -> bool:
        return len(self.blocks) == 1


def orbits(gens: Sequence[Permutation], n: int) -> OrbitPartition:
    """Connected components of the action of ``gens`` on 1..n (singletons allowed)."""
    for g in gens:
        if g.degree != n:
            raise ValueError(f"generator degree {g.degree} != {n}")
    arcs = [(i, x) for g in gens for i, x in enumerate(g._map) if i != x]
    blocks = connected_components(n, arcs)
    return OrbitPartition(tuple(tuple(v + 1 for v in block) for block in blocks))


def generates(gens: Sequence[Permutation], n: int,
              chain: StabilizerChain | None = None) -> str:
    """Classify <gens>: ``symmetric``, ``alternating`` or ``other``.

    Compares the exact chain order against n! and n!/2; an intransitive group
    reports ``other`` regardless of order.  Pass ``chain`` when the chain of
    ``gens`` is already built, so it is not built again.
    """
    if chain is None:
        chain = build_chain(gens, n)
    order = chain.order()
    full = math.factorial(n)
    if order == full:
        return "symmetric"
    if 2 * order == full and orbits(gens, n).is_single:
        return "alternating"
    return "other"


def enumerate_elements(gens: Sequence[Permutation], n: int, cap: int) -> list:
    """BFS closure of <gens> from the identity, in (word length, generator index) order.

    Raises CapExceeded as soon as the closure would outgrow ``cap``.  The
    order is fixed so Cayley-graph vertex indices are reproducible.  Each
    frontier element w is turned into one getter that forms w * t for every
    generator t.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    for g in gens:
        if g.degree != n:
            raise ValueError(f"generator degree {g.degree} != {n}")
    identity = tuple(range(n))
    seen = {identity: None}
    tables = [g._map for g in gens]
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for candidate in map(composer(w), tables):
                if candidate not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"group closure exceeds cap {cap}")
                    seen[candidate] = None
                    nxt.append(candidate)
        frontier = nxt
    return list(map(Permutation._from_zero_based, seen))
