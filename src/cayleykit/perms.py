"""Permutations of {1..n} and cycle types.

Composition is left-to-right throughout the package: ``a * b`` means "apply
``a`` first, then ``b``".  All points are 1-based in the public API; the
internal image table is 0-based for speed.  Permutations are immutable and
hashable, so they can be shared freely between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence


def compose_maps(a: tuple, b: tuple) -> tuple:
    """Image table of "apply ``a``, then ``b``" (0-based tables of one degree).

    ``itemgetter`` with a single index returns the item, not a 1-tuple, so
    degrees below 2 take the plain loop.
    """
    if len(a) > 1:
        return itemgetter(*a)(b)
    return tuple(b[x] for x in a)


def composer(a: tuple):
    """The function ``b -> compose_maps(a, b)``: one ``itemgetter`` built
    once and applied to many tables (degrees below 2 take the plain loop)."""
    if len(a) > 1:
        return itemgetter(*a)
    return lambda b: tuple(b[x] for x in a)


def invert_map(table: tuple) -> tuple:
    """Image table of the inverse of ``table`` (0-based)."""
    inv = [0] * len(table)
    for i, x in enumerate(table):
        inv[x] = i
    return tuple(inv)


class Permutation:
    """A bijection on {1..n}, stored as an image table.

    ``Permutation([2, 1, 3])`` maps 1->2, 2->1, 3->3.
    """

    __slots__ = ("_map", "_hash")

    def __init__(self, images: Sequence[int]):
        n = len(images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        table = tuple(x - 1 for x in images)
        if sorted(table) != list(range(n)):
            raise ValueError(f"not a bijection on 1..{n}: {list(images)}")
        self._map = table
        self._hash = hash(table)

    @classmethod
    def _from_zero_based(cls, table: tuple) -> "Permutation":
        p = object.__new__(cls)
        p._map = table
        p._hash = hash(table)
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._from_zero_based(tuple(range(n)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], n: int) -> "Permutation":
        """Build a permutation of degree ``n`` from disjoint cycles of 1-based points."""
        table = list(range(n))
        seen = set()
        for cycle in cycles:
            for x in cycle:
                if not 1 <= x <= n:
                    raise ValueError(f"point {x} out of range 1..{n}")
                if x in seen:
                    raise ValueError(f"point {x} repeated across cycles")
                seen.add(x)
            for a, b in zip(cycle, cycle[1:]):
                table[a - 1] = b - 1
            if len(cycle) > 1:
                table[cycle[-1] - 1] = cycle[0] - 1
        return cls._from_zero_based(tuple(table))

    @classmethod
    def from_text(cls, text: str, n: int) -> "Permutation":
        """Parse cycle notation like ``(1 2)(5 6)(12 13)``; ``()`` or "" is the identity."""
        body = text.strip()
        if body in ("", "()"):
            return cls.identity(n)
        if not re.fullmatch(r"(\(\s*\d+(\s+\d+)*\s*\))+", body):
            raise ValueError(f"malformed cycle notation: {text!r}")
        cycles = [[int(tok) for tok in chunk.split()] for chunk in re.findall(r"\(([^()]*)\)", body)]
        return cls.from_cycles(cycles, n)

    @property
    def degree(self) -> int:
        return len(self._map)

    @property
    def images(self) -> tuple:
        """The 1-based image sequence: position i holds the image of i."""
        return tuple(x + 1 for x in self._map)

    def __call__(self, point: int) -> int:
        return self._map[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-to-right product: ``(a * b)(x) == b(a(x))``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self._map) != len(other._map):
            raise ValueError(
                f"degree mismatch: {len(self._map)} vs {len(other._map)}"
            )
        return Permutation._from_zero_based(compose_maps(self._map, other._map))

    def inverse(self) -> "Permutation":
        return Permutation._from_zero_based(invert_map(self._map))

    def extend(self, n: int) -> "Permutation":
        """Re-encode into degree ``n`` >= current degree, fixing the new points.

        Degrees never widen implicitly; mixed-degree products are an error.
        """
        if n < self.degree:
            raise ValueError(f"cannot shrink degree {self.degree} to {n}")
        return Permutation._from_zero_based(self._map + tuple(range(self.degree, n)))

    def is_identity(self) -> bool:
        return all(x == i for i, x in enumerate(self._map))

    def support(self) -> frozenset:
        """The set of moved points."""
        return frozenset(i + 1 for i, x in enumerate(self._map) if x != i)

    def cycles(self) -> list:
        """Disjoint nontrivial cycles in canonical form.

        Cycles are sorted by smallest moved point and each is rotated to start
        at its smallest element; fixed points are omitted.
        """
        out = []
        seen = [False] * len(self._map)
        for start, image in enumerate(self._map):
            if seen[start] or image == start:
                continue
            cycle = []
            x = start
            while not seen[x]:
                seen[x] = True
                cycle.append(x + 1)
                x = self._map[x]
            out.append(tuple(cycle))
        return out

    def cycle_type(self) -> "CycleType | None":
        """Multiset of nontrivial cycle lengths; None for the identity."""
        lengths = [len(c) for c in self.cycles()]
        return CycleType(lengths) if lengths else None

    def parity(self) -> int:
        """0 for even, 1 for odd (sum of cycle length - 1, mod 2)."""
        return sum(len(c) - 1 for c in self.cycles()) % 2

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self.support() else 1

    def conjugate_by(self, sigma: "Permutation") -> "Permutation":
        """Relabel points through ``sigma``: the result is sigma^-1 * self * sigma."""
        return sigma.inverse() * self * sigma

    def to_text(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._map == other._map

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Permutation") -> bool:
        return self._map < other._map

    def __repr__(self) -> str:
        return f"Permutation({self.degree}, {self.to_text()})"


@dataclass(frozen=True)
class CycleType:
    """A multiset of cycle lengths >= 2, stored sorted descending."""

    parts: tuple

    def __init__(self, parts: Iterable[int]):
        canon = tuple(sorted(parts, reverse=True))
        if not canon:
            raise ValueError("cycle type needs at least one part")
        if any(p < 2 for p in canon):
            raise ValueError(f"every part must be >= 2, got {canon}")
        object.__setattr__(self, "parts", canon)

    @property
    def k(self) -> int:
        """Number of parts."""
        return len(self.parts)

    @property
    def c_value(self) -> int:
        """Transpositions needed per element: sum of (part - 1)."""
        return sum(p - 1 for p in self.parts)

    def repeated(self, m: int) -> "CycleType":
        """The type consisting of ``m`` copies of this one."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return CycleType(self.parts * m)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def from_text(cls, text: str) -> "CycleType":
        try:
            parts = [int(tok) for tok in text.split(",")]
        except ValueError:
            raise ValueError(f"malformed cycle type: {text!r}") from None
        return cls(parts)


def in_extended_class(sigma: Permutation, cycle_type: CycleType) -> bool:
    """True iff sigma's nontrivial cycle lengths equal ``cycle_type`` exactly."""
    actual = sigma.cycle_type()
    return actual is not None and actual.parts == cycle_type.parts


def analyze(sigma: Permutation) -> dict:
    """Support, parity, cycle type and order of a permutation in one report."""
    return {
        "support": sigma.support(),
        "parity": "odd" if sigma.parity() else "even",
        "cycle_type": sigma.cycle_type(),
        "order": sigma.order(),
    }
