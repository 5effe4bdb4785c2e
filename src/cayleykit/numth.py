"""Exact integer number theory: cyclotomic values and the primes the
constructions lean on.

Everything is arbitrary precision.  ``prime_one_mod`` exploits the fact that
Phi_m(m) = 1 (mod m), so every prime factor of it is = 1 (mod m); scanning
candidate divisors in that residue class is therefore a complete search.
All functions are pure and thread-safe.
"""

from __future__ import annotations

from .errors import RangeError

# Deterministic Miller-Rabin witness set, exact for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Exact deterministic primality for n below ~3.3e24; RangeError beyond."""
    if n < 0:
        raise ValueError("primality is defined for nonnegative integers")
    if n >= _MR_LIMIT:
        raise RangeError(f"{n} exceeds the deterministic witness range")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius is defined for n >= 1")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def divisors(n: int) -> list:
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


def cyclotomic_eval(m: int, x: int) -> int:
    """Phi_m(x) exactly, via the Moebius product over divisors of m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return x - 1
    numerator = 1
    denominator = 1
    for d in divisors(m):
        mu = moebius(m // d)
        if mu == 1:
            numerator *= x**d - 1
        elif mu == -1:
            denominator *= x**d - 1
    value, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"cyclotomic product not exact for m={m}, x={x}")
    return value


# Trial-division budget in steps times the bit length of Phi_m(m): each step
# is one big-integer modulo, whose cost grows with that length.
_SCAN_WORK = 5 * 10**8


def prime_one_mod(m: int) -> int:
    """Smallest prime factor of Phi_m(m); it is always = 1 (mod m).

    Phi_m(m) = 1 (mod m), so no prime factor divides m and every prime factor
    lies in the 1 (mod m) class; trial division restricted to that class is
    complete.  A prime value is its own smallest prime factor, so values in
    the witness range are tested for primality before any scan.  RangeError
    once the scan's work passes _SCAN_WORK.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    value = cyclotomic_eval(m, m)
    if value < _MR_LIMIT and is_prime(value):
        return value
    max_steps = _SCAN_WORK // value.bit_length()
    q = m + 1
    steps = 0
    while q * q <= value:
        if value % q == 0:
            return q
        q += m
        steps += 1
        if steps > max_steps:
            raise RangeError(f"factor scan for Phi_{m}({m}) exceeds effort bound")
    if not is_prime(value):
        raise ArithmeticError(f"Phi_{m}({m}) = {value} resisted classification")
    return value


def smallest_prime_one_mod(m: int) -> int:
    """Smallest prime p = 1 (mod m); exists below Phi_m(m) + 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    p = m + 1
    while True:
        if is_prime(p):
            return p
        p += m


def prime_in_interval(a: int) -> int:
    """Smallest prime strictly between a and 2a (Bertrand); requires a >= 2."""
    if a < 2:
        raise ValueError("no prime lies strictly between a and 2a for a < 2")
    for p in range(a + 1, 2 * a):
        if is_prime(p):
            return p
    raise ArithmeticError(f"no prime found in ({a}, {2 * a}); this contradicts Bertrand")
