import pytest

from cayleykit.errors import RangeError
from cayleykit.numth import (
    cyclotomic_eval,
    is_prime,
    moebius,
    prime_in_interval,
    prime_one_mod,
    smallest_prime_one_mod,
)


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestIsPrime:
    def test_small_values(self):
        assert is_prime(17)
        assert not is_prime(1)
        assert not is_prime(0)
        assert is_prime(2)
        assert is_prime(9091)

    def test_against_trial_division(self):
        for n in range(0, 5000):
            assert is_prime(n) == trial_division_prime(n), n

    def test_large_64_bit(self):
        assert is_prime((1 << 61) - 1)  # Mersenne prime
        assert not is_prime((1 << 61) - 3)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            is_prime(10**25)


class TestCyclotomic:
    def test_known_values(self):
        assert cyclotomic_eval(2, 2) == 3
        assert cyclotomic_eval(6, 6) == 31
        assert cyclotomic_eval(4, 4) == 17
        for x in (2, 3, 7):
            assert cyclotomic_eval(1, x) == x - 1

    def test_product_over_divisors_recovers_power(self):
        for m in range(1, 13):
            for x in (2, 3, 5):
                product = 1
                for d in range(1, m + 1):
                    if m % d == 0:
                        product *= cyclotomic_eval(d, x)
                assert product == x**m - 1, (m, x)

    def test_moebius_small(self):
        assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


class TestPrimeOneMod:
    def test_known_values(self):
        assert prime_one_mod(4) == 17
        assert prime_one_mod(2) == 3
        assert prime_one_mod(6) == 31
        # Phi_19(19) is prime: it answers without a scan up to its square root
        assert prime_one_mod(19) == cyclotomic_eval(19, 19) == 109912203092239643840221

    def test_divisor_prime_and_residue_for_range(self):
        for m in range(2, 17):
            p = prime_one_mod(m)
            assert is_prime(p)
            assert p % m == 1
            assert cyclotomic_eval(m, m) % p == 0

    def test_scan_work_counts_the_bit_length(self, monkeypatch):
        # Phi_40(40) has 86 bits; its least prime factor, 202481 = 41 + 40 * 5061,
        # comes after 5061 scan steps
        from cayleykit import numth

        monkeypatch.setattr(numth, "_SCAN_WORK", 5061 * 86)
        assert prime_one_mod(40) == 202481
        monkeypatch.setattr(numth, "_SCAN_WORK", 5061 * 86 - 1)
        with pytest.raises(RangeError):
            prime_one_mod(40)

    def test_out_of_budget(self):
        # Phi_20000(20000) has 114,000 bits, so the budget stops its scan
        # after a few thousand steps, not ten million
        for m in (31, 20000):
            with pytest.raises(RangeError):
                prime_one_mod(m)

    def test_least_prime_factor_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        answered = 0
        for m in range(2, 61):
            try:
                p = prime_one_mod(m)
            except RangeError:
                continue
            answered += 1
            value = cyclotomic_eval(m, m)
            # p is min(sympy.primefactors(value)): a prime divisor with no
            # prime below it dividing value (sieved, not the 1 mod m class)
            assert sympy.isprime(p) and value % p == 0, m
            if p < value:
                assert not any(value % q == 0 for q in sympy.sieve.primerange(2, p)), m
        assert answered == 55  # 31, 44, 46 and 57 stop on the effort bound

    def test_smallest_prime_in_class(self):
        assert smallest_prime_one_mod(2) == 3
        assert smallest_prime_one_mod(6) == 7
        assert smallest_prime_one_mod(8) == 17
        # the class prime never exceeds the cyclotomic bound
        for m in range(2, 13):
            assert smallest_prime_one_mod(m) <= cyclotomic_eval(m, m)


class TestPrimeInInterval:
    def test_small_cases(self):
        assert prime_in_interval(4) == 5
        assert prime_in_interval(2) == 3

    def test_error_below_two(self):
        with pytest.raises(ValueError):
            prime_in_interval(1)

    def test_interval_bounds_sampled(self):
        for a in [2, 3, 10, 97, 1000, 12345, 10**6]:
            p = prime_in_interval(a)
            assert a < p < 2 * a
            assert is_prime(p)
