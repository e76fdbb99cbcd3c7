import math

import pytest

from oracles import odd_primes, sieve_primes, trial_is_prime
from windmills.numtheory import (
    Residue,
    _inverses,
    is_prime,
    smallest_nonresidue,
    sqrt_minus_one,
    wilson_sqrt_minus_one_oracle,
)


class TestResidue:
    def test_valid(self):
        r = Residue(3, 7)
        assert (r.value, r.modulus) == (3, 7)

    @pytest.mark.parametrize("value,modulus", [(7, 7), (-1, 7), (0, 1), (2, 0)])
    def test_invalid(self, value, modulus):
        with pytest.raises(ValueError):
            Residue(value, modulus)


class TestIsPrime:
    def test_smallest_prime(self):
        assert is_prime(2)

    def test_spot_values(self):
        assert is_prime(29)
        assert not is_prime(33)
        assert not is_prime(1)
        assert not is_prime(0)

    def test_matches_trial_division(self):
        for n in range(4000):
            assert is_prime(n) == trial_is_prime(n), n

    def test_strong_pseudoprimes(self):
        # composites that fool single-base Miller-Rabin tests
        assert not is_prime(2047)  # 23 * 89, strong pseudoprime base 2
        assert not is_prime(3215031751)  # strong pseudoprime bases 2, 3, 5, 7
        assert not is_prime(341550071728321)
        assert not is_prime(561)  # Carmichael

    def test_large_values(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**61 + 1)
        assert is_prime(2**64 - 59)
        assert not is_prime((2**31 - 1) * (2**31 + 11))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            is_prime(2**64)
        with pytest.raises(ValueError):
            is_prime(-1)


class TestSmallestNonresidue:
    @pytest.mark.parametrize("p,expected", [(13, 2), (17, 3), (3, 2)])
    def test_examples(self, p, expected):
        assert smallest_nonresidue(p) == Residue(expected, p)

    def test_against_square_sets(self):
        for p in odd_primes(300):
            squares = {x * x % p for x in range(1, p)}
            expected = next(n for n in range(2, p) if n not in squares)
            assert smallest_nonresidue(p).value == expected


class TestSqrtMinusOne:
    @pytest.mark.parametrize("p,expected", [(5, 2), (13, 5), (17, 4)])
    def test_examples(self, p, expected):
        assert sqrt_minus_one(p) == Residue(expected, p)

    def test_square_is_minus_one_up_to_10000(self):
        for p in odd_primes(10**4):
            if p % 4 != 1:
                continue
            i = sqrt_minus_one(p).value
            assert i * i % p == p - 1
            assert 1 <= i <= (p - 1) // 2  # canonical half

    @pytest.mark.parametrize("p", [7, 11, 3])
    def test_rejects_three_mod_four(self, p):
        with pytest.raises(ValueError):
            sqrt_minus_one(p)


class TestInverses:
    def test_equals_pow_for_every_prime_below_3000(self):
        # the whole table, and the half table that the walk takes
        for p in odd_primes(3000):
            want = [0] + [pow(m, -1, p) for m in range(1, p)]
            assert _inverses(p, p - 1) == want, p
            assert _inverses(p, (p - 1) // 2) == want[: (p + 1) // 2], p

    @pytest.mark.parametrize("p", [99989, 99991])
    def test_spot_values_large(self, p):
        inv = _inverses(p, p - 1)
        assert all(m * inv[m] % p == 1 for m in range(1, p))


class TestWilsonOracle:
    def test_examples(self):
        assert wilson_sqrt_minus_one_oracle(5).value == 2
        assert wilson_sqrt_minus_one_oracle(13).value == 5

    def test_p29_by_direct_factorial(self):
        f = math.factorial(14) % 29
        assert wilson_sqrt_minus_one_oracle(29).value == min(f, 29 - f) == 12

    def test_agrees_with_fast_path_up_to_10000(self):
        for p in odd_primes(10**4):
            if p % 4 == 1:
                assert wilson_sqrt_minus_one_oracle(p) == sqrt_minus_one(p)

    def test_guards(self):
        with pytest.raises(ValueError):
            wilson_sqrt_minus_one_oracle(7)
        with pytest.raises(ValueError):
            wilson_sqrt_minus_one_oracle(100_003)
        # 100003 is 3 (mod 4); 100049 is the least prime = 1 (mod 4) above the limit
        with pytest.raises(ValueError, match="factorial oracle is limited to p <= 100000"):
            wilson_sqrt_minus_one_oracle(100_049)


def test_prime_list_sanity():
    assert sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
