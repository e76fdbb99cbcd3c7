import math

import pytest

from oracles import odd_primes, sieve_primes, trial_is_prime
from windmills import numtheory
from windmills.numtheory import (
    Residue,
    _inverses,
    is_prime,
    smallest_nonresidue,
    sqrt_minus_one,
    wilson_sqrt_minus_one_oracle,
)


def count_rounds(monkeypatch):
    # each Miller-Rabin round of is_prime takes one pow; the returned
    # function reads how many were taken so far
    calls = 0

    def counted(base, exp, mod=None):
        nonlocal calls
        calls += 1
        return pow(base, exp, mod)

    monkeypatch.setattr(numtheory, "pow", counted, raising=False)
    return lambda: calls


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

    # psi_k, the least strong pseudoprime to the first k prime bases: each
    # distinct value below 2**64 with the k that share it, as a product of
    # its prime factors, and the primes just below and just above it
    PSI = [
        ((1,), 23 * 89, 2039, 2053),
        ((2,), 829 * 1657, 1373639, 1373677),
        ((3,), 2251 * 11251, 25325981, 25326023),
        ((4,), 151 * 751 * 28351, 3215031749, 3215031767),
        ((5,), 6763 * 10627 * 29947, 2152302898729, 2152302898771),
        ((6,), 1303 * 16927 * 157543, 3474749660329, 3474749660401),
        ((7, 8), 10670053 * 32010157, 341550071728289, 341550071728361),
        ((9, 10, 11), 149491 * 747451 * 34233211, 3825123056546412979, 3825123056546413057),
    ]

    def test_strong_pseudoprimes(self):
        # composites that fool single-base Miller-Rabin tests
        assert not is_prime(2047)  # 23 * 89, strong pseudoprime base 2
        assert not is_prime(3215031751)  # strong pseudoprime bases 2, 3, 5, 7
        assert not is_prime(341550071728321)
        assert not is_prime(561)  # Carmichael

    @pytest.mark.parametrize("ks,psi,below,above", PSI)
    def test_psi_and_its_prime_neighbours(self, monkeypatch, ks, psi, below, above):
        # psi_k passes the first k rounds, so a later round must run and
        # catch it: at psi_9 only base 37, the last witness, does
        assert all(numtheory._MR_PSI[k - 1] == psi for k in ks)
        rounds = count_rounds(monkeypatch)
        assert not is_prime(psi)
        # psi_1 = 23 * 89 falls to the division by the bases, before any round
        assert rounds() > ks[-1] or psi == 2047
        assert is_prime(below) and is_prime(above)

    @pytest.mark.parametrize(
        "n,rounds",
        [
            (601, 1),  # < psi_1
            (99991, 2),  # < psi_2
            (2053, 2),  # just above psi_1
            (3825123056546412979, 9),  # just below psi_9
            (3825123056546413057, 12),  # just above psi_11
            (2**61 - 1, 9),
            (2**64 - 59, 12),
        ],
    )
    def test_stops_after_the_deciding_round(self, monkeypatch, n, rounds):
        # a prime below psi_k takes the first k rounds and no more
        counted = count_rounds(monkeypatch)
        assert is_prime(n)
        assert counted() == rounds

    def test_matches_the_sieve_below_200000(self):
        primes = set(sieve_primes(2 * 10**5 - 1))
        assert [n for n in range(2 * 10**5) if is_prime(n) != (n in primes)] == []

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
