from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldens import GOLDEN_ORBITS, GOLDEN_TOTALS
from oracles import odd_primes
from windmills.decomp import (
    IrreducibleMatrix,
    OrbitEntry,
    enumerate_bruteforce,
    enumerate_fast,
    irreducible_count,
    irreducible_enumerate,
    two_squares_fixed_point,
    two_squares_grace,
    vierergruppe_orbits,
)
from windmills.windmill import Solution


def orbit_set(entries: list[OrbitEntry]) -> set:
    return {(e.rep.key, e.size) for e in entries}


def _full_square_bruteforce(p: int) -> set[Solution]:
    # the scan over every (c, d) in [0, isqrt(p)]**2, kept as the reference
    # for the symmetric scan that visits only c <= d
    sols = set()
    top = isqrt(p)
    for c in range(top + 1):
        for d in range(top + 1):
            m = c if c > d else d
            r = p - c * d
            if r <= m * m:
                continue
            for a in range(m + 1, isqrt(r) + 1):
                if r % a == 0:
                    b = r // a
                    sols.add(Solution(a, b, c, d, p))
                    if a != b:
                        sols.add(Solution(b, a, c, d, p))
    return sols


def _full_square_irreducible(n: int) -> list[IrreducibleMatrix]:
    # the scan over every (b, c) in [0, (n-1)//2]**2, kept as the reference
    # for the pruned scan over m = max(b, c)
    out = []
    off_top = (n - 1) // 2
    for b in range(off_top + 1):
        for c in range(off_top + 1):
            m = b if b > c else c
            r = n + b * c
            for a in range(m + 1, isqrt(r) + 1):
                if r % a == 0:
                    d = r // a
                    out.append(IrreducibleMatrix(a, b, c, d, n))
                    if a != d:
                        out.append(IrreducibleMatrix(d, b, c, a, n))
    out.sort()
    return out


class TestEnumerateBruteforce:
    def test_p3(self):
        assert {s.key for s in enumerate_bruteforce(3)} == {(3, 1, 0, 0), (1, 3, 0, 0)}

    def test_p5(self):
        assert {s.key for s in enumerate_bruteforce(5)} == {
            (5, 1, 0, 0),
            (1, 5, 0, 0),
            (2, 2, 1, 1),
        }

    def test_p29_orbit_table(self):
        sols = enumerate_bruteforce(29)
        assert len(sols) == 15
        assert orbit_set(vierergruppe_orbits(sols)) == GOLDEN_ORBITS[29]

    def test_every_solution_is_valid(self):
        for p in (3, 13, 101, 499):
            for sol in enumerate_bruteforce(p):
                assert sol.is_valid() and sol.p == p

    def test_count_matches_closed_form_small(self):
        for p in odd_primes(1000):
            assert len(enumerate_bruteforce(p)) == (p + 1) // 2

    def test_equals_full_square_scan(self):
        # 99989 = 1 and 99991 = 3 (mod 4): both residue classes at the top
        for p in odd_primes(3000) + [99989, 99991]:
            assert enumerate_bruteforce(p) == _full_square_bruteforce(p), p

    def test_guards(self):
        with pytest.raises(ValueError):
            enumerate_bruteforce(4)
        with pytest.raises(ValueError):
            enumerate_bruteforce(1_000_003)


class TestEnumerateFast:
    def test_p13(self):
        sols = enumerate_fast(13)
        assert len(sols) == 7
        assert Solution(6, 2, 1, 1, 13) in sols

    def test_p37_table(self):
        sols = enumerate_fast(37)
        assert len(sols) == 19
        assert orbit_set(vierergruppe_orbits(sols)) == GOLDEN_ORBITS[37]

    def test_p3_degenerate_only(self):
        assert {s.key for s in enumerate_fast(3)} == {(3, 1, 0, 0), (1, 3, 0, 0)}

    def test_equals_bruteforce(self):
        for p in odd_primes(300):
            assert enumerate_fast(p) == enumerate_bruteforce(p), p

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            enumerate_fast(15)


class TestVierergruppeOrbits:
    def test_golden_tables(self):
        for p, expected in GOLDEN_ORBITS.items():
            entries = vierergruppe_orbits(enumerate_fast(p))
            assert orbit_set(entries) == expected
            assert sum(e.size for e in entries) == GOLDEN_TOTALS[p]

    def test_p37_has_size_one_orbit(self):
        entries = vierergruppe_orbits(enumerate_fast(37))
        assert (OrbitEntry(Solution(6, 6, 1, 1, 37), 1)) in entries

    def test_p5(self):
        assert orbit_set(vierergruppe_orbits(enumerate_fast(5))) == {
            ((5, 1, 0, 0), 2),
            ((2, 2, 1, 1), 1),
        }

    def test_sorted_descending(self):
        entries = vierergruppe_orbits(enumerate_fast(29))
        keys = [e.rep.key for e in entries]
        assert keys == sorted(keys, reverse=True)

    def test_reps_are_decreasing(self):
        for p in odd_primes(150):
            for e in vierergruppe_orbits(enumerate_fast(p)):
                a, b, c, d = e.rep.key
                assert a >= b >= c >= d
                assert e.size in (1, 2, 4)

    def test_sizes_partition_the_set(self):
        for p in odd_primes(300):
            sols = enumerate_fast(p)
            assert sum(e.size for e in vierergruppe_orbits(sols)) == len(sols)

    def test_rejects_non_closed_input(self):
        bad = {Solution(14, 2, 1, 1, 29)}
        with pytest.raises(ValueError):
            vierergruppe_orbits(bad)

    def test_closure_of_generated_sets(self):
        for p in (13, 29, 101):
            sols = enumerate_fast(p)
            for a, b, c, d, _ in sols:
                assert Solution(b, a, c, d, p) in sols
                assert Solution(a, b, d, c, p) in sols
                assert Solution(b, a, d, c, p) in sols


class TestTwoSquaresFixedPoint:
    @pytest.mark.parametrize("p,expected", [(29, (5, 2)), (37, (6, 1)), (5, (2, 1))])
    def test_examples(self, p, expected):
        assert two_squares_fixed_point(p) == expected

    @pytest.mark.parametrize("p", [3, 7, 11, 23])
    def test_rejects_three_mod_four(self, p):
        with pytest.raises(ValueError):
            two_squares_fixed_point(p)

    def test_sweep(self):
        for p in odd_primes(2000):
            if p % 4 != 1:
                continue
            a, c = two_squares_fixed_point(p)
            assert a > c >= 1
            assert a * a + c * c == p


class TestTwoSquaresGrace:
    @pytest.mark.parametrize("p,expected", [(13, (3, 2)), (5, (2, 1)), (29, (5, 2))])
    def test_examples(self, p, expected):
        assert two_squares_grace(p) == expected

    def test_rejects_three_mod_four(self):
        with pytest.raises(ValueError):
            two_squares_grace(7)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            two_squares_grace(2**62 + 5 * 4 + 1)

    def test_agreement_with_fixed_point(self):
        for p in odd_primes(10**4):
            if p % 4 == 1:
                assert two_squares_grace(p) == two_squares_fixed_point(p)

    def test_large_prime(self):
        p = 10**12 + 61  # prime, 1 mod 4
        a, b = two_squares_grace(p)
        assert a * a + b * b == p


class TestOrbitParity:
    def test_orbit_parities(self):
        for p in odd_primes(600):
            entries = vierergruppe_orbits(enumerate_fast(p))
            odd_entries = [e for e in entries if e.size % 2 == 1]
            if p % 4 == 1:
                assert len(odd_entries) == 1
                rep = odd_entries[0].rep
                assert odd_entries[0].size == 1
                assert rep.a == rep.b and rep.c == rep.d
                assert rep.a**2 + rep.c**2 == p
            else:
                assert not odd_entries


class TestIrreducible:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (4, 5), (6, 8)])
    def test_count_examples(self, n, expected):
        assert irreducible_count(n) == expected

    def test_enumerate_n1(self):
        assert irreducible_enumerate(1) == [IrreducibleMatrix(1, 0, 0, 1, 1)]

    def test_enumerate_n2(self):
        assert {m[:4] for m in irreducible_enumerate(2)} == {(2, 0, 0, 1), (1, 0, 0, 2)}

    def test_enumerate_n6_count(self):
        assert len(irreducible_enumerate(6)) == 8

    def test_formula_equals_enumeration_to_300(self):
        for n in range(1, 301):
            assert irreducible_count(n) == len(irreducible_enumerate(n)), n

    def test_matrices_are_valid_and_distinct(self):
        for n in (1, 6, 30, 97, 200):
            listed = irreducible_enumerate(n)
            assert len(set(listed)) == len(listed)
            for m in listed:
                assert m.is_valid()

    def test_equals_full_square_scan(self):
        # m*m and m*(m-1) make (m*m - n) % m == 0, the edge of the k bound
        boundary = {m * m for m in range(1, 41)} | {m * (m - 1) for m in range(2, 41)}
        for n in sorted(set(range(1, 301)) | boundary | {1968, 2000}):
            assert irreducible_enumerate(n) == _full_square_irreducible(n), n

    def test_guards(self):
        with pytest.raises(ValueError):
            irreducible_count(0)
        with pytest.raises(ValueError):
            irreducible_count(10**9 + 1)
        with pytest.raises(ValueError):
            irreducible_enumerate(10**4 + 1)

    @given(n=st.integers(min_value=1, max_value=2000))
    @settings(max_examples=40)
    def test_transpose_symmetry(self, n):
        # transposing swaps b and c and preserves irreducibility
        listed = irreducible_enumerate(n)
        keys = {m[:4] for m in listed}
        assert {(a, c, b, d) for a, b, c, d in keys} == keys
