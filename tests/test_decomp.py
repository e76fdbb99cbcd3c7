import hashlib
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldens import GOLDEN_ORBITS, GOLDEN_TOTALS
from oracles import least_class_members, loop_irreducible_rows, odd_primes
from windmills import decomp, lattice2d, numtheory, windmill
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
from windmills.windmill import Solution, _fast_solution_raw


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


def _per_slope_rows(p: int) -> set[tuple[int, int, int, int]]:
    # one reduction per slope pair {mu, p - mu}, kept as the reference for the
    # walk that shares one reduction per class {+-mu, +-1/mu}
    rows = {(p, 1, 0, 0), (1, p, 0, 0)}
    for mu in range(2, (p + 1) // 2):
        rows.add(_fast_solution_raw(p, *lattice2d._reduce_raw(p, 0, -mu, 1))[1])
    return rows


def _four_solution_orbits(sols: set[Solution]) -> list[OrbitEntry]:
    # the orbit walk that builds all four swaps of each row as Solutions and
    # checks them against the input by set difference, kept as the reference
    # for the one-pass table of decreasing representatives
    entries = []
    seen: set[Solution] = set()
    for sol in sols:
        if sol in seen:
            continue
        a, b, c, d, p = sol
        orbit = {
            Solution(a, b, c, d, p),
            Solution(b, a, c, d, p),
            Solution(a, b, d, c, p),
            Solution(b, a, d, c, p),
        }
        missing = orbit - sols
        if missing:
            raise ValueError(f"input not closed under the swap action: missing {sorted(missing)}")
        seen |= orbit
        rep = Solution(max(a, b), min(a, b), max(c, d), min(c, d), p)
        entries.append(OrbitEntry(rep, len(orbit)))
    entries.sort(key=lambda e: e.rep.key, reverse=True)
    return entries


def _refuse_walk(*args):
    raise AssertionError("a refused input must not start the walk")


# m*m and m*(m-1) make (m*m - n) % m == 0, the edge of the k bound
_K_BOUNDARY = {m * m for m in range(1, 41)} | {m * (m - 1) for m in range(2, 41)}


def _full_square_irreducible(n: int) -> list[IrreducibleMatrix]:
    # the scan over every (b, c) in [0, (n-1)//2]**2, kept as the reference
    # for the congruence search over m = max(b, c)
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


def _windowed_full_square_irreducible(ns: list[int]) -> dict[int, list[IrreducibleMatrix]]:
    # the sorted matrices of each n in the window ns (sorted): one scan of
    # every (b, c) in [0, (hi-1)//2]**2 and of every a, d > max(b, c) with
    # lo <= a*d - b*c <= hi, each matrix put in the bucket of its determinant;
    # no congruence and no divisor sum, so it stays independent of the search
    lo, hi = ns[0], ns[-1]
    buckets = {n: [] for n in ns}
    off_top = (hi - 1) // 2
    for b in range(off_top + 1):
        for c in range(off_top + 1):
            m = b if b > c else c
            bc = b * c
            for a in range(m + 1, (hi + bc) // (m + 1) + 1):
                for d in range(max(m + 1, -((bc + lo) // -a)), (hi + bc) // a + 1):
                    bucket = buckets.get(a * d - bc)
                    if bucket is not None:
                        bucket.append(IrreducibleMatrix(a, b, c, d, a * d - bc))
    for out in buckets.values():
        out.sort()
    return buckets


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

    def test_independent_of_the_walk(self, monkeypatch):
        primes = (3, 5, 13, 101, 1009, 10007)
        want = {p: enumerate_bruteforce(p) for p in primes}

        def refuse(*args):
            raise AssertionError("the brute-force oracle must not use the lattice walk")

        for module, name in (
            (lattice2d, "_reduce_raw"),
            (windmill, "_fast_solution_raw"),
            (decomp, "_reduce_slopes_raw"),
            (decomp, "_fast_solution_raw"),
            (decomp, "_walk_rows"),
        ):
            monkeypatch.setattr(module, name, refuse)
        for p in primes:
            assert enumerate_bruteforce(p) == want[p], p
            assert decomp._bruteforce_rows(p) == {s.key for s in want[p]}, p

    def test_one_inverse_per_row(self, monkeypatch):
        # one inverse serves the mirror pair c, a - c, so the search takes
        # about one inverse per hit (1.11 at both primes) where solving
        # every c up to min(a - 1, isqrt(p - a*a)) takes 1.88
        inverses = 0

        def counted(base, exp, mod=None):
            nonlocal inverses
            inverses += exp == -1
            return pow(base, exp, mod)

        monkeypatch.setattr(decomp, "pow", counted, raising=False)
        for p in (10007, 99991):
            inverses = 0
            hits = sum(1 for _ in decomp._bruteforce_hits(p))
            assert hits > 0 and inverses <= 1.25 * hits, (p, inverses, hits)


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


class TestWalkRows:
    def test_equals_per_slope_rows_and_bruteforce(self):
        # odd primes below 3000 cover both residue classes mod 4
        for p in odd_primes(3000):
            rows = list(decomp._walk_rows(p))
            assert len(rows) == len(set(rows)) == (p + 1) // 2, p
            assert set(rows) == _per_slope_rows(p), p
            assert set(rows) == {s.key for s in enumerate_bruteforce(p)}, p

    @pytest.mark.parametrize("p", [99989, 99991])
    def test_equals_per_slope_rows_large(self, p):
        rows = list(decomp._walk_rows(p))
        assert len(rows) == len(set(rows)) == (p + 1) // 2
        assert set(rows) == _per_slope_rows(p)

    def test_reduces_the_least_class_members_with_small_inverses(self, monkeypatch):
        # the slopes the walk hands decomp's _reduce_slopes_raw binding, in
        # the order it pulls them, and the sizes of the inverse tables it asks for
        slopes, sizes = [], []

        def tapped(mus):
            for mu in mus:
                slopes.append(mu)
                yield mu

        def inverses(q, n):
            sizes.append(n)
            return numtheory._inverses(q, n)

        monkeypatch.setattr(
            decomp, "_reduce_slopes_raw", lambda q, mus: lattice2d._reduce_slopes_raw(q, tapped(mus))
        )
        monkeypatch.setattr(decomp, "_inverses", inverses)
        for p in odd_primes(3000) + [99989, 99991]:
            slopes.clear()
            sizes.clear()
            assert len(list(decomp._walk_rows(p))) == (p + 1) // 2, p
            assert slopes == least_class_members(p), p
            assert sizes == [isqrt(p)], p

    @pytest.mark.parametrize(
        "p,digest",
        [
            (99989, "17eb0d290f8164bf5b65a600cc565f49723c3080bffa69005fdfe41d6fb0760e"),
            (99991, "6ae76c14cb22383647ece90c530689de0eb495ee1e4c11111fedd922446b3a1b"),
        ],
        ids=["99989", "99991"],
    )
    def test_rows_in_walk_order_are_pinned(self, p, digest):
        listing = "".join("%d %d %d %d\n" % row for row in decomp._walk_rows(p))
        assert hashlib.sha256(listing.encode()).hexdigest() == digest

    @pytest.mark.parametrize("p", [101, 103])
    def test_one_kernel_call_per_pair_and_one_reduction_per_class(self, p, monkeypatch):
        calls = {"kernel": 0, "reduce": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(decomp, "_fast_solution_raw", counted("kernel", _fast_solution_raw))
        # the walk reduces through lattice2d._reduce_slopes_raw, which calls
        # _reduce_raw through lattice2d's binding
        monkeypatch.setattr(lattice2d, "_reduce_raw", counted("reduce", lattice2d._reduce_raw))
        assert len(list(decomp._walk_rows(p))) == (p + 1) // 2
        # (p-3)/2 pairs fall into classes of two, plus one self-partner class
        # when p = 1 (mod 4): 25 classes at both 101 and 103
        assert calls == {"kernel": (p - 3) // 2, "reduce": 25}

    def test_count_check_names_the_prime(self, monkeypatch):
        real = decomp._walk_rows

        def short(p):
            return (row for row in real(p) if row != (3, 3, 2, 2))

        monkeypatch.setattr(decomp, "_walk_rows", short)
        with pytest.raises(AssertionError, match=r"^p=13: the walk gave 6 rows, not 7$"):
            enumerate_fast(13)

    def test_count_check_catches_a_repeated_row(self, monkeypatch):
        # (p+1)/2 rows with one of them twice: the list's count holds, the
        # set's does not
        real = decomp._walk_rows

        def repeated(p):
            return ((6, 2, 1, 1) if row == (3, 3, 2, 2) else row for row in real(p))

        monkeypatch.setattr(decomp, "_walk_rows", repeated)
        with pytest.raises(AssertionError, match=r"^p=13: the walk gave 6 distinct rows, not 7$"):
            enumerate_fast(13)

    def test_self_partner_row_is_the_two_squares_pair(self):
        # only mu*mu = -1 (mod p) is its own partner, so a row with a == b and
        # c == d comes out once when p = 1 (mod 4) and never otherwise
        for p in odd_primes(3000):
            fixed = [(a, c) for a, b, c, d in decomp._walk_rows(p) if a == b and c == d]
            if p % 4 == 1:
                assert fixed == [two_squares_grace(p)], p
            else:
                assert fixed == [], p

    def test_refuses_above_walk_limit(self, monkeypatch):
        monkeypatch.setattr(decomp, "_fast_solution_raw", _refuse_walk)
        limit = decomp._WALK_LIMIT
        with pytest.raises(ValueError, match=f"limited to p <= {limit}"):
            enumerate_fast(1_000_003)
        with pytest.raises(ValueError, match=f"limited to p <= {limit}"):
            two_squares_fixed_point(1_000_033)


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

    def test_equals_four_solution_walk(self):
        # 99989 = 1 and 99991 = 3 (mod 4): both residue classes at the top
        for p in odd_primes(3000) + [99989, 99991]:
            sols = enumerate_fast(p)
            assert vierergruppe_orbits(sols) == _four_solution_orbits(sols), p

    @pytest.mark.parametrize(
        "dropped",
        [
            [(2, 14, 1, 1)],  # not a representative: its orbit's one is present
            [(14, 2, 1, 1)],  # the representative: only its three swaps are present
            # the representatives left in S_13, (6, 2, 1, 1), (4, 3, 1, 1) and
            # (3, 3, 2, 2), have sizes that sum to the 5 rows left
            [(2, 6, 1, 1), (13, 1, 0, 0)],
        ],
    )
    def test_names_the_missing_member(self, dropped):
        a, b, c, d = dropped[0]
        p = a * b + c * d
        sols = enumerate_fast(p) - {Solution(*row, p) for row in dropped}
        with pytest.raises(ValueError, match="not closed") as exc:
            vierergruppe_orbits(sols)
        assert str(exc.value).endswith(f"missing {dropped}")
        with pytest.raises(ValueError, match="not closed"):
            _four_solution_orbits(sols)

    def test_mixed_primes_keep_their_own_orbits(self):
        sols = enumerate_fast(5) | enumerate_fast(13)
        assert vierergruppe_orbits(sols) == _four_solution_orbits(sols)

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
        # the least prime = 1 (mod 4) above 2**62 passes the prime check
        with pytest.raises(ValueError, match=r"p must stay below 2\*\*62"):
            two_squares_grace(2**62 + 169)

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
        ns = sorted(set(range(1, 1201)) | _K_BOUNDARY | {1968, 2000})
        # one scan per window of 200 n; a window bounds the buckets held at once
        for i in range(0, len(ns), 200):
            window = ns[i : i + 200]
            listed = _windowed_full_square_irreducible(window)
            for n in window:
                assert irreducible_enumerate(n) == listed[n], n

    @pytest.mark.parametrize("n", [4000, 9973, 10000])
    def test_equals_full_square_scan_large(self, n):
        assert irreducible_enumerate(n) == _full_square_irreducible(n)

    def test_rows_equal_the_stepped_loop_in_order(self):
        # one candidate k for a coprime (m, a) against the stepped range of k
        # for every pair: the same rows, emitted in the same order
        for n in sorted(set(range(1, 1501)) | _K_BOUNDARY | {4000, 9973, 10000}):
            assert decomp._irreducible_rows(n) == loop_irreducible_rows(n), n

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
