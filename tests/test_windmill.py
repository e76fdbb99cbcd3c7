import hashlib

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import basis_points, bf_windmill_bases, loop_windmill_pair, odd_primes
from windmills import lattice2d, windmill
from windmills.decomp import two_squares_grace
from windmills.lattice2d import (
    IVec2,
    LatticeBasis,
    SlopeClass,
    _reduce_raw,
    _reduce_slopes_raw,
    is_basis_of_slope,
    lambda_mu,
    minimal_vector,
)
from windmills.windmill import (
    Color,
    Solution,
    _cone_pair,
    _fast_solution_raw,
    _windmill_pair_raw,
    all_windmill_bases,
    fast_solution_for_pair,
    find_windmill_basis,
    standard_black_basis,
)

V = IVec2


def slope(p, mu):
    return SlopeClass(p, mu)


def pm(w: IVec2) -> frozenset:
    return frozenset({(w.x, w.y), (-w.x, -w.y)})


def pair_key(e: IVec2, f: IVec2) -> frozenset:
    return frozenset({(e.x, e.y), (f.x, f.y)})


def pair_color(e: IVec2, f: IVec2) -> Color | None:
    # the pair's color from the cones' sign conditions, as in
    # bf_general_windmill_bases: black for E-NE with N-NW, white for N-NE with W-NW
    for u, v in ((e, f), (f, e)):
        if 0 < u.y < u.x and 0 < -v.x < v.y:
            return Color.BLACK
        if 0 < u.x < u.y and 0 < v.y < -v.x:
            return Color.WHITE
    return None


def four_forms(ax, ay, bx, by):
    # as given, coordinates swapped, first vector negated, vectors exchanged
    return (ax, ay, bx, by), (ay, ax, by, bx), (-ax, -ay, bx, by), (bx, by, ax, ay)


class TestConePair:
    # the one cone test, on every pair from a grid of the upper half-plane
    # with both axes and both diagonals: symmetric in its arguments, in cone
    # order, and a pair exactly when the two vectors fill the two upper cones
    # of one color
    GRID = [(x, y) for x in range(-4, 5) for y in range(5)]

    def test_symmetric_in_cone_order(self):
        for u in self.GRID:
            for v in self.GRID:
                got = _cone_pair(*u, *v)
                assert got == _cone_pair(*v, *u), (u, v)
                color = pair_color(V(*u), V(*v))
                if color is None:
                    assert got is None, (u, v)
                    continue
                black, (fx, fy), (sx, sy) = got
                assert black is (color is Color.BLACK), (u, v)
                assert {(fx, fy), (sx, sy)} == {u, v}
                if black:
                    assert 0 < fy < fx and 0 < -sx < sy, (u, v)
                else:
                    assert 0 < fx < fy and 0 < sy < -sx, (u, v)


class TestWindmillPair:
    # The cone pick settles most slopes from the reduced pair alone; it must
    # return exactly what the one scan over the Voronoi vectors returns.
    def test_equals_the_scan_on_every_slope(self):
        for p in odd_primes(2000):
            for basis in [*_reduce_slopes_raw(p, range(p)), (1, 0, 0, p)]:
                for form in four_forms(*basis):
                    assert _windmill_pair_raw(*form) == loop_windmill_pair(*form), (p, form)

    @given(
        coords=st.tuples(*[st.integers(min_value=-60, max_value=60)] * 4).filter(
            lambda c: c[0] * c[3] != c[1] * c[2]
        )
    )
    # a vector on y = 0 or y = x beside one in the cone that would complete a
    # pair with it, had the line belonged to the neighbouring cone
    @example(coords=(1, 0, -1, 2))
    @example(coords=(-1, 0, 1, 2))
    @example(coords=(1, 1, -1, 2))
    # both vectors in E-NE and the diagonal (-1, 2) in N-NW: the diagonal
    # pairs with a, the first of the two in the scan, not with b
    @example(coords=(5, 1, 4, 3))
    # orthogonal pairs: both vectors on the four lines, and both in cones
    @example(coords=(1, 1, -1, 1))
    @example(coords=(0, 3, 2, 0))
    @example(coords=(2, 1, -1, 2))
    @example(coords=(1, 2, 2, -1))
    def test_equals_the_scan_on_any_basis(self, coords):
        for basis in (coords, _reduce_raw(*coords)):
            for form in four_forms(*basis):
                assert _windmill_pair_raw(*form) == loop_windmill_pair(*form), form


class TestFindWindmillBasis:
    def test_running_example(self):
        s = slope(13, 7)
        found = find_windmill_basis(lambda_mu(s))
        assert found is not None
        b, color = found
        assert color is Color.BLACK
        assert pair_color(b.u, b.v) is Color.BLACK
        assert is_basis_of_slope(b, s)
        assert pair_key(b.u, b.v) in {
            pair_key(V(-1, 2), V(5, 3)),
            pair_key(V(-1, 2), V(6, 1)),
        }

    def test_no_basis_slopes(self):
        for p in odd_primes(500):
            for mu in (0, 1, p - 1, None):
                assert find_windmill_basis(lambda_mu(slope(p, mu))) is None

    def test_every_generic_slope_has_basis(self):
        for p in odd_primes(200):
            for mu in range(2, p - 1):
                found = find_windmill_basis(lambda_mu(slope(p, mu)))
                assert found is not None
                b, color = found
                assert pair_color(b.u, b.v) is color
                assert is_basis_of_slope(b, slope(p, mu))


class TestAllWindmillBases:
    def test_running_example(self):
        ws = all_windmill_bases(lambda_mu(slope(13, 7)))
        assert ws is not None
        assert ws.color is Color.BLACK
        assert ws.count == 2
        assert ws.m == V(-1, 2)
        assert ws.f == V(6, 1)
        assert {pair_key(e, f) for e, f in ws.bases()} == {
            pair_key(V(-1, 2), V(5, 3)),
            pair_key(V(-1, 2), V(6, 1)),
        }

    def test_absent_for_degenerate_slope(self):
        assert all_windmill_bases(lambda_mu(slope(13, 1))) is None

    def test_equals_bruteforce_for_small_primes(self):
        for p in odd_primes(31):
            for mu in [*range(p), None]:
                s = slope(p, mu)
                expected = bf_windmill_bases(p, mu)
                ws = all_windmill_bases(lambda_mu(s))
                if expected is None:
                    assert ws is None
                    continue
                color_name, expected_pairs = expected
                assert ws is not None and ws.color.value == color_name
                got = {pair_key(e, f) for e, f in ws.bases()}
                assert got == expected_pairs
                for e, f in ws.bases():
                    assert is_basis_of_slope(LatticeBasis(e, f), s)

    def test_common_element_is_minimal(self):
        for p in odd_primes(101):
            for mu in range(2, p - 1):
                b = lambda_mu(slope(p, mu))
                ws = all_windmill_bases(b)
                if ws is not None and ws.count >= 2:
                    assert pm(ws.m) == pm(minimal_vector(b))


def bf_general_windmill_bases(ux: int, uy: int, vx: int, vy: int):
    """Black and white windmill bases of Z*u + Z*v by exhaustive pair search.

    A windmill pair (e, f) with |cross| = D has every coordinate within
    [-D, D], so scanning that window finds all of them.
    """
    d = abs(ux * vy - uy * vx)
    pts = basis_points(ux, uy, vx, vy, d)
    ene = [w for w in pts if 0 < w[1] < w[0]]
    nne = [w for w in pts if 0 < w[0] < w[1]]
    nnw = [w for w in pts if 0 < -w[0] < w[1]]
    wnw = [w for w in pts if 0 < w[1] < -w[0]]

    def pairs(first, second):
        return {
            frozenset((e, f))
            for e in first
            for f in second
            if abs(e[0] * f[1] - e[1] * f[0]) == d
        }

    return pairs(ene, nnw), pairs(nne, wnw)


class TestGeneralLattices:
    @given(
        coords=st.tuples(*[st.integers(min_value=-6, max_value=6)] * 4).filter(
            lambda c: c[0] * c[3] != c[1] * c[2]
        )
    )
    # a reduced basis with a vector on each boundary line, which the cone pick
    # must skip: y = 0 (both signs of x), x = 0, y = x and y = -x
    @example(coords=(2, 0, 1, 2))
    @example(coords=(-2, 0, 1, 2))
    @example(coords=(0, 2, 3, 1))
    @example(coords=(2, 2, 3, -1))
    @example(coords=(-2, 2, 3, 1))
    # orthogonal reduced pairs, which have no diagonal Voronoi vector: black,
    # white, and on the axes with no windmill basis
    @example(coords=(2, 1, -1, 2))
    @example(coords=(1, 2, -2, 1))
    @example(coords=(3, 0, 0, 2))
    def test_search_equals_bruteforce(self, coords):
        ux, uy, vx, vy = coords
        b = LatticeBasis(V(ux, uy), V(vx, vy))
        black, white = bf_general_windmill_bases(ux, uy, vx, vy)
        assert not (black and white)
        found = find_windmill_basis(b)
        ws = all_windmill_bases(b)
        if not (black or white):
            assert found is None and ws is None
            return
        color, expected = (Color.BLACK, black) if black else (Color.WHITE, white)
        assert found is not None and found[1] is color
        assert pair_key(found[0].u, found[0].v) in expected
        assert ws is not None and ws.color is color
        assert {pair_key(e, f) for e, f in ws.bases()} == expected


class TestStandardBlackBasis:
    def test_running_example(self):
        assert standard_black_basis(slope(13, 7)) == Solution(6, 2, 1, 1, 13)

    def test_second_basis_is_not_standard(self):
        # (5,3), (-1,2) encodes (a,b,c,d) = (5,2,3,1): 3 >= 2 breaks the inequality
        ws = all_windmill_bases(lambda_mu(slope(13, 7)))
        standard = 0
        for e, f in ws.bases():
            u, v = (e, f) if e.x > 0 else (f, e)
            a, c = u.x, u.y
            d, b = -v.x, v.y
            if min(a, b) > max(c, d):
                standard += 1
                assert (a, b, c, d) == (6, 2, 1, 1)
        assert standard == 1

    def test_white_slope_returns_none(self):
        assert standard_black_basis(slope(13, 6)) is None

    def test_complementary_to_running_example(self):
        assert (standard_black_basis(slope(13, 6)) is None) != (
            standard_black_basis(slope(13, 7)) is None
        )

    @pytest.mark.parametrize("mu", [0, 1, 12])
    def test_rejects_degenerate_finite_slopes(self, mu):
        with pytest.raises(ValueError):
            standard_black_basis(slope(13, mu))

    def test_rejects_infinity(self):
        with pytest.raises(ValueError):
            standard_black_basis(SlopeClass.infinity(13))

    def test_output_is_valid_and_unique(self):
        for p in odd_primes(101):
            for mu in range(2, p - 1):
                s = slope(p, mu)
                sol = standard_black_basis(s)
                ws = all_windmill_bases(lambda_mu(s))
                if sol is None:
                    assert ws.color is Color.WHITE
                    continue
                assert ws.color is Color.BLACK
                assert sol.is_valid()
                # the standard basis generates the lattice and is one of the bases
                u, v = V(sol.a, sol.c), V(-sol.d, sol.b)
                assert pair_key(u, v) in {pair_key(e, f) for e, f in ws.bases()}
                # no other listed basis is standard
                standard_pairs = 0
                for e, f in ws.bases():
                    uu, vv = (e, f) if e.x > 0 else (f, e)
                    if min(uu.x, vv.y) > max(uu.y, -vv.x):
                        standard_pairs += 1
                assert standard_pairs == 1


    def test_equals_unique_standard_pair_of_bruteforce(self):
        # the standard basis read off an exhaustive pair search, independent of
        # the slide: the one black pair u = (a, c), v = (-d, b) with
        # min(a, b) > max(c, d)
        for p in odd_primes(60):
            for mu in [*range(p), None]:
                expected = bf_windmill_bases(p, mu)
                if expected is None:
                    with pytest.raises(ValueError):
                        standard_black_basis(slope(p, mu))
                    continue
                color_name, pairs = expected
                standard = []
                for pair in pairs:
                    (ux, uy), (vx, vy) = sorted(pair, reverse=True)  # u has x > 0
                    a, b, c, d = ux, vy, uy, -vx
                    if min(a, b) > max(c, d):
                        standard.append(Solution(a, b, c, d, p))
                got = standard_black_basis(slope(p, mu))
                if color_name == "white":
                    assert got is None, (p, mu)
                else:
                    assert standard == [got], (p, mu)


class TestFastSolutionForPair:
    def test_running_example_black_side(self):
        ms, sol = fast_solution_for_pair(slope(13, 7))
        assert (ms.mu, sol) == (7, Solution(6, 2, 1, 1, 13))

    def test_running_example_white_side(self):
        ms, sol = fast_solution_for_pair(slope(13, 6))
        assert (ms.mu, sol) == (7, Solution(6, 2, 1, 1, 13))

    def test_involution_consistency(self):
        for p in odd_primes(200):
            for mu in range(2, (p + 1) // 2):
                left = fast_solution_for_pair(slope(p, mu))
                right = fast_solution_for_pair(slope(p, p - mu))
                assert left == right

    def test_agrees_with_standard_black_basis(self):
        for p in odd_primes(150):
            for mu in range(2, p - 1):
                ms, sol = fast_solution_for_pair(slope(p, mu))
                direct = standard_black_basis(slope(p, mu))
                if direct is not None:
                    assert ms.mu == mu and sol == direct
                else:
                    assert ms.mu == p - mu
                    assert sol == standard_black_basis(ms)

    def test_swapped_reduced_basis_serves_the_inverse_slope(self):
        # (x, y) -> (y, x) maps the lattice of slope mu onto that of 1/mu and
        # keeps a reduced basis reduced, so handing it to the kernel must give
        # the same colour and row as reducing the inverse slope itself
        for p in odd_primes(300):
            for mu in range(2, p - 1):
                ax, ay, bx, by = _reduce_raw(p, 0, -mu, 1)
                inverse = pow(mu, -1, p)
                swapped = _fast_solution_raw(p, ay, ax, by, bx)
                assert swapped == _fast_solution_raw(p, *_reduce_raw(p, 0, -inverse, 1)), (p, mu)

    def test_results_over_every_slope_are_pinned(self):
        # both public readings of the kernel, recorded before it took a
        # reduced basis in place of a slope
        h = hashlib.sha256()
        for p in odd_primes(400):
            for mu in range(2, p - 1):
                s = slope(p, mu)
                h.update(repr((fast_solution_for_pair(s), standard_black_basis(s))).encode())
        assert h.hexdigest() == "488abaa0dd23645a8d0c953b32a5a2d711cf7682b7caa9caf83c091d2712f03a"

    def test_p29_matches_table_rows_with_positive_cd(self):
        expected_orbits = {
            ((14, 2, 1, 1), 2),
            ((9, 3, 2, 1), 4),
            ((7, 4, 1, 1), 2),
            ((5, 5, 4, 1), 2),
            ((5, 5, 2, 2), 1),
            ((5, 4, 3, 3), 2),
        }
        expanded = set()
        for (a, b, c, d), _ in expected_orbits:
            expanded |= {(a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c)}
        got = {fast_solution_for_pair(slope(29, mu))[1].key for mu in range(2, 28)}
        assert len(got) == 13
        assert got == expanded

    def test_rejects_degenerate_slopes(self):
        for mu in (0, 1, 28):
            with pytest.raises(ValueError):
                fast_solution_for_pair(slope(29, mu))


class TestLoneSlope:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: fast_solution_for_pair(slope(101, 7)),
            lambda: fast_solution_for_pair(slope(101, 94)),
            lambda: standard_black_basis(slope(101, 7)),
            lambda: standard_black_basis(slope(101, 94)),
            lambda: two_squares_grace(10009),
        ],
        ids=["pair-7", "pair-94", "standard-7", "standard-94", "two-squares"],
    )
    def test_one_reduction(self, monkeypatch, call):
        # a lone slope lattice is a sweep of one, reduced once
        real = lattice2d._reduce_raw
        calls = []

        def counted(*basis):
            calls.append(basis)
            return real(*basis)

        monkeypatch.setattr(lattice2d, "_reduce_raw", counted)
        monkeypatch.setattr(windmill, "_reduce_raw", counted)
        call()
        assert len(calls) == 1


class TestColorStructure:
    def test_color_flips(self):
        for p in odd_primes(200):
            colors = {}
            for mu in range(2, p - 1):
                found = find_windmill_basis(lambda_mu(slope(p, mu)))
                colors[mu] = found[1]
            for mu, color in colors.items():
                assert colors[p - mu] is not color
                assert colors[pow(mu, -1, p)] is not color

    def test_black_count(self):
        for p in odd_primes(200):
            blacks = sum(
                1
                for mu in range(2, p - 1)
                if find_windmill_basis(lambda_mu(slope(p, mu)))[1] is Color.BLACK
            )
            assert blacks == (p - 3) // 2
