import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import basis_points, bf_windmill_bases, odd_primes
from windmills.lattice2d import (
    IVec2,
    LatticeBasis,
    SlopeClass,
    _reduce_raw,
    is_basis_of_slope,
    lambda_mu,
    minimal_vector,
)
from windmills.windmill import (
    BLACK_CONES,
    WHITE_CONES,
    Color,
    Cone,
    Solution,
    _fast_solution_raw,
    all_windmill_bases,
    classify_cone,
    fast_solution_for_pair,
    find_windmill_basis,
    standard_black_basis,
    windmill_basis_color,
)

V = IVec2


def slope(p, mu):
    return SlopeClass(p, mu)


def pm(w: IVec2) -> frozenset:
    return frozenset({(w.x, w.y), (-w.x, -w.y)})


def pair_key(e: IVec2, f: IVec2) -> frozenset:
    return frozenset({(e.x, e.y), (f.x, f.y)})


class TestClassifyCone:
    @pytest.mark.parametrize(
        "w,expected",
        [
            (V(6, 1), Cone.ENE),
            (V(-1, 2), Cone.NNW),
            (V(1, 3), Cone.NNE),
            (V(-5, 3), Cone.WNW),
            (V(-3, -1), Cone.WSW),
            (V(-1, -4), Cone.SSW),
            (V(1, -2), Cone.SSE),
            (V(4, -1), Cone.ESE),
            (V(3, 3), Cone.BOUNDARY_DIAG),
            (V(-2, 2), Cone.BOUNDARY_ANTIDIAG),
            (V(5, 0), Cone.BOUNDARY_X),
            (V(0, -7), Cone.BOUNDARY_Y),
            (V(0, 0), Cone.ORIGIN),
        ],
    )
    def test_table(self, w, expected):
        assert classify_cone(w) == expected

    def test_color_assignment(self):
        assert BLACK_CONES == {Cone.ENE, Cone.NNW, Cone.WSW, Cone.SSE}
        assert WHITE_CONES == {Cone.NNE, Cone.WNW, Cone.SSW, Cone.ESE}

    @given(
        x=st.integers(min_value=-100, max_value=100),
        y=st.integers(min_value=-100, max_value=100),
    )
    def test_partition_by_sign_pattern(self, x, y):
        # independent re-derivation from the four defining sign conditions
        tag = classify_cone(V(x, y))
        if x * y * (x - y) * (x + y) == 0:
            assert tag in {
                Cone.ORIGIN,
                Cone.BOUNDARY_X,
                Cone.BOUNDARY_Y,
                Cone.BOUNDARY_DIAG,
                Cone.BOUNDARY_ANTIDIAG,
            }
            return
        pattern = (x > 0, y > 0, x - y > 0, x + y > 0)
        expected = {
            (True, True, True, True): Cone.ENE,
            (True, True, False, True): Cone.NNE,
            (False, True, False, True): Cone.NNW,
            (False, True, False, False): Cone.WNW,
            (False, False, False, False): Cone.WSW,
            (False, False, True, False): Cone.SSW,
            (True, False, True, False): Cone.SSE,
            (True, False, True, True): Cone.ESE,
        }[pattern]
        assert tag == expected

    def test_opposite_cones_pair_up(self):
        for w in (V(6, 1), V(-1, 2), V(2, 3), V(-7, 2)):
            a, b = classify_cone(w), classify_cone(-w)
            assert (a in BLACK_CONES) == (b in BLACK_CONES)
            assert a != b


class TestWindmillBasisColor:
    def test_black_running_example(self):
        assert windmill_basis_color(V(6, 1), V(-1, 2)) is Color.BLACK
        assert windmill_basis_color(V(-1, 2), V(5, 3)) is Color.BLACK

    def test_white_pair(self):
        assert windmill_basis_color(V(1, 2), V(-5, 3)) is Color.WHITE

    def test_mixed_colors_rejected(self):
        assert windmill_basis_color(V(4, 5), V(-1, 2)) is None

    def test_same_cone_rejected(self):
        assert windmill_basis_color(V(5, 3), V(6, 1)) is None

    def test_lower_half_plane_rejected(self):
        assert windmill_basis_color(V(-1, 2), V(-6, -1)) is None

    def test_boundary_rejected(self):
        assert windmill_basis_color(V(1, 0), V(-1, 2)) is None


class TestFindWindmillBasis:
    def test_running_example(self):
        s = slope(13, 7)
        found = find_windmill_basis(lambda_mu(s))
        assert found is not None
        b, color = found
        assert color is Color.BLACK
        assert windmill_basis_color(b.u, b.v) is Color.BLACK
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
                assert windmill_basis_color(b.u, b.v) is color
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
            u, v = (e, f) if classify_cone(e) is Cone.ENE else (f, e)
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
                    uu, vv = (e, f) if classify_cone(e) is Cone.ENE else (f, e)
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
        # the same black slope and row as reducing the inverse slope itself
        for p in odd_primes(300):
            for mu in range(2, p - 1):
                ax, ay, bx, by = _reduce_raw(p, 0, -mu, 1)
                inverse = pow(mu, -1, p)
                swapped = _fast_solution_raw(p, inverse, (ay, ax, by, bx))
                assert swapped == _fast_solution_raw(p, inverse), (p, mu)

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
