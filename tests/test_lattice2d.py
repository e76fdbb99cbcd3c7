import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    basis_points,
    bf_voronoi_cell,
    fraction_voronoi_vertices,
    min_norm2,
    odd_primes,
    shoelace_area2,
    slope_points,
)
from windmills import lattice2d
from windmills.lattice2d import (
    IVec2,
    LatticeBasis,
    SlopeClass,
    _reduce_raw,
    _reduce_slopes_raw,
    _voronoi_vectors_raw,
    contains,
    det,
    gauss_reduce,
    interlaced,
    is_basis_of_slope,
    is_primitive,
    lambda_mu,
    minimal_vector,
    triangle_basis_test,
    upper_rep,
    voronoi_cell,
)
from windmills.windmill import _fast_solution_raw, _windmill_pair_raw

V = IVec2


def basis(ux, uy, vx, vy):
    return LatticeBasis(V(ux, uy), V(vx, vy))


def pm(w: IVec2) -> frozenset:
    return frozenset({(w.x, w.y), (-w.x, -w.y)})


small_vecs = st.builds(
    V,
    st.integers(min_value=-15, max_value=15),
    st.integers(min_value=-15, max_value=15),
)


@st.composite
def small_bases(draw):
    u = draw(small_vecs)
    v = draw(small_vecs)
    if u.cross(v) == 0:
        v = V(v.x + 1, v.y + u.x + 1)
    if u.cross(v) == 0:
        u = V(u.x, u.y + 1)
    if u.cross(v) == 0:
        u, v = V(1, 0), V(0, 1)
    return LatticeBasis(u, v)


class TestTypes:
    def test_rejects_dependent_basis(self):
        with pytest.raises(ValueError):
            basis(2, 4, 1, 2)

    def test_rejects_bad_slopes(self):
        with pytest.raises(ValueError):
            SlopeClass(9, 2)  # not prime
        with pytest.raises(ValueError):
            SlopeClass(2, 0)  # even
        with pytest.raises(ValueError):
            SlopeClass(13, 13)  # out of range
        with pytest.raises(ValueError):
            SlopeClass(13, -1)

    def test_infinity(self):
        s = SlopeClass.infinity(5)
        assert s.is_infinity and s.mu is None

    def test_subtraction(self):
        assert V(3, 4) - V(1, 1) == V(2, 3)


class TestDet:
    def test_examples(self):
        assert det(basis(13, 0, -7, 1)) == 13
        assert det(basis(1, 0, 0, 1)) == 1
        assert det(basis(-1, 2, 6, 1)) == -13  # running example, index 13


class TestLambdaMu:
    def test_running_example(self):
        b = lambda_mu(SlopeClass(13, 7))
        assert (b.u, b.v) == (V(13, 0), V(-7, 1))
        assert contains(SlopeClass(13, 7), V(-1, 2))

    def test_degenerate_slopes(self):
        assert lambda_mu(SlopeClass(13, 0)).v == V(0, 1)
        b = lambda_mu(SlopeClass.infinity(5))
        assert (b.u, b.v) == (V(1, 0), V(0, 5))

    def test_membership_examples(self):
        s = SlopeClass(13, 7)
        assert not contains(s, V(1, 0))
        assert contains(s, V(5, 3))

    def test_index_is_p_for_all_slopes(self):
        for p in odd_primes(200):
            for mu in [*range(p), None]:
                s = SlopeClass(p, mu)
                b = lambda_mu(s)
                assert abs(det(b)) == p
                assert contains(s, b.u) and contains(s, b.v)

    def test_all_slope_lattices_distinct_small(self):
        # full point sets on the window [-p, p]^2
        for p in (5, 7, 13):
            sets = [frozenset(slope_points(p, mu, p)) for mu in [*range(p), None]]
            assert len(set(sets)) == p + 1

    def test_all_slope_lattices_distinct_witnesses(self):
        # pairwise separation by a window vector
        for p in odd_primes(200):
            for mu in range(p):
                w = V(-mu, 1)  # in the lattice of mu, in no other
                assert contains(SlopeClass(p, mu), w)
                assert not contains(SlopeClass.infinity(p), w)
                other = (mu + 1) % p
                assert not contains(SlopeClass(p, other), w)
            assert contains(SlopeClass.infinity(p), V(1, 0))
            assert not contains(SlopeClass(p, 0), V(1, 1))


class TestGaussReduce:
    def test_running_example(self):
        red = gauss_reduce(basis(13, 0, -7, 1))
        assert pm(red.u) == pm(V(-1, 2))
        assert red.v.norm2() == 34
        assert pm(red.v) == pm(V(5, 3))

    def test_unit_basis_is_fixed_point(self):
        b = basis(1, 0, 0, 1)
        assert gauss_reduce(b) == b

    def test_reduced_input_is_fixed_point(self):
        b = basis(-1, 2, -5, -3)
        assert gauss_reduce(b) == b

    def test_unimodular_sliver(self):
        red = gauss_reduce(basis(100, 1, 99, 1))
        assert abs(det(red)) == 1
        assert red.u.norm2() == 1  # the lattice is all of Z^2

    @given(small_bases())
    @settings(max_examples=150)
    def test_contract_and_lattice_preserved(self, b):
        red = gauss_reduce(b)
        r, s = red.u, red.v
        assert 2 * abs(r.dot(s)) <= r.norm2() <= s.norm2()
        assert abs(det(red)) == abs(det(b))
        # original vectors are integer combinations of the reduced ones
        d = det(red)
        for w in (b.u, b.v):
            assert (w.cross(s)) % d == 0 and (r.cross(w)) % d == 0

    @given(small_bases())
    @settings(max_examples=60)
    def test_first_vector_is_shortest(self, b):
        red = gauss_reduce(b)
        bound = max(abs(b.u.x), abs(b.u.y)) + max(abs(b.v.x), abs(b.v.y))
        pts = basis_points(b.u.x, b.u.y, b.v.x, b.v.y, bound)
        assert red.u.norm2() == min_norm2(pts)


class TestReduceSlopesRaw:
    @staticmethod
    def pick(*reduced):
        # None when the lattice has no windmill pair, else whether it is black
        pair = _windmill_pair_raw(*reduced)
        return None if pair is None else pair[0]

    @staticmethod
    def rows(p, ax, ay, bx, by):
        # the kernel's row on the basis, and on the swapped basis, which the
        # walk hands to the slope 1/mu
        return _fast_solution_raw(p, ax, ay, bx, by), _fast_solution_raw(p, ay, ax, by, bx)

    def test_reduced_basis_of_every_slope_in_any_order(self, monkeypatch):
        # every odd prime below 2000, over the color sweep's order range(p),
        # the walk's class representatives (the least member in [2, (p-1)/2]
        # of each class {+-mu, +-1/mu}, increasing) and a shuffled order: each
        # yielded basis is a reduced basis of its own slope's lattice, the
        # cone pick and the kernel give what they give on _reduce_raw of
        # lambda_mu, the independent reference, and each slope costs one
        # reduction
        calls = []

        def counted(*basis):
            calls.append(basis)
            return _reduce_raw(*basis)

        for p in odd_primes(2000):
            slopes = [SlopeClass(p, mu) for mu in range(p)]
            # what the slope's own reduction gives: (pick, row, swapped row)
            refs = []
            for s in slopes:
                d = lambda_mu(s)
                rx, ry, sx, sy = _reduce_raw(d.u.x, d.u.y, d.v.x, d.v.y)
                rows = self.rows(p, rx, ry, sx, sy) if 2 <= s.mu <= p - 2 else None
                refs.append((self.pick(rx, ry, sx, sy), rows))
            half = (p - 1) // 2
            least = [mu for mu in range(2, half + 1) if mu <= pow(mu, -1, p) <= p - mu]
            shuffled = list(range(p))
            random.Random(p).shuffle(shuffled)
            for mus in (range(p), least, shuffled):
                calls.clear()
                monkeypatch.setattr(lattice2d, "_reduce_raw", counted)
                got = list(_reduce_slopes_raw(p, mus))
                monkeypatch.undo()
                assert len(got) == len(calls) == len(mus), p
                for mu, (ax, ay, bx, by) in zip(mus, got):
                    s = slopes[mu]
                    assert contains(s, V(ax, ay)) and contains(s, V(bx, by)), (p, mu)
                    assert abs(ax * by - ay * bx) == p, (p, mu)
                    na, nb = ax * ax + ay * ay, bx * bx + by * by
                    assert 2 * abs(ax * bx + ay * by) <= na <= nb, (p, mu)
                    pick, rows = refs[mu]
                    assert self.pick(ax, ay, bx, by) == pick, (p, mu)
                    if rows is not None:
                        assert self.rows(p, ax, ay, bx, by) == rows, (p, mu)

    def test_empty_and_single(self, monkeypatch):
        assert list(_reduce_slopes_raw(13, [])) == []
        # a lone slope is a sweep of one: a reduced basis of its lattice from
        # one reduction, and the kernel reads the slope's row off it
        calls = []

        def counted(*basis):
            calls.append(basis)
            return _reduce_raw(*basis)

        monkeypatch.setattr(lattice2d, "_reduce_raw", counted)
        got = list(_reduce_slopes_raw(13, [7]))
        monkeypatch.undo()
        assert len(got) == len(calls) == 1
        (ax, ay, bx, by), = got
        s = SlopeClass(13, 7)
        assert contains(s, V(ax, ay)) and contains(s, V(bx, by))
        assert abs(ax * by - ay * bx) == 13
        na, nb = ax * ax + ay * ay, bx * bx + by * by
        assert 2 * abs(ax * bx + ay * by) <= na <= nb
        row = _fast_solution_raw(13, ax, ay, bx, by)
        assert row == (True, (6, 2, 1, 1))


class TestBasisPredicates:
    def test_is_basis_of_slope_examples(self):
        s = SlopeClass(13, 7)
        assert is_basis_of_slope(basis(-1, 2, 6, 1), s)
        with pytest.raises(ValueError):
            basis(-1, 2, -2, 4)  # dependent vectors never build a LatticeBasis
        assert not is_basis_of_slope(basis(13, 0, 0, 13), s)  # index 169

    def test_triangle_examples(self):
        s = SlopeClass(13, 7)
        assert triangle_basis_test(V(-1, 2), V(6, 1), s)
        assert not triangle_basis_test(V(13, 0), V(0, 13), s)
        p0 = SlopeClass(11, 0)
        assert triangle_basis_test(V(11, 0), V(0, 1), p0)

    def test_triangle_rejects_bad_input(self):
        s = SlopeClass(13, 7)
        with pytest.raises(ValueError):
            triangle_basis_test(V(-1, 2), V(-2, 4), s)  # dependent
        with pytest.raises(ValueError):
            triangle_basis_test(V(1, 0), V(-1, 2), s)  # (1,0) not in the lattice

    def test_triangle_equals_det_criterion_exhaustive(self):
        for p in (5, 7, 13):
            for mu in [*range(p), None]:
                s = SlopeClass(p, mu)
                pts = [w for w in slope_points(p, mu, p) if w[1] > 0 or (w[1] == 0 and w[0] > 0)]
                for i, e in enumerate(pts):
                    for f in pts[i + 1 :]:
                        ev, fv = V(*e), V(*f)
                        if ev.cross(fv) == 0:
                            continue
                        assert triangle_basis_test(ev, fv, s) == is_basis_of_slope(
                            LatticeBasis(ev, fv), s
                        )

    def test_triangle_equals_det_criterion_sampled(self):
        rng = random.Random(7)
        for p in (17, 19, 23, 29, 31):
            for mu in (0, 1, 2, p // 2, p - 1, None):
                s = SlopeClass(p, mu)
                pts = slope_points(p, mu, p)
                for _ in range(60):
                    e, f = rng.sample(pts, 2)
                    ev, fv = V(*e), V(*f)
                    if ev.cross(fv) == 0:
                        continue
                    assert triangle_basis_test(ev, fv, s) == is_basis_of_slope(
                        LatticeBasis(ev, fv), s
                    )


class TestIsPrimitive:
    def test_examples(self):
        s = SlopeClass(13, 7)
        assert is_primitive(V(-1, 2), s)
        assert not is_primitive(V(-2, 4), s)
        assert not is_primitive(V(26, 0), s)

    def test_rejects_non_members(self):
        s = SlopeClass(13, 7)
        with pytest.raises(ValueError):
            is_primitive(V(1, 0), s)
        with pytest.raises(ValueError):
            is_primitive(V(0, 0), s)

    def test_against_window_scan(self):
        # every k up to the window's reach, on every slope, infinity included
        for p in (3, 5, 7, 13, 17):
            for mu in [*range(p), None]:
                s = SlopeClass(p, mu)
                pts = set(slope_points(p, mu, 2 * p))
                for w in pts:
                    expected = not any(
                        (w[0] % k == 0 and w[1] % k == 0 and (w[0] // k, w[1] // k) in pts)
                        for k in range(2, 2 * p + 1)
                    )
                    assert is_primitive(V(*w), s) == expected, (p, mu, w)

    def test_largest_accepted_prime(self):
        # a divisor scan up to gcd = p would never finish here
        p = 2**61 - 1
        s = SlopeClass(p, 1)
        assert is_primitive(V(p, 0), s)
        assert not is_primitive(V(2 * p, 0), s)
        assert not is_primitive(V(p * p, 0), s)


class TestMinimalVector:
    def test_running_example(self):
        assert minimal_vector(lambda_mu(SlopeClass(13, 7))) == V(-1, 2)

    def test_unit_lattice_canonical_rep(self):
        assert minimal_vector(basis(1, 0, 0, 1)) == V(1, 0)
        assert minimal_vector(basis(0, 1, 1, 0)) == V(1, 0)

    def test_window_scan_oracle(self):
        for p in odd_primes(50):
            for mu in [*range(p), None]:
                s = SlopeClass(p, mu)
                m = minimal_vector(lambda_mu(s))
                assert contains(s, m)
                assert m.norm2() == min_norm2(slope_points(p, mu, p))
                assert m == upper_rep(m)


class TestVoronoi:
    def test_vectors_running_example(self):
        data = voronoi_cell(lambda_mu(SlopeClass(13, 7)))
        assert set(data.vectors) == {V(-1, 2), V(5, 3), V(6, 1)}

    def test_vectors_unit_lattice(self):
        data = voronoi_cell(basis(1, 0, 0, 1))
        assert set(data.vectors) == {V(1, 0), V(0, 1)}
        assert len(data.cell_vertices) == 4

    def test_rectangle_iff_orthogonal(self):
        for p in odd_primes(60):
            for mu in [*range(p), None]:
                data = voronoi_cell(lambda_mu(SlopeClass(p, mu)))
                red = gauss_reduce(lambda_mu(SlopeClass(p, mu)))
                if red.u.dot(red.v) == 0:
                    assert len(data.vectors) == 2 and len(data.cell_vertices) == 4
                else:
                    assert len(data.vectors) == 3 and len(data.cell_vertices) == 6

    def test_cell_running_example(self):
        data = voronoi_cell(lambda_mu(SlopeClass(13, 7)))
        expected = set()
        for x, y in ((53, 59), (77, 19), (79, 7)):
            expected.add((Fraction(x, 26), Fraction(y, 26)))
            expected.add((Fraction(-x, 26), Fraction(-y, 26)))
        assert set(data.cell_vertices) == expected
        # counterclockwise from the vertex of largest polar angle below pi
        assert data.cell_vertices[0] == (Fraction(53, 26), Fraction(59, 26))
        assert data.cell_vertices[1] == (Fraction(-79, 26), Fraction(-7, 26))

    def test_cell_unit_lattice(self):
        data = voronoi_cell(basis(1, 0, 0, 1))
        h = Fraction(1, 2)
        assert set(data.cell_vertices) == {(h, h), (-h, h), (-h, -h), (h, -h)}

    def test_cell_halfplane_oracle(self):
        cases = [(5, 2), (13, 7), (13, 5), (11, 3), (7, 0), (7, None)]
        for p, mu in cases:
            s = SlopeClass(p, mu)
            data = voronoi_cell(lambda_mu(s))
            expected = bf_voronoi_cell(slope_points(p, mu, 2 * p), 2 * p)
            assert set(data.cell_vertices) == expected

    def test_vectors_support_cell_edges(self):
        for p, mu in ((5, 2), (13, 7), (29, 12)):
            data = voronoi_cell(lambda_mu(SlopeClass(p, mu)))
            for w in data.vectors:
                n = w.norm2()
                supports = 0
                for x, y in data.cell_vertices:
                    v2 = 2 * (x * w.x + y * w.y)
                    assert abs(v2) <= n
                    if v2 == n:
                        supports += 1
                assert supports == 2  # an edge, not just a touch

    @given(small_bases())
    @settings(max_examples=100, deadline=None)
    def test_cell_order_on_general_bases(self, b):
        verts = voronoi_cell(b).cell_vertices
        k = len(verts)
        for i in range(k):
            (x0, y0), (x1, y1), (x2, y2) = verts[i], verts[(i + 1) % k], verts[(i + 2) % k]
            # each step goes counterclockwise around the origin, and each
            # edge turns left into the next
            assert x0 * y1 - y0 * x1 > 0
            assert (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1) > 0
        # one turn, starting from the last vertex of the upper half-plane run
        upper = [y > 0 or (y == 0 and x > 0) for x, y in verts]
        assert upper == [True] + [False] * (k // 2) + [True] * (k // 2 - 1)
        # The Voronoi-relevant vectors are the reduced pair and its short
        # diagonal, of norm at most l1^2 + l2^2 <= 2 max(|u|^2, |v|^2), since the
        # successive minima l1 <= l2 are at most max(|u|, |v|); the cell lies
        # within half of that length from the origin.
        n = 2 * max(b.u.norm2(), b.v.norm2())
        bound = isqrt(n) + 1
        pts = [
            (x, y)
            for x, y in basis_points(b.u.x, b.u.y, b.v.x, b.v.y, bound)
            if x * x + y * y <= n
        ]
        assert set(verts) == bf_voronoi_cell(pts, bound)

    def test_cell_equals_the_fraction_oracle_on_every_slope(self):
        # the cell is ordered on integer numerators over one positive
        # denominator; the oracle builds and orders Fractions
        for p in odd_primes(200):
            for mu in [*range(p), None]:
                b = lambda_mu(SlopeClass(p, mu))
                expected = fraction_voronoi_vertices(_voronoi_vectors_raw(b)[1])
                assert voronoi_cell(b).cell_vertices == expected, (p, mu)

    @given(
        st.tuples(*[st.integers(min_value=-60, max_value=60)] * 4).filter(
            lambda t: t[0] * t[3] != t[1] * t[2]
        )
    )
    @settings(max_examples=300)
    def test_cell_equals_the_fraction_oracle_on_general_bases(self, t):
        raw = basis(*t)
        for b in (raw, gauss_reduce(raw)):
            expected = fraction_voronoi_vertices(_voronoi_vectors_raw(b)[1])
            assert voronoi_cell(b).cell_vertices == expected

    @given(small_bases())
    @settings(max_examples=100)
    def test_cell_area_equals_index(self, b):
        data = voronoi_cell(b)
        assert abs(shoelace_area2(data.cell_vertices)) == 2 * abs(det(b))


class TestInterlaced:
    def test_golden_pairs(self):
        assert interlaced(V(1, 0), V(0, 1), V(-1, 2), V(6, 1))
        assert not interlaced(V(1, 0), V(0, 1), V(2, 3), V(-1, -1))

    def test_repeated_line(self):
        assert not interlaced(V(1, 0), V(0, 1), V(1, 0), V(1, 1))
        assert not interlaced(V(1, 0), V(0, 1), V(-2, 0), V(1, 1))
        assert not interlaced(V(1, 0), V(2, 0), V(0, 1), V(1, 1))  # f1, f2 dependent

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            interlaced(V(0, 0), V(0, 1), V(1, 1), V(1, -1))

    def test_sign_invariance(self):
        assert interlaced(V(-1, 0), V(0, -1), V(1, -2), V(6, 1))

    def test_bases_of_same_lattice_never_interlaced(self):
        rng = random.Random(20240811)
        for p in odd_primes(31):
            for mu in [*range(p), None]:
                b = lambda_mu(SlopeClass(p, mu))
                variants = [b]
                for _ in range(8):
                    u, v = b.u, b.v
                    for _ in range(6):
                        op = rng.randrange(4)
                        k = rng.randint(-3, 3)
                        if op == 0:
                            u = u + k * v
                        elif op == 1:
                            v = v + k * u
                        elif op == 2:
                            u, v = v, u
                        else:
                            u = -u
                    variants.append(LatticeBasis(u, v))
                for b1 in variants:
                    for b2 in variants:
                        assert not interlaced(b1.u, b1.v, b2.u, b2.v)
