"""Rank-2 sublattices of Z^2: slope lattices, Gaussian reduction, Voronoi geometry.

Everything here is exact: integer arithmetic throughout, rationals only for
Voronoi cell vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .numtheory import is_prime

Vertex = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class IVec2:
    """Integer plane vector."""

    x: int
    y: int

    def __add__(self, other: IVec2) -> IVec2:
        return IVec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: IVec2) -> IVec2:
        return IVec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> IVec2:
        return IVec2(-self.x, -self.y)

    def __mul__(self, k: int) -> IVec2:
        return IVec2(k * self.x, k * self.y)

    __rmul__ = __mul__

    def dot(self, other: IVec2) -> int:
        return self.x * other.x + self.y * other.y

    def cross(self, other: IVec2) -> int:
        return self.x * other.y - self.y * other.x

    def norm2(self) -> int:
        return self.x * self.x + self.y * self.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


def upper_rep(w: IVec2) -> IVec2:
    """The representative of {w, -w} with y > 0, or y = 0 and x > 0."""
    if w.y < 0 or (w.y == 0 and w.x < 0):
        return -w
    return w


@dataclass(frozen=True)
class LatticeBasis:
    """Ordered pair of independent integer vectors generating a rank-2 lattice."""

    u: IVec2
    v: IVec2

    def __post_init__(self) -> None:
        if self.u.cross(self.v) == 0:
            raise ValueError(f"basis vectors {self.u} and {self.v} are dependent")


@dataclass(frozen=True)
class SlopeClass:
    """A point of the projective line over F_p, labelling an index-p sublattice.

    The finite slope mu labels {(x, y) : x + mu*y = 0 (mod p)}; mu=None is the
    slope at infinity, labelling {(x, y) : y = 0 (mod p)}.
    """

    p: int
    mu: int | None

    def __post_init__(self) -> None:
        if self.p < 3 or self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.mu is not None and not 0 <= self.mu < self.p:
            raise ValueError(f"mu must lie in [0, {self.p}), got {self.mu}")

    @classmethod
    def infinity(cls, p: int) -> SlopeClass:
        return cls(p, None)

    @property
    def is_infinity(self) -> bool:
        return self.mu is None


@dataclass(frozen=True)
class VoronoiData:
    """Voronoi vectors (one per +- pair) and the exact Voronoi cell of the origin.

    Two vectors and four cell vertices for an orthogonal reduced basis, three
    vectors and six vertices otherwise.  Vertices are exact rationals listed
    counterclockwise, starting from the vertex of largest polar angle below pi.
    """

    vectors: tuple[IVec2, ...]
    cell_vertices: tuple[Vertex, ...]


def det(b: LatticeBasis) -> int:
    """Basis determinant; |det| is the index of the generated lattice in Z^2."""
    return b.u.cross(b.v)


def lambda_mu(s: SlopeClass) -> LatticeBasis:
    """The defining basis of the slope lattice: ((p,0), (-mu,1)), or ((1,0), (0,p))."""
    if s.is_infinity:
        return LatticeBasis(IVec2(1, 0), IVec2(0, s.p))
    return LatticeBasis(IVec2(s.p, 0), IVec2(-s.mu, 1))


def contains(s: SlopeClass, w: IVec2) -> bool:
    """Membership of w in the slope lattice."""
    if s.is_infinity:
        return w.y % s.p == 0
    return (w.x + s.mu * w.y) % s.p == 0


def _reduce_raw(ax: int, ay: int, bx: int, by: int) -> tuple[int, int, int, int]:
    # Lagrange reduction on plain integers; the hot path for every slope.
    # Shift rounding breaks exact half-integer ties toward the smaller |shift|.
    na = ax * ax + ay * ay
    nb = bx * bx + by * by
    if na > nb:
        ax, ay, bx, by = bx, by, ax, ay
        na, nb = nb, na
    while True:
        dot = ax * bx + ay * by
        q = dot // na
        r2 = 2 * (dot - q * na)
        if r2 > na or (r2 == na and q < 0):
            q += 1
        if q:
            bx -= q * ax
            by -= q * ay
            nb = bx * bx + by * by
        if nb >= na:
            return ax, ay, bx, by
        ax, ay, bx, by = bx, by, ax, ay
        na, nb = nb, na


def gauss_reduce(b: LatticeBasis) -> LatticeBasis:
    """Gaussian (Lagrange) reduction: shortest-pair basis of the same lattice.

    The result (r, s) satisfies 2|<r,s>| <= <r,r> <= <s,s>, r being a shortest
    nonzero vector of the lattice.  A basis already satisfying the inequalities
    is returned unchanged.
    """
    rx, ry, sx, sy = _reduce_raw(b.u.x, b.u.y, b.v.x, b.v.y)
    return LatticeBasis(IVec2(rx, ry), IVec2(sx, sy))


def is_basis_of_slope(b: LatticeBasis, s: SlopeClass) -> bool:
    """True iff b generates the slope lattice: members with |det| = p."""
    return contains(s, b.u) and contains(s, b.v) and abs(det(b)) == s.p


def triangle_basis_test(e: IVec2, f: IVec2, s: SlopeClass) -> bool:
    """Basis criterion by exhaustive scan: the closed triangle 0, e, f contains
    no lattice point besides its vertices.

    Agrees with is_basis_of_slope((e, f), s); intended as its independent check.
    """
    d = e.cross(f)
    if d == 0:
        raise ValueError("e and f must be independent")
    if not (contains(s, e) and contains(s, f)):
        raise ValueError("e and f must belong to the lattice")
    sgn = 1 if d > 0 else -1
    ad = abs(d)
    p, mu = s.p, s.mu
    vertices = {(0, 0), (e.x, e.y), (f.x, f.y)}
    for x in range(min(0, e.x, f.x), max(0, e.x, f.x) + 1):
        for y in range(min(0, e.y, f.y), max(0, e.y, f.y) + 1):
            if mu is None:
                if y % p:
                    continue
            elif (x + mu * y) % p:
                continue
            if (x, y) in vertices:
                continue
            lam = (x * f.y - y * f.x) * sgn
            nu = (e.x * y - e.y * x) * sgn
            if lam >= 0 and nu >= 0 and lam + nu <= ad:
                return False
    return True


def is_primitive(w: IVec2, s: SlopeClass) -> bool:
    """True iff no proper fraction w/k (integer k > 1) stays in the lattice."""
    if w.is_zero():
        raise ValueError("the zero vector is not primitive")
    if not contains(s, w):
        raise ValueError(f"{w} does not belong to the lattice")
    g = gcd(abs(w.x), abs(w.y))
    for k in range(2, g + 1):
        if g % k == 0 and contains(s, IVec2(w.x // k, w.y // k)):
            return False
    return True


def minimal_vector(b: LatticeBasis) -> IVec2:
    """A shortest nonzero lattice vector, canonicalized to the upper half-plane.

    When both reduced-basis vectors are shortest, the tie goes to the larger x,
    then the larger y, of the two canonical representatives.
    """
    red = gauss_reduce(b)
    r, s = upper_rep(red.u), upper_rep(red.v)
    if r.norm2() == s.norm2():
        return max(r, s, key=lambda w: (w.x, w.y))
    return r


def _voronoi_vectors_raw(b: LatticeBasis) -> list[IVec2]:
    # Canonical Voronoi vectors from the reduced basis; the third one (short
    # diagonal) exists exactly when the reduced basis is not orthogonal.
    red = gauss_reduce(b)
    r, s = red.u, red.v
    vecs = [upper_rep(r), upper_rep(s)]
    d = r.dot(s)
    if d > 0:
        vecs.append(upper_rep(r - s))
    elif d < 0:
        vecs.append(upper_rep(r + s))
    return vecs


def _angle_key_half(w: IVec2) -> int:
    # 0 for polar angle in [0, pi), 1 otherwise
    return 0 if (w.y > 0 or (w.y == 0 and w.x > 0)) else 1


def _sorted_ccw(vecs: list[IVec2]) -> list[IVec2]:
    # Exact counterclockwise order by polar angle from 0, no floating point:
    # split at the half-plane boundary, then compare by cross-product sign.
    def before(a: IVec2, b: IVec2) -> bool:
        ha, hb = _angle_key_half(a), _angle_key_half(b)
        if ha != hb:
            return ha < hb
        return a.cross(b) > 0

    out: list[IVec2] = []
    for v in vecs:
        i = 0
        while i < len(out) and before(out[i], v):
            i += 1
        out.insert(i, v)
    return out


def _edge_intersection(w1: IVec2, w2: IVec2) -> Vertex:
    # Intersection of the two edge lines 2<x, w> = <w, w>.
    n1, n2 = w1.norm2(), w2.norm2()
    d = 2 * w1.cross(w2)
    return (Fraction(n1 * w2.y - n2 * w1.y, d), Fraction(n2 * w1.x - n1 * w2.x, d))


def voronoi_cell(b: LatticeBasis) -> VoronoiData:
    """Voronoi vectors and the exact Voronoi cell of the origin.

    The vectors are the reduced pair, plus the short diagonal in the
    non-orthogonal case, one canonical representative per +- pair; the cell is
    bounded by 2<x, w> <= <w, w> over them.  voronoi_vectors is the same
    function under a second name.
    """
    vecs = _voronoi_vectors_raw(b)
    normals = _sorted_ccw(vecs + [-w for w in vecs])
    k = len(normals)
    verts = [_edge_intersection(normals[i], normals[(i + 1) % k]) for i in range(k)]
    # rotate to start from the vertex with the largest polar angle below pi
    start = None
    for i, (x, y) in enumerate(verts):
        if y > 0 or (y == 0 and x > 0):
            if start is None:
                start = i
            else:
                sx, sy = verts[start]
                if sx * y - sy * x > 0:
                    start = i
    assert start is not None
    verts = verts[start:] + verts[:start]
    return VoronoiData(tuple(vecs), tuple(verts))


voronoi_vectors = voronoi_cell


def interlaced(f1: IVec2, f2: IVec2, g1: IVec2, g2: IVec2) -> bool:
    """Whether the line pairs spanned by {f1,f2} and {g1,g2} alternate around
    the projective circle.  False when the four lines are not distinct."""
    for w in (f1, f2, g1, g2):
        if w.is_zero():
            raise ValueError("interlacedness needs nonzero vectors")
    if f1.cross(f2) == 0 or g1.cross(g2) == 0:
        return False
    d11, d12 = f1.cross(g1), f1.cross(g2)
    d21, d22 = f2.cross(g1), f2.cross(g2)
    if 0 in (d11, d12, d21, d22):
        return False
    # det(f1, .) * det(f2, .) keeps one sign on each open arc cut out by the f-lines
    return ((d11 > 0) == (d21 > 0)) != ((d12 > 0) == (d22 > 0))
