"""Rank-2 sublattices of Z^2: slope lattices, Gaussian reduction, Voronoi geometry.

Everything here is exact: integer arithmetic throughout, rationals only for
Voronoi cell vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

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
        # numtheory._require_odd_prime's test and words, inline, so that
        # is_prime is reached through this module's binding
        if self.p < 3 or self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError(f"expected an odd prime, got {self.p}")
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


def _reduce_slopes_raw(p: int, mus: Iterable[int]) -> Iterator[tuple[int, int, int, int]]:
    # A Lagrange-reduced basis of the slope lattice of each finite mu in mus,
    # in order, with one reduction per slope.  The shear (x, y) -> (x - k*y, y)
    # has determinant 1 and maps the lattice x + mu*y = 0 (mod p) onto that of
    # mu + k, so the previous slope's reduced basis, sheared by k = mu - prev,
    # is a basis of the next lattice.  The sweep starts from (0, 1), (p, 0),
    # a reduced basis of slope 0's lattice, so the first slope is sheared like
    # the others.  For a small step the sheared basis is nearly reduced, and
    # the reduction takes about one round instead of three or four; any order
    # of slopes is valid, and a single slope is a sweep of one.  A yielded
    # basis may differ from the reduced lambda_mu in sign or order, but
    # whether the lattice has a windmill pair, its color and its standard row
    # depend on the lattice alone.
    ax, ay, bx, by = 0, 1, p, 0
    prev = 0
    for mu in mus:
        k = mu - prev
        prev = mu
        ax, ay, bx, by = _reduce_raw(ax - k * ay, ay, bx - k * by, by)
        yield ax, ay, bx, by


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
    # The lattice is the kernel of a linear form mod p, so w/k stays in it for
    # every k | gcd(w) prime to p: w is primitive exactly when its gcd is a
    # power of p and, if it is not 1, w/p is not a member (nor then is w/p^j).
    p = s.p
    g = h = gcd(w.x, w.y)
    while h % p == 0:
        h //= p
    if h > 1:
        return False
    return g == 1 or not contains(s, IVec2(w.x // p, w.y // p))


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


def _voronoi_vectors_raw(b: LatticeBasis) -> tuple[list[IVec2], list[tuple[int, int]]]:
    # Canonical Voronoi vectors of the reduced basis (r, s), in that order; the
    # third one (short diagonal) exists exactly when it is not orthogonal.
    # Also the cell's edge normals from r to s counterclockwise, with the pair
    # turned so that <r, s> <= 0 < cross(r, s): r, r + s (when not
    # orthogonal), s.  Their negatives are the other half.
    rx, ry, sx, sy = _reduce_raw(b.u.x, b.u.y, b.v.x, b.v.y)
    vecs = [upper_rep(IVec2(rx, ry)), upper_rep(IVec2(sx, sy))]
    dot = rx * sx + ry * sy
    if dot > 0:
        sx, sy = -sx, -sy
    if rx * sy - ry * sx < 0:
        rx, ry, sx, sy = sx, sy, rx, ry
    if dot == 0:
        return vecs, [(rx, ry), (sx, sy)]
    vecs.append(upper_rep(IVec2(rx + sx, ry + sy)))
    return vecs, [(rx, ry), (rx + sx, ry + sy), (sx, sy)]


def voronoi_cell(b: LatticeBasis) -> VoronoiData:
    """Voronoi vectors and the exact Voronoi cell of the origin.

    The vectors are the reduced pair, plus the short diagonal in the
    non-orthogonal case, one canonical representative per +- pair; the cell is
    bounded by 2<x, w> <= <w, w> over them.
    """
    vecs, half = _voronoi_vectors_raw(b)
    # one vertex between each two consecutive normals w1, w2, where the edge
    # lines 2<x, w> = <w, w> meet: (nx, ny) / den with den = 2 cross(w1, w2).
    # Each consecutive pair turns by cross(r, s) > 0, so den is the same
    # positive integer for every vertex.  The cell is symmetric about the
    # origin, so the vertices past -r are the first ones negated.
    rx, ry = half[0]
    first = []
    for (x1, y1), (x2, y2) in zip(half, half[1:] + [(-rx, -ry)]):
        n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
        first.append((n1 * y2 - n2 * y1, n2 * x1 - n1 * x2))
    verts = first + [(-nx, -ny) for nx, ny in first]
    sx, sy = half[-1]
    den = 2 * (rx * sy - ry * sx)
    # the vertices in the upper half-plane form one contiguous run; start from
    # its last one, the vertex with the largest polar angle below pi, read
    # off the numerators' signs since den > 0
    upper = [ny > 0 or (ny == 0 and nx > 0) for nx, ny in verts]
    k = len(verts)
    start = next(i for i in range(k) if upper[i] and not upper[(i + 1) % k])
    cell = tuple(
        (Fraction(nx, den), Fraction(ny, den)) for nx, ny in verts[start:] + verts[:start]
    )
    return VoronoiData(tuple(vecs), cell)


def interlaced(f1: IVec2, f2: IVec2, g1: IVec2, g2: IVec2) -> bool:
    """Whether the line pairs spanned by {f1,f2} and {g1,g2} alternate around
    the projective circle.  False when the four lines are not distinct."""
    for w in (f1, f2, g1, g2):
        if w.is_zero():
            raise ValueError("interlacedness needs nonzero vectors")
    d11, d12 = f1.cross(g1), f1.cross(g2)
    d21, d22 = f2.cross(g1), f2.cross(g2)
    if 0 in (d11, d12, d21, d22):
        return False
    # det(f1, .) * det(f2, .) keeps one sign on each open arc cut out by the
    # f-lines.  A dependent pair f2 = k*f1 gives d21 = k*d11 and d22 = k*d12,
    # so both sides agree for either sign of k; likewise for g2 = k*g1
    return ((d11 > 0) == (d21 > 0)) != ((d12 > 0) == (d22 > 0))
