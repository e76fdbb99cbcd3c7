"""Windmill cones and windmill bases of planar lattices.

The four lines x=0, y=0, y=x and y=-x cut the plane into eight open cones,
colored alternately black and white starting with black on {0 < y < x}.  A
windmill basis has both vectors in the open upper half-plane, one in each of
the two upper cones of a single color.  A lattice of the slope family carries
windmill bases of exactly one color, and the black ones encode decompositions
p = a*b + c*d through the standard form u = (a, c), v = (-d, b).

The work happens on plain integers in three layers: lattice2d._reduce_raw
Lagrange-reduces the basis, _windmill_pair_raw picks the windmill pair among
the Voronoi vectors of the reduced basis, and _standard_basis_raw mirrors a
white pair onto a black one and slides it to the standard basis.  The object
API (find_windmill_basis, all_windmill_bases, standard_black_basis,
fast_solution_for_pair) sits on top of these layers; classify_cone is the
public classifier over the whole plane and stays off the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .lattice2d import (
    IVec2,
    LatticeBasis,
    SlopeClass,
    _reduce_raw,
)


class Cone(Enum):
    """Open windmill cones in counterclockwise order, plus boundary and origin tags."""

    ENE = "ENE"
    NNE = "NNE"
    NNW = "NNW"
    WNW = "WNW"
    WSW = "WSW"
    SSW = "SSW"
    SSE = "SSE"
    ESE = "ESE"
    BOUNDARY_X = "boundary-x"
    BOUNDARY_Y = "boundary-y"
    BOUNDARY_DIAG = "boundary-diag"
    BOUNDARY_ANTIDIAG = "boundary-antidiag"
    ORIGIN = "origin"


class Color(Enum):
    BLACK = "black"
    WHITE = "white"


BLACK_CONES = frozenset({Cone.ENE, Cone.NNW, Cone.WSW, Cone.SSE})
WHITE_CONES = frozenset({Cone.NNE, Cone.WNW, Cone.SSW, Cone.ESE})


class Solution(NamedTuple):
    """A decomposition p = a*b + c*d with min(a, b) > max(c, d)."""

    a: int
    b: int
    c: int
    d: int
    p: int

    @property
    def key(self) -> tuple[int, int, int, int]:
        return self.a, self.b, self.c, self.d

    def is_valid(self) -> bool:
        return (
            min(self.a, self.b, self.c, self.d) >= 0
            and self.a * self.b + self.c * self.d == self.p
            and min(self.a, self.b) > max(self.c, self.d)
        )


@dataclass(frozen=True)
class WindmillBasisSet:
    """All windmill bases of one lattice, sharing the common element m.

    The bases are the pairs (m, f + s*m) for s in range(count).  When count is
    at least 2, m spans the unique pair of minimal vectors of the lattice.
    """

    color: Color
    m: IVec2
    f: IVec2
    count: int

    def bases(self) -> list[tuple[IVec2, IVec2]]:
        return [(self.m, self.f + s * self.m) for s in range(self.count)]


def classify_cone(w: IVec2) -> Cone:
    """The open windmill cone containing w, or its boundary line, or the origin."""
    x, y = w.x, w.y
    if x == 0 and y == 0:
        return Cone.ORIGIN
    if y == 0:
        return Cone.BOUNDARY_X
    if x == 0:
        return Cone.BOUNDARY_Y
    if x == y:
        return Cone.BOUNDARY_DIAG
    if x == -y:
        return Cone.BOUNDARY_ANTIDIAG
    if y > 0:
        if x > y:
            return Cone.ENE
        if x > 0:
            return Cone.NNE
        return Cone.NNW if -x < y else Cone.WNW
    if x < y:
        return Cone.WSW
    return Cone.SSW if x < 0 else (Cone.SSE if x < -y else Cone.ESE)


def windmill_basis_color(e: IVec2, f: IVec2) -> Color | None:
    """The color of the windmill pair {e, f}, or None when it is not one."""
    cones = {classify_cone(e), classify_cone(f)}
    if cones == {Cone.ENE, Cone.NNW}:
        return Color.BLACK
    if cones == {Cone.NNE, Cone.WNW}:
        return Color.WHITE
    return None


def _windmill_pair_raw(
    ax: int, ay: int, bx: int, by: int
) -> tuple[bool, tuple[int, int], tuple[int, int]] | None:
    # The cone pick on a Lagrange-reduced basis: scan the Voronoi vectors (the
    # reduced pair, plus the short diagonal when it is not orthogonal) in the
    # upper half-plane and return (True, ENE, NNW) for a black pair, (False,
    # NNE, WNW) for a white one, or None.  The first vector met in a cone wins.
    dot = ax * bx + ay * by
    if dot > 0:
        cand = ((ax, ay), (bx, by), (ax - bx, ay - by))
    elif dot < 0:
        cand = ((ax, ay), (bx, by), (ax + bx, ay + by))
    else:
        cand = ((ax, ay), (bx, by))
    ene = nne = nnw = wnw = None
    for x, y in cand:
        if y < 0 or (y == 0 and x < 0):
            x, y = -x, -y
        if y <= 0:
            continue
        if x > y:
            if ene is None:
                ene = (x, y)
        elif 0 < x < y:
            if nne is None:
                nne = (x, y)
        elif x < 0:
            nx = -x
            if nx < y:
                if nnw is None:
                    nnw = (x, y)
            elif nx > y:
                if wnw is None:
                    wnw = (x, y)
    if ene is not None and nnw is not None:
        return True, ene, nnw
    if nne is not None and wnw is not None:
        return False, nne, wnw
    return None


def _standard_basis_raw(
    ax: int, ay: int, bx: int, by: int
) -> tuple[bool, tuple[int, int, int, int]] | None:
    # On a Lagrange-reduced basis: pick the windmill pair, mirror a white pair
    # onto a black one, and slide to the standard basis u = (a, c), v = (-d, b).
    # Returns (black, (a, b, c, d)) in the black frame, or None.
    pair = _windmill_pair_raw(ax, ay, bx, by)
    if pair is None:
        return None
    black, (ux, uy), (vx, vy) = pair
    if not black:
        # (x, y) -> (-x, y) swaps cone colors: WNW goes to ENE and NNE to NNW
        ux, uy, vx, vy = -vx, vy, -ux, uy
    # Slide u to the lowest vector of its translate family and v to the
    # rightmost of its family; at most one slide can be nontrivial.
    lo = -((uy - 1) // vy)
    hi = (-vx - 1) // ux
    return black, (ux + lo * vx, vy + hi * uy, uy + lo * vy, -(vx + hi * ux))


def find_windmill_basis(b: LatticeBasis) -> tuple[LatticeBasis, Color] | None:
    """One windmill basis drawn from the Voronoi vectors, or None.

    Complete: a lattice admitting any windmill basis has one among its Voronoi
    vectors, so a miss means the lattice has no windmill basis at all.
    """
    pair = _windmill_pair_raw(*_reduce_raw(b.u.x, b.u.y, b.v.x, b.v.y))
    if pair is None:
        return None
    black, u, v = pair
    return LatticeBasis(IVec2(*u), IVec2(*v)), Color.BLACK if black else Color.WHITE


def all_windmill_bases(b: LatticeBasis) -> WindmillBasisSet | None:
    """The complete set of windmill bases of the lattice, or None if it has none.

    Every windmill basis is a translate of the standard one u = (a, c),
    v = (-d, b) (mirrored for a white lattice): u moves up along v inside its
    cone, or v moves left along u; only one of the two families can be
    nontrivial.
    """
    std = _standard_basis_raw(*_reduce_raw(b.u.x, b.u.y, b.v.x, b.v.y))
    if std is None:
        return None
    black, (a, bb, c, d) = std
    # u + s*v stays in E-NE while s*(b + d) < a - c, and v - s*u in N-NW
    # while s*(a + c) < b - d, for s >= 0
    n_u = (a - c - 1) // (bb + d) + 1
    n_v = (bb - d - 1) // (a + c) + 1
    assert n_u == 1 or n_v == 1, "windmill bases must share a common element"
    # m is the common element and f the first of the moving family, its
    # lowest (u) or leftmost (v) member; `windmills lattice` prints this order
    if n_u > 1 or (not black and n_v == 1):
        mx, my, fx, fy, count = -d, bb, a, c, n_u
    else:
        k = 1 - n_v
        mx, my, fx, fy, count = a, c, k * a - d, k * c + bb, n_v
    if black:
        return WindmillBasisSet(Color.BLACK, IVec2(mx, my), IVec2(fx, fy), count)
    return WindmillBasisSet(Color.WHITE, IVec2(-mx, my), IVec2(-fx, fy), count)


def _require_generic_slope(s: SlopeClass) -> tuple[int, int]:
    if s.is_infinity or s.mu in (0, 1, s.p - 1):
        raise ValueError(
            f"slope {'infinity' if s.is_infinity else s.mu} of p = {s.p} carries "
            "no windmill basis; mu must lie in [2, p-2]"
        )
    return s.p, s.mu


def _fast_solution_raw(
    p: int, mu: int, reduced: tuple[int, int, int, int] | None = None
) -> tuple[int, tuple[int, int, int, int]]:
    # Reduce the slope basis and take its standard basis; a white lattice is
    # mirrored onto the slope p - mu.  A caller that already holds a
    # Lagrange-reduced basis of the slope's lattice passes it as `reduced` and
    # skips the reduction.
    if reduced is None:
        reduced = _reduce_raw(p, 0, -mu, 1)
    black, row = _standard_basis_raw(*reduced)
    if not black:
        mu = p - mu
    a, b, c, d = row
    assert a * b + c * d == p and min(a, b) > max(c, d) >= 0, (p, mu)
    return mu, row


def standard_black_basis(s: SlopeClass) -> Solution | None:
    """The unique solution encoded by the slope's black windmill bases, or None
    when the lattice carries only white bases.

    The standard basis takes the lowest windmill-type vector of the E-NE cone
    and the rightmost one of the N-NW cone.
    """
    p, mu = _require_generic_slope(s)
    black_mu, row = _fast_solution_raw(p, mu)
    return Solution(*row, p) if black_mu == mu else None


def fast_solution_for_pair(s: SlopeClass) -> tuple[SlopeClass, Solution]:
    """The solution carried by the slope pair {mu, p - mu}, with the member of
    the pair whose lattice is black.  O(log p) integer operations."""
    p, mu = _require_generic_slope(s)
    mu_star, (a, b, c, d) = _fast_solution_raw(p, mu)
    return SlopeClass(p, mu_star), Solution(a, b, c, d, p)
