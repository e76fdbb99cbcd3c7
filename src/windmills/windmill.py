"""Windmill cones and windmill bases of planar lattices.

The four lines x=0, y=0, y=x and y=-x cut the plane into eight open cones,
colored alternately black and white starting with black on {0 < y < x}.  A
windmill basis has both vectors in the open upper half-plane, one in each of
the two upper cones of a single color.  A lattice of the slope family carries
windmill bases of exactly one color, and the black ones encode decompositions
p = a*b + c*d through the standard form u = (a, c), v = (-d, b).

The work happens on plain integers in three layers: lattice2d._reduce_raw
Lagrange-reduces the basis, _windmill_pair_raw picks the windmill pair among
the Voronoi vectors of the reduced basis, and _fast_solution_raw slides that
pair to the standard basis.  The object API (find_windmill_basis,
all_windmill_bases, standard_black_basis, fast_solution_for_pair) wraps these
layers; classify_cone is the public classifier over the whole plane and stays
off the hot path.
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
    lambda_mu,
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


# Linear forms strictly positive on each open upper cone.
_CONE_FORMS = {
    Cone.ENE: ((0, 1), (1, -1)),  # y > 0,  x - y > 0
    Cone.NNE: ((1, 0), (-1, 1)),  # x > 0,  y - x > 0
    Cone.NNW: ((-1, 0), (1, 1)),  # -x > 0,  x + y > 0
    Cone.WNW: ((0, 1), (-1, -1)),  # y > 0, -x - y > 0
}


def _cone_interval(wx: int, wy: int, dx: int, dy: int, cone: Cone) -> tuple[int, int]:
    """Integer shift range [lo, hi] keeping w + s*d strictly inside the open cone.

    Finite because d must avoid both boundary lines of the cone, which holds
    whenever d lies strictly inside any other windmill cone.
    """
    lo = hi = None
    for cx, cy in _CONE_FORMS[cone]:
        fw = cx * wx + cy * wy
        fd = cx * dx + cy * dy
        if fd > 0:
            s = -((fw - 1) // fd)  # least s with fw + s*fd >= 1
            if lo is None or s > lo:
                lo = s
        elif fd < 0:
            s = (fw - 1) // -fd  # greatest s with fw + s*fd >= 1
            if hi is None or s < hi:
                hi = s
        elif fw <= 0:
            raise ValueError("w does not lie inside the cone")
    if lo is None or hi is None:
        raise ValueError("direction runs along a cone boundary")
    return lo, hi


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

    Starting from one found basis (u0, v0), every further basis replaces one of
    the two vectors by a translate along the other that stays inside its cone;
    only one of the two translate families can be nontrivial.
    """
    found = find_windmill_basis(b)
    if found is None:
        return None
    basis, color = found
    u0, v0 = basis.u, basis.v
    cone_u, cone_v = (Cone.ENE, Cone.NNW) if color is Color.BLACK else (Cone.NNE, Cone.WNW)
    lo_u, hi_u = _cone_interval(u0.x, u0.y, v0.x, v0.y, cone_u)
    lo_v, hi_v = _cone_interval(v0.x, v0.y, u0.x, u0.y, cone_v)
    count_u = hi_u - lo_u + 1
    count_v = hi_v - lo_v + 1
    assert count_u == 1 or count_v == 1, "windmill bases must share a common element"
    if count_u == 1 and count_v == 1:
        return WindmillBasisSet(color, u0, v0, 1)
    if count_v > 1:
        return WindmillBasisSet(color, u0, v0 + lo_v * u0, count_v)
    return WindmillBasisSet(color, v0, u0 + lo_u * v0, count_u)


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
    # Reduce the slope basis, pick its windmill pair, reflect white lattices
    # onto the mirror slope p - mu, and slide to the standard basis.  A caller
    # that already holds a Lagrange-reduced basis of the slope's lattice
    # passes it as `reduced` and skips the reduction.
    if reduced is None:
        reduced = _reduce_raw(p, 0, -mu, 1)
    black, (ux, uy), (vx, vy) = _windmill_pair_raw(*reduced)
    if not black:
        # (x, y) -> (-x, y) maps the lattice onto the slope p - mu and swaps
        # cone colors: WNW goes to ENE and NNE to NNW
        mu = p - mu
        ux, uy, vx, vy = -vx, vy, -ux, uy
    # Slide u to the lowest vector of its translate family and v to the
    # rightmost of its family; at most one slide can be nontrivial, and the
    # result is the standard basis u = (a, c), v = (-d, b).
    lo = -((uy - 1) // vy)
    a = ux + lo * vx
    c = uy + lo * vy
    hi = (-vx - 1) // ux
    b = vy + hi * uy
    d = -(vx + hi * ux)
    assert a * b + c * d == p and min(a, b) > max(c, d) >= 0, (p, mu)
    return mu, (a, b, c, d)


def standard_black_basis(s: SlopeClass) -> Solution | None:
    """The unique solution encoded by the slope's black windmill bases, or None
    when the lattice carries only white bases.

    The standard basis takes the lowest windmill-type vector of the E-NE cone
    and the rightmost one of the N-NW cone.
    """
    p, _ = _require_generic_slope(s)
    ws = all_windmill_bases(lambda_mu(s))
    assert ws is not None, "every slope in [2, p-2] has a windmill basis"
    if ws.color is Color.WHITE:
        return None
    # With m in ENE the NNW translates f + k*m move right as k grows, so the
    # last one is standard; with m in NNW the ENE translates move up, so f is.
    if classify_cone(ws.m) is Cone.ENE:
        u, v = ws.m, ws.f + (ws.count - 1) * ws.m
    else:
        u, v = ws.f, ws.m
    sol = Solution(u.x, v.y, u.y, -v.x, p)
    assert sol.is_valid(), sol
    return sol


def fast_solution_for_pair(s: SlopeClass) -> tuple[SlopeClass, Solution]:
    """The solution carried by the slope pair {mu, p - mu}, with the member of
    the pair whose lattice is black.  O(log p) integer operations."""
    p, mu = _require_generic_slope(s)
    mu_star, (a, b, c, d) = _fast_solution_raw(p, mu)
    return SlopeClass(p, mu_star), Solution(a, b, c, d, p)
