"""Windmill cones and windmill bases of planar lattices.

The four lines x=0, y=0, y=x and y=-x cut the plane into eight open cones,
colored alternately black and white starting with black on {0 < y < x}.  A
windmill basis has both vectors in the open upper half-plane, one in each of
the two upper cones of a single color.  A lattice of the slope family carries
windmill bases of exactly one color, and the black ones encode decompositions
p = a*b + c*d through the standard form u = (a, c), v = (-d, b).

The work happens on plain integers in three layers: lattice2d Lagrange-reduces
the basis, _windmill_pair_raw picks the windmill pair among the Voronoi
vectors of the reduced basis, and _standard_basis_raw mirrors a white pair
onto a black one and slides it to the standard basis.  The pick asks one cone
test, _cone_pair, of at most three pairs: the reduced pair, which fills two
cones of one color on about five slopes in six, then the short diagonal with
each vector of the reduced pair.  The per-slope kernel _fast_solution_raw
takes a reduced basis, so the walk can hand one reduction to two slopes, and
checks the row it slides to; _basis_set lists every windmill basis from
that row, since all are translates of the standard one.  The object API sits
on top: find_windmill_basis and all_windmill_bases reduce the caller's basis
with lattice2d._reduce_raw, and fast_solution_for_pair, which
standard_black_basis reads, reduces its slope lattice as a sweep of one with
the walk's lattice2d._reduce_slopes_raw.  `windmills lattice` and its picture
run the kernel and _basis_set on the reduced pair of the Voronoi data.
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
    _reduce_slopes_raw,
)


class Color(Enum):
    BLACK = "black"
    WHITE = "white"


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


def _cone_pair(
    ax: int, ay: int, bx: int, by: int
) -> tuple[bool, tuple[int, int], tuple[int, int]] | None:
    # The one cone test, on two vectors of the upper half-plane: (True, ENE,
    # NNW) when they fill the two upper black cones, (False, NNE, WNW) when
    # they fill the two upper white ones, in cone order whatever the order of
    # the arguments, and None otherwise.  A vector on one of the four lines
    # lies in no cone.
    if ax > ay > 0:
        if 0 < -bx < by:
            return True, (ax, ay), (bx, by)
    elif 0 < -ax < ay:
        if bx > by > 0:
            return True, (bx, by), (ax, ay)
    elif 0 < ax < ay:
        if 0 < by < -bx:
            return False, (ax, ay), (bx, by)
    elif 0 < ay < -ax:
        if 0 < bx < by:
            return False, (bx, by), (ax, ay)
    return None


def _windmill_pair_raw(
    ax: int, ay: int, bx: int, by: int
) -> tuple[bool, tuple[int, int], tuple[int, int]] | None:
    # The cone pick on a Lagrange-reduced basis: the windmill pair among its
    # Voronoi vectors, (True, ENE, NNW) for a black pair, (False, NNE, WNW)
    # for a white one, or None.  The reduced pair, taken into the upper
    # half-plane, is the answer when it fills two cones of one color; that
    # settles about five slopes in six.  Otherwise a pair needs the short
    # diagonal w.  Negating a or b swaps a - b and a + b up to sign, so w is
    # chosen from the dot product of the normalized pair.  w pairs with the
    # first of a, b that lies in its partner cone: had a or b held w's own
    # cone, the other would have completed the reduced pair.  An orthogonal
    # pair needs no case of its own: a quarter turn maps each cone to one of
    # its color and the lines to the lines, so its vectors both lie in open
    # cones, and _cone_pair has returned them, or both lie on the four lines,
    # and neither pairs with w.
    if ay < 0:
        ax, ay = -ax, -ay
    if by < 0:
        bx, by = -bx, -by
    pair = _cone_pair(ax, ay, bx, by)
    if pair is not None:
        return pair
    if ax * bx + ay * by > 0:
        wx, wy = ax - bx, ay - by
    else:
        wx, wy = ax + bx, ay + by
    if wy < 0:
        wx, wy = -wx, -wy
    return _cone_pair(wx, wy, ax, ay) or _cone_pair(wx, wy, bx, by)


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
    return None if std is None else _basis_set(*std)


def _basis_set(black: bool, row: tuple[int, int, int, int]) -> WindmillBasisSet:
    # The windmill bases of a lattice from its standard row (a, b, c, d) in
    # the black frame, as _standard_basis_raw returns it.
    a, bb, c, d = row
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


def _fast_solution_raw(
    p: int, ax: int, ay: int, bx: int, by: int
) -> tuple[bool, tuple[int, int, int, int]]:
    # The standard basis of a Lagrange-reduced basis of a slope lattice:
    # (black, (a, b, c, d)), where a white lattice's row belongs to the
    # mirrored slope p - mu.
    black, row = _standard_basis_raw(ax, ay, bx, by)
    a, b, c, d = row
    # min(a, b) > max(c, d) >= 0 spelled out: calls to min and max cost more than comparisons
    assert a * b + c * d == p and a > c and a > d and b > c and b > d, (p, row)
    assert c >= 0 and d >= 0, (p, row)
    return black, row


def standard_black_basis(s: SlopeClass) -> Solution | None:
    """The unique solution encoded by the slope's black windmill bases, or None
    when the lattice carries only white bases.

    The standard basis takes the lowest windmill-type vector of the E-NE cone
    and the rightmost one of the N-NW cone.
    """
    black_slope, sol = fast_solution_for_pair(s)
    return sol if black_slope == s else None


def fast_solution_for_pair(s: SlopeClass) -> tuple[SlopeClass, Solution]:
    """The solution carried by the slope pair {mu, p - mu}, with the member of
    the pair whose lattice is black.  O(log p) integer operations."""
    if s.is_infinity or s.mu in (0, 1, s.p - 1):
        raise ValueError(
            f"slope {'infinity' if s.is_infinity else s.mu} of p = {s.p} carries "
            "no windmill basis; mu must lie in [2, p-2]"
        )
    black, row = _fast_solution_raw(s.p, *next(_reduce_slopes_raw(s.p, (s.mu,))))
    return SlopeClass(s.p, s.mu if black else s.p - s.mu), Solution(*row, s.p)
