"""Deterministic SVG pictures: solution tilings and lattice/Voronoi diagrams.

Plain string emission at a fixed 10 px per lattice unit, so identical inputs
produce byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .lattice2d import SlopeClass, _voronoi_cell_raw, lambda_mu
from .windmill import Solution, WindmillBasisSet, _basis_set, _fast_solution_raw

SCALE = 10  # pixels per lattice unit

_TILE_LIGHT = "#c6dbef"
_TILE_DARK = "#4292c6"
_TILE_EDGE = "#1c3d5c"
_CONE_FILL = "#d0d0d0"
_CELL_EDGE = "#e6550d"
_POINT_FILL = "#000000"
_REDUCED_EDGE = "#2b6cb0"
_STANDARD_EDGE = "#c53030"

_MAX_EXTENT = 50  # tiles or lattice units per direction, for both pictures
_MAX_LATTICE_P = 1000


@dataclass(frozen=True)
class SvgDocument:
    """A standalone SVG 1.1 document of fixed pixel size."""

    width: int
    height: int
    body: str

    def to_xml(self) -> str:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">\n'
            f"{self.body}</svg>\n"
        )

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_xml(), encoding="utf-8")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _check_extent(extent: int) -> None:
    if not 1 <= extent <= _MAX_EXTENT:
        raise ValueError(f"extent must lie in [1, {_MAX_EXTENT}]")


def tiling_svg(sol: Solution, extent: int) -> SvgDocument:
    """Tiling of the plane by translates of the two-rectangle fundamental domain.

    The a x b rectangle sits with its lower-left corner at the origin and the
    d x c rectangle rides on its top-right corner, so translates under (a, c)
    and (-d, b) interlock without overlap.  Degenerate solutions with c*d = 0
    fall back to the single a x b brick.  extent counts tiles per direction.
    """
    _check_extent(extent)
    if not sol.is_valid():
        raise ValueError(f"{sol} is not a valid solution")
    a, b, c, d = sol.a, sol.b, sol.c, sol.d
    dark = c * d != 0
    # is_valid gives a, b > c, d >= 0, so the translates (i*a - j*d, i*c + j*b)
    # reach furthest at the corners (i, j) = (+-extent, +-extent); there the
    # a x b rectangle bounds the picture left, right and below, and above it
    # the d x c one, when drawn, since it sits on its top edge inside its width
    left = extent * (a + d)
    top = (extent + 1) * b + extent * c + (c if dark else 0)
    width, height = a + 2 * left, top + extent * (b + c)
    # one template per translate, its rectangles' size and fill baked in, and
    # one % that fills every translate's upper-left corners in pixels
    rect = '<rect x="%d" y="%d" width="{}" height="{}" fill="{}" stroke="{}" stroke-width="1"/>\n'
    tile = rect.format(a * SCALE, b * SCALE, _TILE_LIGHT, _TILE_EDGE)
    if dark:
        tile += rect.format(d * SCALE, c * SCALE, _TILE_DARK, _TILE_EDGE)
    window = range(-extent, extent + 1)
    corners = [
        ((i * a - j * d + left) * SCALE, (top - b - i * c - j * b) * SCALE)
        for i in window
        for j in window
    ]
    if dark:
        dx, dy = (a - d) * SCALE, c * SCALE
        corners = [(x, y, x + dx, y - dy) for x, y in corners]
    body = (tile * len(corners)) % tuple(chain.from_iterable(corners))
    return SvgDocument(width * SCALE, height * SCALE, body)


def _arrow(px0: float, py0: float, px1: float, py1: float, color: str, marker: str) -> str:
    return (
        f'<line x1="{_fmt(px0)}" y1="{_fmt(py0)}" x2="{_fmt(px1)}" y2="{_fmt(py1)}" '
        f'stroke="{color}" stroke-width="2" marker-end="url(#{marker})"/>'
    )


def lattice_svg(s: SlopeClass, extent: int) -> SvgDocument:
    """Lattice points in [-extent, extent]^2 with the shaded black windmill
    cones, the Voronoi cell, the reduced basis, and the standard black windmill
    basis when the slope carries one."""
    cell, _, standard = _slope_view(s)
    return _lattice_svg(s, extent, cell, standard)


def _slope_view(
    s: SlopeClass,
) -> tuple[tuple, WindmillBasisSet | None, tuple[int, int, int, int] | None]:
    # The slope lattice's raw Voronoi data (vectors, vertex numerators, den),
    # its windmill bases, and its standard row (a, b, c, d) when the slope is
    # black.  Windmill bases exist only for mu in [2, p-2], and the kernel
    # reads the row off the reduced pair, the first two Voronoi vectors, so
    # the lattice is reduced, picked and slid once for the bases and the row.
    cell = _voronoi_cell_raw(lambda_mu(s))
    if s.is_infinity or not 2 <= s.mu <= s.p - 2:
        return cell, None, None
    r, t = cell[0][:2]
    black, row = _fast_solution_raw(s.p, r.x, r.y, t.x, t.y)
    return cell, _basis_set(black, row), row if black else None


def _columns(s: SlopeClass, extent: int) -> list[tuple[int, range]]:
    # each column x of the window [-extent, extent]^2 with the y of its
    # lattice points, bottom to top, so that no point off the lattice is tried
    p = s.p
    window = range(-extent, extent + 1)
    if s.mu == 0:
        # x = 0 (mod p): full columns where p | x, empty ones elsewhere
        return [(x, window if x % p == 0 else range(0)) for x in window]
    # y = -x/mu (mod p) for a finite mu, and y = 0 (mod p) at infinity
    k = 0 if s.is_infinity else pow(s.mu, -1, p)
    return [(x, range(-extent + (extent - x * k) % p, extent + 1, p)) for x in window]


def _lattice_svg(
    s: SlopeClass, extent: int, cell: tuple, standard: tuple[int, int, int, int] | None
) -> SvgDocument:
    # The picture of lattice_svg, drawn from the slope lattice's raw Voronoi
    # data and its standard row (a, b, c, d), or None, which the caller has
    # already computed: the lattice is not reduced and the kernel not run again.
    if s.p > _MAX_LATTICE_P:
        raise ValueError(f"lattice pictures are limited to p <= {_MAX_LATTICE_P}")
    _check_extent(extent)
    e = extent + 1  # canvas half-width in lattice units, one unit of margin
    size = 2 * e * SCALE

    # n/den maps by one division of integers, correctly rounded for the exact
    # rational, so n/den in lowest terms or not gives the same float
    def px(x: int, den: int = 1) -> float:
        return (x + e * den) / den * SCALE

    def py(y: int, den: int = 1) -> float:
        return (e * den - y) / den * SCALE

    lines = [
        "<defs>"
        '<marker id="arr-reduced" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        f'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="{_REDUCED_EDGE}"/></marker>'
        '<marker id="arr-standard" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        f'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="{_STANDARD_EDGE}"/></marker>'
        "</defs>"
    ]

    # the four black windmill cones, clipped to the canvas: their corners
    # take only the canvas values 0, e*SCALE and 2e*SCALE, formatted once
    lo, mid, hi = _fmt(0), _fmt(e * SCALE), _fmt(2 * e * SCALE)
    cx = {-e: lo, 0: mid, e: hi}
    cy = {-e: hi, 0: mid, e: lo}
    for tri in (
        ((0, 0), (e, 0), (e, e)),
        ((0, 0), (0, e), (-e, e)),
        ((0, 0), (-e, 0), (-e, -e)),
        ((0, 0), (0, -e), (e, -e)),
    ):
        pts = " ".join(f"{cx[x]},{cy[y]}" for x, y in tri)
        lines.append(f'<polygon points="{pts}" fill="{_CONE_FILL}"/>')

    vecs, verts, den = cell
    pts = " ".join(f"{_fmt(px(x, den))},{_fmt(py(y, den))}" for x, y in verts)
    lines.append(
        f'<polygon points="{pts}" fill="none" stroke="{_CELL_EDGE}" stroke-width="1.5"/>'
    )

    # the lattice points column by column, each column stepped through its
    # members only, so that the cost follows the points drawn, not the window
    for x, ys in _columns(s, extent):
        if ys:
            cx = _fmt(px(x))
            lines.extend(
                f'<circle cx="{cx}" cy="{_fmt(py(y))}" r="2.50" fill="{_POINT_FILL}"/>'
                for y in ys
            )

    # the first two Voronoi vectors are the canonical reduced pair
    for w in vecs[:2]:
        lines.append(_arrow(px(0), py(0), px(w.x), py(w.y), _REDUCED_EDGE, "arr-reduced"))

    if standard is not None:
        a, b, c, d = standard
        for wx, wy in ((a, c), (-d, b)):
            lines.append(_arrow(px(0), py(0), px(wx), py(wy), _STANDARD_EDGE, "arr-standard"))

    return SvgDocument(size, size, "\n".join(lines) + "\n")
