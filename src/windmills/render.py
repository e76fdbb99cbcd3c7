"""Deterministic SVG pictures: solution tilings and lattice/Voronoi diagrams.

Plain string emission at a fixed 10 px per lattice unit, so identical inputs
produce byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .lattice2d import SlopeClass, VoronoiData, lambda_mu, voronoi_cell
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


def _fmt(v: float | Fraction) -> str:
    return f"{float(v):.2f}"


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
    cells = [(0, 0, a, b, _TILE_LIGHT)]
    if c * d != 0:
        cells.append((a - d, b, d, c, _TILE_DARK))

    placed = []
    for i in range(-extent, extent + 1):
        for j in range(-extent, extent + 1):
            ox = i * a - j * d
            oy = i * c + j * b
            for x, y, w, h, fill in cells:
                placed.append((x + ox, y + oy, w, h, fill))

    min_x = min(x for x, _, _, _, _ in placed)
    max_x = max(x + w for x, _, w, _, _ in placed)
    min_y = min(y for _, y, _, _, _ in placed)
    max_y = max(y + h for _, y, _, h, _ in placed)

    lines = []
    for x, y, w, h, fill in placed:
        px = (x - min_x) * SCALE
        py = (max_y - y - h) * SCALE
        lines.append(
            f'<rect x="{px}" y="{py}" width="{w * SCALE}" height="{h * SCALE}" '
            f'fill="{fill}" stroke="{_TILE_EDGE}" stroke-width="1"/>'
        )
    body = "\n".join(lines) + "\n"
    return SvgDocument((max_x - min_x) * SCALE, (max_y - min_y) * SCALE, body)


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
) -> tuple[VoronoiData, WindmillBasisSet | None, tuple[int, int, int, int] | None]:
    # The slope lattice's Voronoi data, its windmill bases, and its standard
    # row (a, b, c, d) when the slope is black.  Windmill bases exist only for
    # mu in [2, p-2], and the kernel reads the row off the reduced pair, the
    # first two Voronoi vectors, so the lattice is reduced, picked and slid
    # once for the bases and the row.
    cell = voronoi_cell(lambda_mu(s))
    if s.is_infinity or not 2 <= s.mu <= s.p - 2:
        return cell, None, None
    r, t = cell.vectors[:2]
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
    s: SlopeClass, extent: int, cell: VoronoiData, standard: tuple[int, int, int, int] | None
) -> SvgDocument:
    # The picture of lattice_svg, drawn from the slope lattice's Voronoi data
    # and its standard row (a, b, c, d), or None, which the caller has already
    # computed: the lattice is not reduced and the kernel not run again.
    if s.p > _MAX_LATTICE_P:
        raise ValueError(f"lattice pictures are limited to p <= {_MAX_LATTICE_P}")
    _check_extent(extent)
    e = extent + 1  # canvas half-width in lattice units, one unit of margin
    size = 2 * e * SCALE

    # one correctly rounded division of integers per coordinate, the one that
    # float(x + e) makes, with no Fraction built for the sum
    def px(x: int | Fraction) -> float:
        return (x.numerator + e * x.denominator) / x.denominator * SCALE

    def py(y: int | Fraction) -> float:
        return (e * y.denominator - y.numerator) / y.denominator * SCALE

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

    pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in cell.cell_vertices)
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
    r, t = cell.vectors[:2]
    for w in (r, t):
        lines.append(_arrow(px(0), py(0), px(w.x), py(w.y), _REDUCED_EDGE, "arr-reduced"))

    if standard is not None:
        a, b, c, d = standard
        for wx, wy in ((a, c), (-d, b)):
            lines.append(_arrow(px(0), py(0), px(wx), py(wy), _STANDARD_EDGE, "arr-standard"))

    return SvgDocument(size, size, "\n".join(lines) + "\n")
