"""Deterministic SVG pictures: solution tilings and lattice/Voronoi diagrams.

Plain string emission at a fixed 10 px per lattice unit, so identical inputs
produce byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .lattice2d import (
    IVec2,
    SlopeClass,
    contains,
    gauss_reduce,
    lambda_mu,
    upper_rep,
    voronoi_cell,
)
from .windmill import Solution, standard_black_basis

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


def tiling_svg(sol: Solution, extent: int) -> SvgDocument:
    """Tiling of the plane by translates of the two-rectangle fundamental domain.

    The a x b rectangle sits with its lower-left corner at the origin and the
    d x c rectangle rides on its top-right corner, so translates under (a, c)
    and (-d, b) interlock without overlap.  Degenerate solutions with c*d = 0
    fall back to the single a x b brick.  extent counts tiles per direction.
    """
    if not 1 <= extent <= _MAX_EXTENT:
        raise ValueError(f"extent must lie in [1, {_MAX_EXTENT}]")
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
    if s.p > _MAX_LATTICE_P:
        raise ValueError(f"lattice pictures are limited to p <= {_MAX_LATTICE_P}")
    if not 1 <= extent <= _MAX_EXTENT:
        raise ValueError(f"extent must lie in [1, {_MAX_EXTENT}]")
    e = extent + 1  # canvas half-width in lattice units, one unit of margin
    size = 2 * e * SCALE

    def px(x: float | Fraction) -> float:
        return float(x + e) * SCALE

    def py(y: float | Fraction) -> float:
        return float(e - y) * SCALE

    basis = lambda_mu(s)
    lines = [
        "<defs>"
        '<marker id="arr-reduced" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        f'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="{_REDUCED_EDGE}"/></marker>'
        '<marker id="arr-standard" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        f'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="{_STANDARD_EDGE}"/></marker>'
        "</defs>"
    ]

    # the four black windmill cones, clipped to the canvas
    for tri in (
        ((0, 0), (e, 0), (e, e)),
        ((0, 0), (0, e), (-e, e)),
        ((0, 0), (-e, 0), (-e, -e)),
        ((0, 0), (0, -e), (e, -e)),
    ):
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in tri)
        lines.append(f'<polygon points="{pts}" fill="{_CONE_FILL}"/>')

    cell = voronoi_cell(basis)
    pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in cell.cell_vertices)
    lines.append(
        f'<polygon points="{pts}" fill="none" stroke="{_CELL_EDGE}" stroke-width="1.5"/>'
    )

    for x in range(-extent, extent + 1):
        for y in range(-extent, extent + 1):
            if contains(s, IVec2(x, y)):
                lines.append(
                    f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.50" '
                    f'fill="{_POINT_FILL}"/>'
                )

    red = gauss_reduce(basis)
    for w in (upper_rep(red.u), upper_rep(red.v)):
        lines.append(_arrow(px(0), py(0), px(w.x), py(w.y), _REDUCED_EDGE, "arr-reduced"))

    if not s.is_infinity and 2 <= s.mu <= s.p - 2:
        sol = standard_black_basis(s)
        if sol is not None:
            for wx, wy in ((sol.a, sol.c), (-sol.d, sol.b)):
                lines.append(
                    _arrow(px(0), py(0), px(wx), py(wy), _STANDARD_EDGE, "arr-standard")
                )

    return SvgDocument(size, size, "\n".join(lines) + "\n")
