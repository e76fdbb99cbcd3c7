import hashlib
import xml.etree.ElementTree as ET

import pytest

from oracles import (
    assert_rects_disjoint,
    assert_tiling_invariance,
    parse_svg_circles,
    parse_svg_rects,
)
from windmills.lattice2d import IVec2, SlopeClass, contains
from windmills.render import SCALE, SvgDocument, lattice_svg, tiling_svg
from windmills.windmill import Solution

SOL_37 = Solution(7, 5, 2, 1, 37)
SOL_5 = Solution(2, 2, 1, 1, 5)
SOL_DEG = Solution(37, 1, 0, 0, 37)


def parses_as_xml(doc: SvgDocument):
    root = ET.fromstring(doc.to_xml())
    assert root.tag.endswith("svg")
    return root


class TestTilingSvg:
    def test_staircase_instance(self):
        doc = tiling_svg(SOL_37, extent=2)
        parses_as_xml(doc)
        assert_tiling_invariance(doc.to_xml(), SOL_37, extent=2)

    def test_square_pair_fixed_point(self):
        doc = tiling_svg(SOL_5, extent=3)
        parses_as_xml(doc)
        assert_tiling_invariance(doc.to_xml(), SOL_5, extent=3)
        # both rectangles are squares
        sizes = {(w, h) for _, _, w, h, _ in parse_svg_rects(doc.to_xml())}
        assert sizes == {(2 * SCALE, 2 * SCALE), (SCALE, SCALE)}

    def test_degenerate_single_brick(self):
        doc = tiling_svg(SOL_DEG, extent=1)
        parses_as_xml(doc)
        rects = parse_svg_rects(doc.to_xml())
        assert len(rects) == 9  # one brick per tile, no small rectangle
        assert {(w, h) for _, _, w, h, _ in rects} == {(37 * SCALE, SCALE)}
        assert_tiling_invariance(doc.to_xml(), SOL_DEG, extent=1)

    def test_two_fill_shades(self):
        doc = tiling_svg(SOL_37, extent=1)
        fills = {fill for _, _, _, _, fill in parse_svg_rects(doc.to_xml())}
        assert len(fills) == 2

    def test_rectangles_never_overlap(self):
        # disjointness plus the full translation grid makes this a real tiling
        for sol, extent in ((SOL_37, 2), (SOL_5, 3), (SOL_DEG, 1), (Solution(6, 2, 1, 1, 13), 2)):
            assert_rects_disjoint(tiling_svg(sol, extent).to_xml())

    def test_deterministic(self):
        assert tiling_svg(SOL_37, 2).to_xml() == tiling_svg(SOL_37, 2).to_xml()

    def test_rejects_bad_extent(self):
        with pytest.raises(ValueError):
            tiling_svg(SOL_37, 0)
        with pytest.raises(ValueError):
            tiling_svg(SOL_37, 51)

    def test_rejects_invalid_solution(self):
        with pytest.raises(ValueError):
            tiling_svg(Solution(7, 5, 5, 1, 37), 2)  # min(7,5) = 5 is not > 5
        with pytest.raises(ValueError):
            tiling_svg(Solution(6, 6, 1, 1, 36), 2)


class TestLatticeSvg:
    def test_running_example_points(self):
        s = SlopeClass(13, 7)
        extent = 14
        doc = lattice_svg(s, extent)
        parses_as_xml(doc)
        pts = set()
        for cx, cy in parse_svg_circles(doc.to_xml()):
            x = round(cx / SCALE) - (extent + 1)
            y = (extent + 1) - round(cy / SCALE)
            assert contains(s, IVec2(x, y)), (x, y)
            pts.add((x, y))
        for expected in ((-1, 2), (5, 3), (6, 1), (13, 0)):
            assert expected in pts

    def test_every_point_in_lattice_small_window(self):
        s = SlopeClass(13, 7)
        doc = lattice_svg(s, 8)
        for cx, cy in parse_svg_circles(doc.to_xml()):
            x = round(cx / SCALE) - 9
            y = 9 - round(cy / SCALE)
            assert contains(s, IVec2(x, y))

    def test_standard_basis_arrows_black_slope(self):
        text = lattice_svg(SlopeClass(13, 7), 8).to_xml()
        assert text.count("arr-standard") >= 3  # marker def plus two arrows

    def test_no_standard_arrows_for_white_slope(self):
        text = lattice_svg(SlopeClass(13, 6), 8).to_xml()
        assert text.count('marker-end="url(#arr-standard)"') == 0

    def test_degenerate_slope_without_windmill(self):
        text = lattice_svg(SlopeClass(13, 0), 8).to_xml()
        assert text.count('marker-end="url(#arr-standard)"') == 0
        assert text.count('marker-end="url(#arr-reduced)"') == 2

    def test_voronoi_hexagon_present(self):
        text = lattice_svg(SlopeClass(13, 7), 8).to_xml()
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        hexagons = [
            poly
            for poly in root.iter(f"{ns}polygon")
            if poly.attrib.get("fill") == "none"
            and len(poly.attrib["points"].split()) == 6
        ]
        assert len(hexagons) == 1

    def test_deterministic(self):
        s = SlopeClass(13, 7)
        assert lattice_svg(s, 8).to_xml() == lattice_svg(s, 8).to_xml()

    @pytest.mark.parametrize(
        "p,digest",
        [
            (13, "c75b56d8af46b21c80ad103e509e3436f7fb8745aa1a2bc441fa2b1a186b5acd"),
            (101, "19cc1062cea110fbc82c616d10e8f84b57e2c3b380204aabc7156b4811eb334e"),
        ],
    )
    def test_pictures_over_every_slope_are_pinned(self, p, digest):
        # the reduced-basis and standard-basis arrows, the cell and the points
        # of every slope, infinity included
        h = hashlib.sha256()
        for s in [*(SlopeClass(p, mu) for mu in range(p)), SlopeClass.infinity(p)]:
            h.update(lattice_svg(s, 6).to_xml().encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_points_are_the_window_lattice_points_in_order(self, p):
        # the columns are stepped through their members only; the circles are
        # still exactly the window's lattice points, x-major and bottom to
        # top, for every slope (mu = 0 has full columns where p | x) and for
        # windows narrower and wider than p
        for s in [*(SlopeClass(p, mu) for mu in range(p)), SlopeClass.infinity(p)]:
            for extent in sorted({1, 2, p - 1, p, p + 1, 8}):
                expected = [
                    (x, y)
                    for x in range(-extent, extent + 1)
                    for y in range(-extent, extent + 1)
                    if contains(s, IVec2(x, y))
                ]
                e = extent + 1
                got = [
                    (round(cx / SCALE) - e, e - round(cy / SCALE))
                    for cx, cy in parse_svg_circles(lattice_svg(s, extent).to_xml())
                ]
                assert got == expected, (s, extent)

    def test_guards(self):
        with pytest.raises(ValueError):
            lattice_svg(SlopeClass(1009, 2), 8)  # p above the picture cap
        with pytest.raises(ValueError):
            lattice_svg(SlopeClass(13, 7), 0)

    def test_extent_shares_the_tiling_cap(self):
        lattice_svg(SlopeClass(13, 7), 50)
        with pytest.raises(ValueError, match=r"\[1, 50\]"):
            lattice_svg(SlopeClass(13, 7), 51)

    def test_infinity_slope(self):
        s = SlopeClass.infinity(5)
        doc = lattice_svg(s, 6)
        parses_as_xml(doc)
        for cx, cy in parse_svg_circles(doc.to_xml()):
            x = round(cx / SCALE) - 7
            y = 7 - round(cy / SCALE)
            assert contains(s, IVec2(x, y))
