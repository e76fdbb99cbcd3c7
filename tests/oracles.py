"""Independent brute-force oracles shared by the test modules.

Everything here recomputes results from first principles (window scans,
half-plane clipping, exhaustive pair search) without touching the fast paths
it is used to check.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from fractions import Fraction
from math import gcd, isqrt


def sieve_primes(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, n + 1) if sieve[i]]


def odd_primes(n: int) -> list[int]:
    return [p for p in sieve_primes(n) if p > 2]


def least_class_members(p: int) -> list[int]:
    """The least member in [2, (p-1)/2] of each slope class {+-mu, +-1/mu}
    modulo the odd prime p, in increasing order, from one pow(mu, -1, p) per
    slope."""
    half = (p - 1) // 2
    least = []
    for mu in range(2, half + 1):
        partner = pow(mu, -1, p)
        if min(partner, p - partner) >= mu:
            least.append(mu)
    return least


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def slope_points(p: int, mu: int | None, bound: int) -> list[tuple[int, int]]:
    """All nonzero points of the slope lattice with coordinates in [-bound, bound]."""
    pts = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if x == 0 and y == 0:
                continue
            if mu is None:
                if y % p == 0:
                    pts.append((x, y))
            elif (x + mu * y) % p == 0:
                pts.append((x, y))
    return pts


def basis_points(ux: int, uy: int, vx: int, vy: int, bound: int) -> list[tuple[int, int]]:
    """All nonzero points of Z*u + Z*v with coordinates in [-bound, bound]."""
    d = ux * vy - uy * vx
    pts = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if x == 0 and y == 0:
                continue
            if (x * vy - y * vx) % d == 0 and (ux * y - uy * x) % d == 0:
                pts.append((x, y))
    return pts


def min_norm2(points: list[tuple[int, int]]) -> int:
    return min(x * x + y * y for x, y in points)


def bf_windmill_bases(p: int, mu: int | None):
    """All windmill bases of the slope lattice by exhaustive pair search.

    Returns (color, set of frozen basis pairs) or None.  Every windmill basis
    member has coordinates within [-p, p], so the window scan is complete.
    """
    pts = slope_points(p, mu, p)
    ene = [w for w in pts if 0 < w[1] < w[0]]
    nne = [w for w in pts if 0 < w[0] < w[1]]
    nnw = [w for w in pts if 0 < -w[0] < w[1]]
    wnw = [w for w in pts if 0 < w[1] < -w[0]]
    black = {
        frozenset((u, v))
        for u in ene
        for v in nnw
        if abs(u[0] * v[1] - u[1] * v[0]) == p
    }
    white = {
        frozenset((u, v))
        for u in nne
        for v in wnw
        if abs(u[0] * v[1] - u[1] * v[0]) == p
    }
    assert not (black and white), "windmill bases of both colors cannot coexist"
    if black:
        return "black", black
    if white:
        return "white", white
    return None


def loop_windmill_pair(ax: int, ay: int, bx: int, by: int):
    """The cone pick as one scan over the Voronoi vectors of a reduced basis.

    The reduced pair, then the short diagonal when it is not orthogonal, each
    taken into the upper half-plane; the first vector met in a cone fills it.
    Returns (True, ENE, NNW) for a black pair, (False, NNE, WNW) for a white
    one, or None, exactly as windmill._windmill_pair_raw does.
    """
    dot = ax * bx + ay * by
    if dot > 0:
        cand = ((ax, ay), (bx, by), (ax - bx, ay - by))
    elif dot < 0:
        cand = ((ax, ay), (bx, by), (ax + bx, ay + by))
    else:
        cand = ((ax, ay), (bx, by))
    ene = nne = nnw = wnw = None
    for x, y in cand:
        if y < 0:
            x, y = -x, -y
        elif y == 0:
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


def _clip(poly, a, b, c):
    # keep the side a*x + b*y <= c of the polygon (exact rational clipping)
    out = []
    n = len(poly)
    for i in range(n):
        px, py = poly[i]
        qx, qy = poly[(i + 1) % n]
        fp = a * px + b * py - c
        fq = a * qx + b * qy - c
        if fp <= 0:
            out.append((px, py))
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = Fraction(fp, fp - fq)
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return out


def bf_voronoi_cell(points: list[tuple[int, int]], box: int):
    """Vertices of the origin's Voronoi cell by exact half-plane intersection.

    points must include every Voronoi-relevant vector; box must contain the cell.
    """
    b = Fraction(box)
    poly = [(b, b), (-b, b), (-b, -b), (b, -b)]
    for wx, wy in points:
        poly = _clip(poly, 2 * wx, 2 * wy, wx * wx + wy * wy)
    return set(poly)


def _edge_intersection(w1: tuple[int, int], w2: tuple[int, int]) -> tuple[Fraction, Fraction]:
    # Intersection of the two edge lines 2<x, w> = <w, w>.
    (x1, y1), (x2, y2) = w1, w2
    n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
    d = 2 * (x1 * y2 - y1 * x2)
    return (Fraction(n1 * y2 - n2 * y1, d), Fraction(n2 * x1 - n1 * x2, d))


def fraction_voronoi_vertices(half: list[tuple[int, int]]) -> tuple[tuple[Fraction, Fraction], ...]:
    """The Voronoi cell's vertices from its edge normals, ordered on Fractions.

    half lists the normals from r to s counterclockwise, as
    lattice2d._voronoi_vectors_raw returns them.  Every vertex is built as a
    Fraction pair, then the list is turned to start from the vertex of largest
    polar angle below pi, read off the Fractions' signs.
    """
    # one vertex between each two consecutive normals; the cell is symmetric
    # about the origin, so the vertices past -r are the first ones negated
    rx, ry = half[0]
    first = [_edge_intersection(w1, w2) for w1, w2 in zip(half, half[1:] + [(-rx, -ry)])]
    verts = first + [(-x, -y) for x, y in first]
    # the vertices in the upper half-plane form one contiguous run; start from
    # its last one, the vertex with the largest polar angle below pi
    upper = [y > 0 or (y == 0 and x > 0) for x, y in verts]
    k = len(verts)
    start = next(i for i in range(k) if upper[i] and not upper[(i + 1) % k])
    return tuple(verts[start:] + verts[:start])


def shoelace_area2(vertices) -> Fraction:
    """Twice the signed polygon area."""
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total


def parse_svg_rects(svg_text: str):
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    rects = []
    for r in root.iter(f"{ns}rect"):
        rects.append(
            (
                int(r.attrib["x"]),
                int(r.attrib["y"]),
                int(r.attrib["width"]),
                int(r.attrib["height"]),
                r.attrib.get("fill", ""),
            )
        )
    return rects


def parse_svg_circles(svg_text: str):
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    return [
        (float(c.attrib["cx"]), float(c.attrib["cy"]))
        for c in root.iter(f"{ns}circle")
    ]


def assert_rects_disjoint(svg_text: str) -> None:
    """No two rectangles of the drawing share interior area."""
    rects = [r[:4] for r in parse_svg_rects(svg_text)]
    for i, (x1, y1, w1, h1) in enumerate(rects):
        for x2, y2, w2, h2 in rects[i + 1 :]:
            x_overlap = min(x1 + w1, x2 + w2) - max(x1, x2)
            y_overlap = min(y1 + h1, y2 + h2) - max(y1, y2)
            assert x_overlap <= 0 or y_overlap <= 0, "rectangles overlap"


def assert_tiling_invariance(svg_text: str, sol, extent: int, scale: int = 10) -> None:
    """Translation invariance of the tiling under both lattice generators.

    Same-fill rectangles must form one full (2*extent+1)^2 translation grid
    under the pixel images of (a, c) and (-d, b); every rectangle of a tile
    whose neighbors are all drawn must reappear translated.  Corner-set
    invariance on the viewport interior follows, since corners sit at fixed
    offsets from their rectangle positions.
    """
    a, b, c, d = sol.a, sol.b, sol.c, sol.d
    p = sol.p
    g1 = (a * scale, -c * scale)  # pixel image of (a, c); the y axis is flipped
    g2 = (-d * scale, -b * scale)  # pixel image of (-d, b)
    rects = parse_svg_rects(svg_text)
    by_fill: dict[str, set[tuple[int, int]]] = {}
    sizes: dict[str, tuple[int, int]] = {}
    for x, y, w, h, fill in rects:
        by_fill.setdefault(fill, set()).add((x, y))
        assert sizes.setdefault(fill, (w, h)) == (w, h), "same fill implies same size"

    checked = 0
    for fill, positions in by_fill.items():
        assert len(positions) == (2 * extent + 1) ** 2
        x0, y0 = min(positions)
        index: dict[tuple[int, int], tuple[int, int]] = {}
        for x, y in positions:
            dx, dy = x - x0, y - y0
            # solve dx = i*g1x + j*g2x, dy = i*g1y + j*g2y over the integers
            det = g1[0] * g2[1] - g1[1] * g2[0]
            assert det == p * scale * scale or det == -p * scale * scale
            num_i = dx * g2[1] - dy * g2[0]
            num_j = g1[0] * dy - g1[1] * dx
            assert num_i % det == 0 and num_j % det == 0, "position off the grid"
            index[(x, y)] = (num_i // det, num_j // det)
        i_min = min(i for i, _ in index.values())
        j_min = min(j for _, j in index.values())
        for (x, y), (i, j) in index.items():
            i -= i_min + extent
            j -= j_min + extent
            assert -extent <= i <= extent and -extent <= j <= extent
            if abs(i) < extent and abs(j) < extent:
                for gx, gy in (g1, g2, (-g1[0], -g1[1]), (-g2[0], -g2[1])):
                    assert (x + gx, y + gy) in positions
                    checked += 1
    assert checked > 0, "no interior tiles were exercised"


def loop_irreducible_rows(n: int) -> list[tuple[int, int, int, int]]:
    """The matrix congruence search with a stepped range of k for every pair
    (m, a), coprime or not, in the order decomp._irreducible_rows emits its
    rows."""
    rows = []
    for m in range((n - 1) // 2 + 1):
        for a in range(m + 1, isqrt(n + m * m) + 1):
            g = gcd(m, a)
            if n % g:
                continue
            step = a // g
            k0 = -(n // g) * pow(m // g, -1, step)
            # least k >= max(0, (a*a - n)/m) with k = k0 (mod step), so that
            # d = (n + m*k)/a >= a; a*a <= n whenever m = 0
            low = (a * a - n + m - 1) // m if a * a > n else 0
            for k in range(low + (k0 - low) % step, m + 1, step):
                d = (n + m * k) // a
                offs = ((m, k), (k, m)) if k != m else ((m, m),)
                for b, c in offs:
                    rows.append((a, b, c, d))
                    if a != d:
                        rows.append((d, b, c, a))
    return rows
