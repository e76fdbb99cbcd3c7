"""Solution sets S_p: brute-force oracle, fast enumeration, orbits, two squares,
and irreducible-matrix counting."""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt
from typing import Iterator, NamedTuple

from .lattice2d import _reduce_slopes_raw
from .numtheory import _inverses, _require_odd_prime, sqrt_minus_one
from .windmill import Solution, _fast_solution_raw

_BRUTE_LIMIT = 10**6
_WALK_LIMIT = 10**6
_ENUM_LIMIT = 10**4
_COUNT_LIMIT = 10**9
_GRACE_LIMIT = 2**62


class OrbitEntry(NamedTuple):
    """A swap-action orbit: decreasing representative (a >= b, c >= d) and size."""

    rep: Solution
    size: int


class IrreducibleMatrix(NamedTuple):
    """Matrix [[a, b], [c, d]] with a*d - b*c = n and min(a, d) > max(b, c)."""

    a: int
    b: int
    c: int
    d: int
    n: int

    def is_valid(self) -> bool:
        return (
            min(self.a, self.b, self.c, self.d) >= 0
            and self.a * self.d - self.b * self.c == self.n
            and min(self.a, self.d) > max(self.b, self.c)
        )


def _bruteforce_hits(p: int) -> Iterator[tuple[int, int, int, int]]:
    # The rows of S_p with 1 <= c <= d < a <= b, as plain (a, b, c, d), by the
    # congruence search that enumerate_bruteforce describes, for an odd prime
    # p <= _BRUTE_LIMIT.  One inverse serves the mirror pair c, a - c: each
    # (a, c) with c <= a/2 gives at most the row (c, d) and its mirror
    # (a - c, a - d); c = a - c only at a = 2, c = 1, which has no second
    # row.  The checks run at the first step of the generator, before any
    # row is searched.
    _require_odd_prime(p)
    if p > _BRUTE_LIMIT:
        raise ValueError(f"brute-force enumeration is limited to p <= {_BRUTE_LIMIT}")
    for a in range(2, isqrt(p) + 1):
        rest = p - a * a
        pa = p % a
        for c in range(1, min(a // 2, isqrt(rest)) + 1):
            if gcd(c, a) != 1:
                continue
            d = pa * pow(c, -1, a) % a
            if d >= c and c * d <= rest:
                yield a, (p - c * d) // a, c, d
            if d <= c and a - c != c:
                cd = (a - c) * (a - d)
                if cd <= rest:
                    yield a, (p - cd) // a, a - c, a - d


def _bruteforce_rows(p: int) -> set[tuple[int, int, int, int]]:
    # S_p as plain rows: the two c = 0 rows, seeded (a = 1 leaves no c in
    # [1, a - 1]), and the four swap orders of each hit
    rows = {(1, p, 0, 0), (p, 1, 0, 0)}
    for a, b, c, d in _bruteforce_hits(p):
        rows.update(((a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c)))
    return rows


def enumerate_bruteforce(p: int) -> set[Solution]:
    """All of S_p by a direct search over (a, c) that solves for d.

    S_p is closed under the swaps a <-> b and c <-> d, so the search looks
    only for rows with c <= d < a <= b and adds all four orders of each hit.
    Such a row has a*a <= a*b = p - c*d <= p - c*c, so a <= isqrt(p) and
    c <= min(a - 1, isqrt(p - a*a)).  For each such (a, c), a divides
    p - c*d exactly when c*d = p (mod a), and d < a leaves one candidate:
    - for c >= 1, a common factor g > 1 of c and a would divide p = a*b + c*d,
      which is prime and larger than g, so there is no row; otherwise
      d = p * c**-1 (mod a), taken in [0, a);
    - for c = 0 the congruence says a divides p, so a = 1, d = 0 and the row
      is (1, p, 0, 0).
    The candidate is a row when d >= c and a*a <= p - c*d, with
    b = (p - c*d) / a.  Since (a - c)*(a - d) = c*d (mod a), the inverse for
    c also gives the candidate a - d for a - c, a row when d <= c and
    (a - c)*(a - d) <= p - a*a; so only c <= a/2 is visited.  That is about
    (p/2)*atan(1/2) ~ 0.23*p pairs instead of pi*p/8 ~ 0.39*p: at p = 99991,
    23093 pairs and 14095 modular inverses for 12666 hits, about 1.1
    inverses a hit, and no trial division.

    Independent of the lattice machinery; the oracle side of the dual route.
    """
    return {Solution(a, b, c, d, p) for a, b, c, d in _bruteforce_rows(p)}


def _walk_rows(p: int) -> Iterator[tuple[int, int, int, int]]:
    # All of S_p as plain (a, b, c, d) rows: the two degenerate rows, then one
    # row per slope pair {mu, p - mu} from the per-slope kernel.  The swap
    # (x, y) -> (y, x) maps the lattice of slope mu onto that of 1/mu and keeps
    # a reduced basis reduced, so one Lagrange reduction serves each class
    # {+-mu, +-1/mu}: it is done at the least member mu in [2, (p-1)/2], and
    # the partner pair gets the swapped basis.  The partner is read off the
    # class's first row: (-d, b) lies in the lattice of mu or p - mu, so
    # +-mu = +-d/b and the partner pair is +-b/d; d*d < a*b < p, so the
    # inverses of 1..isqrt(p) are all the walk needs.  A class is its own
    # partner only when mu*mu = -1 (mod p), and its row is the fixed point
    # a == b, c == d.  The slopes are read lazily off `todo` in increasing
    # order, so each class is met first at its least member and its partner
    # is cleared ahead of the reader: lattice2d pulls the next slope only
    # after this loop has handled the previous row, and reduces each slope
    # from the previous one's reduced basis.  The limit is checked at the
    # first row, before any slope is walked.
    if p > _WALK_LIMIT:
        raise ValueError(f"the windmill walk is limited to p <= {_WALK_LIMIT}")
    yield p, 1, 0, 0
    yield 1, p, 0, 0
    half = (p - 1) // 2
    inv = _inverses(p, isqrt(p))
    todo = bytearray([1]) * (half + 1)
    todo[0] = todo[1] = 0
    for ax, ay, bx, by in _reduce_slopes_raw(p, compress(range(half + 1), todo)):
        row = _fast_solution_raw(p, ax, ay, bx, by)[1]
        yield row
        a, b, c, d = row
        if a != b or c != d:
            # +-b/d folded into [1, half]
            partner = b * inv[d] % p
            if partner > half:
                partner = p - partner
            todo[partner] = 0
            # the swapped basis spans the lattice of slope exactly 1/mu
            yield _fast_solution_raw(p, ay, ax, by, bx)[1]


def _checked_rows(
    p: int,
) -> tuple[list[tuple[int, int, int, int]], set[tuple[int, int, int, int]]]:
    # S_p as the walk's rows, in walk order, and as their set, for an odd
    # prime p, with the (p+1)/2 count asserted on both, so the rows are
    # distinct and complete: every caller of the walk takes its rows here.
    # The list and the set share their tuples.  The list keeps them in the
    # order they were made, which is close to their order in memory, so
    # sorting it in place is faster than sorting the set.
    _require_odd_prime(p)
    rows = list(_walk_rows(p))
    found = set(rows)
    n = (p + 1) // 2
    assert len(rows) == n, f"p={p}: the walk gave {len(rows)} rows, not {n}"
    assert len(found) == n, f"p={p}: the walk gave {len(found)} distinct rows, not {n}"
    return rows, found


def enumerate_fast(p: int) -> set[Solution]:
    """S_p via the windmill walk, one solution per slope pair {mu, p - mu},
    plus the two degenerate rows (p, 1, 0, 0) and (1, p, 0, 0).

    The walk Lagrange-reduces one lattice per class {+-mu, +-1/mu} and hands
    the partner pair the swapped basis.  It takes the classes by their least
    member in increasing order and reduces each lattice from the previous
    one's reduced basis, sheared onto the new slope, which is nearly reduced;
    the first is sheared from the reduced basis (0, 1), (p, 0) of slope 0.
    Each class's first row (a, b, c, d) names its partner pair +-b/d, with
    d <= isqrt(p), so the walk skips the partner with a table of the inverses
    of 1..isqrt(p) only.  Limited to p <= _WALK_LIMIT.
    """
    return {Solution(a, b, c, d, p) for a, b, c, d in _checked_rows(p)[1]}


def _sorted_orbits(
    rows: list[tuple[int, int, int, int]], found: set[tuple[int, int, int, int]]
) -> list[tuple[tuple[int, int, int, int], int]]:
    # (decreasing representative, size) of each swap orbit of the rows, given
    # sorted descending and as their set `found`; the representatives
    # (a >= b, c >= d) are among the rows, so they come out in the rows'
    # order.  A representative counts only when its other swap members are in
    # the set, and the counted sizes sum to len(rows) exactly when every row's
    # orbit is counted, that is, when the rows are closed under the swaps.
    # Without the lookups the sum would not show it: a lost representative
    # can balance a lost member of another orbit.
    table = []
    for row in rows:
        a, b, c, d = row
        if a < b or c < d:
            continue
        if (b, a, c, d) in found and (a, b, d, c) in found and (b, a, d, c) in found:
            table.append((row, (1 if a == b else 2) * (1 if c == d else 2)))
    if sum(size for _, size in table) != len(rows):
        swaps = {o for a, b, c, d in rows for o in ((b, a, c, d), (a, b, d, c), (b, a, d, c))}
        raise ValueError(f"input not closed under the swap action: missing {sorted(swaps - found)}")
    return table


def vierergruppe_orbits(sols: set[Solution]) -> list[OrbitEntry]:
    """Orbits of the Klein four-group swapping (a, b) and (c, d) independently,
    sorted by descending representative."""
    entries = []
    for p in {sol.p for sol in sols}:
        found = {sol.key for sol in sols if sol.p == p}
        table = _sorted_orbits(sorted(found, reverse=True), found)
        entries += (OrbitEntry(Solution(*rep, p), size) for rep, size in table)
    entries.sort(key=lambda e: e.rep.key, reverse=True)
    return entries


def two_squares_fixed_point(p: int) -> tuple[int, int]:
    """p = a**2 + c**2 with a > c, read off the unique size-1 orbit of S_p.

    Runs the full windmill walk and checks its (p+1)/2 count, so every call
    exercises the whole pipeline.  Limited to p <= _WALK_LIMIT.
    """
    _require_odd_prime(p)
    if p % 4 != 1:
        raise ValueError(f"p = {p} is 3 (mod 4), not a sum of two squares")
    for a, b, c, d in _checked_rows(p)[0]:
        if a == b and c == d:
            return a, c
    raise AssertionError(f"S_{p} has no fixed point")


def two_squares_grace(p: int) -> tuple[int, int]:
    """p = a**2 + b**2 with a >= b >= 1, from a reduced basis of the lattice
    x + i*y = 0 (mod p) where i*i = -1 (mod p).  O(log p)."""
    _require_odd_prime(p)
    if p % 4 != 1:
        raise ValueError(f"p = {p} is 3 (mod 4), not a sum of two squares")
    if p >= _GRACE_LIMIT:
        raise ValueError("p must stay below 2**62")
    i = sqrt_minus_one(p).value
    rx, ry, _, _ = next(_reduce_slopes_raw(p, (i,)))
    a, b = sorted((abs(rx), abs(ry)), reverse=True)
    assert a * a + b * b == p
    return a, b


def irreducible_count(n: int) -> int:
    """Number of irreducible matrices of determinant n, by the divisor sum of
    d + 1 - n/d over divisors d with d*d >= n."""
    if not 1 <= n <= _COUNT_LIMIT:
        raise ValueError(f"n must lie in [1, {_COUNT_LIMIT}]")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            e = n // d  # the cofactor with e*e >= n
            total += e + 1 - d
    return total


def _irreducible_rows(n: int) -> list[tuple[int, int, int, int]]:
    # Every irreducible matrix of determinant n as a plain (a, b, c, d) row, in
    # no particular order, by the congruence search that irreducible_enumerate
    # describes
    if not 1 <= n <= _ENUM_LIMIT:
        raise ValueError(f"enumeration is limited to n in [1, {_ENUM_LIMIT}]")
    rows = []
    for m in range((n - 1) // 2 + 1):
        for a in range(m + 1, isqrt(n + m * m) + 1):
            g = gcd(m, a)
            if g == 1:
                # the step a exceeds m, so the least k >= 0 is the only one
                # that can be <= m; it is a row when d = (n + m*k)/a >= a
                k = -n * pow(m, -1, a) % a
                if k > m or m * k < a * a - n:
                    continue
                ks = (k,)
            elif n % g:
                continue
            else:
                step = a // g
                k0 = -(n // g) * pow(m // g, -1, step)
                # least k >= max(0, (a*a - n)/m) with k = k0 (mod step), so
                # that d >= a; a*a <= n whenever m = 0
                low = (a * a - n + m - 1) // m if a * a > n else 0
                ks = range(low + (k0 - low) % step, m + 1, step)
            for k in ks:
                d = (n + m * k) // a
                offs = ((m, k), (k, m)) if k != m else ((m, m),)
                for b, c in offs:
                    rows.append((a, b, c, d))
                    if a != d:
                        rows.append((d, b, c, a))
    return rows


def irreducible_enumerate(n: int) -> list[IrreducibleMatrix]:
    """All irreducible matrices of determinant n, sorted, by a congruence
    search over the off-diagonal.

    Transposing swaps b and c and keeps a matrix irreducible, so the search
    runs over m = max(b, c) and k = min(b, c) and emits both (b, c) = (m, k)
    and (k, m); swapping the diagonal pair keeps it irreducible too, so it
    looks only for a <= d and emits both (a, d) and (d, a).  Then
    m < a <= d and a*d = n + m*k with k <= m, so a <= isqrt(n + m*m), and
    the range of a is empty unless n >= 2m + 1.  For each such a, a divides
    n + m*k exactly when m*k = -n (mod a).  With g = gcd(m, a) that has no
    solution unless g divides n, and otherwise k = -(n/g) * (m/g)**-1
    (mod a/g).  d >= a means m*k >= a*a - n, so k steps by a/g from the
    least such value up to m.  Most pairs are coprime, and then the step a
    exceeds m: the one candidate is k = -n * m**-1 mod a, a row exactly when
    k <= m and m*k >= a*a - n.  At m = 0 that leaves g = a and k = 0: the
    divisor pairs of n.  That is one gcd and at most one modular inverse per
    pair (m, a), instead of trial division for every pair (m, k).
    Independent of the divisor sum in irreducible_count.
    """
    return sorted(IrreducibleMatrix(*row, n) for row in _irreducible_rows(n))
