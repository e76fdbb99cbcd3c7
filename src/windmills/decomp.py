"""Solution sets S_p: brute-force oracle, fast enumeration, orbits, two squares,
and irreducible-matrix counting."""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .lattice2d import _reduce_raw
from .numtheory import _require_odd_prime, sqrt_minus_one
from .windmill import Solution, _fast_solution_raw

_BRUTE_LIMIT = 10**6
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


def enumerate_bruteforce(p: int) -> set[Solution]:
    """All of S_p by direct scan over (c, d) and divisor pairs of p - c*d.

    S_p is closed under the swaps a <-> b and c <-> d, so the scan visits only
    c <= d and adds all four orders of each hit.  Both of a, b must exceed d,
    so a*b = p - c*d > d*d; that bound fails for good once it fails, because
    p - c*d falls and d*d grows with d, and it ends the inner scan.

    Independent of the lattice machinery; the oracle side of the dual route.
    """
    _require_odd_prime(p)
    if p > _BRUTE_LIMIT:
        raise ValueError(f"brute-force enumeration is limited to p <= {_BRUTE_LIMIT}")
    sols = set()
    top = isqrt(p)
    for c in range(top + 1):
        for d in range(c, top + 1):
            r = p - c * d
            if r <= d * d:
                break
            for a in range(d + 1, isqrt(r) + 1):
                if r % a == 0:
                    b = r // a
                    sols.add(Solution(a, b, c, d, p))
                    sols.add(Solution(b, a, c, d, p))
                    sols.add(Solution(a, b, d, c, p))
                    sols.add(Solution(b, a, d, c, p))
    return sols


def enumerate_fast(p: int) -> set[Solution]:
    """S_p via the windmill walk, one solution per slope pair {mu, p - mu},
    plus the two degenerate rows (p, 1, 0, 0) and (1, p, 0, 0)."""
    _require_odd_prime(p)
    sols = {Solution(p, 1, 0, 0, p), Solution(1, p, 0, 0, p)}
    for mu in range(2, (p + 1) // 2):
        a, b, c, d = _fast_solution_raw(p, mu)[1]
        sols.add(Solution(a, b, c, d, p))
    assert len(sols) == (p + 1) // 2
    return sols


def vierergruppe_orbits(sols: set[Solution]) -> list[OrbitEntry]:
    """Orbits of the Klein four-group swapping (a, b) and (c, d) independently,
    sorted by descending representative."""
    entries = []
    seen: set[Solution] = set()
    for sol in sols:
        if sol in seen:
            continue
        a, b, c, d, p = sol
        orbit = {
            Solution(a, b, c, d, p),
            Solution(b, a, c, d, p),
            Solution(a, b, d, c, p),
            Solution(b, a, d, c, p),
        }
        missing = orbit - sols
        if missing:
            raise ValueError(f"input not closed under the swap action: missing {sorted(missing)}")
        seen |= orbit
        rep = Solution(max(a, b), min(a, b), max(c, d), min(c, d), p)
        entries.append(OrbitEntry(rep, len(orbit)))
    entries.sort(key=lambda e: e.rep.key, reverse=True)
    return entries


def two_squares_fixed_point(p: int) -> tuple[int, int]:
    """p = a**2 + c**2 with a > c, read off the unique size-1 orbit of S_p.

    Runs the full fast enumeration, so every call exercises the whole pipeline.
    """
    _require_odd_prime(p)
    if p % 4 != 1:
        raise ValueError(f"p = {p} is 3 (mod 4), not a sum of two squares")
    for sol in enumerate_fast(p):
        if sol.a == sol.b and sol.c == sol.d:
            return sol.a, sol.c
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
    rx, ry, _, _ = _reduce_raw(p, 0, -i, 1)
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


def irreducible_enumerate(n: int) -> list[IrreducibleMatrix]:
    """All irreducible matrices of determinant n, scanning the off-diagonal and
    splitting n + b*c into diagonal divisor pairs.

    Transposing swaps b and c and keeps a matrix irreducible, so the scan runs
    over m = max(b, c) and k = min(b, c) and emits both (b, c) = (m, k) and
    (k, m).  Both of a, d must exceed m, so a*d = n + m*k > m*m: k starts at
    the least value meeting that bound.  The scan over m ends at (n - 1)//2,
    since a*d = n + m*k >= (m + 1)**2 with k <= m needs n >= 2m + 1.
    """
    if not 1 <= n <= _ENUM_LIMIT:
        raise ValueError(f"enumeration is limited to n in [1, {_ENUM_LIMIT}]")
    out = []
    for m in range((n - 1) // 2 + 1):
        k_low = max(0, (m * m - n) // m + 1) if m else 0
        for k in range(k_low, m + 1):
            offs = ((m, k), (k, m)) if k != m else ((m, m),)
            r = n + m * k
            for a in range(m + 1, isqrt(r) + 1):
                if r % a == 0:
                    d = r // a
                    for b, c in offs:
                        out.append(IrreducibleMatrix(a, b, c, d, n))
                        if a != d:
                            out.append(IrreducibleMatrix(d, b, c, a, n))
    out.sort()
    return out
