"""Modular arithmetic kernels: primality, quadratic residues, square roots of -1."""

from __future__ import annotations

from dataclasses import dataclass

# The first twelve prime bases, and psi_k: the least odd composite that
# passes strong-probable-prime tests to each of the first k of them (OEIS
# A014233; Jaeschke 1993, Math. Comp. 61, for k <= 8; Jiang and Deng 2014,
# Math. Comp. 83, for k <= 11; Sorenson and Webster 2017, Math. Comp. 86, for
# k = 12).  The first k rounds of Miller-Rabin decide every n < psi_k, so the
# twelve rounds are deterministic below psi_12 = 318_665_857_834_031_151_167_461,
# which covers the unsigned 64-bit range accepted by is_prime.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
)

_WILSON_LIMIT = 100_000


@dataclass(frozen=True)
class Residue:
    """An integer reduced modulo a fixed modulus."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise ValueError(f"value {self.value} not in [0, {self.modulus})")


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if not 0 <= n < 2**64:
        raise ValueError("is_prime accepts 0 <= n < 2**64")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = ((d & -d).bit_length()) - 1
    d >>= r
    # one round per base, stopping once the bases so far decide n
    for a, psi in zip(_MR_WITNESSES, _MR_PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(r - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True


def _require_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")


def _inverses(p: int, n: int) -> list[int]:
    # [0, 1/1, 1/2, ..., 1/n] modulo the prime p, for n < p, in O(1) per
    # entry: p = q*m + r gives q*m = -r, so 1/m = -q/r, and r < m is already
    # in the table
    inv = [0, 1]
    for m in range(2, n + 1):
        q, r = divmod(p, m)
        inv.append(-q * inv[r] % p)
    return inv


def smallest_nonresidue(p: int) -> Residue:
    """The least n >= 2 that is not a square modulo the odd prime p."""
    _require_odd_prime(p)
    e = (p - 1) // 2
    n = 2
    while pow(n, e, p) != p - 1:
        n += 1
    return Residue(n, p)


def sqrt_minus_one(p: int) -> Residue:
    """A square root of -1 modulo p = 1 (mod 4), canonicalized into [1, (p-1)/2].

    Raises a nonresidue to the power (p-1)/4, which yields a primitive fourth
    root of unity.
    """
    _require_odd_prime(p)
    if p % 4 != 1:
        raise ValueError(f"p = {p} is 3 (mod 4): -1 has no square root")
    n = smallest_nonresidue(p).value
    i = pow(n, (p - 1) // 4, p)
    i = min(i, p - i)
    assert i * i % p == p - 1
    return Residue(i, p)


def wilson_sqrt_minus_one_oracle(p: int) -> Residue:
    """((p-1)/2)! mod p, canonicalized; O(p) factorial reference for sqrt_minus_one."""
    _require_odd_prime(p)
    if p % 4 != 1:
        raise ValueError(f"p = {p} is 3 (mod 4): -1 has no square root")
    if p > _WILSON_LIMIT:
        raise ValueError(f"factorial oracle is limited to p <= {_WILSON_LIMIT}")
    f = 1
    for k in range(2, (p - 1) // 2 + 1):
        f = f * k % p
    return Residue(min(f, p - f), p)
