"""Modular arithmetic kernels: primality, quadratic residues, square roots of -1."""

from __future__ import annotations

from dataclasses import dataclass

# Witnesses proving deterministic Miller-Rabin for all n < 3_317_044_064_679_887_385_961_981,
# which comfortably covers the unsigned 64-bit range accepted by is_prime.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

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
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
