"""Exact arithmetic over prime fields GF(q).

Only prime orders are supported; the order is capped at MAX_ORDER = 2**31 - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonPrimeOrder, ZeroInverse

# The packed MDS codec sizes its slots from q and k (mds._layout), so the cap
# does not bound the codec.  It keeps GF(q) symbols inside the 64-bit words the
# codec packs and unpacks, and inside the range where _is_prime is exact.
MAX_ORDER = 2**31 - 1


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on bases 2, 3, 5 and 7, exact for every
    n < 3,215,031,751 (above MAX_ORDER)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic context for GF(order), order prime."""

    order: int

    def __post_init__(self):
        if not isinstance(self.order, int) or self.order < 2:
            raise NonPrimeOrder(f"{self.order!r} is not a prime >= 2")
        if self.order > MAX_ORDER:
            raise NonPrimeOrder(f"order {self.order} exceeds the 2**31 - 1 cap")
        if not _is_prime(self.order):
            raise NonPrimeOrder(f"{self.order} is not a prime >= 2")

    def inv(self, a: int) -> int:
        if a % self.order == 0:
            raise ZeroInverse("zero has no multiplicative inverse")
        return pow(a, -1, self.order)

    def __repr__(self) -> str:
        return f"GF({self.order})"
