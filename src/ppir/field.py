"""Exact arithmetic over prime fields GF(q).

Only prime orders are supported; the order is capped at 2**31 - 1 so that
products of canonical representatives stay below 2**62.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonPrimeOrder, ZeroInverse

# The cap bounds the slot width of the packed MDS codec: a sum of k < q products
# below 2**62 stays below 2**93, inside one 128-bit slot of mds._combine.
# Raising the cap means re-deriving that bound.
MAX_ORDER = 2**31 - 1


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
