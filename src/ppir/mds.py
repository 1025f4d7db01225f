"""The systematic [n, k] Reed-Solomon code over GF(q): construction, encoding, erasure decoding.

Every session uses one code: the systematic Reed-Solomon code on the
evaluation points 0, 1, ..., n-1.  Row i of its generator is the degree-(k-1)
Lagrange basis polynomial l_i through the i-th systematic point, evaluated at
all n points, so the generator equals V_k^-1 V, where V is the k x n
Vandermonde matrix with rows x^e mod q and V_k its first k columns.  Every
k-column minor of V_k^-1 V is a nonzero Vandermonde minor over det V_k, so the
code is MDS for every n <= q.  Both matrices the codec needs are Lagrange
matrices in closed form (_lagrange): the generator is the basis on the points
0..k-1 evaluated at 0..n-1, its parity block the values at k..n-1, and the
inverse of the columns at any k distinct positions is the basis on their
points evaluated at 0..k-1, which interpolates the message from them.
Erasure decoding recovers the message from any k codeword positions this way;
no error correction is attempted.

The codec works on blocks of L symbol positions at once.  parity_block
multiplies a k x L message block by the k x (n - k) parity columns only, and
decode_block inverts the known columns once (cached) and applies that inverse
to the k x L block of known rows.  encode and decode_from_positions are their
L = 1 cases.  Both block functions run through _combine, which packs each row
of L symbols into one int with one slot per symbol (Kronecker substitution),
so an output row costs k big-int multiply-adds and a packed Barrett reduction
of all L slots at once, a fixed handful of big-int operations at C speed with
no Python arithmetic per symbol.  The slot width is sized from q and k so that
no slot sum and no Barrett product carries into the next slot: 64 bits for
the bundled fixtures' q <= 13, 128 bits at q = 2**31 - 1 for every k < 2**17,
and wider only for larger k.  Any int symbol is accepted and counts as its residue mod q.

Codeword positions, like every index in this package, are 1-based.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from struct import Struct, error as StructError

from .errors import BadDimensions, FieldTooSmall, LengthMismatch
from .field import PrimeField


@dataclass(frozen=True)
class Generator:
    """The systematic [n, k] Reed-Solomon code on the points 0..n-1 over GF(q).

    Immutable and hashable by (field, n, k), which fix it; rows, its k x n
    generator matrix, is derived from them.
    """

    field: PrimeField
    n: int
    k: int
    rows: tuple[tuple[int, ...], ...] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1 or self.k >= self.n:
            raise BadDimensions(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        if self.n > self.field.order:
            raise FieldTooSmall(f"length {self.n} exceeds field order {self.field.order}")
        object.__setattr__(self, "rows", _lagrange(self, range(self.k), self.n))


@lru_cache(maxsize=1024)
def build_systematic_generator(n: int, k: int, field: PrimeField) -> Generator:
    """The systematic Reed-Solomon generator for given (n, k, q); cached."""
    return Generator(field, n, k)


def encode(gen: Generator, message) -> tuple[int, ...]:
    """Codeword message x G; the first k symbols equal the message."""
    parity = parity_block(gen, [(m,) for m in message])
    q = gen.field.order
    return tuple(m % q for m in message) + tuple(row[0] for row in parity)


def decode_from_positions(gen: Generator, positions, values) -> tuple[int, ...]:
    """Recover the message from k known codeword coordinates.

    positions are 1-based codeword indices; values[i] is the symbol observed at
    positions[i].  Any k distinct positions suffice.
    """
    return tuple(row[0] for row in decode_block(gen, positions, [(v,) for v in values]))


def parity_block(gen: Generator, rows) -> tuple[tuple[int, ...], ...]:
    """Parity rows of the k x L message block: (n - k) rows of L symbols.

    rows[i] holds the L symbols of the i-th message; parity row p is
    sum_i G[i][k + p] * rows[i].  The systematic half of the codeword is the
    message itself and is not computed.
    """
    k = gen.k
    if len(rows) != k:
        raise LengthMismatch(f"message length {len(rows)} != k={k}")
    parity_columns = zip(*(row[k:] for row in gen.rows))
    return _combine(parity_columns, rows, gen.field.order)


def decode_block(gen: Generator, positions, rows) -> tuple[tuple[int, ...], ...]:
    """Recover the k x L message block from k known codeword rows.

    positions are 1-based codeword indices; rows[i] holds the L symbols observed
    at positions[i].  The column inverse is taken once and applied to all L
    symbol positions.
    """
    k = gen.k
    pos = list(positions)
    if len(pos) != k or len(set(pos)) != k:
        raise LengthMismatch(f"need exactly k={k} distinct positions, got {pos}")
    if len(rows) != k:
        raise LengthMismatch(f"need k={k} values, got {len(rows)}")
    for p in pos:
        if not 1 <= p <= gen.n:
            raise LengthMismatch(f"position {p} outside [1, {gen.n}]")
    order = sorted(range(k), key=pos.__getitem__)
    inv = _column_inverse(gen, tuple(pos[j] for j in order))
    # message = known x inv(G[:, cols]): message row c mixes the known rows by inv's column c
    return _combine(zip(*inv), [rows[j] for j in order], gen.field.order)


def _combine(coefficients, rows, q: int) -> tuple[tuple[int, ...], ...]:
    """One output row per coefficient vector c: sum_i c[i] * rows[i] mod q.

    Each input row is packed once into one int of L slots (_pack), so an output
    row is k big-int multiply-adds, skipping zero coefficients, then a packed
    Barrett reduction of all L slots by a fixed handful of big-int operations,
    then one unpack.  With b = q.bit_length() and B = 2b + k.bit_length():

    - Coefficients are taken into [0, q) and packed symbols are below 2**b, so
      slot l of the sum holds x = sum_i c[i] * rows[i][l] < k * 2**(2b) <= 2**B.
    - A slot is S = 64 * ceil((2B - b + 1) / 64) bits (_layout).  With
      m = 2**B // q < 2**(B - b + 1), each slot's x * m < 2**(2B - b + 1) fits
      in its slot, so the packed product x * m carries nothing between slots.
    - (x * m) >> B puts floor(x * m / 2**B), which is below 2**(B - b + 1), at
      the bottom of slot l; the bits shifted in from slot l + 1 land from bit
      S - B >= B - b + 1 upwards, by the same inequality, so they lie above
      the B - b + 1 quotient bits that the mask keeps.  Since
      2**B / q - 1 < m <= 2**B / q and x < 2**B, that quotient is floor(x / q)
      or one less.
    - Subtracting quotient * q leaves each slot in [0, 2q).  Adding
      2**(b + 1) - q to every slot sets bit b + 1 exactly in the slots at or
      above q (each sum stays below 2**(b + 2)), and one more subtraction of
      q there leaves x mod q.  Every slot stays non-negative after each
      subtraction, so no subtraction borrows from the next slot.
    """
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise LengthMismatch(f"rows of unequal length {sorted({len(row) for row in rows})}")
    slots, shift, magic, quotients, high, offset, ones = _layout(q, len(rows), width)
    packed = [_pack(row, q, slots, high) for row in rows]
    bits = q.bit_length() + 1
    out = []
    for coeffs in coefficients:
        x = 0
        for c, p in zip(coeffs, packed):
            c %= q  # a caller's coefficient may lie outside [0, q)
            if c:
                x += c * p
        x -= ((x * magic >> shift) & quotients) * q
        x -= (((x + offset) >> bits) & ones) * q
        out.append(slots.unpack(x.to_bytes(slots.size, "little")))
    return tuple(out)


@lru_cache(maxsize=64)
def _layout(q: int, k: int, width: int):
    """Slot layout and masks for sums of k products mod q over rows of `width` symbols.

    Returns (slots, B, 2**B // q, quotients, high, offset, ones): a Struct that
    packs and unpacks `width` little-endian 64-bit words, one at the bottom of
    each slot of S = 64 * ceil((2B - b + 1) / 64) bits (see _combine), then
    Barrett's shift B and multiplier, and four ints holding one value in every
    slot: a mask of the B - b + 1 quotient bits, a mask of the bits at or above
    b (a symbol that _pack must reduce), 2**(b + 1) - q, and 1.
    """
    b = q.bit_length()
    shift = 2 * b + k.bit_length()
    slot_bytes = 8 * -(-(2 * shift - b + 1) // 64)

    def repeat(value):
        return int.from_bytes(value.to_bytes(slot_bytes, "little") * width, "little")

    return (
        Struct("<" + f"Q{slot_bytes - 8}x" * width),
        shift,
        (1 << shift) // q,
        repeat((1 << (shift - b + 1)) - 1),
        repeat((1 << 8 * slot_bytes) - (1 << b)),
        repeat((1 << (b + 1)) - q),
        repeat(1),
    )


def _pack(row, q: int, slots: Struct, high: int) -> int:
    """The row's symbols as one int, one symbol in the low 64 bits of each slot.

    A row with a symbol outside [0, 2**b), b = q.bit_length(), is packed from
    its residues mod q instead (found by struct.error or by the mask `high` of
    the bits at or above b), which leaves every sum of _combine unchanged mod q
    and keeps every packed symbol below 2**b.
    """
    try:
        packed = int.from_bytes(slots.pack(*row), "little")
        if not packed & high:
            return packed
    except StructError:  # a symbol below 0 or at or above 2**64
        pass
    return int.from_bytes(slots.pack(*[m % q for m in row]), "little")


@lru_cache(maxsize=65536)
def _column_inverse(gen: Generator, cols: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Inverse of the k x k submatrix formed by the given 1-based columns.

    Column c holds the basis l_0..l_{k-1} at the point c - 1, so the inverse
    interpolates: it maps the values at the points cols - 1 to the values at
    0..k-1, which are the message.
    """
    return _lagrange(gen, [c - 1 for c in cols], gen.k)


def _lagrange(gen: Generator, points, count: int) -> tuple[tuple[int, ...], ...]:
    """Row j holds l_j(x) for x = 0..count-1, l_j the Lagrange basis polynomial
    on the distinct points, every point and x in 0..n-1.

    Off the points, l_j(x) = P(x) * w_j / (x - p_j) with P(x) = prod_m (x - p_m)
    and w_j = prod_{m != j} 1 / (p_j - p_m); on them, l_j(p_m) = [m == j], and
    P(p_m) = 0.  Every difference lies in [1 - n, n - 1] and is nonzero mod q
    since n <= q, so one O(n) table of the inverses of 1..n-1 serves them all.
    """
    q = gen.field.order
    inv = [0, 1]
    for i in range(2, gen.n):
        inv.append((q - q // i) * inv[q % i] % q)
    inv += [q - v for v in reversed(inv[1:])]  # inv[-d] is the inverse of -d
    points = list(points)
    on_points = set(points)
    at = [0 if x in on_points else _prod_mod((x - p for p in points), q) for x in range(count)]
    rows = []
    for p in points:
        w = _prod_mod((inv[p - m] for m in points if m != p), q)
        row = [a * w * inv[x - p] % q for x, a in enumerate(at)]
        if p < count:
            row[p] = 1
        rows.append(tuple(row))
    return tuple(rows)


def _prod_mod(values, q: int) -> int:
    """The product of values mod q, reduced at every step."""
    out = 1
    for v in values:
        out = out * v % q
    return out
