import itertools
import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from ppir import mds
from ppir.errors import BadDimensions, FieldTooSmall, LengthMismatch, NonPrimeOrder
from ppir.field import MAX_ORDER, PrimeField
from ppir.mds import (
    build_systematic_generator,
    decode_block,
    decode_from_positions,
    encode,
    parity_block,
)
from ppir.selftest import (
    GOLDEN_CODEWORD_1,
    GOLDEN_CODEWORD_2,
    GOLDEN_MATRIX,
    GOLDEN_MESSAGE_1,
    GOLDEN_MESSAGE_2,
    WIDE_MESSAGE,
    WIDE_ORDER,
    WIDE_POSITIONS,
)

STANDARD_SHAPES = [(4, 2, 5), (6, 3, 7), (8, 5, 11), (10, 6, 11), (12, 7, 13)]
SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


@pytest.fixture(scope="module")
def golden():
    gen = build_systematic_generator(8, 5, PrimeField(11))
    assert gen.rows == GOLDEN_MATRIX
    return gen


def _gauss_jordan_inverse(matrix, q):
    """Inverse of a square matrix mod q by Gauss-Jordan elimination; None when it is singular."""
    k = len(matrix)
    a = [[v % q for v in row] + [int(r == c) for c in range(k)] for r, row in enumerate(matrix)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        scale = pow(a[col][col], -1, q)
        a[col] = [v * scale % q for v in a[col]]
        for r in range(k):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [(v - factor * w) % q for v, w in zip(a[r], a[col])]
    return tuple(tuple(row[k:]) for row in a)


def _reference_generator(n, k, q):
    """V_k^-1 V by Gauss-Jordan, V the k x n Vandermonde matrix on the points 0..n-1."""
    v = [[pow(x, e, q) for x in range(n)] for e in range(k)]
    inverse = _gauss_jordan_inverse([row[:k] for row in v], q)
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) % q for col in zip(*v)) for row in inverse)


def _reference_inverse(gen, cols):
    return _gauss_jordan_inverse([[row[c - 1] for c in cols] for row in gen.rows], gen.field.order)


class TestConstruction:
    @pytest.mark.parametrize("n,k,q", STANDARD_SHAPES)
    def test_default_construction_is_systematic_mds(self, n, k, q):
        gen = build_systematic_generator(n, k, PrimeField(q))
        for i in range(k):
            assert gen.rows[i][:k] == tuple(1 if j == i else 0 for j in range(k))
        for cols in itertools.combinations(range(1, n + 1), k):
            assert _reference_inverse(gen, cols) is not None, cols

    @pytest.mark.parametrize("n,k,q", STANDARD_SHAPES)
    def test_deterministic(self, n, k, q):
        f = PrimeField(q)
        assert build_systematic_generator(n, k, f) == build_systematic_generator(n, k, f)

    def test_single_parity_is_nonzero(self):
        gen = build_systematic_generator(2, 1, PrimeField(7))
        assert gen.rows[0][0] == 1 and gen.rows[0][1] != 0

    def test_length_beyond_field_rejected(self):
        with pytest.raises(FieldTooSmall):
            build_systematic_generator(12, 11, PrimeField(11))

    @pytest.mark.parametrize("n,k", [(3, 3), (3, 4), (3, 0)])
    def test_bad_dimensions(self, n, k):
        with pytest.raises(BadDimensions):
            build_systematic_generator(n, k, PrimeField(11))

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 101, MAX_ORDER])
    def test_default_code_is_reed_solomon_on_0_to_n_minus_1(self, q):
        # Row i must be the Lagrange basis polynomial l_i(x) = prod_{j != i} (x - j) / (i - j)
        # over the systematic points 0..k-1, evaluated at x = 0..n-1.
        field = PrimeField(q)
        for n in range(2, min(q, 16) + 1):
            for k in range(1, n):
                expected = tuple(
                    tuple(
                        prod(x - j for j in range(k) if j != i)
                        * pow(prod(i - j for j in range(k) if j != i), -1, q)
                        % q
                        for x in range(n)
                    )
                    for i in range(k)
                )
                assert build_systematic_generator(n, k, field).rows == expected, (n, k)


class TestClosedForm:
    """The closed-form generator and column inverses against Gauss-Jordan."""

    @pytest.mark.parametrize("q", SMALL_PRIMES + [17, 19, 23])
    def test_generator_matches_gauss_jordan(self, q):
        field = PrimeField(q)
        for n in range(2, q + 1):
            for k in range(1, n):
                assert build_systematic_generator(n, k, field).rows == _reference_generator(n, k, q), (n, k)

    @pytest.mark.parametrize("q", SMALL_PRIMES)
    def test_every_column_inverse_matches_gauss_jordan(self, q):
        field = PrimeField(q)
        for n in range(2, q + 1):
            for k in range(1, n):
                gen = build_systematic_generator(n, k, field)
                for cols in itertools.combinations(range(1, n + 1), k):
                    assert mds._column_inverse(gen, cols) == _reference_inverse(gen, cols), (n, k, cols)

    @pytest.mark.parametrize("k,d", [(30, 5), (60, 0), (120, 10)])
    def test_decoder_inverses_match_gauss_jordan(self, k, d):
        # A session's decoder set: d known systematic positions, then every parity.
        gen = build_systematic_generator(2 * k - d, k, PrimeField(MAX_ORDER))
        rng = random.Random(k)
        for _ in range(2):
            cols = tuple(sorted(rng.sample(range(1, k + 1), d))) + tuple(range(k + 1, gen.n + 1))
            assert mds._column_inverse(gen, cols) == _reference_inverse(gen, cols)


class TestEncode:
    def test_golden_rows(self, golden):
        assert encode(golden, GOLDEN_MESSAGE_1) == GOLDEN_CODEWORD_1
        assert encode(golden, GOLDEN_MESSAGE_2) == GOLDEN_CODEWORD_2

    def test_zero_message(self, golden):
        assert encode(golden, (0,) * 5) == (0,) * 8

    def test_systematic_prefix(self, golden):
        rng = random.Random(1)
        for _ in range(20):
            m = tuple(rng.randrange(11) for _ in range(5))
            assert encode(golden, m)[:5] == m

    def test_length_mismatch(self, golden):
        with pytest.raises(LengthMismatch):
            encode(golden, (1, 2, 3))


class TestDecode:
    def test_golden_mixed_positions(self, golden):
        got = decode_from_positions(golden, (1, 2, 6, 7, 8), (0, 1, 10, 8, 10))
        assert got == GOLDEN_MESSAGE_1

    def test_systematic_positions_identity(self, golden):
        m = (3, 1, 4, 1, 5)
        values = encode(golden, m)[:5]
        assert decode_from_positions(golden, (1, 2, 3, 4, 5), values) == m

    def test_parity_tail(self, golden):
        positions = (4, 5, 6, 7, 8)
        values = tuple(GOLDEN_CODEWORD_2[p - 1] for p in positions)
        assert decode_from_positions(golden, positions, values) == GOLDEN_MESSAGE_2

    def test_position_value_alignment_is_pairwise(self, golden):
        # Shuffled positions with matching value order must decode identically.
        assert decode_from_positions(golden, (7, 1, 8, 2, 6), (8, 0, 10, 1, 10)) == GOLDEN_MESSAGE_1

    @pytest.mark.parametrize("positions", [(1, 2, 3), (1, 1, 2, 3, 4), (0, 1, 2, 3, 4)])
    def test_bad_positions(self, golden, positions):
        with pytest.raises(LengthMismatch):
            decode_from_positions(golden, positions, (0,) * len(set(positions)))


@pytest.mark.parametrize("n,k,q", [(6, 3, 7), (8, 5, 11)])
def test_round_trip_every_position_subset(n, k, q):
    gen = build_systematic_generator(n, k, PrimeField(q))
    rng = random.Random(q)
    messages = [tuple(rng.randrange(q) for _ in range(k)) for _ in range(10)]
    for positions in itertools.combinations(range(1, n + 1), k):
        for m in messages:
            cw = encode(gen, m)
            values = tuple(cw[p - 1] for p in positions)
            assert decode_from_positions(gen, positions, values) == m


def _prime_at_most(x):
    while True:
        try:
            return PrimeField(x)
        except NonPrimeOrder:
            x -= 1


@st.composite
def block_cases(draw):
    q_cap = draw(st.sampled_from([2, 3, 13, 257, 65_537, MAX_ORDER]))
    field = _prime_at_most(draw(st.integers(2, q_cap)))
    n = draw(st.integers(2, min(field.order, 9)))
    k = draw(st.integers(1, n - 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    gen = build_systematic_generator(n, k, field)
    length = draw(st.integers(1, 16))
    message = [tuple(rng.randrange(field.order) for _ in range(length)) for _ in range(k)]
    positions = rng.sample(range(1, n + 1), k)
    return gen, message, positions, rng


@settings(max_examples=80, deadline=None)
@given(block_cases())
def test_block_codec_matches_symbolwise_codec(case):
    gen, message, positions, rng = case
    k = gen.k
    columns = list(zip(*message))
    codewords = [encode(gen, col) for col in columns]
    parity = parity_block(gen, message)
    assert parity == tuple(zip(*(cw[k:] for cw in codewords)))

    codeword_rows = list(message) + list(parity)
    known = [codeword_rows[p - 1] for p in positions]
    assert decode_block(gen, positions, known) == tuple(message)
    symbolwise = [decode_from_positions(gen, positions, [row[ell] for row in known]) for ell in range(len(columns))]
    assert decode_block(gen, positions, known) == tuple(zip(*symbolwise))

    # The order positions come in does not matter, only that rows follow them.
    order = list(range(k))
    rng.shuffle(order)
    assert decode_block(gen, [positions[j] for j in order], [known[j] for j in order]) == tuple(message)


@settings(max_examples=40, deadline=None)
@given(block_cases(), st.data())
def test_block_decoder_rejects_bad_positions_like_symbolwise(case, data):
    gen, message, positions, _ = case
    k, n = gen.k, gen.n
    outside = data.draw(st.sampled_from([0, -1, n + 1]))
    spare = [p for p in range(1, n + 1) if p not in positions]
    extra = positions + spare[:1]
    cases = [
        (positions[:-1] + [outside], f"position {outside} outside [1, {n}]"),
        (extra, f"need exactly k={k} distinct positions, got {extra}"),
    ]
    if k > 1:
        repeated = positions[:-1] + positions[:1]
        cases.append((repeated, f"need exactly k={k} distinct positions, got {repeated}"))
    for pos, text in cases:
        rows = [message[0]] * len(pos)
        for decode, values in ((decode_block, rows), (decode_from_positions, [r[0] for r in rows])):
            with pytest.raises(LengthMismatch) as err:
                decode(gen, pos, values)
            assert str(err.value) == text
    with pytest.raises(LengthMismatch) as err:
        decode_block(gen, positions, message[:-1])
    assert str(err.value) == f"need k={k} values, got {k - 1}"


def _reference_combine(columns, rows, q):
    """sum_i c[i] * rows[i][l] mod q for each coefficient column c, one symbol at a time with plain ints."""
    return tuple(
        tuple(sum(c[i] * row[ell] for i, row in enumerate(rows)) % q for ell in range(len(rows[0]))) for c in columns
    )


def _reference_parity(gen, rows):
    """The parity rows by the formula: sum_i G[i][k + p] * rows[i][l] mod q."""
    return _reference_combine(list(zip(*(row[gen.k :] for row in gen.rows))), rows, gen.field.order)


def _assert_combines(columns, rows, q):
    """mds._combine, the body of parity_block and decode_block, against the formula."""
    got = mds._combine(columns, rows, q)
    assert got == _reference_combine(columns, rows, q)
    assert all(0 <= v < q for row in got for v in row)
    return got


ORACLE_LENGTHS = [1, 2, 7, 513]


class TestOracle:
    """parity_block and decode_block against the formula itself, not against each other."""

    @pytest.mark.parametrize("length", ORACLE_LENGTHS)
    @pytest.mark.parametrize("k", [1, 2, 8, 40])
    def test_worst_case_parity(self, k, length):
        # Every coefficient and symbol is q - 1: a slot sum of k (q - 1)^2 needs
        # more than 64 bits from k = 5 on.
        q = MAX_ORDER
        _assert_combines([[q - 1] * k] * 3, [(q - 1,) * length] * k, q)

    @pytest.mark.parametrize("length", ORACLE_LENGTHS)
    @pytest.mark.parametrize("k", [1, 2, 8, 40])
    def test_worst_case_decode(self, k, length):
        # The [k + 1, k] code without position 1: its inverse, applied to rows of q - 1.
        q = MAX_ORDER
        gen = build_systematic_generator(k + 1, k, PrimeField(q))
        positions = list(range(2, k + 2))
        known = [(q - 1,) * length] * k
        decoded = decode_block(gen, positions, known)
        codeword = list(decoded) + list(_reference_parity(gen, decoded))
        assert [codeword[p - 1] for p in positions] == known
        assert all(0 <= v < q for row in decoded for v in row)

    @pytest.mark.parametrize("length", ORACLE_LENGTHS)
    def test_random_blocks(self, length):
        rng = random.Random(length)
        q = MAX_ORDER
        gen = build_systematic_generator(12, 7, PrimeField(q))
        message = [tuple(rng.randrange(q) for _ in range(length)) for _ in range(gen.k)]
        parity = parity_block(gen, message)
        assert parity == _reference_parity(gen, message)
        codeword = message + list(parity)
        positions = rng.sample(range(1, gen.n + 1), gen.k)
        assert decode_block(gen, positions, [codeword[p - 1] for p in positions]) == tuple(message)

    @pytest.mark.parametrize("length", ORACLE_LENGTHS)
    def test_zero_coefficients(self, length):
        q = MAX_ORDER
        columns = [[0] * 6, [q - 1, 0, 0, q - 1, 0, 1], [0, 0, 0, 0, 0, q - 1]]
        rng = random.Random(length)
        message = [tuple(rng.choice((0, 1, q - 1)) for _ in range(length)) for _ in range(6)]
        assert _assert_combines(columns, message, q)[0] == (0,) * length

    @pytest.mark.parametrize("length", ORACLE_LENGTHS)
    def test_all_zero_block(self, length):
        gen = build_systematic_generator(9, 5, PrimeField(MAX_ORDER))
        zeros = [(0,) * length] * 5
        assert parity_block(gen, zeros) == ((0,) * length,) * 4
        assert decode_block(gen, [9, 2, 7, 5, 6], zeros) == tuple(zeros)


class TestAnyIntSymbol:
    """Every int symbol counts as its residue mod q; none raises a bare OverflowError."""

    @pytest.mark.parametrize("symbol", [-11, -1, -(2**70), 11, 2**64, 2**64 + 3, 2**100])
    def test_encode_reduces(self, golden, symbol):
        message = (symbol, 1, 9, 6, 8)
        assert encode(golden, message) == encode(golden, (symbol % 11, 1, 9, 6, 8))

    def test_encode_published_example(self, golden):
        assert encode(golden, (-11, 12, 9, 6, 8)) == GOLDEN_CODEWORD_1

    @pytest.mark.parametrize("symbol", [-11, -1, 11, 2**64, 2**100])
    def test_decode_from_positions_reduces(self, golden, symbol):
        values = (symbol, 1, 10, 8, 10)
        expected = decode_from_positions(golden, (1, 2, 6, 7, 8), (symbol % 11, 1, 10, 8, 10))
        assert decode_from_positions(golden, (1, 2, 6, 7, 8), values) == expected

    @pytest.mark.parametrize("symbol", [-1, -(2**64), MAX_ORDER, 2**64 - 1, 2**64, 2**64 + 5, 2**127])
    def test_block_codec_takes_residues(self, symbol):
        q = MAX_ORDER
        columns = [[q - 1] * 4, [1, 2, 3, q - 2]]
        message = [(symbol, 5, q - 1), (q - 1, symbol, 0), (symbol, symbol, symbol), (7, 8, 9)]
        reduced = [tuple(v % q for v in row) for row in message]
        assert mds._combine(columns, message, q) == _reference_combine(columns, reduced, q)
        gen = build_systematic_generator(6, 4, PrimeField(q))
        assert parity_block(gen, message) == _reference_parity(gen, reduced)
        positions = [5, 2, 3, 4]
        decoded = decode_block(gen, positions, message)
        assert decoded == decode_block(gen, positions, reduced)
        assert all(0 <= v < q for row in decoded for v in row)

    def test_unreduced_generator_entries(self):
        # The coefficients _combine takes from a generator or an inverse count
        # as their residues too, wherever they come from.
        q = 11
        _assert_combines([[-1, 12, 2**64], [-(2**70), 0, 2**127]], [(3, 0, 10), (q - 1, 1, 2), (7, 7, 7)], q)


PACKED_FIELDS = [2, 3, 11, 65521, MAX_ORDER]


def _assert_decodes(gen, positions, known):
    """decode_block's message re-encodes, by the formula, to the known rows mod q."""
    q = gen.field.order
    decoded = decode_block(gen, positions, known)
    assert all(0 <= v < q for row in decoded for v in row)
    codeword = list(decoded) + list(_reference_parity(gen, decoded))
    assert [codeword[p - 1] for p in positions] == [tuple(v % q for v in row) for row in known]


class TestPackedReduction:
    """The packed Barrett reduction against the formula, across slot layouts,
    residue inputs and both outcomes of its final conditional subtraction."""

    @pytest.mark.parametrize("length", [1, 5, 64])
    @pytest.mark.parametrize("q", PACKED_FIELDS)
    def test_symbols_outside_canonical_range(self, q, length):
        # Rows of [q, 2**b) symbols fit the 64-bit words but not the slot bound;
        # rows beyond 2**64 or below 0 do not fit the words at all.
        b = q.bit_length()
        rng = random.Random(q + length)
        draws = {
            "canonical": lambda: rng.randrange(q),
            "below_2_b": lambda: rng.choice((rng.randrange(q), rng.randrange(q, 1 << b))),
            "below_2_64": lambda: rng.randrange(q, 1 << 64),
            "beyond_2_64": lambda: rng.randrange(1 << 64, 1 << 130),
            "negative": lambda: rng.randrange(-(1 << 70), 0),
        }
        k = len(draws)
        message = [tuple(draw() for _ in range(length)) for draw in draws.values()]
        message[1] = (rng.randrange(q, 1 << b),) + message[1][1:]  # at least one symbol in [q, 2**b)
        _assert_combines([[q - 1] * k, [rng.randrange(q) for _ in range(k)], [0] * k], message, q)
        # The largest default code GF(q) allows, up to [8, 5], decoding its
        # first and its last rows from one parity and from every parity.
        gen = build_systematic_generator(min(q, k + 3), min(k, q - 1), PrimeField(q))
        for known in (message[: gen.k], message[-gen.k :]):
            _assert_decodes(gen, [gen.n] + list(range(1, gen.k)), known)
            _assert_decodes(gen, list(range(gen.n - gen.k + 1, gen.n + 1)), known)

    @pytest.mark.parametrize("q", [3, 11, 65521, MAX_ORDER])
    def test_sums_on_either_side_of_a_multiple_of_q(self, q):
        # Slot l of the parity sums to c * (q t + d) for a column of all-c
        # coefficients.  Barrett's quotient floor(x * (2**B // q) / 2**B) falls
        # one short at every nonzero multiple of q but not at every sum beside
        # one, so the final subtraction of q both runs and is skipped.  (At
        # q = 2 the multiplier 2**B // q is exact and never falls short.)
        k = 8
        targets = [q * t + d for t in range(1, k) for d in (-1, 0, 1) if q * t + d <= k * (q - 1)]
        columns = []
        for target in targets:
            column = []
            for _ in range(k):
                column.append(min(q - 1, target - sum(column)))
            columns.append(column)
        message = [tuple(column[i] for column in columns) for i in range(k)]
        b = q.bit_length()
        shift = 2 * b + k.bit_length()
        sums = [c * t for c in (1, q - 1) for t in targets]
        short = [x * ((1 << shift) // q) >> shift < x // q for x in sums]
        assert all(is_short for is_short, x in zip(short, sums) if x % q == 0) and not all(short)
        _assert_combines([[1] * k, [q - 1] * k], message, q)
        gen = build_systematic_generator(min(q, k + 2), min(k, q - 1), PrimeField(q))
        _assert_decodes(gen, list(range(gen.n - gen.k + 1, gen.n + 1)), message[: gen.k])

    @pytest.mark.parametrize("q,k", [(393_241, 4), (98_317, 32)])
    def test_slot_with_no_spare_bit(self, q, k):
        # Here 2B - b + 1 is exactly one 64-bit slot, so the bits shifted in
        # from the next slot start right above the B - b + 1 quotient bits: a
        # mask one bit wider would take the neighbour's lowest bit.  That bit
        # is x * (2**B // q)'s lowest, which is never set when the multiplier
        # is even (as at 2**19 - 1 or 2**16 + 1), so these primes make it odd.
        b = q.bit_length()
        shift = 2 * b + k.bit_length()
        assert 2 * shift - b + 1 == 64 and (1 << shift) // q % 2 == 1
        rng = random.Random(q)
        message = [tuple(rng.randrange(q) for _ in range(8)) for _ in range(k)]
        _assert_combines([[q - 1] * k, [rng.randrange(q) for _ in range(k)]], message, q)
        gen = build_systematic_generator(k + 3, k, PrimeField(q))
        _assert_decodes(gen, list(range(4, k + 4)), message)

    @pytest.mark.parametrize("symbol", ["worst", "random"])
    @pytest.mark.parametrize("q", [MAX_ORDER, 1_610_612_741])
    def test_slot_wider_than_128_bits(self, q, symbol):
        # k = 2**17 at a 31-bit q needs 2B - b + 1 = 131 bits per slot; two
        # symbol positions, so that a slot has a neighbour to carry into.  Near
        # 2**31 the Barrett multiplier 2**80 // q ends in about 18 zero bits
        # (2**49 + 2**18 at q = 2**31 - 1), which would hide a slot one word
        # short; at the prime 1,610,612,741, about 1.5 * 2**30, it does not.
        k = 2**17
        rng = random.Random(k)
        draw = (lambda: q - 1) if symbol == "worst" else (lambda: rng.randrange(q))
        coefficients = [draw() for _ in range(k)]
        message = [(draw(), draw()) for _ in range(k)]
        _assert_combines([coefficients], message, q)


def test_selftest_wide_decode_needs_65_bit_slot_sums():
    # The selftest's wide_decode_block checks the packed codec's worst case only
    # while a slot sum of its decode spans both 64-bit words of the slot.
    gen = build_systematic_generator(len(WIDE_MESSAGE) + 3, len(WIDE_MESSAGE), PrimeField(WIDE_ORDER))
    inverse = mds._column_inverse(gen, WIDE_POSITIONS)
    symbol = WIDE_MESSAGE[0][0]  # every known symbol, parities included, is q - 1
    sums = [sum(row[r] * symbol for row in inverse) for r in range(gen.k)]
    assert max(x.bit_length() for x in sums) == 65
