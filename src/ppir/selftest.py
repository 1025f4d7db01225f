"""Embedded golden checks: the worked code, its parities, the packed codec at
its worst case, and all rate numbers.

Everything asserted here is a constant baked into this module, so the selftest
needs no files and catches a corrupted build of any layer it touches.
"""

from __future__ import annotations

from fractions import Fraction

from . import analytics, mds
from .field import PrimeField

# The worked 5-message code over GF(11) and its two encoded rows.
GOLDEN_MATRIX = (
    (1, 0, 0, 0, 0, 1, 5, 4),
    (0, 1, 0, 0, 0, 6, 9, 7),
    (0, 0, 1, 0, 0, 10, 1, 5),
    (0, 0, 0, 1, 0, 1, 4, 5),
    (0, 0, 0, 0, 1, 5, 4, 2),
)
GOLDEN_MESSAGE_1 = (0, 1, 9, 6, 8)
GOLDEN_CODEWORD_1 = (0, 1, 9, 6, 8, 10, 8, 10)
GOLDEN_MESSAGE_2 = (1, 7, 4, 1, 3)
GOLDEN_CODEWORD_2 = (1, 7, 4, 1, 3, 0, 0, 7)
GOLDEN_POSITIONS = (1, 2, 6, 7, 8)
GOLDEN_VALUES = (0, 1, 10, 8, 10)

# The packed codec at its worst case: q = 2**31 - 1, every message symbol
# q - 1, k = 8 and L = 3, so a parity sum needs 65 bits and spans both words of
# its slot.  The parity columns form the Cauchy matrix 1 / (i - 8 - j) (i < 8,
# j < 3); the parities are sum_i G[i][8 + j] * (q - 1) mod q, computed symbol
# by symbol with plain ints.
WIDE_ORDER = 2**31 - 1
WIDE_K = 8
WIDE_MESSAGE = ((WIDE_ORDER - 1,) * 3,) * WIDE_K
WIDE_PARITY = ((1357516451,) * 3, (1118907156,) * 3, (1548403885,) * 3)
WIDE_POSITIONS = (4, 5, 6, 7, 8, 9, 10, 11)

# Rate parameters of the three worked scenarios.
FIVE_CLASS = analytics.RateParams(5, 3, (7, 6, 8, 9, 9), ((3, 4, 5, 2, 3),))
SIX_CLASS = analytics.RateParams(6, 3, (9, 9, 10, 6, 7, 8), ((4, 4, 3, 2, 2, 2),))
TWO_USER_SEVEN_CLASS = analytics.RateParams(
    7, 5, (7, 7, 7, 9, 8, 7, 8), ((4, 4, 4, 5, 4, 3, 2), (4, 4, 4, 6, 4, 2, 3))
)
FULLY_IDENTIFIABLE = analytics.RateParams(3, 3, (3, 3, 3), ((1, 1, 1),))


def _generator() -> mds.Generator:
    return mds.generator_from_explicit([list(r) for r in GOLDEN_MATRIX], PrimeField(11))


def _wide_generator() -> mds.Generator:
    field = PrimeField(WIDE_ORDER)
    rows = [
        [1 if j == i else 0 for j in range(WIDE_K)] + [field.inv(i - WIDE_K - j) for j in range(3)]
        for i in range(WIDE_K)
    ]
    return mds.generator_from_explicit(rows, field)


def _check_generator_accepted():
    gen = _generator()
    assert gen.n == 8 and gen.k == 5


def _check_generator_mds():
    assert mds.verify_mds(_generator())


def _check_encode_first_row():
    assert mds.encode(_generator(), GOLDEN_MESSAGE_1) == GOLDEN_CODEWORD_1


def _check_encode_second_row():
    assert mds.encode(_generator(), GOLDEN_MESSAGE_2) == GOLDEN_CODEWORD_2


def _check_decode_mixed_positions():
    got = mds.decode_from_positions(_generator(), GOLDEN_POSITIONS, GOLDEN_VALUES)
    assert got == GOLDEN_MESSAGE_1


def _check_decode_parity_tail():
    positions = (4, 5, 6, 7, 8)
    values = tuple(GOLDEN_CODEWORD_2[p - 1] for p in positions)
    assert mds.decode_from_positions(_generator(), positions, values) == GOLDEN_MESSAGE_2


def _check_wide_parity_block():
    assert mds.parity_block(_wide_generator(), WIDE_MESSAGE) == WIDE_PARITY


def _check_wide_decode_block():
    codeword = WIDE_MESSAGE + WIDE_PARITY
    known = [codeword[p - 1] for p in WIDE_POSITIONS]
    assert mds.decode_block(_wide_generator(), WIDE_POSITIONS, known) == WIDE_MESSAGE


def _check_five_class_rate():
    assert analytics.rate_isi(FIVE_CLASS) == Fraction(1, 12)


def _check_five_class_baseline():
    assert analytics.rate_usi(FIVE_CLASS) == Fraction(1, 16)


def _check_six_class_rate():
    assert analytics.rate_isi(SIX_CLASS) == Fraction(1, 12)


def _check_six_class_baseline():
    assert analytics.rate_usi(SIX_CLASS) == Fraction(1, 23)


def _check_six_class_sparse_condition():
    report = analytics.comparison_conditions(SIX_CLASS)
    assert report.flags[analytics.SPARSE_SIDE_INFORMATION].status == "holds"


def _check_two_user_rate():
    assert analytics.rate_multi(TWO_USER_SEVEN_CLASS) == Fraction(1, 20)


def _check_two_user_naive_rate():
    assert analytics.rate_naive_multi(TWO_USER_SEVEN_CLASS) == Fraction(1, 24)


def _check_fully_identifiable_rate():
    assert analytics.rate_isi(FULLY_IDENTIFIABLE) == Fraction(1, 1)


CHECKS = (
    ("generator_accepted", _check_generator_accepted),
    ("generator_mds", _check_generator_mds),
    ("encode_first_row", _check_encode_first_row),
    ("encode_second_row", _check_encode_second_row),
    ("decode_mixed_positions", _check_decode_mixed_positions),
    ("decode_parity_tail", _check_decode_parity_tail),
    ("wide_parity_block", _check_wide_parity_block),
    ("wide_decode_block", _check_wide_decode_block),
    ("five_class_rate", _check_five_class_rate),
    ("five_class_baseline", _check_five_class_baseline),
    ("six_class_rate", _check_six_class_rate),
    ("six_class_baseline", _check_six_class_baseline),
    ("six_class_sparse_condition", _check_six_class_sparse_condition),
    ("two_user_rate", _check_two_user_rate),
    ("two_user_naive_rate", _check_two_user_naive_rate),
    ("fully_identifiable_rate", _check_fully_identifiable_rate),
)


def run_selftest(write=print) -> int:
    """Run every embedded golden check; returns the number of failures."""
    failures = 0
    for name, check in CHECKS:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            write(f"FAIL {name}: {exc!r}")
        else:
            write(f"ok   {name}")
    write(f"{len(CHECKS) - failures}/{len(CHECKS)} golden checks passed")
    return failures
