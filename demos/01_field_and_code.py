#!/usr/bin/env python3
"""Exact field arithmetic and the systematic MDS code layer.

Walks the worked [8, 5] code over GF(11): encoding two message rows, then
recovering one of them from a mixed set of systematic and parity positions.
"""

from ppir import (
    PrimeField,
    build_systematic_generator,
    decode_from_positions,
    encode,
    generator_from_explicit,
    verify_mds,
)

field = PrimeField(11)
print(f"working in {field}")
q = field.order  # symbols are plain ints in [0, q); only inversion needs the field
print(f"  5 * 9 = {5 * 9 % q},  5^-1 = {field.inv(5)},  3 - 7 = {(3 - 7) % q}")

published = [
    [1, 0, 0, 0, 0, 1, 5, 4],
    [0, 1, 0, 0, 0, 6, 9, 7],
    [0, 0, 1, 0, 0, 10, 1, 5],
    [0, 0, 0, 1, 0, 1, 4, 5],
    [0, 0, 0, 0, 1, 5, 4, 2],
]
gen = generator_from_explicit(published, field)
print(f"\nexplicit [{gen.n}, {gen.k}] generator accepted; every 5-column minor invertible: {verify_mds(gen)}")

m1, m2 = (0, 1, 9, 6, 8), (1, 7, 4, 1, 3)
c1, c2 = encode(gen, m1), encode(gen, m2)
print(f"  {m1} -> {c1}")
print(f"  {m2} -> {c2}")
print(f"  parity symbols: {c1[5:]} and {c2[5:]}")

positions = (1, 2, 6, 7, 8)  # two known systematic symbols plus all three parities
values = tuple(c1[p - 1] for p in positions)
print(f"\nerasure decode from positions {positions} with values {values}:")
print(f"  recovered {decode_from_positions(gen, positions, values)}")

default = build_systematic_generator(8, 5, field)
print(f"\ndefault construction for the same shape (deterministic): first row {default.rows[0]}")
