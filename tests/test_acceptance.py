"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Criteria 4, 5, and 6 share one protocol sweep (three fixtures plus twenty
random conforming scenarios, every demand choice, 100 seeds each); the sweep
runs once and the three criteria assert different properties of its record.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from helpers import load_fixture, random_multi_scenario, random_single_scenario
from ppir import (
    RateParams,
    audit_non_repetition,
    build_systematic_generator,
    decode_from_positions,
    encode,
    generator_from_explicit,
    plan_from_pairs,
    query_distribution,
    rate_isi,
    rate_multi,
    rate_naive_multi,
    rate_usi,
    run_session,
    sample_query_distribution,
    tv_distance,
)
from ppir.analytics import SPARSE_SIDE_INFORMATION, comparison_conditions
from ppir.field import PrimeField
from ppir.fixtures import fixture_path
from ppir.selftest import (
    FIVE_CLASS,
    FULLY_IDENTIFIABLE,
    GOLDEN_CODEWORD_1,
    GOLDEN_CODEWORD_2,
    GOLDEN_MATRIX,
    GOLDEN_MESSAGE_1,
    GOLDEN_MESSAGE_2,
    SIX_CLASS,
    TWO_USER_SEVEN_CLASS,
)
from test_analytics import (
    _random_single_identifiable_params,
    _random_sparse_params,
    _random_uniform_dense_params,
)

SEEDS_PER_DEMAND = 100
RANDOM_SINGLE_SCENARIOS = 12
RANDOM_MULTI_SCENARIOS = 8


def _report(criterion, detail, elapsed, budget):
    print(f"PASS criterion {criterion}: {detail} ({elapsed:.3f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget"


@pytest.fixture(scope="module")
def golden_generator():
    return generator_from_explicit([list(r) for r in GOLDEN_MATRIX], PrimeField(11))


def test_criterion_1_encode_goldens(golden_generator):
    encode(golden_generator, GOLDEN_MESSAGE_1)  # warm the path once
    start = time.perf_counter()
    first = encode(golden_generator, GOLDEN_MESSAGE_1)
    second = encode(golden_generator, GOLDEN_MESSAGE_2)
    elapsed = time.perf_counter() - start
    assert first == GOLDEN_CODEWORD_1
    assert second == GOLDEN_CODEWORD_2
    _report(1, "published generator encodes both worked rows exactly", elapsed, 0.001)


def test_criterion_2_decode_golden(golden_generator):
    positions, values = (1, 2, 6, 7, 8), (0, 1, 10, 8, 10)
    decode_from_positions(golden_generator, positions, values)  # warm the inverse cache
    start = time.perf_counter()
    message = decode_from_positions(golden_generator, positions, values)
    elapsed = time.perf_counter() - start
    assert message == GOLDEN_MESSAGE_1
    assert (message[2], GOLDEN_MESSAGE_2[2]) == (9, 4)  # the recovered desired-class message
    _report(2, "positions {1,2,6,7,8} decode to the worked message", elapsed, 0.001)


def test_criterion_3_rate_goldens():
    start = time.perf_counter()
    assert rate_isi(FIVE_CLASS) == Fraction(1, 12)
    assert rate_usi(FIVE_CLASS) == Fraction(1, 16)
    assert rate_isi(SIX_CLASS) == Fraction(1, 12)
    assert rate_usi(SIX_CLASS) == Fraction(1, 23)
    assert comparison_conditions(SIX_CLASS).flags[SPARSE_SIDE_INFORMATION].status == "holds"
    assert rate_multi(TWO_USER_SEVEN_CLASS) == Fraction(1, 20)
    assert rate_naive_multi(TWO_USER_SEVEN_CLASS) == Fraction(1, 24)
    assert rate_isi(FULLY_IDENTIFIABLE) == 1
    elapsed = time.perf_counter() - start
    _report(3, "all eight rate goldens exact", elapsed, 1.0)


@pytest.fixture(scope="module")
def protocol_sweep():
    """Run every (scenario, demand, seed) session once; criteria 4-6 assert on the record."""
    cases = []
    for name in ("five_class.json", "six_class.json", "two_user_seven_class.json"):
        loaded = load_fixture(name)
        cases.append((name, loaded.scenario, loaded.explicit_generator))
    rng = random.Random(20240)
    for i in range(RANDOM_SINGLE_SCENARIOS):
        cases.append((f"random_single_{i}", random_single_scenario(rng), None))
    for i in range(RANDOM_MULTI_SCENARIOS):
        cases.append((f"random_multi_{i}", random_multi_scenario(rng), None))

    record = {"sessions": 0, "recovered": 0, "non_repetition": 0, "rate_identity": 0}
    start = time.perf_counter()
    for name, scenario, explicit in cases:
        params = RateParams.from_scenario(scenario)
        if scenario.user_count == 1:
            demand_space = [v for v in range(1, scenario.class_count + 1)]
            expected_rate = rate_isi(params)
        else:
            demand_space = list(
                itertools.product(range(1, scenario.class_count + 1), repeat=scenario.user_count)
            )
            expected_rate = rate_multi(params)
        rows = scenario.class_count - scenario.params.disclosed_known_count(
            "single" if scenario.user_count == 1 else "multi"
        )
        expected_d = scenario.params.query_count * rows * scenario.store.symbols_per_message
        for demands in demand_space:
            for seed in range(SEEDS_PER_DEMAND):
                trace = run_session(scenario, demands, seed=seed, explicit_generator=explicit)
                record["sessions"] += 1
                if all(u.new_messages for u in trace.users):
                    record["recovered"] += 1
                if audit_non_repetition(
                    plan_from_pairs(trace.plan_view[1], trace.plan_view[0])
                ).ok:
                    record["non_repetition"] += 1
                if trace.downloaded_symbols == expected_d and trace.rate == expected_rate:
                    record["rate_identity"] += 1
    record["elapsed"] = time.perf_counter() - start
    record["scenarios"] = len(cases)
    return record


def test_criterion_4_recovery(protocol_sweep):
    r = protocol_sweep
    assert r["scenarios"] >= 23  # three fixtures plus at least twenty random
    assert r["recovered"] == r["sessions"] > 0
    _report(
        4,
        f"every user recovered a new desired-class message in all {r['sessions']} sessions "
        f"across {r['scenarios']} scenarios",
        r["elapsed"],
        60.0,
    )


def test_criterion_5_non_repetition(protocol_sweep):
    r = protocol_sweep
    assert r["non_repetition"] == r["sessions"]
    _report(5, f"no repeated subclass index in any of {r['sessions']} plans", 0.0, 60.0)


def test_criterion_6_rate_identity(protocol_sweep):
    r = protocol_sweep
    assert r["rate_identity"] == r["sessions"]
    _report(6, f"measured download count matches the closed form in all {r['sessions']} sessions", 0.0, 60.0)


def test_criterion_7_mds_round_trip():
    shapes = [(4, 2, 5), (6, 3, 7), (8, 5, 11), (10, 6, 11), (12, 7, 13)]
    start = time.perf_counter()
    checked = 0
    for n, k, q in shapes:
        gen = build_systematic_generator(n, k, PrimeField(q))
        rng = random.Random(n * q)
        messages = [tuple(rng.randrange(q) for _ in range(k)) for _ in range(50)]
        codewords = [encode(gen, m) for m in messages]
        for positions in itertools.combinations(range(1, n + 1), k):
            for m, cw in zip(messages, codewords):
                values = tuple(cw[p - 1] for p in positions)
                assert decode_from_positions(gen, positions, values) == m
                checked += 1
    elapsed = time.perf_counter() - start
    _report(7, f"{checked} subset decodes across five code shapes all exact", elapsed, 30.0)


def test_criterion_8_condition_sweeps():
    start = time.perf_counter()
    rng = random.Random(8)
    for builder in (_random_sparse_params, _random_uniform_dense_params, _random_single_identifiable_params):
        for _ in range(50):
            p = builder(rng)
            report = comparison_conditions(p)
            counts = p.si_counts[0]
            kun = p.max_unidentified_count
            assert sum(
                min(k + 1, mu - k) for k, mu in zip(counts, p.class_sizes)
            ) >= (kun + 1) * (p.class_count - p.identifiable_count + 1)
            assert report.rate_isi >= report.rate_usi
    elapsed = time.perf_counter() - start
    _report(8, "150 random parameter sets satisfy the advantage inequality", elapsed, 1.0)


def test_criterion_9_distribution_oracle(tiny):
    start = time.perf_counter()
    scenario = tiny.scenario
    exact = {}
    for v in (1, 2):
        dist = query_distribution(scenario, (v,))
        assert sum(dist.values()) == 1
        exact[v] = dist
    sampled = sample_query_distribution(scenario, (2,), samples=100_000, seed=9)
    gap = tv_distance(exact[2], sampled)
    assert gap <= Fraction(1, 50)
    elapsed = time.perf_counter() - start
    _report(
        9,
        f"enumeration sums to 1 exactly; Monte Carlo at 1e5 samples within TV {float(gap):.4f}",
        elapsed,
        30.0,
    )


def test_criterion_10_trace_determinism(tmp_path):
    start = time.perf_counter()
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "ppir", "run", str(fixture_path("five_class.json")),
                "--demand", "3", "--seed", "17", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])  # well-formed
    elapsed = time.perf_counter() - start
    _report(10, "two identical invocations wrote byte-identical traces", elapsed, 30.0)
