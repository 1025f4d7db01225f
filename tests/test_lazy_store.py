"""The store makes "random" messages on demand.

A loaded scenario keeps each "random" descriptor as a row that
``MessageStore.symbols`` makes with ``scenario.random_row`` the first time it
is read.  These tests pin that the rows it makes are the symbols the eager
expansion gave, that loading, validation, rates and audits make none, and that
a session makes only the rows it reads, each once.
"""

import hashlib
import json
from collections import Counter

import pytest

from ppir import (
    MessageStore,
    PrimeField,
    load_scenario,
    random_store,
    random_symbol,
    run_session,
    scenario,
    scenario_from_dict,
    validate_scenario,
)
from ppir.cli import main
from ppir.fixtures import NAMES, fixture_path


def eager_rows(doc):
    """Every row of a scenario document, expanded up front symbol by symbol."""
    q, length, seed = doc["field_order"], doc["symbols_per_message"], doc.get("seed", 0)
    descriptors = [d for members in doc["classes"] for d in members]
    return [
        tuple(d) if d != "random" else tuple(random_symbol(seed, f, ell, q) for ell in range(1, length + 1))
        for f, d in enumerate(descriptors, start=1)
    ]


def mixed_document():
    """five_class with explicit rows in every class, the last message included."""
    doc = json.loads(fixture_path("five_class.json").read_text())
    for i, members in enumerate(doc["classes"]):
        members[0] = [i, 10 - i]
        members[-1] = [10, i]
    return doc


DOCUMENTS = {name: json.loads(fixture_path(name).read_text()) for name in NAMES}
DOCUMENTS["mixed"] = mixed_document()


@pytest.fixture
def made(monkeypatch):
    """How many times random_row made each message index."""
    counts = Counter()
    real = scenario.random_row

    def counting(seed, f, length, order):
        counts[f] += 1
        return real(seed, f, length, order)

    monkeypatch.setattr(scenario, "random_row", counting)
    return counts


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_lazy_rows_equal_eager_expansion(name):
    doc = DOCUMENTS[name]
    store = scenario_from_dict(doc).scenario.store
    expected = eager_rows(doc)
    assert store.message_count == len(expected)
    assert store.symbols_per_message == doc["symbols_per_message"]
    # Read twice: a kept row must be the row first made.
    for _ in range(2):
        assert [store.symbols(f) for f in range(1, len(expected) + 1)] == expected


@pytest.mark.parametrize(
    "sizes,length,seed,order,digest",
    [
        ((3, 4), 2, 0, 11, "6dc3d59fbbe5f288c33cd6d5d7cc0efdeb963848c5c31a594db7de5314776ecc"),
        ((5, 1, 7), 3, 12345, 2**31 - 1, "347db185e33dcd6fdc8ed06fb19d1ef0b8e7d87d41e792833b6261d46c4c56c6"),
        ((2, 2), 1, 7, 5, "b299113ce336ea3997353b8c94803389ff5989e521d81e897dc87f7496f894aa"),
        ((40, 40, 40), 4, 999, 197, "cca42ec4f69f19e9b303999889d1a80d0a98fe0b46568c0d74bad163a29cf004"),
    ],
)
def test_random_store_rows_are_unchanged(sizes, length, seed, order, digest):
    # Digests of repr(messages) as the eager random_store built them.
    messages = random_store(PrimeField(order), sizes, length, seed).messages
    assert all(type(row) is tuple and len(row) == length for row in messages)
    assert hashlib.sha256(repr(messages).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", NAMES)
def test_load_and_validate_make_no_row(name, made):
    s = load_scenario(str(fixture_path(name))).scenario
    for mode in ("single", "multi"):
        validate_scenario(s, mode)
    assert not made


@pytest.mark.parametrize(
    "argv",
    [
        ("rates", "five_class.json"),
        ("rates", "two_user_seven_class.json"),
        ("audit", "five_class.json", "--runs", "2"),
        ("audit", "tiny_two_class.json", "--runs", "3"),
    ],
)
def test_rates_and_audit_make_no_row(argv, made, capsys):
    command, name, *rest = argv
    assert main([command, str(fixture_path(name)), *rest]) == 0
    capsys.readouterr()
    assert not made


def test_session_makes_only_rows_it_reads_and_each_once(monkeypatch, made):
    s = load_scenario(str(fixture_path("five_class.json"))).scenario
    reads = set()
    real_symbols = MessageStore.symbols

    def recording(self, f):
        reads.add(f)
        return real_symbols(self, f)

    monkeypatch.setattr(MessageStore, "symbols", recording)
    random_rows = {f for f in range(1, s.store.message_count + 1) if s.store.messages[f - 1] is None}
    run_session(s, 3, seed=5)
    assert set(made) == reads & random_rows
    assert len(made) < len(random_rows)
    for demand in range(1, s.class_count + 1):
        for seed in (0, 1):
            run_session(s, demand, seed=seed)
    assert set(made) == reads & random_rows
    assert set(made.values()) == {1}
