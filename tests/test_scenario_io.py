"""The canonical JSON emitter: the bytes of the standard json module's sorted,
two-space-indented output, the value types it refuses, and no cyclic garbage."""

import gc
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ppir import run_session
from ppir.scenario_io import dump_json, trace_to_dict

STRINGS = st.one_of(
    st.text(),
    st.sampled_from(["", '"', "\\", '\\"', "\x00\x1f\x7f", "\t\r\n\b\f", "é€", "\U0001f600", "\ud800", " "]),
)
INTS = st.one_of(st.integers(), st.integers(min_value=2**64), st.integers(max_value=-(2**64)))
SCALARS = st.one_of(INTS, st.booleans(), st.none(), STRINGS)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.lists(INTS),  # the all-int fast path
        st.dictionaries(STRINGS, children),
    ),
    max_leaves=40,
)


def nested(depth: int):
    doc = {}
    for i in range(depth):
        doc = [doc, i] if i % 2 else {"k": doc, "": []}
    return doc


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


@settings(deadline=None)
@given(VALUES)
@example(nested(60))
@example({"a": [1, True, None, "1", -2, (3, 4), [], {}], "b": (), "c": {"é": False}})
def test_matches_reference_encoder(doc):
    assert dump_json(doc) == reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"rate": 0.5},
        {"rate": Fraction(1, 2)},
        {"classes": {1, 2}},
        {1: "one"},
        {"row": [1, 2.0]},
        [{"a": (1, {"b": [Fraction(1, 3)]})}],
    ],
    ids=["float", "fraction", "set", "int-key", "float-in-int-list", "nested-fraction"],
)
def test_refuses_other_types(doc):
    with pytest.raises(TypeError):
        dump_json(doc)


def test_leaves_no_cyclic_garbage(five_class):
    doc = trace_to_dict(run_session(five_class.scenario, 3, seed=1))
    gc.collect()
    gc.disable()
    try:
        dump_json(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()
