"""Mutated scenario documents never escape the CLI's exit-code contract.

Each example takes a bundled fixture, applies a few random mutations (drop a
key or an array entry, or replace a value with one of another JSON type, an
out-of-range or huge integer, a boolean or a nested array) and runs
``ppir run`` (plain and ``--force``) and ``ppir rates`` on it in-process, plus
``ppir audit --runs 1`` on mutated tiny_two_class documents.  Every run must
end with an exit code in {0, 2, 3, 4}; an uncaught exception fails the
example.  ``audit`` is not run on five_class: its enumeration is refused at
once, but the 2,000-sample Monte Carlo that replaces it takes about a second
per call.  A mutation only drops entries or puts in a value of at most 6
leaves, so a mutated tiny_two_class keeps its enumeration tiny.

A second test fuzzes the arguments instead of the document: on
tiny_two_class it draws ``--seed``, ``--demand`` and ``--runs`` from the same
integers and ``--out`` from a fresh file, an existing longer file,
``/dev/null``, a directory and a missing directory, then runs ``run`` (plain
and ``--force``), ``audit`` and ``rates`` in-process under the same contract.
A successful run must leave a file target holding one JSON document, with no
tail of the longer one it overwrote.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from ppir import cli
from ppir.fixtures import fixture_path

FIXTURES = ("tiny_two_class.json", "five_class.json")
DOCUMENTS = {name: json.loads(fixture_path(name).read_text()) for name in FIXTURES}

# Store building costs time linear in symbols_per_message, and an audit
# linear in --runs; larger values would only make a call slow, never change
# its exit code.
MAX_SYMBOLS_PER_MESSAGE = 1000
MAX_RUNS = 12

integers = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([-(2**63), 2**31 - 1, 2**31, 2**64, 10**12]),
)
scalars = st.one_of(
    integers,
    st.booleans(),
    st.none(),
    st.sampled_from(["random", "", "3", 1.5, -0.0, 1e300]),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(["a", "eta"]), inner, max_size=2)),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, prefix + (index,))


@st.composite
def mutated_documents(draw):
    """(fixture name, mutated copy of that fixture's document)."""
    name = draw(st.sampled_from(FIXTURES))
    doc = json.loads(json.dumps(DOCUMENTS[name]))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([p for p in _paths(doc) if p]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
            continue
        value = draw(values)
        if path == ("symbols_per_message",) and type(value) is int:
            value = min(value, MAX_SYMBOLS_PER_MESSAGE)
        parent[path[-1]] = value
    return name, doc


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _tiny(**changes):
    doc = json.loads(json.dumps(DOCUMENTS["tiny_two_class.json"]))
    doc.update(changes)
    return "tiny_two_class.json", doc


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_documents(), demand=st.integers(0, 6))
# Escapes found by this test: an identified_classes check that built
# [1..eta] for any eta (OverflowError), a rates self-check that raised a
# bare RuntimeError on a class the user holds completely, and a forced run on
# a field smaller than the code length (FieldTooSmall).
@example(case=_tiny(eta=2**64, users=[{"side_information": [[1], []], "identified_classes": [1]}]), demand=1)
@example(case=_tiny(classes=[["random"], ["random"]]), demand=1)
@example(case=_tiny(field_order=2), demand=1)
def test_mutated_documents_keep_exit_contract(case, demand):
    name, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        run = ["run", str(path), "--demand", str(demand)]
        commands = [run, run + ["--force"], ["rates", str(path)]]
        if name == "tiny_two_class.json":
            commands.append(["audit", str(path), "--runs", "1"])
        for argv in commands:
            code, err = _main(argv)
            assert code in {0, 2, 3, 4}, (argv[0], code, err)
            assert "Traceback" not in err


OUT_TARGETS = ("fresh", "longer", "devnull", "directory", "missing_directory")
LONGER_DOCUMENT = "x" * 20_000  # longer than any tiny_two_class document


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=integers, demand=integers, runs=integers, target=st.sampled_from(OUT_TARGETS))
def test_arguments_keep_exit_contract(seed, demand, runs, target):
    path = str(fixture_path("tiny_two_class.json"))
    with tempfile.TemporaryDirectory() as tmp:
        out = {
            "fresh": Path(tmp) / "out.json",
            "longer": Path(tmp) / "out.json",
            "devnull": Path(os.devnull),
            "directory": Path(tmp),
            "missing_directory": Path(tmp) / "missing" / "out.json",
        }[target]
        run = ["run", path, "--demand", str(demand), "--seed", str(seed)]
        audit = ["audit", path, "--runs", str(min(runs, MAX_RUNS)), "--seed", str(seed)]
        for argv in (run, run + ["--force"], audit, ["rates", path]):
            if target == "fresh":
                out.unlink(missing_ok=True)
            elif target == "longer":
                out.write_text(LONGER_DOCUMENT)
            code, err = _main(argv + ["--out", str(out)])
            assert code in {0, 2, 3, 4}, (argv[0], code, err)
            assert "Traceback" not in err
            if code == 0 and out.is_file():
                json.loads(out.read_text())
