"""Mutated scenario documents never escape the CLI's exit-code contract.

Each example takes a bundled fixture, applies a few random mutations (drop a
key or an array entry, or replace a value with one of another JSON type, an
out-of-range or huge integer, a boolean or a nested array) and runs
``ppir run`` (plain and ``--force``) and ``ppir rates`` on it in-process, plus
``ppir audit --runs 1`` on mutated tiny_two_class documents.  On the two-user
fixture two_user_seven_class, ``run`` goes once with two demands and once
with ``--mode single`` and one demand, and ``audit`` is not run.  Every run must
end with an exit code in {0, 2, 3, 4}; an uncaught exception fails the
example.  ``audit`` is not run on five_class: its enumeration is refused at
once, but the 2,000-sample Monte Carlo that replaces it takes about a second
per call.  A mutation only drops entries or puts in a value of at most 6
leaves, so a mutated tiny_two_class keeps its enumeration tiny.

A second test fuzzes the bytes of the file instead of its JSON values: raw
bytes, a fixture cut short or with bytes spliced in (not UTF-8, say), arrays
and objects nested far past the parser's recursion limit, and integer
literals of up to 10,000 digits, past CPython's 4,300-digit int-string limit,
in place of a scalar of tiny_two_class.  Each file is run through ``run``
(plain and ``--force``), ``rates`` and, unless it is a five_class document,
``audit --runs 1``, under the same contract.

A third test fuzzes the arguments instead of the document: on
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
# The mutation fuzz adds a two-user document, so multi mode meets mutated
# documents too.  The byte fuzz leaves it out: it runs ``audit`` on every file,
# and a multi-mode audit of this document takes minutes.
MUTATED_FIXTURES = FIXTURES + ("two_user_seven_class.json",)
DOCUMENTS = {name: json.loads(fixture_path(name).read_text()) for name in MUTATED_FIXTURES}

# An audit costs time linear in --runs, so the argument fuzz caps it to keep
# each call quick.  symbols_per_message needs no cap: a store above
# scenario_io.MAX_STORE_SYMBOLS is refused (exit 2) before any message is
# built, and every drawn value is either at most 12 or far beyond that cap.
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
    name = draw(st.sampled_from(MUTATED_FIXTURES))
    doc = json.loads(json.dumps(DOCUMENTS[name]))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([p for p in _paths(doc) if p]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
            continue
        parent[path[-1]] = draw(values)
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
        runs = [run]
        if name == "two_user_seven_class.json":
            runs = [run + ["--demand", str(demand)], run + ["--mode", "single"]]
        commands = [argv + force for argv in runs for force in ([], ["--force"])] + [["rates", str(path)]]
        if name == "tiny_two_class.json":
            commands.append(["audit", str(path), "--runs", "1"])
        for argv in commands:
            code, err = _main(argv)
            assert code in {0, 2, 3, 4}, (argv[0], code, err)
            assert "Traceback" not in err


FIXTURE_BYTES = {name: fixture_path(name).read_bytes() for name in FIXTURES}
TINY_SCALARS = ("field_order", "symbols_per_message", "eta", "seed")


@st.composite
def byte_documents(draw):
    """(fixture name or None, raw bytes of a scenario file)."""
    kind = draw(st.sampled_from(["raw", "truncated", "spliced", "nested", "digits"]))
    if kind == "raw":
        return None, draw(st.binary(max_size=64))
    if kind == "nested":
        opener = draw(st.sampled_from([b"[", b'{"a": ', b'{"classes": [']))
        depth = draw(st.one_of(st.integers(1, 50), st.sampled_from([990, 1_000, 5_000, 100_000])))
        return None, opener * depth
    if kind == "digits":
        key = draw(st.sampled_from(TINY_SCALARS))
        sign = draw(st.sampled_from(["", "-"]))
        # 4 to 6 nines as symbols_per_message describe a store of up to 4 * 10**6
        # symbols, under the cap: a valid store that takes seconds to build.
        digits = draw(st.one_of(st.integers(1, 3), st.integers(7, 30), st.sampled_from([4_300, 4_301, 10_000])))
        doc = json.loads(FIXTURE_BYTES["tiny_two_class.json"])
        doc[key] = 7
        text = json.dumps(doc).replace(f'"{key}": 7', f'"{key}": {sign}' + "9" * digits)
        return "tiny_two_class.json", text.encode()
    name = draw(st.sampled_from(FIXTURES))
    data = FIXTURE_BYTES[name]
    cut = draw(st.integers(0, len(data)))
    if kind == "truncated":
        return name, data[:cut]
    return name, data[:cut] + draw(st.binary(min_size=1, max_size=8)) + data[cut:]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=byte_documents())
@example(case=(None, b"\xff\xfe{"))
@example(case=(None, b"[" * 100_000))
def test_file_bytes_keep_exit_contract(case):
    name, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_bytes(data)
        run = ["run", str(path), "--demand", "1"]
        commands = [run, run + ["--force"], ["rates", str(path)]]
        if name != "five_class.json":
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
