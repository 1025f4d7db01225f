"""JSON document formats: scenario files in, trace and report files out.

Scenario schema (all indices 1-based):

    {
      "field_order": 11,            // prime
      "symbols_per_message": 2,
      "eta": 3,                     // identifiable classes; must be the first ones listed
      "seed": 7,
      "classes": [                  // one array per class, one descriptor per message;
        [[0, 1], "random", ...],    // a descriptor is an explicit symbol array or "random"
        ...
      ],
      "users": [                    // one entry per user
        {"side_information": [[3, 4, 7], [1, 2], ...],   // subclass indices per class
         "identified_classes": [1, 2, 3]}                // optional; must equal [1..eta]
      ],
      "explicit_generator": [[...], ...]   // optional systematic k x n matrix; minors checked
    }                                      // on the decoder's sets only (exchange.check_decoder_columns)

Global message indices are assigned in listing order (class 1 first).
"random" symbols expand deterministically from (seed, global index, symbol
position); see scenario.random_symbol.  A document whose store would hold
more than MAX_STORE_SYMBOLS symbols (message count times symbols_per_message)
is refused before any message is built.

Trace, report, rates and validation documents all leave through dump_json in
one canonical format, so identical inputs give byte-identical files: sorted
keys, two-space indent, ", " and ": " separators, ASCII-escaped strings and a
trailing newline.  These are the bytes the standard json module writes with
sort_keys=True, indent=2 and separators=(",", ": "), plus "\\n".  Documents
hold only dicts with str keys, lists, tuples, str, int, bool and None;
anything else, a float included, raises TypeError.  Rates are serialized as
exact fraction strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote  # the C escaper
from typing import Optional

from .analytics import (
    ComparisonReport,
    PrivacyReport,
    rate_isi,
    rate_multi,
    rate_naive_multi,
    rate_usi,
)
from .errors import MalformedScenario, PpirError
from .exchange import SessionTrace, check_decoder_columns
from .field import PrimeField
from .mds import Generator, generator_from_explicit
from .scenario import (
    MessageStore,
    RateParams,
    Scenario,
    SideInformation,
    ValidationReport,
    random_symbol,
    sequential_class_map,
)

TRACE_FORMAT = "ppir-trace/1"
REPORT_FORMAT = "ppir-report/1"
# The largest store a scenario document may describe, in symbols (F * L).  The
# loader builds every message up front and each session reads whole messages,
# so a larger store only ends in a run that exhausts time or memory.  The cap
# admits F = 10**6 messages of L = 4 symbols, or 10**4 of L = 10**3.
MAX_STORE_SYMBOLS = 10**7


@dataclass(frozen=True)
class LoadedScenario:
    scenario: Scenario
    explicit_generator: Optional[Generator]


def _require(doc: dict, key: str, kind) -> object:
    if key not in doc:
        raise MalformedScenario(f"missing key {key!r}")
    value = doc[key]
    if type(value) is not kind:  # exact type: JSON true/false must not pass as an integer
        raise MalformedScenario(f"key {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def scenario_from_dict(doc: dict) -> LoadedScenario:
    if not isinstance(doc, dict):
        raise MalformedScenario("scenario document must be a JSON object")
    order = _require(doc, "field_order", int)
    length = _require(doc, "symbols_per_message", int)
    eta = _require(doc, "eta", int)
    seed = doc.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise MalformedScenario("seed must be a non-negative integer")
    classes = _require(doc, "classes", list)
    users = _require(doc, "users", list)

    try:
        field = PrimeField(order)
    except PpirError as exc:
        raise MalformedScenario(f"bad field_order: {exc}") from exc

    sizes = []
    for i, members in enumerate(classes, start=1):
        if not isinstance(members, list):
            raise MalformedScenario(f"class {i} must be an array of descriptors")
        sizes.append(len(members))
    if sum(sizes) * length > MAX_STORE_SYMBOLS:
        raise MalformedScenario(
            f"store of {sum(sizes)} messages x {length} symbols exceeds {MAX_STORE_SYMBOLS} symbols"
        )
    class_map = sequential_class_map(sizes)

    rows = []
    f = 0
    for members in classes:
        for descriptor in members:
            f += 1
            if descriptor == "random":
                rows.append(
                    tuple(random_symbol(seed, f, ell, order) for ell in range(1, length + 1))
                )
            elif isinstance(descriptor, list):
                if len(descriptor) != length:
                    raise MalformedScenario(
                        f"message {f}: expected {length} symbols, got {len(descriptor)}"
                    )
                rows.append(descriptor)  # MessageStore checks the symbols
            else:
                raise MalformedScenario(
                    f"message {f}: descriptor must be a symbol array or \"random\""
                )
    store = MessageStore(field, rows)

    side_infos = []
    for u, entry in enumerate(users, start=1):
        if not isinstance(entry, dict):
            raise MalformedScenario(f"user {u} must be an object")
        lists = _require(entry, "side_information", list)
        index_sets = []
        for i, indices in enumerate(lists, start=1):
            if not isinstance(indices, list):
                raise MalformedScenario(f"user {u} class {i}: expected an index array")
            try:
                index_set = frozenset(indices)
            except TypeError:  # an unhashable entry; Scenario rejects every other non-integer
                raise MalformedScenario(f"user {u} class {i}: subclass indices must be integers") from None
            if len(index_set) != len(indices):
                raise MalformedScenario(f"user {u} class {i}: duplicate subclass indices")
            index_sets.append(index_set)
        flagged = entry.get("identified_classes")
        # Compare lengths first: eta is not range-checked yet and may be huge.
        # Exact types, since [true] == [1].
        if flagged is not None and (
            not isinstance(flagged, list)
            or len(flagged) != eta
            or any(type(v) is not int for v in flagged)
            or flagged != list(range(1, eta + 1))
        ):
            raise MalformedScenario(
                f"user {u}: identified_classes must equal [1..{eta}] (identifiable classes are the first eta listed)"
            )
        side_infos.append(SideInformation(eta, tuple(index_sets)))

    try:
        scenario = Scenario(store, class_map, tuple(side_infos), eta, seed)
    except PpirError as exc:
        raise MalformedScenario(str(exc)) from exc

    explicit = None
    if "explicit_generator" in doc and doc["explicit_generator"] is not None:
        matrix = doc["explicit_generator"]
        if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
            raise MalformedScenario("explicit_generator must be a matrix (array of rows)")
        try:
            explicit = generator_from_explicit(matrix, field)
            check_decoder_columns(scenario, explicit)
        except PpirError as exc:
            raise MalformedScenario(f"bad explicit_generator: {exc}") from exc
    return LoadedScenario(scenario, explicit)


def load_scenario(path) -> LoadedScenario:
    # ValueError covers json.JSONDecodeError, UnicodeDecodeError (a file that is
    # not UTF-8) and an integer literal past CPython's int-string digit limit;
    # RecursionError is nesting too deep for the parser.
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise MalformedScenario(f"cannot parse {path}: {exc}") from exc
    return scenario_from_dict(doc)


def trace_to_dict(trace: SessionTrace) -> dict:
    disclosed, queries = trace.plan_view
    return {
        "format": TRACE_FORMAT,
        "mode": trace.mode,
        "demands": list(trace.demands),
        "seed": trace.seed,
        "field_order": trace.field_order,
        "code": {"length": trace.code_length, "dimension": trace.code_dimension},
        "disclosed_known_count": disclosed,
        "plan": [[list(pair) for pair in q] for q in queries],
        "answers": [
            {"query": a.query_index, "parities": [list(row) for row in a.parities]}
            for a in trace.answers
        ],
        "users": [
            {
                "user": u.user,
                "desired_class": u.desired_class,
                "decoded_queries": list(u.decoded_queries),
                "decoded": [list(entry) for entry in u.decoded],
                "new_messages": [list(entry) for entry in u.new_messages],
                "witness_symbols": list(u.witness_symbols),
            }
            for u in trace.users
        ],
        "downloaded_symbols": trace.downloaded_symbols,
        "rate": str(trace.rate),
    }


def validation_to_dict(report: ValidationReport) -> dict:
    return {
        "mode": report.mode,
        "ok": report.ok,
        "rules": [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "witnesses": [list(w) if isinstance(w, tuple) else w for w in r.witnesses],
            }
            for r in report.rules
        ],
    }


def rates_to_dict(params: RateParams) -> dict:
    """Each user's one-user rates, then the collaborative and naive rates of all users."""
    users = [params.single_user(u) for u in range(1, params.user_count + 1)]
    return {
        "identified": [str(rate_isi(p)) for p in users],
        "unidentified_baseline": [str(rate_usi(p)) for p in users],
        "multi_user": str(rate_multi(params)),
        "naive_multi_user": str(rate_naive_multi(params)),
    }


def comparison_to_dict(report: ComparisonReport) -> dict:
    return {
        name: {"status": flag.status, "witnesses": [list(w) if isinstance(w, tuple) else w for w in flag.witnesses]}
        for name, flag in report.flags.items()
    }


def privacy_to_dict(report: PrivacyReport) -> dict:
    return {
        "mode": report.mode,
        "runs_per_demand": report.runs,
        "demand_choices": [list(d) for d in report.demand_choices],
        "non_repetition_checks": report.checks,
        "failures": report.failures,
        "pass_rate": str(report.pass_rate),
        "witnesses": [
            {"demands": list(d), "trial": t, "repeats": [list(w) for w in ws]}
            for d, t, ws in report.witnesses
        ],
        "distribution": {
            "method": report.distribution.method,
            "samples": report.distribution.samples,
            "pairs": [
                {"demands_a": list(a), "demands_b": list(b), "tv": str(tv)}
                for a, b, tv in report.distribution.pairs
            ],
        },
    }


def dump_json(doc: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, ", " and ": "
    separators, ASCII-escaped strings, trailing newline.

    Accepts dicts with str keys, lists, tuples, str, int, bool and None;
    anything else (a float, a Fraction, a set, a non-str key) raises TypeError.
    """
    pieces: list[str] = []
    _emit(doc, pieces.append, "\n")
    pieces.append("\n")
    return "".join(pieces)


# Module-level, not a closure: a closure that calls itself is a reference
# cycle, which keeps every call's pieces alive until the cyclic GC runs.
def _emit(value, append, newline: str) -> None:
    """Append the pieces of ``value``; ``newline`` is "\\n" plus its indent."""
    kind = type(value)
    if kind is dict:
        if not value:
            return append("{}")
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"dict key {key!r} is not a str")
            item = value[key]
            item_kind = type(item)
            if item_kind is str:
                append(f"{sep}{_quote(key)}: {_quote(item)}")
            elif item_kind is int:
                append(f"{sep}{_quote(key)}: {int.__repr__(item)}")
            else:
                append(f"{sep}{_quote(key)}: ")
                _emit(item, append, inner)
            sep = "," + inner
        append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            return append("[]")
        inner = newline + "  "
        if set(map(type, value)) == {int}:
            return append(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{newline}]")
        sep = "[" + inner
        for item in value:
            append(sep)
            _emit(item, append, inner)
            sep = "," + inner
        append(newline + "]")
    elif kind is str:
        append(_quote(value))
    elif kind is int:
        append(int.__repr__(value))
    elif value is None:
        append("null")
    elif kind is bool:
        append("true" if value else "false")
    else:
        raise TypeError(f"{kind.__name__} is not a canonical JSON value")
