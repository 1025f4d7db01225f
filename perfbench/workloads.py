"""The four workloads: seeded inputs, one op each, and the per-op correctness gate.

Every workload is a closed loop with one caller.  ``inputs`` draws the
workload's inputs from the benchmark seed once per run (not timed), ``setup``
loads or builds the scenarios from them and validates them (timed as
``setup_s``), ``spec`` names the i-th op of the seeded sequence, ``run``
performs it, and ``check`` verifies its output and returns the bytes a user
would receive.  A traced op is ``run`` with the
layers patched.  The program only ever sees the generated inputs.

Why these four: the scheme has three costs that grow along different axes, so
no single workload can show a gain in all of them.

* fixture-cli: the path users run on the paper's worked examples; fixed
  per-op cost (argparse, JSON load, store build, validation, serialization,
  file write) dominates.
* wide-classes: plan building grows with class size mu, so large classes and
  short messages make ``queries`` the bulk of a session.
* long-messages: MDS encode and decode grow with message length L, so short
  classes and long messages make ``exchange``/``mds`` the bulk of a session;
  a plan-layer change should not move it.
* audit: the only workload that reaches ``analytics`` (census, doomed
  enumeration, Monte Carlo sampling, TV distance).
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from ppir import (
    RateParams,
    Scenario,
    SideInformation,
    audit_non_repetition,
    plan_from_pairs,
    rate_isi,
    rate_multi,
    sequential_class_map,
)
from ppir.field import PrimeField
from ppir.fixtures import fixture_path

MERSENNE_31 = 2**31 - 1


class Broken(Exception):
    """An op completed but its output breaks an invariant of the scheme."""


def check_trace(s: Scenario, doc: dict, demands: tuple, seed: int) -> None:
    """The gate every session output passes.

    The trace answers the op that was asked (demands and seed), its plan
    repeats no subclass index, every user's new messages lie in the class that
    user demanded and outside its side information, each witness equals the
    store row of the user's first new message, and the rate is the closed form.
    """
    if doc["demands"] != list(demands) or doc["seed"] != seed:
        raise Broken(f"trace answers demands {doc['demands']} seed {doc['seed']}, "
                     f"op asked {list(demands)} seed {seed}")
    plan = plan_from_pairs(doc["plan"], doc["disclosed_known_count"])
    if not audit_non_repetition(plan).ok:
        raise Broken("plan repeats a subclass index")
    if len(doc["users"]) != len(s.users):
        raise Broken(f"{len(doc['users'])} users in the trace, {len(s.users)} in the scenario")
    cm = s.class_map
    for user, si, desired in zip(doc["users"], s.users, demands):
        if user["desired_class"] != desired or not user["new_messages"]:
            raise Broken(f"user {user['user']}: desired class {user['desired_class']}, "
                         f"{len(user['new_messages'])} new messages; op demanded class {desired}")
        held = {cm.pair_to_global(i, b) for i in range(1, s.class_count + 1) for b in si.oracle_indices(i)}
        for i, beta, f in user["new_messages"]:
            if i != desired or f in held or f != cm.pair_to_global(i, beta):
                raise Broken(f"user {user['user']}: new message {(i, beta, f)} is not an unheld "
                             f"message of class {desired}")
        first_new = user["new_messages"][0]
        if tuple(user["witness_symbols"]) != s.store.symbols(first_new[2]):
            raise Broken(f"user {user['user']}: witness differs from store row {first_new[2]}")
    params = RateParams.from_scenario(s)
    expected = rate_isi(params) if doc["mode"] == "single" else rate_multi(params)
    if Fraction(doc["rate"]) != expected:
        raise Broken(f"rate {doc['rate']} != {expected}")


# --- fixture-cli -----------------------------------------------------------

class FixtureCli:
    """``ppir.cli.main(["run", ...])`` in-process over the bundled worked examples.

    Ops cycle over the fixtures, so each carries a fifth of the ops; within a
    fixture they cycle over every demand (every demand pair in multi mode).
    """

    name = "fixture-cli"
    hash_ops = 100
    fixtures = (
        "five_class.json",
        "six_class.json",
        "two_user_seven_class.json",
        "fsi_three_class.json",
        "tiny_two_class.json",
    )

    def sizes(self, quick: bool) -> dict:
        return {"fixtures": list(self.fixtures), "op": "one `ppir run` to a file"}

    def inputs(self, layers, seed: int, quick: bool) -> dict:
        return {"rng": random.Random(seed)}

    def setup(self, layers, inputs: dict, out_dir: Path) -> dict:
        entries = []
        for name in self.fixtures:
            path = str(fixture_path(name))
            s = layers.load_scenario(path).scenario
            mode = "single" if s.user_count == 1 else "multi"
            if not layers.validate_scenario(s, mode).ok:
                raise Broken(f"{name} fails validation in {mode} mode")
            demands = list(itertools.product(range(1, s.class_count + 1), repeat=s.user_count))
            entries.append((path, s, demands))
        return {"entries": entries, "rng": inputs["rng"], "out": str(out_dir / "fixture-cli.json")}

    def spec(self, state: dict, i: int):
        """(scenario, demands, seed, CLI arguments) of the i-th op."""
        path, s, demands = state["entries"][i % len(state["entries"])]
        demand = demands[(i // len(state["entries"])) % len(demands)]
        seed = state["rng"].randrange(MERSENNE_31)
        argv = ["run", path, *itertools.chain.from_iterable(("--demand", str(v)) for v in demand),
                "--seed", str(seed), "--out", state["out"]]
        return s, demand, seed, argv

    def run(self, state: dict, spec, layers):
        return layers.cli_main(spec[3])

    def check(self, state: dict, spec, code) -> bytes:
        if code != 0:
            raise Broken(f"ppir run exited {code}")
        data = Path(state["out"]).read_bytes()
        check_trace(spec[0], json.loads(data), spec[1], spec[2])
        return data


# --- synthetic sessions ----------------------------------------------------

class Sessions:
    """``run_session`` plus serialization, cycling over every demand of one synthetic scenario."""

    def __init__(self, name: str, full: dict, quick: dict):
        self.name = name
        self.hash_ops = full["classes"]
        self._sizes = {False: full, True: quick}

    def sizes(self, quick: bool) -> dict:
        p = self._sizes[quick]
        return dict(p, messages=p["classes"] * p["mu"], op="one single-user session, serialized")

    def inputs(self, layers, seed: int, quick: bool) -> dict:
        """Message contents and side information, drawn the way the test suite draws them.

        ``random_store`` generates the contents, so they are exactly the rows the
        program would make.  Only contents vary with the seed: side-information
        counts are fixed (kmax+1 in identifiable classes, kmax elsewhere), so
        every seed costs the same.
        """
        p = self._sizes[quick]
        rng = random.Random(seed)
        rows = layers.random_store(PrimeField(p["order"]), [p["mu"]] * p["classes"], p["length"],
                                   rng.randrange(10**6)).messages
        counts = [p["kmax"] + 1] * p["eta"] + [p["kmax"]] * (p["classes"] - p["eta"])
        indices = tuple(frozenset(rng.sample(range(1, p["mu"] + 1), k)) for k in counts)
        return {"params": p, "rows": rows, "indices": indices,
                "scenario_seed": rng.randrange(10**6), "rng": rng}

    def setup(self, layers, inputs: dict, out_dir: Path) -> dict:
        """Store, class map and side information built from the inputs, then validated."""
        p = inputs["params"]
        store = layers.message_store(PrimeField(p["order"]), inputs["rows"])
        si = SideInformation(p["eta"], inputs["indices"])
        s = Scenario(store, sequential_class_map([p["mu"]] * p["classes"]), (si,), p["eta"],
                     seed=inputs["scenario_seed"])
        if not layers.validate_scenario(s, "single").ok:
            raise Broken(f"{self.name} scenario fails validation")
        return {"scenario": s, "rng": inputs["rng"]}

    def spec(self, state: dict, i: int):
        s = state["scenario"]
        return i % s.class_count + 1, state["rng"].randrange(MERSENNE_31)

    def run(self, state: dict, spec, layers):
        doc = layers.trace_to_dict(layers.run_session(state["scenario"], spec[0], seed=spec[1]))
        return doc, layers.dump_json(doc)

    def check(self, state: dict, spec, out) -> bytes:
        doc, text = out
        check_trace(state["scenario"], doc, (spec[0],), spec[1])
        return text.encode()


# --- audit -----------------------------------------------------------------

class Audit:
    """One op is three ``privacy_report`` calls plus their serialization.

    tiny_two_class enumerates exactly; five_class and two_user_seven_class
    (multi) attempt an enumeration that exceeds its leaf limit, then fall back
    to Monte Carlo, and two_user_seven_class computes TV over its 1,176 demand
    pairs.  Census and sample sizes are scaled down from the CLI defaults so an
    op takes well under 200 ms and a run gathers enough ops for a p90.
    """

    name = "audit"
    hash_ops = 3
    calls = {
        False: (
            ("tiny_two_class.json", "single", {"runs": 20}),
            ("five_class.json", "single", {"runs": 5, "enum_limit": 100, "mc_samples": 5}),
            ("two_user_seven_class.json", "multi", {"runs": 1, "enum_limit": 4, "mc_samples": 2}),
        ),
        True: (
            ("tiny_two_class.json", "single", {"runs": 2}),
            ("five_class.json", "single", {"runs": 1, "enum_limit": 10, "mc_samples": 2}),
            ("two_user_seven_class.json", "multi", {"runs": 1, "enum_limit": 1, "mc_samples": 1}),
        ),
    }

    def sizes(self, quick: bool) -> dict:
        return {"privacy_report": [[f, m, kw] for f, m, kw in self.calls[quick]]}

    def inputs(self, layers, seed: int, quick: bool) -> dict:
        return {"calls": self.calls[quick], "rng": random.Random(seed)}

    def setup(self, layers, inputs: dict, out_dir: Path) -> dict:
        scenarios = []
        for name, mode, kwargs in inputs["calls"]:
            s = layers.load_scenario(str(fixture_path(name))).scenario
            if not layers.validate_scenario(s, mode).ok:
                raise Broken(f"{name} fails validation in {mode} mode")
            scenarios.append((s, mode, kwargs))
        return {"scenarios": scenarios, "rng": inputs["rng"]}

    def spec(self, state: dict, i: int):
        return state["rng"].randrange(MERSENNE_31)

    def run(self, state: dict, base_seed, layers):
        out = []
        for s, mode, kwargs in state["scenarios"]:
            report = layers.privacy_report(s, mode, base_seed=base_seed, **kwargs)
            out.append((report, layers.dump_json(layers.privacy_to_dict(report))))
        return out

    def check(self, state: dict, base_seed, out) -> bytes:
        for (s, mode, kwargs), (report, _) in zip(state["scenarios"], out):
            if report.pass_rate != 1 or report.checks != len(report.demand_choices) * kwargs["runs"]:
                raise Broken(f"non-repetition census: {report.failures} of {report.checks} failed")
            pairs = report.distribution.pairs
            n = len(report.demand_choices)
            if len(pairs) != n * (n - 1) // 2 or not all(0 <= tv <= 1 for _, _, tv in pairs):
                raise Broken(f"{len(pairs)} TV pairs for {n} demand choices, or a TV outside [0, 1]")
        return "".join(text for _, text in out).encode()


WORKLOADS = {
    w.name: w
    for w in (
        FixtureCli(),
        # Few identifiable classes: identifiable demands cost a different amount
        # from unidentifiable ones, and an even split would put the median op on
        # the gap between the two clusters.  Here they plan more slowly and are
        # the slow quarter.
        Sessions(
            "wide-classes",
            dict(classes=8, eta=2, mu=20_000, length=4, kmax=7, order=MERSENNE_31),
            dict(classes=8, eta=2, mu=200, length=4, kmax=7, order=MERSENNE_31),
        ),
        # With one identifiable class every demand decodes about as many
        # queries, so all demands cost about the same.
        Sessions(
            "long-messages",
            dict(classes=6, eta=1, mu=24, length=512, kmax=3, order=MERSENNE_31),
            dict(classes=6, eta=1, mu=24, length=16, kmax=3, order=MERSENNE_31),
        ),
        Audit(),
    )
}
