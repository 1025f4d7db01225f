import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import wide_helper_document
from ppir import (
    PrimeField,
    build_systematic_generator,
    load_scenario,
    run_session,
    scenario,
    scenario_io,
    validate_scenario,
)
from ppir.cli import main
from ppir.errors import MalformedScenario
from ppir.fixtures import fixture_path
from ppir.selftest import CHECKS, GOLDEN_MATRIX, run_selftest


def run_cli(*args, timeout=None, max_bytes=None):
    """Run the CLI in a child Python; ``max_bytes`` caps the child's address space,
    set by the child itself before it runs ``ppir``."""
    start = ["-m", "ppir"]
    if max_bytes:
        start = [
            "-c",
            "import resource, runpy; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({max_bytes}, resource.getrlimit(resource.RLIMIT_AS)[1])); "
            "runpy.run_module('ppir', run_name='__main__', alter_sys=True)",
        ]
    return subprocess.run(
        [sys.executable, *start, *args], capture_output=True, text=True, check=False, timeout=timeout
    )


def fixture(name):
    return str(fixture_path(name))


def write_scenario(tmp_path, sizes, eta, side_information):
    """A q = 101, L = 2 scenario of all-random classes; returns its path."""
    doc = {
        "classes": [["random"] * size for size in sizes],
        "eta": eta,
        "field_order": 101,
        "seed": 0,
        "symbols_per_message": 2,
        "users": [{"side_information": si} for si in side_information],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestRun:
    def test_five_class_trace(self, tmp_path):
        out = tmp_path / "trace.json"
        proc = run_cli("run", fixture("five_class.json"), "--demand", "3", "--seed", "5", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["rate"] == "1/12"
        assert doc["mode"] == "single"
        assert doc["code"] == {"dimension": 5, "length": 8}
        assert len(doc["plan"]) == 4
        assert all(len(a["parities"]) == 3 for a in doc["answers"])

    def test_two_user_trace(self, tmp_path):
        out = tmp_path / "trace.json"
        proc = run_cli(
            "run", fixture("two_user_seven_class.json"),
            "--demand", "2", "--demand", "3", "--seed", "1", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["rate"] == "1/20"
        assert doc["mode"] == "multi"
        assert [u["desired_class"] for u in doc["users"]] == [2, 3]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            proc = run_cli("run", fixture("five_class.json"), "--demand", "4", "--seed", "9", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("run", str(bad), "--demand", "1").returncode == 2

    def test_missing_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"field_order": 11}))
        assert run_cli("run", str(bad), "--demand", "1").returncode == 2

    def test_duplicate_side_information_exits_2(self, tmp_path):
        doc = json.loads(fixture_path("tiny_two_class.json").read_text())
        doc["users"][0]["side_information"][0] = [1, 1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", str(bad), "--demand", "1").returncode == 2

    @pytest.mark.parametrize(
        "name,path,value",
        [
            pytest.param("five_class.json", ("users", 0, "side_information", 0, 0), "3", id="string-index"),
            pytest.param("five_class.json", ("users", 0, "side_information", 0, 0), 1.5, id="float-index"),
            pytest.param("five_class.json", ("users", 0, "side_information", 0, 0), True, id="bool-index"),
            pytest.param("five_class.json", ("users", 0, "side_information", 0, 0), [3], id="array-index"),
            pytest.param("five_class.json", ("users", 0, "identified_classes"), 5, id="identified-classes-int"),
            # JSON true is a Python int; each of these would otherwise load as 1.
            pytest.param("tiny_two_class.json", ("eta",), True, id="bool-eta"),
            pytest.param("tiny_two_class.json", ("seed",), True, id="bool-seed"),
            pytest.param("tiny_two_class.json", ("symbols_per_message",), True, id="bool-symbols-per-message"),
            pytest.param("five_class.json", ("classes", 0, 2, 1), True, id="bool-symbol"),
            pytest.param("five_class.json", ("users", 0, "identified_classes", 0), True, id="bool-identified-class"),
            # One case per input check the model classes own.
            pytest.param("five_class.json", ("classes", 0, 2, 1), 11, id="symbol-equal-to-field-order"),
            pytest.param("five_class.json", ("classes", 0, 2, 1), -1, id="negative-symbol"),
            pytest.param("five_class.json", ("classes", 0, 2, 1), "1", id="string-symbol"),
            pytest.param("five_class.json", ("classes", 0, 2), [0], id="short-row"),
            pytest.param("tiny_two_class.json", ("classes", 1), [], id="empty-class"),
            pytest.param("tiny_two_class.json", ("classes",), [["random", "random"]], id="one-class"),
            pytest.param("tiny_two_class.json", ("users", 0, "side_information"), [[1]], id="side-information-list-missing"),
            pytest.param("five_class.json", ("users", 0, "side_information", 0, 0), 99, id="subclass-index-99"),
            pytest.param("five_class.json", ("users", 0, "side_information", 0, 0), 0, id="subclass-index-0"),
            pytest.param("tiny_two_class.json", ("eta",), 0, id="eta-0"),
            pytest.param("tiny_two_class.json", ("eta",), 3, id="eta-above-class-count"),
            pytest.param("tiny_two_class.json", ("users",), [], id="no-users"),
        ],
    )
    def test_malformed_field_exits_2(self, tmp_path, name, path, value):
        doc = json.loads(fixture_path(name).read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("run", str(bad), "--demand", "1")
        assert proc.returncode == 2, proc.stderr
        assert "parse error" in proc.stderr

    def test_nonprime_field_exits_2(self, tmp_path):
        doc = json.loads(fixture_path("tiny_two_class.json").read_text())
        doc["field_order"] = 10
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", str(bad), "--demand", "1").returncode == 2

    def test_validation_refused_exits_3(self):
        proc = run_cli("run", fixture("two_user_three_class.json"), "--demand", "1", "--demand", "2")
        assert proc.returncode == 3
        assert "validation refused" in proc.stderr

    def test_recovery_failure_exits_4(self):
        proc = run_cli(
            "run", fixture("two_user_three_class.json"),
            "--demand", "1", "--demand", "1", "--seed", "1", "--force",
        )
        assert proc.returncode == 4

    def test_forced_run_can_succeed(self):
        proc = run_cli(
            "run", fixture("two_user_three_class.json"),
            "--demand", "1", "--demand", "1", "--seed", "0", "--force",
        )
        assert proc.returncode == 0

    @pytest.mark.parametrize("name", ["two_user_seven_class.json", "two_user_three_class.json"])
    def test_forced_single_mode_serves_the_first_user_alone(self, tmp_path, name):
        # Single mode serves the file's first user alone, so a forced run never
        # fails on what the second user could or could not decode.
        out = tmp_path / "trace.json"
        classes = load_scenario(fixture(name)).scenario.class_count
        for v in range(1, classes + 1):
            for seed in range(5):
                argv = ["run", fixture(name), "--mode", "single", "--demand", str(v), "--seed", str(seed), "--force"]
                assert main([*argv, "--out", str(out)]) == 0, (v, seed)
                assert [u["user"] for u in json.loads(out.read_text())["users"]] == [1], (v, seed)

    @pytest.mark.parametrize(
        "name,demand",
        [
            pytest.param("five_class.json", "9", id="above-class-count"),
            pytest.param("five_class.json", "0", id="zero"),
            pytest.param("two_user_seven_class.json", "2", id="one-demand-for-two-users"),
        ],
    )
    def test_bad_demand_exits_2(self, name, demand):
        proc = run_cli("run", fixture(name), "--demand", demand)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    def test_many_helper_partitions_run(self, tmp_path):
        # eta = 22 across three users: the plan check must not try every helper
        # partition (a timeout fails the test rather than hanging it).
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(wide_helper_document()))
        out = tmp_path / "trace.json"
        demands = ["--demand", "23"] * 3
        proc = run_cli("run", str(path), *demands, "--seed", "1", "--out", str(out), timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["demands"] == [23, 23, 23]

    def test_forty_identifiable_classes_run(self, tmp_path):
        # Helper blocks of 13 from 39 classes: C(39, 13), about 8.1e9, for user 1
        # alone.  Listing them would be one C call that no timer interrupts, so the
        # child's address space is capped too: such a builder fails, not the host.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(wide_helper_document(eta=40, order=101)))
        out = tmp_path / "trace.json"
        demands = ["--demand", "41"] * 3
        proc = run_cli("run", str(path), *demands, "--seed", "1", "--out", str(out), timeout=20, max_bytes=256 << 20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["demands"] == [41, 41, 41]

    def test_fresh_class_needs_no_side_information(self, tmp_path):
        # eta = 1: the rotation takes class 1 fresh in both queries, so no known
        # class-1 index is needed and every demand runs.
        path = write_scenario(tmp_path, (2, 3, 3), 1, [[[], [1], [1]]])
        for v in (1, 2, 3):
            assert main(["run", path, "--demand", str(v), "--out", str(tmp_path / "trace.json")]) == 0

    def test_fresh_picks_without_seats_exit_3(self, tmp_path):
        # eta = 1 and two queries whose special class is class 1: index 3 is the
        # only one either user lacks, so no collaborative plan exists.
        path = write_scenario(tmp_path, (3, 2, 2), 1, [[[1, 2], [], []], [[1, 2], [], [1]]])
        proc = run_cli("run", path, "--demand", "1", "--demand", "2")
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == ["validation refused: scenario assumptions not met: identifiable_headroom"]

    def test_demand_required(self):
        assert run_cli("run", fixture("five_class.json")).returncode == 2

    def test_single_mode_rejects_multiple_demands(self):
        proc = run_cli("run", fixture("five_class.json"), "--demand", "1", "--demand", "2", "--mode", "single")
        assert proc.returncode == 2


class TestRates:
    def test_six_class(self, tmp_path):
        out = tmp_path / "rates.json"
        proc = run_cli("rates", fixture("six_class.json"), "--out", str(out))
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["rates"]["identified"] == ["1/12"]
        assert doc["rates"]["unidentified_baseline"] == ["1/23"]
        assert doc["comparison_conditions"]["sparse_side_information"]["status"] == "holds"

    def test_five_class(self, tmp_path):
        out = tmp_path / "rates.json"
        run_cli("rates", fixture("five_class.json"), "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["rates"]["identified"] == ["1/12"]
        assert doc["rates"]["unidentified_baseline"] == ["1/16"]
        statuses = {c["status"] for c in doc["comparison_conditions"].values()}
        assert "holds" not in statuses

    def test_two_user(self, tmp_path):
        out = tmp_path / "rates.json"
        run_cli("rates", fixture("two_user_seven_class.json"), "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["rates"]["multi_user"] == "1/20"
        assert doc["rates"]["naive_multi_user"] == "1/24"
        assert doc["comparison_conditions"] is None

    def test_fully_identifiable(self, tmp_path):
        out = tmp_path / "rates.json"
        run_cli("rates", fixture("fsi_three_class.json"), "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["rates"]["identified"] == ["1"]

    def test_unmet_premise_makes_conditions_not_applicable(self, tmp_path):
        # Validation admits class 1 with no side information (eta = 1), but the
        # advantage conditions assume every identifiable count is at least k_max.
        out = tmp_path / "rates.json"
        path = write_scenario(tmp_path, (2, 3, 3), 1, [[[], [1], [1]]])
        proc = run_cli("rates", path, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["rates"]["identified"] == ["1/6"] and doc["rates"]["unidentified_baseline"] == ["1/5"]
        assert {name: flag["status"] for name, flag in doc["comparison_conditions"].items()} == dict.fromkeys(
            ("sparse_side_information", "uniform_dense_side_information", "single_identifiable_class"),
            "not-applicable",
        )
        for flag in doc["comparison_conditions"].values():
            assert flag["witnesses"] == [["identifiable_depth_premise", 1]]

    def test_scenario_failing_validation_exits_3(self, tmp_path):
        # two_user_three_class fails validation in both modes; ``run`` refuses it too.
        out = tmp_path / "rates.json"
        proc = run_cli("rates", fixture("two_user_three_class.json"), "--out", str(out))
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == ["validation refused: scenario assumptions not met: query_budget"]
        assert proc.stdout == ""
        assert not out.exists()

    def test_uneven_helper_partition_exits_3(self, tmp_path):
        # One helper class (eta = 2) cannot split across two users, so ``run``
        # and ``audit`` refuse the scenario; validation and ``rates`` must too.
        path = write_scenario(
            tmp_path, (6, 6, 6), 2, [[[1, 2, 3], [1, 2, 3], [1]], [[4, 5, 6], [4, 5, 6], [2]]]
        )
        report = validate_scenario(load_scenario(path).scenario, "multi")
        assert [r.name for r in report.failed()] == ["helper_partition"]
        proc = run_cli("rates", path)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == ["validation refused: scenario assumptions not met: helper_partition"]

    def test_collaborative_users_not_judged_by_one_user_conditions(self, tmp_path):
        # Each user alone would do worse than the all-unidentifiable baseline
        # (1/10 < 1/4); that contradicts no advantage condition of a two-user run.
        path = write_scenario(
            tmp_path, (8, 5), 1, [[[1, 2, 3, 4, 5], [1, 2, 3, 4]], [[4, 5, 6, 7, 8], [2, 3, 4, 5]]]
        )
        out = tmp_path / "rates.json"
        proc = run_cli("rates", path, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["rates"]["identified"] == ["1/10", "1/10"]
        assert doc["comparison_conditions"] is None

    def test_naive_rate_sums_each_users_own_runs(self, tmp_path):
        # User 1 holds nothing of class 4 (k_max 0), user 2 holds 10 of it (k_max 10):
        # run alone, each downloads what its own k_max asks, 2 + 22 symbols, which
        # beats the collaborative 33 at the users' joint k_max.
        doc = {
            "classes": [["random"] * 30] * 4,
            "eta": 3,
            "field_order": 101,
            "seed": 0,
            "symbols_per_message": 1,
            "users": [
                {"side_information": [list(range(1, 12))] * 3 + [[]]},
                {"side_information": [list(range(12, 23))] * 3 + [list(range(1, 11))]},
            ],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rates.json"
        proc = run_cli("rates", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rates = json.loads(out.read_text())["rates"]
        assert rates["identified"] == ["1/2", "1/22"]
        assert (rates["multi_user"], rates["naive_multi_user"]) == ("1/33", "1/24")
        s = load_scenario(str(path)).scenario
        downloaded = sum(run_session(replace(s, users=(si,)), 4).downloaded_symbols for si in s.users)
        assert Fraction(rates["naive_multi_user"]) == Fraction(s.store.symbols_per_message, downloaded)


class TestAudit:
    def test_tiny_enumeration_audit(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("audit", fixture("tiny_two_class.json"), "--runs", "50", "--out", str(out))
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        privacy = doc["privacy"]
        assert privacy["pass_rate"] == "1"
        assert privacy["non_repetition_checks"] == 100
        assert privacy["distribution"]["method"] == "enumeration"
        assert privacy["distribution"]["pairs"][0]["tv"] == "0"

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_runs_below_one_exits_2(self, tmp_path, runs):
        out = tmp_path / "report.json"
        proc = run_cli("audit", fixture("tiny_two_class.json"), "--runs", runs, "--out", str(out))
        assert proc.returncode == 2
        assert not out.exists()

    def test_default_runs_documented_as_1000(self):
        proc = run_cli("audit", "--help")
        assert "1000" in proc.stdout

    def test_audit_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run_cli("audit", fixture("tiny_two_class.json"), "--runs", "25", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()


def test_parser_reuse_keeps_calls_apart(tmp_path):
    # The parser is built once per process; a second main() must not see the
    # first call's appended --demand values.
    multi, single = tmp_path / "multi.json", tmp_path / "single.json"
    two_user = fixture("two_user_seven_class.json")
    assert main(["run", two_user, "--demand", "2", "--demand", "3", "--out", str(multi)]) == 0
    assert main(["run", fixture("five_class.json"), "--demand", "3", "--out", str(single)]) == 0
    assert json.loads(multi.read_text())["demands"] == [2, 3]
    assert json.loads(single.read_text())["demands"] == [3]


class TestSelftest:
    def test_exit_zero_and_lists_checks(self):
        proc = run_cli("selftest")
        assert proc.returncode == 0
        lines = [l for l in proc.stdout.splitlines() if l.startswith("ok")]
        assert len(lines) == len(CHECKS) >= 8

    def test_corrupted_golden_fails_by_name(self, monkeypatch):
        import ppir.selftest as st

        corrupted = tuple(
            (name, (lambda: (_ for _ in ()).throw(AssertionError("corrupted"))) if name == "encode_first_row" else fn)
            for name, fn in st.CHECKS
        )
        monkeypatch.setattr(st, "CHECKS", corrupted)
        lines = []
        failures = run_selftest(write=lines.append)
        assert failures == 1
        assert any(l.startswith("FAIL encode_first_row") for l in lines)


@pytest.mark.parametrize("target", ["missing_directory", "directory"])
@pytest.mark.parametrize(
    "command",
    [
        ("run", fixture("five_class.json"), "--demand", "1"),
        ("audit", fixture("tiny_two_class.json"), "--runs", "2"),
        ("rates", fixture("five_class.json")),
    ],
    ids=["run", "audit", "rates"],
)
def test_unwritable_out_exits_2(tmp_path, command, target):
    out = tmp_path / "missing" / "t.json" if target == "missing_directory" else tmp_path
    proc = run_cli(*command, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot write {out}: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_stdout_default(tmp_path):
    proc = run_cli("run", fixture("fsi_three_class.json"), "--demand", "1", "--seed", "2")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["rate"] == "1"


@pytest.mark.parametrize(
    "command",
    [
        ("run", fixture("six_class.json"), "--demand", "2", "--seed", "-7"),
        ("audit", fixture("tiny_two_class.json"), "--runs", "2", "--seed", "-3"),
    ],
    ids=["run", "audit"],
)
def test_negative_seed_exits_2(tmp_path, command):
    # random.Random(-s) draws what random.Random(s) draws, so a negative seed would alias its absolute value.
    out = tmp_path / "out.json"
    proc = run_cli(*command, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: --seed must be a non-negative integer"]
    assert proc.stdout == ""
    assert not out.exists()


def tiny_text(**changes):
    """tiny_two_class as JSON text, with top-level keys replaced."""
    doc = json.loads(fixture_path("tiny_two_class.json").read_text())
    doc.update(changes)
    return json.dumps(doc)


def command_on(command, path):
    return {
        "run": ("run", str(path), "--demand", "1"),
        "audit": ("audit", str(path), "--runs", "1"),
        "rates": ("rates", str(path)),
    }[command]


UNPARSABLE_FILES = {
    "not-utf-8": b"\xff\xfe{",
    # CPython refuses to convert an integer literal of more than 4,300 digits.
    "5000-digit-seed": tiny_text(seed=7).replace('"seed": 7', '"seed": ' + "9" * 5000).encode(),
    "deep-nesting": b"[" * 100_000,
}


@pytest.mark.parametrize("command", ["run", "audit", "rates"])
@pytest.mark.parametrize("name", list(UNPARSABLE_FILES))
def test_unparsable_file_exits_2(tmp_path, name, command):
    path = tmp_path / "scenario.json"
    path.write_bytes(UNPARSABLE_FILES[name])
    proc = run_cli(*command_on(command, path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"parse error: cannot parse {path}: ")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["run", "audit", "rates"])
def test_oversized_store_exits_2_at_once(tmp_path, capsys, command):
    path = tmp_path / "scenario.json"
    path.write_text(tiny_text(symbols_per_message=10**12))
    start = time.perf_counter()
    code = main(list(command_on(command, path)))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    out, err = capsys.readouterr()
    assert err == (
        f"parse error: store of 4 messages x {10**12} symbols exceeds {scenario_io.MAX_STORE_SYMBOLS} symbols\n"
    )
    assert out == ""


def test_store_cap_is_inclusive_and_checked_before_any_row(tmp_path, monkeypatch):
    # tiny_two_class holds 4 all-"random" messages; a cap of 8 admits L = 2 but not L = 3.
    monkeypatch.setattr(scenario_io, "MAX_STORE_SYMBOLS", 8)
    path = tmp_path / "scenario.json"
    path.write_text(tiny_text(symbols_per_message=2))
    assert load_scenario(path).scenario.store.symbols_per_message == 2

    def no_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(scenario, "random_row", no_rows)
    path.write_text(tiny_text(symbols_per_message=3))
    with pytest.raises(MalformedScenario, match="exceeds 8 symbols"):
        load_scenario(path)


def five_class_text(class_index, member, descriptor):
    """five_class as JSON text, with one message's descriptor replaced."""
    doc = json.loads(fixture_path("five_class.json").read_text())
    doc["classes"][class_index][member] = descriptor
    return json.dumps(doc)


UNBUILDABLE_STORES = {
    # Every explicit row is checked when the store is built, the last one too.
    "bad-symbol-in-last-message": (five_class_text(-1, -1, [0, 11]), "message 39 symbol 11 outside [0, 11)"),
    "wrong-length-row": (five_class_text(1, 0, [1, 2, 3]), "message 8: expected 2 symbols, got 3"),
    # All "random": no row gives the length, so it comes from the document.
    "zero-symbols-all-random": (tiny_text(symbols_per_message=0), "messages need at least 1 symbol"),
    "negative-symbols-all-random": (tiny_text(symbols_per_message=-1), "messages need at least 1 symbol"),
}


@pytest.mark.parametrize("command", ["run", "audit", "rates"])
@pytest.mark.parametrize("name", list(UNBUILDABLE_STORES))
def test_unbuildable_store_exits_2(tmp_path, capsys, name, command):
    text, message = UNBUILDABLE_STORES[name]
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main(list(command_on(command, path))) == 2
    out, err = capsys.readouterr()
    assert err == f"parse error: {message}\n"
    assert out == ""


def million_message_document():
    """F = 10**6 all-"random" messages: 8 classes of 125,000, L = 4, eta = 2."""
    counts = [3, 3, 2, 2, 2, 2, 2, 2]
    return {
        "classes": [["random"] * 125_000 for _ in counts],
        "eta": 2,
        "field_order": 2**31 - 1,
        "seed": 11,
        "symbols_per_message": 4,
        "users": [{"side_information": [list(range(1, k + 1)) for k in counts]}],
    }


@pytest.mark.parametrize("command", ["run", "rates"])
def test_million_message_document_runs_in_bounds(tmp_path, command):
    # Only the rows a session reads are made, so neither command expands the store.
    path = tmp_path / "million.json"
    path.write_text(json.dumps(million_message_document()))
    out = tmp_path / "out.json"
    proc = run_cli(*command_on(command, path), "--out", str(out), timeout=10, max_bytes=512 << 20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())


def thousand_class_document():
    """Gamma = 1,000 one-message classes, eta = 1, empty SI, L = 1: a [2000, 1000] code."""
    return {
        "classes": [["random"] for _ in range(1000)],
        "eta": 1,
        "field_order": 2**31 - 1,
        "seed": 0,
        "symbols_per_message": 1,
        "users": [{"side_information": [[] for _ in range(1000)]}],
    }


@pytest.mark.parametrize("command", [("run", "--demand", "2"), ("rates",)], ids=["run", "rates"])
def test_thousand_class_document_runs_in_bounds(tmp_path, command):
    # The code's generator and decoder inverse are closed forms, O(Gamma^2) each.
    path = tmp_path / "thousand.json"
    path.write_text(json.dumps(thousand_class_document()))
    out = tmp_path / "out.json"
    proc = run_cli(command[0], str(path), *command[1:], "--out", str(out), timeout=20, max_bytes=512 << 20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())


def five_class_with(generator):
    doc = json.loads(fixture_path("five_class.json").read_text())
    doc["explicit_generator"] = generator
    return doc


def wide_default_rows_document():
    """Two users, 100 classes of 4, eta = 13, q = 197, carrying the default
    [194, 100] code's own rows: checking their decoder sets once took minutes."""
    gamma, eta, q = 100, 13, 197
    return {
        "field_order": q,
        "symbols_per_message": 1,
        "eta": eta,
        "classes": [["random"] * 4 for _ in range(gamma)],
        "users": [
            {"side_information": [[1, 2]] * eta + [[1]] * (gamma - eta)},
            {"side_information": [[3, 4]] * eta + [[2]] * (gamma - eta)},
        ],
        "explicit_generator": [list(r) for r in build_systematic_generator(194, gamma, PrimeField(q)).rows],
    }


GENERATOR_DOCUMENTS = {
    "five-class-matrix": lambda: five_class_with([list(r) for r in GOLDEN_MATRIX]),
    "null": lambda: five_class_with(None),
    "wide-default-rows": wide_default_rows_document,
}


@pytest.mark.parametrize("command", ["run", "audit", "rates"])
@pytest.mark.parametrize("name", list(GENERATOR_DOCUMENTS))
def test_generator_key_exits_2_at_once(tmp_path, name, command):
    # Every session uses the default code, so a document that names a
    # generator, even the default one or null, is refused before it is read.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(GENERATOR_DOCUMENTS[name]()))
    start = time.perf_counter()
    proc = run_cli(*command_on(command, path), timeout=20)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [
        "parse error: explicit_generator is no longer accepted: every session uses the default code"
    ]
    assert proc.stdout == ""


def run_cli_closed_stdout(*args):
    """Run the CLI with stdout a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "ppir", *args], stdout=write_end, stderr=subprocess.PIPE, text=True, check=False
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "command",
    [("run", fixture("five_class.json"), "--demand", "1"), ("rates", fixture("five_class.json")), ("selftest",)],
    ids=["run", "rates", "selftest"],
)
def test_closed_stdout_exits_2(command):
    proc = run_cli_closed_stdout(*command)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize(
    "command",
    [
        ("run", fixture("tiny_two_class.json"), "--demand", "1"),
        ("audit", fixture("tiny_two_class.json"), "--runs", "1"),
        ("rates", fixture("tiny_two_class.json")),
        ("selftest",),
    ],
    ids=["run", "audit", "rates", "selftest"],
)
def test_started_without_stdout_exits_2(command):
    # With descriptor 1 closed at start-up, Python sets sys.stdout to None.
    proc = subprocess.run(
        [sys.executable, "-m", "ppir", *command],
        stderr=subprocess.PIPE,
        text=True,
        check=False,
        preexec_fn=lambda: os.close(1),
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout:"), proc.stderr


# --out writes the document over the existing file and cuts a regular file to its length.
OUT_COMMANDS = {
    "run": ["run", fixture("tiny_two_class.json"), "--demand", "1"],
    "audit": ["audit", fixture("tiny_two_class.json"), "--runs", "1"],
    "rates": ["rates", fixture("tiny_two_class.json")],
}
LONG_RUN = ["run", fixture("two_user_seven_class.json"), "--demand", "2", "--demand", "3"]


def _stdout_of(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("name", sorted(OUT_COMMANDS))
def test_shorter_document_leaves_no_tail(tmp_path, capsys, name):
    out = tmp_path / "doc.json"
    assert main([*LONG_RUN, "--out", str(out)]) == 0
    longer = out.read_bytes()
    expected = _stdout_of(capsys, OUT_COMMANDS[name])
    assert len(expected) < len(longer)
    assert main([*OUT_COMMANDS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == expected


@pytest.mark.parametrize("name", sorted(OUT_COMMANDS))
def test_out_dev_null_exits_0(capsys, name):
    assert main([*OUT_COMMANDS[name], "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""


def test_out_keeps_the_inode(tmp_path, capsys):
    out, link = tmp_path / "doc.json", tmp_path / "link.json"
    assert main([*LONG_RUN, "--out", str(out)]) == 0
    os.link(out, link)
    assert main([*OUT_COMMANDS["rates"], "--out", str(out)]) == 0
    assert link.read_bytes() == out.read_bytes() == _stdout_of(capsys, OUT_COMMANDS["rates"])


def test_out_creates_a_missing_file(tmp_path, capsys):
    out = tmp_path / "new.json"
    assert main([*OUT_COMMANDS["run"], "--out", str(out)]) == 0
    assert out.read_bytes() == _stdout_of(capsys, OUT_COMMANDS["run"])


def test_out_fifo_is_written_without_truncation(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        code = main([*OUT_COMMANDS["rates"], "--out", str(fifo)])
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert code == 0
    assert received == [_stdout_of(capsys, OUT_COMMANDS["rates"])]
