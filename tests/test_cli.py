import json
import os
import random
import subprocess
import sys
import threading
import time

import pytest

from helpers import wide_helper_document
from ppir import load_scenario, scenario_io, validate_scenario, verify_mds
from ppir.cli import main
from ppir.errors import MalformedScenario
from ppir.fixtures import fixture_path
from ppir.selftest import CHECKS, run_selftest


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "ppir", *args], capture_output=True, text=True, check=False, timeout=timeout
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
            pytest.param("five_class.json", ("explicit_generator", 0), 5, id="generator-row-int"),
            # JSON true is a Python int; each of these would otherwise load as 1.
            pytest.param("tiny_two_class.json", ("eta",), True, id="bool-eta"),
            pytest.param("tiny_two_class.json", ("seed",), True, id="bool-seed"),
            pytest.param("tiny_two_class.json", ("symbols_per_message",), True, id="bool-symbols-per-message"),
            pytest.param("five_class.json", ("explicit_generator", 0, 0), True, id="bool-generator-entry"),
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

    def test_misfit_explicit_generator_warns(self, tmp_path):
        # With eta = 2 a single-user run needs n = 2*5 - 1 = 9, so the file's
        # [8,5] generator cannot be used; the run says so and otherwise behaves
        # exactly as if the file had no generator.
        doc = json.loads(fixture_path("five_class.json").read_text())
        doc["eta"] = 2
        doc["users"][0]["identified_classes"] = [1, 2]
        misfit = tmp_path / "misfit.json"
        misfit.write_text(json.dumps(doc))
        del doc["explicit_generator"]
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(doc))
        traces = []
        for path in (misfit, plain):
            out = tmp_path / f"{path.stem}.trace.json"
            proc = run_cli("run", str(path), "--demand", "1", "--force", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            traces.append((proc.stderr, out.read_bytes()))
        (warned, misfit_trace), (silent, plain_trace) = traces
        assert misfit_trace == plain_trace
        assert silent == ""
        lines = warned.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning:")
        assert "[8,5]" in lines[0] and "[9,5]" in lines[0]

    def test_fitting_explicit_generator_is_silent(self):
        proc = run_cli("run", fixture("five_class.json"), "--demand", "1")
        assert proc.returncode == 0
        assert proc.stderr == ""

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

    monkeypatch.setattr(scenario_io, "random_symbol", no_rows)
    path.write_text(tiny_text(symbols_per_message=3))
    with pytest.raises(MalformedScenario, match="exceeds 8 symbols"):
        load_scenario(path)


def rank_nine_parity_document():
    """Ten classes, one identifiable, q = 2**31 - 1: the decoder inverts only the
    all-parity columns 11..20, and the parity block's last row combines the others."""
    q = 2**31 - 1
    rng = random.Random(3)
    parity = [[rng.randrange(q) for _ in range(10)] for _ in range(9)]
    weights = [rng.randrange(1, q) for _ in range(9)]
    parity.append([sum(w * row[j] for w, row in zip(weights, parity)) % q for j in range(10)])
    return {
        "field_order": q,
        "symbols_per_message": 2,
        "eta": 1,
        "classes": [["random"] * 2 for _ in range(10)],
        "users": [{"side_information": [[1]] + [[]] * 9}],
        "explicit_generator": [[int(i == j) for j in range(10)] + parity[i] for i in range(10)],
    }


@pytest.mark.parametrize("command", ["run", "audit", "rates"])
def test_generator_singular_on_a_decoder_set_exits_2(tmp_path, capsys, command):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(rank_nine_parity_document()))
    assert main(list(command_on(command, path))) == 2
    out, err = capsys.readouterr()
    assert err == f"parse error: bad explicit_generator: singular decoder column set {tuple(range(11, 21))}\n"
    assert out == ""


def test_generator_singular_only_off_the_decoder_sets_loads(tmp_path, capsys):
    # five_class decodes from two of the identifiable columns 1..3 plus the
    # parities 6..8.  A zero at row 5, column 6 makes columns (1, 2, 3, 4, 6)
    # singular, and every such set holds an unidentifiable column.
    doc = json.loads(fixture_path("five_class.json").read_text())
    doc["explicit_generator"][4][5] = 0
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    generator = load_scenario(path).explicit_generator
    assert not verify_mds(generator)
    for demand in range(1, 6):
        assert main(["run", str(path), "--demand", str(demand), "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("command", ["run", "audit", "rates"])
def test_too_many_decoder_sets_exits_2_at_once(tmp_path, capsys, command):
    # 25 identifiable classes over 8 users disclose (25 - 1) / 8 = 3 known
    # positions, so a [49, 26] generator has C(25, 3) = 2,300 decoder column sets.
    k, n, q = 26, 49, 101
    doc = {
        "field_order": q,
        "symbols_per_message": 1,
        "eta": 25,
        "classes": [["random"] * 4 for _ in range(k)],
        "users": [{"side_information": [[1 + u % 4]] * k} for u in range(8)],
        "explicit_generator": [[int(i == j) for j in range(k)] + [1 + (i * j) % (q - 1) for j in range(n - k)] for i in range(k)],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(list(command_on(command, path))) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert err == "parse error: bad explicit_generator: C(25, 3) = 2300 decoder column sets exceed the 2000 checked\n"
    assert out == ""


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
