"""Committed SHA-256 digests of trace and report bytes.

A speedup must not change a single output byte, so these digests pin the
serialized sessions and three audit reports: one exact enumeration and two
Monte Carlo estimates, one of whose TV values is 1/25 rather than the
saturated "1" every pair of a larger fixture reports.  They also pin the
other documents ``dump_json`` writes: ``ppir rates`` on every fixture that
passes validation (a null, mixed string/int witness lists), two whole
``ppir audit`` documents, and validation reports with failing rules and tuple
witnesses.  Each fixture digest covers every demand choice of that fixture at
one seed: the traces' canonical JSON in demand order, or the error class name
for a forced run that fails.  Fixtures that fail validation
(two_user_three_class) run forced, which also exercises plan retries and
recovery failures.  One-user fixtures are also pinned in multi mode (``ppir
run --mode multi``), forced where that mode's validation refuses them
(five_class).

The default ``ppir audit five_class.json`` (1000 runs, scenario seed) is
pinned at 797b322d835549846185fac085737fd44d69c149031f4c8e23408623ddf56761:
its single-user enumeration exceeds the leaf limit, is refused after one leaf,
and the report falls back to 2,000-sample Monte Carlo.
"""

import hashlib
import itertools

import pytest

from helpers import load_fixture
from ppir import privacy_report, run_session, validate_scenario
from ppir.cli import main
from ppir.errors import PpirError
from ppir.fixtures import fixture_path
from ppir.scenario_io import dump_json, privacy_to_dict, trace_to_dict, validation_to_dict

SESSION_DIGESTS = {
    ("five_class.json", 1):
        "fb38610a791baca94e6aeb9678504c90dd044e4414d44bee0779441f07210a29",
    ("five_class.json", 2):
        "98430e99e57f284b9f3b8865f09ba12b81bc70248d6eb41d108fc6195d04faca",
    ("six_class.json", 1):
        "433b94a05529c52fd9981c55af28e08ccf13d36865c20a5478d3a17d78195938",
    ("six_class.json", 2):
        "bbe9f2ed6718ca7f7b07456ad30d57b07fd515255774ee49e73fadd3e19e7cd6",
    ("fsi_three_class.json", 1):
        "6a001d43a7a3ee77e2c8b0a7c49b7cddf2ad830d56567323f5896e0f54858826",
    ("fsi_three_class.json", 2):
        "63f12fd5dea19b12613c62cf293e67e30bd41bb8a54f8054f8aeaa0a714d1756",
    ("tiny_two_class.json", 1):
        "eb9d7788de905cacf154aada8cf253334eda3c20bd9ee23bd2e7c9105c3d2823",
    ("tiny_two_class.json", 2):
        "c1f5dfde0341147ef8506c04dff3117b4f54da09377c0f1c2e813963531d99bd",
    ("two_user_seven_class.json", 1):
        "bd09dbbc5983c757dcae77df5febd49ec8872a4a08141c69d429f644d10e61b8",
    ("two_user_seven_class.json", 2):
        "296f47d936b4fe9f1082efb840c662d100f33b820ed3a3715f850f2eb3dcfb72",
    ("two_user_three_class.json", 1):
        "e1d60ac8a7f55d917d9cbceb9c209d523f4763ceb82433300a5cdbd3128f6015",
    ("two_user_three_class.json", 2):
        "9e09a4f78d691b7faaa90dad98f83d4bf336ceb0b5feb90a7af6e96c3d05e51e",
}

# One-user fixtures in multi mode: run_session(s, (v,)) for every class v.
ONE_USER_MULTI_DIGESTS = {
    ("five_class.json", 1):
        "740a64076ce06a12ca4cbc74f9b9afddcf5b7e9b9ef0681a662fb32d4d7fd7eb",
    ("six_class.json", 1):
        "61d6399697c0cb21fe40b15fd5e7d7b355ba6a24a66e6d6c07c016c0d7f36cdb",
    ("fsi_three_class.json", 1):
        "386d634a6e4b4c6c27e7bc8bb24a7a0c56c5ade032e22b10cdd402f54cff6eab",
    ("tiny_two_class.json", 1):
        "30906a3a6071f93eac7f5df62c65dd8c90f14532f095eaab6b22a0af285d198f",
}

TINY_REPORT_DIGEST = "ed4a53ec09bd041410830e240137b142966cf1487680db095caf43b29d90c884"

MONTE_CARLO_REPORT_DIGESTS = {
    # TV 1/25 between the two demands
    ("tiny_two_class.json", "single", 5, 1, 50):
        "eaca165fbe65b14ee256fc0792e5926c8c36681ba60203fe4087a5fa7a093e91",
    # 1,176 demand pairs
    ("two_user_seven_class.json", "multi", 1, 4, 2):
        "8a8032cea13575380d7ff899777f15a5b6b90eec3be8812438e9816fd8ab2b82",
}

# ``ppir rates FIXTURE`` output; two_user_three_class fails validation (exit 3).
RATES_DIGESTS = {
    "five_class.json": "331aaf445897a42f9d54dc2cbe22e0e38eb93b93bdc9786f88f2573c487c5f0d",
    "six_class.json": "2365af2f7940a9250e9e299d379e26a173e17310d3f4af792d014afa89611bc6",
    "fsi_three_class.json": "edade895d2711b7a34d34b7eaac823604661be5499aaebc1c2efae31d6e39d8e",
    "tiny_two_class.json": "73ed7d67eaa5f1e176a3f14bec648ac3affa4567d04a2d9a01f86c836e99dd1f",
    "two_user_seven_class.json": "9654f166956dac852f4cb6e82a9c639a6db10197fac122b22d1e4e7acc5fc5be",
}

# ``ppir audit tiny_two_class.json --runs 2 --seed 3``, scenario_validation included.
AUDIT_CLI_DIGEST = "fd77a76d5b2470494f4234bdcb180dc06505e81638013004eb053bd5d8e14add"

# ``ppir audit five_class.json`` with the default runs and seed.
FIVE_CLASS_DEFAULT_AUDIT_DIGEST = "797b322d835549846185fac085737fd44d69c149031f4c8e23408623ddf56761"

# validation_to_dict(validate_scenario(...)): failing rules with empty witness
# lists (two_user_three_class), and with tuple witnesses (five_class in multi mode).
VALIDATION_DIGESTS = {
    ("two_user_three_class.json", "single"):
        "5ce1e950fed1a0b1542a2c7943636ad5729c83cddf262d4d21da99e5523abbba",
    ("two_user_three_class.json", "multi"):
        "6a37195192b1e3f08db7447cf544d4887ef41905d889a655313197b45cecd398",
    ("five_class.json", "multi"):
        "566e6b759f7c397480d01bd86e9e4a0261dbbd25f277f5418247997fc83a2af1",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digest(tmp_path, *argv) -> str:
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    return sha256(out.read_bytes())


def session_digest(name: str, seed: int, mode=None) -> str:
    loaded = load_fixture(name)
    s = loaded.scenario
    classes = range(1, s.class_count + 1)
    mode = mode or ("single" if s.user_count == 1 else "multi")
    if mode == "single":
        demand_space = classes
    else:
        demand_space = itertools.product(classes, repeat=s.user_count)
    force = not validate_scenario(s, mode).ok
    digest = hashlib.sha256()
    for demands in demand_space:
        try:
            trace = run_session(
                s, demands, seed=seed, explicit_generator=loaded.explicit_generator, force=force
            )
        except PpirError as exc:
            digest.update(f"{type(exc).__name__}\n".encode())
        else:
            digest.update(dump_json(trace_to_dict(trace)).encode())
    return digest.hexdigest()


def report_digest(name: str, mode: str, **kwargs) -> str:
    report = privacy_report(load_fixture(name).scenario, mode, **kwargs)
    return sha256(dump_json(privacy_to_dict(report)).encode())


@pytest.mark.parametrize("name,seed", sorted(SESSION_DIGESTS))
def test_session_bytes(name, seed):
    assert session_digest(name, seed) == SESSION_DIGESTS[name, seed]


@pytest.mark.parametrize("name,seed", sorted(ONE_USER_MULTI_DIGESTS))
def test_one_user_multi_session_bytes(name, seed):
    assert session_digest(name, seed, "multi") == ONE_USER_MULTI_DIGESTS[name, seed]


def test_tiny_report_bytes():
    assert report_digest("tiny_two_class.json", "single", runs=50) == TINY_REPORT_DIGEST


@pytest.mark.parametrize("name,mode,runs,enum_limit,mc_samples", sorted(MONTE_CARLO_REPORT_DIGESTS))
def test_monte_carlo_report_bytes(name, mode, runs, enum_limit, mc_samples):
    digest = report_digest(
        name, mode, runs=runs, base_seed=3, enum_limit=enum_limit, mc_samples=mc_samples
    )
    assert digest == MONTE_CARLO_REPORT_DIGESTS[name, mode, runs, enum_limit, mc_samples]


@pytest.mark.parametrize("name", sorted(RATES_DIGESTS))
def test_rates_bytes(name, tmp_path):
    assert cli_digest(tmp_path, "rates", str(fixture_path(name))) == RATES_DIGESTS[name]


def test_audit_cli_bytes(tmp_path):
    argv = ("audit", str(fixture_path("tiny_two_class.json")), "--runs", "2", "--seed", "3")
    assert cli_digest(tmp_path, *argv) == AUDIT_CLI_DIGEST


def test_five_class_default_audit_bytes(tmp_path):
    argv = ("audit", str(fixture_path("five_class.json")))
    assert cli_digest(tmp_path, *argv) == FIVE_CLASS_DEFAULT_AUDIT_DIGEST


@pytest.mark.parametrize("name,mode", sorted(VALIDATION_DIGESTS))
def test_validation_bytes(name, mode):
    report = validate_scenario(load_fixture(name).scenario, mode)
    assert sha256(dump_json(validation_to_dict(report)).encode()) == VALIDATION_DIGESTS[name, mode]
