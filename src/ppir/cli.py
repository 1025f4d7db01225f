"""Command-line front end.

Subcommands:

    ppir run      scenario.json --demand V [--demand V2 ...] [--mode single|multi]
                  [--seed N] [--force] [--out trace.json]
    ppir audit    scenario.json [--runs N] [--mode single|multi] [--seed N] [--out report.json]
    ppir rates    scenario.json [--out report.json]
    ppir selftest

Exit codes: 0 success (``selftest``: 1 when a golden check fails), 2 parse
error, a bad --demand / --runs value, a negative --seed, or an --out path or
stdout that cannot be written (also a process started with stdout closed), 3
validation refused (``rates`` validates too; also when the plan search
exhausted its retries, or ``rates`` met parameters that contradict an
advantage condition), 4 recovery failure (a decoded message differs from the
store, a user gains no new message, or the plan breaks a selection rule).
Identical inputs produce byte-identical output files.  ``--out`` writes the
document over the existing file and then cuts a regular file to the
document's length, so the file keeps its inode and links; a non-regular
target (``/dev/null``, a FIFO) is written without truncation.  ``run`` warns
on stderr when the file's explicit generator does not fit the run's [n, k]
and the default code is used instead.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import stat
import sys

from .analytics import comparison_conditions, privacy_report
from .errors import (
    AssumptionViolated,
    ConditionsInconsistent,
    ExhaustedIndices,
    FieldTooSmall,
    MalformedScenario,
    OutOfRange,
    PartitionInfeasible,
    RecoveryFailed,
)
from .exchange import run_session
from .scenario import validate_scenario
from .scenario_io import (
    REPORT_FORMAT,
    comparison_to_dict,
    dump_json,
    load_scenario,
    privacy_to_dict,
    rates_to_dict,
    trace_to_dict,
    validation_to_dict,
)
from .selftest import run_selftest

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RECOVERY = 4


def _emit(text: str, out_path) -> int:
    """Write the document to ``out_path`` (stdout when unset); exit 2 when it cannot be written.

    The file is overwritten in place, not opened with ``O_TRUNC``: truncating a
    file to zero and rewriting it costs far more on some filesystems than
    overwriting it and cutting off the old tail.
    """
    try:
        if not out_path:
            if sys.stdout is None:  # the process started with descriptor 1 closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(text)
            sys.stdout.flush()
            return EXIT_OK
        with open(os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
            handle.write(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):  # ftruncate fails on /dev/null or a FIFO
                handle.truncate()
    except OSError as exc:
        if not out_path:
            _silence_stdout()
        print(f"error: cannot write {out_path or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def _silence_stdout() -> None:
    """Point stdout's descriptor at the null device, so the exit-time flush cannot fail a second time."""
    if sys.stdout is None:  # descriptor 1 was closed at start-up: nothing is flushed at exit
        return
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # an in-memory stream: nothing reaches a descriptor at exit
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _infer_mode(args, user_count: int) -> str:
    mode = getattr(args, "mode", None)  # ``rates`` has no --mode
    if mode:
        return mode
    return "single" if user_count == 1 else "multi"


def cmd_run(args) -> int:
    loaded = load_scenario(args.scenario)
    scenario = loaded.scenario
    mode = _infer_mode(args, scenario.user_count)
    if not args.demand:
        print("error: at least one --demand is required", file=sys.stderr)
        return EXIT_PARSE
    if mode == "single":
        if len(args.demand) != 1:
            print("error: single mode takes exactly one --demand", file=sys.stderr)
            return EXIT_PARSE
        demands = args.demand[0]
    else:
        demands = tuple(args.demand)
    trace = run_session(
        scenario,
        demands,
        seed=args.seed,
        explicit_generator=loaded.explicit_generator,
        force=args.force,
    )
    explicit = loaded.explicit_generator
    if explicit is not None and (explicit.n, explicit.k) != (trace.code_length, trace.code_dimension):
        print(
            f"warning: explicit_generator is [{explicit.n},{explicit.k}] but this run needs "
            f"[{trace.code_length},{trace.code_dimension}]; the default code was used",
            file=sys.stderr,
        )
    return _emit(dump_json(trace_to_dict(trace)), args.out)


def cmd_audit(args) -> int:
    if args.runs < 1:
        print("error: --runs must be at least 1", file=sys.stderr)
        return EXIT_PARSE
    loaded = load_scenario(args.scenario)
    scenario = loaded.scenario
    mode = _infer_mode(args, scenario.user_count)
    report = privacy_report(
        scenario,
        mode,
        runs=args.runs,
        base_seed=scenario.seed if args.seed is None else args.seed,
    )
    doc = {
        "format": REPORT_FORMAT,
        "scenario_validation": validation_to_dict(validate_scenario(scenario, mode)),
        "privacy": privacy_to_dict(report),
    }
    return _emit(dump_json(doc), args.out)


def cmd_rates(args) -> int:
    loaded = load_scenario(args.scenario)
    scenario = loaded.scenario
    validation = validate_scenario(scenario, _infer_mode(args, scenario.user_count))
    if not validation.ok:
        raise AssumptionViolated(validation)
    params = scenario.params
    doc = {
        "format": REPORT_FORMAT,
        "rates": rates_to_dict(params),
        # The advantage conditions compare one-user rates; they say nothing of a collaborative run.
        "comparison_conditions": (
            comparison_to_dict(comparison_conditions(params)) if params.user_count == 1 else None
        ),
    }
    return _emit(dump_json(doc), args.out)


def cmd_selftest(_args) -> int:
    lines: list[str] = []
    failures = run_selftest(lines.append)
    written = _emit("".join(f"{line}\n" for line in lines), None)
    return 1 if written == EXIT_OK and failures else written


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="ppir",
        description="Pliable private information retrieval with identifiable side information: "
        "plan generation, blind server answers, client decoding, and audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one protocol session and write its trace")
    run.add_argument("scenario", help="scenario JSON file")
    run.add_argument("--demand", type=int, action="append", help="desired class (repeat per user in multi mode)")
    run.add_argument("--mode", choices=("single", "multi"), help="default: single iff one user")
    run.add_argument("--seed", type=int, help="override the scenario seed")
    run.add_argument("--force", action="store_true", help="run even if validation fails")
    run.add_argument("--out", help="trace file path (default: stdout)")
    run.set_defaults(handler=cmd_run)

    audit = sub.add_parser("audit", help="non-repetition census and distribution audit")
    audit.add_argument("scenario")
    audit.add_argument("--runs", type=int, default=1000, help="seeded plans per demand choice (default 1000)")
    audit.add_argument("--mode", choices=("single", "multi"))
    audit.add_argument("--seed", type=int, help="census base seed (default: scenario seed)")
    audit.add_argument("--out", help="report file path (default: stdout)")
    audit.set_defaults(handler=cmd_audit)

    rates = sub.add_parser("rates", help="closed-form rates and advantage conditions")
    rates.add_argument("scenario")
    rates.add_argument("--out", help="report file path (default: stdout)")
    rates.set_defaults(handler=cmd_rates)

    selftest = sub.add_parser("selftest", help="run the embedded golden checks")
    selftest.set_defaults(handler=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # random.Random(-s) draws what random.Random(s) draws: a negative seed would alias its absolute value.
    if (getattr(args, "seed", None) or 0) < 0:  # ``rates`` and ``selftest`` take no --seed
        print("error: --seed must be a non-negative integer", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.handler(args)
    except MalformedScenario as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OutOfRange as exc:  # a --demand outside [1, class count], or the wrong number of them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # FieldTooSmall: a forced run whose code is longer than the field order
    except (AssumptionViolated, PartitionInfeasible, ExhaustedIndices, ConditionsInconsistent, FieldTooSmall) as exc:
        print(f"validation refused: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RecoveryFailed as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return EXIT_RECOVERY


if __name__ == "__main__":
    sys.exit(main())
