"""Self-test of the benchmark: every workload at minimal size, untraced and traced.

    python3 perfbench/selftest.py

For each run it checks that the result line has exactly the keys the
benchmark contract names, that every metric ``BENCHMARK.json`` lists is
printed with its unit and nothing else, and that no op failed.  It also runs
the benchmark in a directory holding only ``BENCHMARK.json`` and this
directory, where it must exit non-zero without printing a result.  Exits 1 on
any problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run


def check_run(argv, wanted) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().splitlines()
    if code != 0 or len(lines) < 2:
        return [f"exit code {code}, {len(lines)} lines of output"]
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or info["failed_frac"] != 0:
        problems.append(f"failed ops: {result.get('failed')} {info['errors']}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    printed = result.get("metrics", {})
    if set(printed) != set(wanted):
        problems.append(f"metrics differ: missing {sorted(set(wanted) - set(printed))}, "
                        f"extra {sorted(set(printed) - set(wanted))}")
    for name, unit in wanted.items():
        entry = printed.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{name}: value {value!r} is not a number")
    return problems


def check_without_program() -> list[str]:
    """Run in a bare copy: BENCHMARK.json plus this directory, no sources."""
    bare = run.HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "audit", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {trace: {m["name"]: m["unit"] for m in spec[key]}
              for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            argv = ["--workload", workload["name"], "--seed", "7", "--seconds", "0.5",
                    "--trace", str(trace), "--quick"]
            problems = check_run(argv, wanted[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok'} {workload['name']} trace={trace}", *problems, sep="\n  ")
    problems = check_without_program()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok'} bare checkout exits non-zero", *problems, sep="\n  ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
