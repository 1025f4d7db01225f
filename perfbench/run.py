"""ppir benchmark: one workload as a closed loop with one caller, one JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide-classes --seed 1 --seconds 20 --trace 0

The benchmark imports ``ppir`` from ``src/`` of the same checkout and exits
with code 2, printing no result, if it is not there.  It runs ops back to
back for ``--seconds`` seconds (and at least 100 ops at full size), checking
every output.  The workload's inputs are drawn from ``--seed`` once, untimed;
the scenarios are set up from them again in rounds spread through the loop
(``setup_s`` is the median round).

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
runs every op twice, untraced and traced in alternating order, requires both
to give the same bytes, and reports per-layer self times and counters; spans
are written to ``perfbench/out/``.  The line before the result holds run
details: sizes, sample count, failed fraction, a SHA-256 over the outputs of
the first ops of the seeded sequence, Python version, nproc, CPU model and
git commit.  ``--quick`` shrinks every input for the self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fixture-cli", "wide-classes", "long-messages", "audit")

# Set-up is timed in SETUP_ROUNDS rounds spread evenly over the op loop, so it
# sees the same mix of host load as the ops do.  A round sets up at least once
# and until SETUP_ROUND_S is spent, and yields its mean set-up time: a set-up
# of a millisecond sees one moment of a host whose speed swings by up to 1.8x
# from second to second, and the median of such single set-ups flips with that
# mix, while a round's mean spans it.  setup_s is the median round.
SETUP_ROUNDS = 12
SETUP_ROUND_S = 0.5
# A full-size run makes at least this many ops, so op_ms.p90 has ten samples beyond it.
MIN_OPS = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="minimal input sizes (self-test)")
    return parser.parse_args(argv)


def program_present() -> bool:
    """Import ppir from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ppir
    except ImportError:
        return False
    return Path(ppir.__file__).resolve().parent == (src / "ppir").resolve()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed(fn, *args):
    """(seconds, value, error) of one call; a failing op still counts its time."""
    start = time.perf_counter()
    try:
        value, error = fn(*args), None
    except (Exception, SystemExit) as exc:  # SystemExit: argparse refusing a CLI argument
        value, error = None, exc
    return time.perf_counter() - start, value, error


def checked(wl, state, spec, outcome):
    """Output bytes of one op, or the error that made it fail."""
    _, value, error = outcome
    if error is not None:
        return None, error
    try:
        return wl.check(state, spec, value), None
    except Exception as exc:
        return None, exc


def setup_round(wl, layers, inputs, out_dir):
    """Set-up times of one round, and the scenarios set up.

    The caller drops its own reference to the previous scenarios first, so no
    two sets of them are alive at once.  The op sequence's RNG is part of the
    inputs, so the ops go on as in a run that never set up again.
    """
    times, state = [], None
    while not times or sum(times) < SETUP_ROUND_S:
        state = None  # free the previous scenarios before building the next
        if layers.tracer is not None:
            layers.tracer.op = ("setup", len(times))
        start = time.perf_counter()
        state = wl.setup(layers, inputs, out_dir)
        times.append(time.perf_counter() - start)
    return times, state


def min_ops(wl, args):
    return max(wl.hash_ops, 1 if args.quick else MIN_OPS)


def percentile_ms(durations, which):
    if len(durations) < 2:
        return durations[0] * 1e3
    if which == 50:
        return statistics.median(durations) * 1e3
    return statistics.quantiles(durations, n=10)[-1] * 1e3


class Tally:
    """Attempted and failed ops, the first errors, and the output hash of the first ops."""

    def __init__(self, hash_ops: int):
        self.hash_ops = hash_ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.hasher = hashlib.sha256()
        self.hashed = 0

    def record(self, i: int, data, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append(f"op {i}: {type(error).__name__}: {error}")
        elif i < self.hash_ops:
            self.hasher.update(data)
            self.hashed += 1

    def info(self) -> dict:
        return {
            "failed_frac": self.failed / self.attempted if self.attempted else 0.0,
            "errors": self.errors,
            "trace_sha256": self.hasher.hexdigest(),
            "hashed_ops": self.hashed,
        }


def untraced_loop(wl, bare, inputs, args, out_dir):
    tally = Tally(wl.hash_ops)
    durations, round_means, state = [], [], None
    start, setup_wall, setup_reps = time.perf_counter(), 0.0, 0
    i = 0
    while True:
        busy = time.perf_counter() - start - setup_wall
        if len(round_means) < SETUP_ROUNDS and busy >= len(round_means) * args.seconds / SETUP_ROUNDS:
            round_start = time.perf_counter()
            state = spec = outcome = None
            times, state = setup_round(wl, bare, inputs, out_dir)
            setup_wall += time.perf_counter() - round_start
            round_means.append(statistics.fmean(times))
            setup_reps += len(times)
            continue
        if i >= min_ops(wl, args) and busy >= args.seconds:
            break
        spec = wl.spec(state, i)
        outcome = timed(wl.run, state, spec, bare)
        durations.append(outcome[0])
        tally.record(i, *checked(wl, state, spec, outcome))
        i += 1
    # Throughput and the median are reported but not gated.  On a host that
    # switches between a fast and a slow state every few seconds, op times form
    # two clusters; the mean and the median follow the share of the run spent
    # in each, while p90 stays in the slow cluster.
    metrics = {
        "op_ms.p90": (percentile_ms(durations, 90), "ms"),
        "setup_s": (statistics.median(round_means), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "op_samples": len(durations),
        "ops_per_s": (tally.attempted - tally.failed) / sum(durations),
        "op_ms.p50": percentile_ms(durations, 50),
        "setup_reps": setup_reps,
        "setup_s_quartiles": statistics.quantiles(round_means, n=4),
    }
    return tally, metrics, extra


def traced_loop(wl, state, bare, layers, tracer, args):
    from tracing import inverse_cache_stats
    from workloads import Broken

    tally = Tally(wl.hash_ops)
    times = {False: [], True: []}
    deltas = {}
    cache = [0, 0]
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < min_ops(wl, args) or time.perf_counter() < deadline:
        spec = wl.spec(state, i)
        out = {}
        traced_first = i % 2 == 1
        for traced in (traced_first, not traced_first):
            if traced:
                tracer.op = i
                before, cache_before = Counter(tracer.counts), inverse_cache_stats()
                with layers.patched():
                    outcome = timed(wl.run, state, spec, layers)
                deltas[i] = tracer.counts - before
                if traced_first:  # a second run of the same op would only hit the cache
                    for k, (now, then) in enumerate(zip(inverse_cache_stats(), cache_before)):
                        cache[k] += now - then
            else:
                outcome = timed(wl.run, state, spec, bare)
            times[traced].append(outcome[0])
            out[traced] = checked(wl, state, spec, outcome)
        data, error = out[False]
        if error is None:
            error = out[True][1]
        if error is None and out[True][0] != data:
            error = Broken("traced output differs from the untraced output")
        tally.record(i, data, error)
        i += 1

    self_ms = tracer.self_ms()
    ops = list(deltas)

    def med_ms(span):
        return statistics.median(self_ms[op].get(span, 0.0) for op in ops)

    def total(counter, only=None):
        return sum(deltas[op][counter] for op in (only if only is not None else ops))

    def ratio(useful, attempts):
        return total(useful) / total(attempts) if total(attempts) else 0.0

    setups = [op for op in self_ms if isinstance(op, tuple)]
    spans = [
        "cli.main", "scenario_io.load", "scenario_io.dump", "scenario.validate",
        "exchange.session", "queries.plan", "mds.generator", "exchange.answer",
        "exchange.decode", "analytics.census", "analytics.enumerate", "analytics.sample",
        "analytics.tv",
    ]
    metrics = {span + "_ms": (med_ms(span), "ms") for span in spans}
    metrics.update({
        "scenario.validate_calls": (total("scenario.validate_calls") / len(ops), "count"),
        "scenario.store_build_s": (
            statistics.median(self_ms[op].get("scenario.store_build", 0.0) for op in setups) / 1e3, "s"),
        "queries.rng_draws": (total("queries.rng_draws", [op for op in ops if op < wl.hash_ops]), "count"),
        "mds.inverse_cache_hit_ratio": (cache[0] / sum(cache) if sum(cache) else 0.0, "ratio"),
        "exchange.decode_useful_ratio": (ratio("exchange.decode_useful", "exchange.decode_attempts"), "ratio"),
        "analytics.enumerate_useful_ratio": (
            ratio("analytics.enumerate_useful", "analytics.enumerate_attempts"), "ratio"),
        "analytics.support_size": (statistics.median(deltas[op]["analytics.support_size"] for op in ops), "count"),
        "trace.untraced_op_ms": (percentile_ms(times[False], 50), "ms"),
        "trace.traced_op_ms": (percentile_ms(times[True], 50), "ms"),
    })
    metrics["trace.overhead_ms"] = (metrics["trace.traced_op_ms"][0] - metrics["trace.untraced_op_ms"][0], "ms")

    traced_total = sum(times[True]) * 1e3
    share = {span: sum(self_ms[op].get(span, 0.0) for op in ops) / traced_total for span in spans}
    spans_file = HERE / "out" / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(spans_file)
    extra = {
        "op_samples": len(ops),
        "layer_share": {k: v for k, v in share.items() if v > 0},
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return tally, metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not program_present():
        print(f"error: no ppir package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    from tracing import Layers, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    bare = Layers()
    tracer = Tracer() if args.trace else None
    layers = Layers(tracer) if tracer else bare

    if tracer is not None:
        tracer.op = "inputs"
    start = time.perf_counter()
    inputs = wl.inputs(layers, args.seed, args.quick)
    inputs_s = time.perf_counter() - start
    if tracer is None:
        tally, metrics, extra = untraced_loop(wl, bare, inputs, args, out_dir)
    else:
        setup_times, state = setup_round(wl, layers, inputs, out_dir)
        tally, metrics, extra = traced_loop(wl, state, bare, layers, tracer, args)
        extra["setup_reps"] = len(setup_times)

    info = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "quick": args.quick,
        "sizes": wl.sizes(args.quick),
        "loop": "closed, 1 caller",
        "inputs_s": inputs_s,
        **extra,
        **tally.info(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
