"""Spans and counters recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` is instrumented.  A traced run wraps the public
functions of each ``ppir`` module and, for the duration of one op, rebinds the
names through which other ``ppir`` modules call them (``cli.load_scenario``,
``exchange.answer_query``, ``analytics.tv_distance`` and so on).  The wrappers
record a span per call and count what the layer did; the originals are always
restored.
"""

from __future__ import annotations

import json
import random
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

import ppir
from ppir import analytics, cli, exchange, queries
from ppir.scenario_io import dump_json, load_scenario, privacy_to_dict, trace_to_dict


class CountingRandom(random.Random):
    """A ``random.Random`` that counts the ``getrandbits`` calls drawn from it.

    ``randrange`` draws through ``getrandbits``, so the count is the number of
    draws the plan builders took from the stream; the stream itself is the
    stock Mersenne Twister for the same seed.
    """

    def __init__(self, seed, counter: Counter):
        self._counter = counter
        super().__init__(seed)

    def getrandbits(self, k: int) -> int:
        self._counter["queries.rng_draws"] += 1
        return super().getrandbits(k)


class Tracer:
    """In-memory spans for the traced ops of one run.

    A span is (op, id, parent, name, start, end); spans of one op share the op
    number, and ``parent`` is the span open when it started.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[span_id] = (self.op, span_id, parent, name, start, time.perf_counter())

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_ms(self) -> dict:
        """{op: {span name: summed duration minus the time direct children cover, in ms}}."""
        child_time: dict = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for op, span_id, _, name, start, end in self.spans:
            out[op][name] += (end - start - child_time[span_id]) * 1e3
        return out

    def write(self, path) -> None:
        """All spans as JSON lines, times in seconds from the first span."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for op, span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "op": op, "id": span_id, "parent": parent, "name": name,
                    "start": start - origin, "end": end - origin,
                }) + "\n")


class Layers:
    """The public ``ppir`` functions the benchmark calls, either bare or traced.

    ``Layers()`` holds the originals.  ``Layers(tracer)`` holds span-recording
    wrappers, and ``patched()`` rebinds them inside the ``ppir`` modules that
    call them, so spans also cover calls the library makes internally.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        bare = {
            "load_scenario": load_scenario,
            "validate_scenario": ppir.validate_scenario,
            "random_store": ppir.random_store,
            "message_store": ppir.MessageStore,
            "run_session": ppir.run_session,
            "generate_single_user_plan": ppir.generate_single_user_plan,
            "generate_multi_user_plan": ppir.generate_multi_user_plan,
            "session_generator": ppir.session_generator,
            "answer_query": ppir.answer_query,
            "decode_answer": ppir.decode_answer,
            "trace_to_dict": trace_to_dict,
            "privacy_to_dict": privacy_to_dict,
            "dump_json": dump_json,
            "privacy_report": ppir.privacy_report,
            "query_distribution": ppir.query_distribution,
            "sample_query_distribution": ppir.sample_query_distribution,
            "tv_distance": ppir.tv_distance,
            "cli_main": cli.main,
        }
        self.__dict__.update(bare)
        if tracer is None:
            return
        span_of = {
            "load_scenario": "scenario_io.load",
            "validate_scenario": "scenario.validate",
            "message_store": "scenario.store_build",
            "run_session": "exchange.session",
            "session_generator": "mds.generator",
            "answer_query": "exchange.answer",
            "trace_to_dict": "scenario_io.dump",
            "privacy_to_dict": "scenario_io.dump",
            "dump_json": "scenario_io.dump",
            "privacy_report": "analytics.census",
            "tv_distance": "analytics.tv",
            "cli_main": "cli.main",
        }
        for name, span in span_of.items():
            setattr(self, name, tracer.wrap(span, bare[name]))
        self.validate_scenario = self._counted(self.validate_scenario, "scenario.validate_calls")
        for name in ("generate_single_user_plan", "generate_multi_user_plan"):
            setattr(self, name, self._plan(bare[name]))
        self.decode_answer = self._decode(bare["decode_answer"])
        self.query_distribution = self._enumerate(bare["query_distribution"])
        self.sample_query_distribution = self._sample(bare["sample_query_distribution"])
        self._random = types.SimpleNamespace(
            Random=lambda seed=None: CountingRandom(seed, tracer.counts)
        )

    def _counted(self, fn, counter: str):
        def counted(*args, **kwargs):
            self.tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _plan(self, fn):
        """Plan builder fed a counting RNG seeded exactly as the library seeds it."""

        def plan(s, demands, *, seed=None, rng=None, force=False):
            if rng is None:
                rng = CountingRandom(s.seed if seed is None else seed, self.tracer.counts)
            with self.tracer.span("queries.plan"):
                return fn(s, demands, rng=rng, force=force)

        return plan

    def _decode(self, fn):
        def decode(*args, **kwargs):
            self.tracer.counts["exchange.decode_attempts"] += 1
            with self.tracer.span("exchange.decode"):
                out = fn(*args, **kwargs)
            self.tracer.counts["exchange.decode_useful"] += 1
            return out

        return decode

    def _enumerate(self, fn):
        def enumerate_(*args, **kwargs):
            self.tracer.counts["analytics.enumerate_attempts"] += 1
            with self.tracer.span("analytics.enumerate"):
                dist = fn(*args, **kwargs)
            self.tracer.counts["analytics.enumerate_useful"] += 1
            self.tracer.counts["analytics.support_size"] += len(dist)
            return dist

        return enumerate_

    def _sample(self, fn):
        def sample(*args, **kwargs):
            with self.tracer.span("analytics.sample"):
                dist = fn(*args, **kwargs)
            self.tracer.counts["analytics.support_size"] += len(dist)
            return dist

        return sample

    @contextmanager
    def patched(self):
        """Rebind the traced functions inside the ppir modules that call them."""
        targets = [
            (cli, "load_scenario", self.load_scenario),
            (cli, "validate_scenario", self.validate_scenario),
            (cli, "run_session", self.run_session),
            (cli, "trace_to_dict", self.trace_to_dict),
            (cli, "dump_json", self.dump_json),
            (queries, "validate_scenario", self.validate_scenario),
            (exchange, "generate_single_user_plan", self.generate_single_user_plan),
            (exchange, "generate_multi_user_plan", self.generate_multi_user_plan),
            (exchange, "session_generator", self.session_generator),
            (exchange, "answer_query", self.answer_query),
            (exchange, "decode_answer", self.decode_answer),
            (analytics, "query_distribution", self.query_distribution),
            (analytics, "sample_query_distribution", self.sample_query_distribution),
            (analytics, "tv_distance", self.tv_distance),
            (analytics, "random", self._random),
        ]
        # A name a later version no longer imports is skipped, not an error.
        targets = [t for t in targets if hasattr(t[0], t[1])]
        saved = [(module, name, getattr(module, name)) for module, name, _ in targets]
        try:
            for module, name, value in targets:
                setattr(module, name, value)
            yield
        finally:
            for module, name, value in saved:
                setattr(module, name, value)


def inverse_cache_stats() -> tuple[int, int]:
    """(hits, misses) of the codec's column-inverse cache, or (0, 0) if it has none."""
    info = getattr(getattr(ppir.mds, "_column_inverse", None), "cache_info", None)
    if info is None:
        return (0, 0)
    stats = info()
    return (stats.hits, stats.misses)

