"""Smoke test of the benchmark workloads against the current library.

One quick-size op of each workload in ``perfbench/`` runs untraced and then
traced, and the workload's own check gates both outputs.  A change that breaks
a name the benchmark binds (``sequential_class_map``, ``MessageStore``,
``pair_to_global`` and so on) fails here instead of in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Layers, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_quick_op(name, tmp_path):
    wl = WORKLOADS[name]
    bare = Layers()
    state = wl.setup(bare, wl.inputs(bare, 0, True), tmp_path)
    spec = wl.spec(state, 0)
    untraced = wl.check(state, spec, wl.run(state, spec, bare))

    layers = Layers(Tracer())
    with layers.patched():
        traced = wl.check(state, spec, wl.run(state, spec, layers))
    assert traced == untraced
    assert layers.tracer.spans
