"""The benchmark's probes (``perfbench/probes.py``) against the package.

The probes patch module attributes of the package by name, so a rename
there breaks the traced benchmark; these tests catch that in this suite.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import probes  # noqa: E402
from tracing import Patcher, Tracer  # noqa: E402

import otlab.cli  # noqa: E402
import otlab.engine.autodiff  # noqa: E402
import otlab.engine.checkpoint  # noqa: E402
import otlab.engine.model  # noqa: E402
import otlab.engine.ops  # noqa: E402
import otlab.engine.optim  # noqa: E402
import otlab.engine.train  # noqa: E402
import otlab.evaluation  # noqa: E402
import otlab.metric  # noqa: E402
import otlab.occlusion  # noqa: E402
from otlab.config import ExperimentConfig  # noqa: E402
from otlab.engine.model import default_architecture, forward, init_model, trace  # noqa: E402


def _namespaces():
    modules = [otlab.cli, otlab.engine.autodiff, otlab.engine.checkpoint, otlab.engine.model,
               otlab.engine.ops, otlab.engine.optim, otlab.engine.train, otlab.evaluation,
               otlab.metric, otlab.occlusion]
    classes = [ExperimentConfig, otlab.engine.optim.Sgd, otlab.metric.TripletBatch]
    return [vars(m) for m in modules] + [c.__dict__ for c in classes]


def test_probes_install_and_restore_every_patched_attribute():
    before = [dict(ns) for ns in _namespaces()]
    patcher = Patcher()
    try:
        probes.install(Tracer(), patcher)
        patched = len(patcher.saved)
    finally:
        patcher.restore()
    assert patched > 30
    for ns, saved in zip(_namespaces(), before):
        assert ns.keys() == saved.keys()
        for name, value in saved.items():
            assert ns[name] is value, name


def test_probes_count_each_kernel_call_once(rng):
    # default net: two each of conv, relu, max-pool and dense; one inference
    # forward plus one recorded forward calls each kernel four times
    model = init_model(default_architecture(8, 3), rng)
    x = rng.random((2, 8, 8, 1))
    tracer, patcher = Tracer(), Patcher()
    try:
        probes.install(tracer, patcher)
        forward(model, x)
        trace(model, x)
    finally:
        patcher.restore()
    assert Counter(span.name for span in tracer.spans) == {
        "ops.conv2d": 4, "ops.relu": 4, "ops.maxpool": 4, "ops.dense": 4}
