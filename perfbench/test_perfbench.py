"""Self-tests of the benchmark harness: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import probes  # noqa: E402
import run  # noqa: E402
from stats import median, p90_or_zero, percentile, qualifies, summarize, tail_percentile  # noqa: E402
from tracing import Patcher, Span, Tracer, self_times  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# ------------------------------------------------------------ self time

def test_self_time_of_nested_spans():
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    root = tracer.begin("root")         # 0 .. 10
    a = tracer.begin("a")               # 1 .. 4
    inner = tracer.begin("inner")       # 2 .. 3
    tracer.end(inner)
    tracer.end(a)
    b = tracer.begin("b")               # 5 .. 6
    tracer.end(b)
    tracer.end(root)
    assert [s.parent for s in tracer.spans] == [None, root, a, root]
    assert self_times(tracer.spans) == [6, 2, 1, 1]
    assert sum(self_times(tracer.spans)) == tracer.spans[root].duration


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, None, "r"),
             Span("a", 1.0, 4.0, 0, "r"),
             Span("b", 3.0, 5.0, 0, "r"),
             Span("c", 9.0, 12.0, 0, "r")]          # clipped to the parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_generator_wrapper_spans_each_item():
    tracer = Tracer(clock=FakeClock(range(100)))
    items = list(tracer.wrap_generator(lambda n: iter(range(n)), "gen")(3))
    assert items == [0, 1, 2]
    assert [s.name for s in tracer.spans] == ["gen"] * 4   # three items and the stop


def test_step_samples_split_at_optimizer_steps():
    spans = [Span("engine.train", 0.0, 0.010, None, "r"),
             Span("engine.trace", 0.0, 0.002, 0, "r"),
             Span("engine.sgd", 0.003, 0.004, 0, "r"),
             Span("engine.sgd", 0.008, 0.009, 0, "r"),
             Span("engine.sgd", 0.011, 0.012, None, "r")]   # outside the loop
    assert probes.step_samples_ms(spans, "engine.train") == pytest.approx([4.0, 5.0])


# ------------------------------------------------------------ statistics

def test_percentile_matches_numpy():
    xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    for pct in (0, 10, 50, 90, 100):
        assert percentile(xs, pct) == pytest.approx(np.percentile(xs, pct))
    assert median([1.0, 2.0, 3.0, 4.0]) == 2.5


def test_tail_percentile_needs_ten_samples_beyond():
    assert not qualifies(99, 90.0) and qualifies(100, 90.0)
    assert tail_percentile(19) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9
    short = summarize(range(50))
    assert short["n"] == 50 and short["p50"] == 24.5 and short["tail"] is None
    full = summarize(range(100))
    assert full["tail_pct"] == 90.0 and full["tail"] == pytest.approx(89.1)
    assert p90_or_zero(list(range(99))) == 0.0
    assert p90_or_zero(list(range(100))) == pytest.approx(89.1)
    assert summarize([])["n"] == 0


# ------------------------------------------------------------ probes

def _namespaces():
    import otlab.cli
    import otlab.engine.autodiff
    import otlab.engine.checkpoint
    import otlab.engine.model
    import otlab.engine.ops
    import otlab.engine.optim
    import otlab.engine.train
    import otlab.evaluation
    import otlab.metric
    import otlab.occlusion
    from otlab.config import ExperimentConfig

    modules = [otlab.cli, otlab.engine.autodiff, otlab.engine.checkpoint, otlab.engine.model,
               otlab.engine.ops, otlab.engine.optim, otlab.engine.train, otlab.evaluation,
               otlab.metric, otlab.occlusion]
    classes = [ExperimentConfig, otlab.engine.optim.Sgd, otlab.metric.TripletBatch]
    return [vars(m) for m in modules] + [c.__dict__ for c in classes]


def _tiny_pipeline(tmp_path: Path) -> list[list[str]]:
    cfg = {"seed": 3,
           "dataset": {"synthetic": {"class_count": 4, "samples_per_class": 10,
                                     "image_size": 10, "cue_region": [3, 3, 4, 4], "seed": 9}},
           "schedule": {"steps": 6, "batch_size": 10},
           "occluder": {"height": 3, "width": 3}, "map_images": 2,
           "loss": {"mode": "batch", "online": False},
           "finetune": {"steps": 2, "lr": 0.002, "pool_classes": 3, "pool_per_class": 3},
           "eval": {"k": 2}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("id_a,id_b,is_match\nc00/s000,c00/s001,1\nc00/s002,c01/s000,0\n"
                     "c01/s001,c01/s002,1\nc02/s000,c03/s000,0\n")
    c, s = str(path), lambda name: str(tmp_path / name)
    return [["train-classifier", "--config", c, "--out", s("s1")],
            ["occlusion-map", "--config", c, "--out", s("s2"), s("s1/checkpoint.otl")],
            ["train-augmented", "--config", c, "--out", s("s3"), s("s1/checkpoint.otl"),
             "--map", s("s2/map.csv")],
            ["finetune-triplet", "--config", c, "--out", s("s4"), s("s3/checkpoint.otl")],
            ["evaluate", "--config", c, "--out", s("s5"), "--pairs", str(pairs),
             s("s4/checkpoint.otl")]]


def test_traced_run_restores_every_patched_attribute(tmp_path):
    before = [dict(ns) for ns in _namespaces()]
    tracer, patcher = Tracer(), Patcher()
    try:
        probes.install(tracer, patcher)
        patched = len(patcher.saved)
        for args in _tiny_pipeline(tmp_path):
            idx = tracer.begin(f"cli.{args[0]}")
            code, output = run.invoke(args)
            tracer.end(idx)
            assert code == 0, output
    finally:
        patcher.restore()
    assert patched > 30
    for ns, saved in zip(_namespaces(), before):
        assert ns.keys() == saved.keys()
        for name, value in saved.items():
            assert ns[name] is value, name

    metrics, _samples = probes.pass_metrics(tracer.spans)
    expected = {name for name, _, _ in probes.PER_LAYER}
    computed_later = {"trace.overhead_frac", "trace.unattributed_frac",
                      "engine.train_step_ms_p50", "engine.train_step_ms_p90",
                      "engine.train_steps", "metric.finetune_step_ms_p50",
                      "metric.finetune_step_ms_p90", "metric.finetune_steps",
                      "occlusion.image_ms_p50"}
    assert set(metrics) == expected - computed_later
    assert metrics["engine.trace_calls"] == 6 + 6 + 2
    assert metrics["occlusion.forwards_per_position"] == 1.0
    assert metrics["metric.update_frac"] == 1.0
    wall = sum(s.duration for s in tracer.spans if s.parent is None)
    assert sum(self_times(tracer.spans)) == pytest.approx(wall)


def test_traced_and_untraced_runs_write_identical_artifacts(tmp_path):
    for name in ("plain", "traced"):
        (tmp_path / name).mkdir()
    for args in _tiny_pipeline(tmp_path / "plain"):
        assert run.invoke(args)[0] == 0
    tracer, patcher = Tracer(), Patcher()
    try:
        probes.install(tracer, patcher)
        for args in _tiny_pipeline(tmp_path / "traced"):
            assert run.invoke(args)[0] == 0
    finally:
        patcher.restore()
    plain, traced = run.sha256_tree(tmp_path / "plain"), run.sha256_tree(tmp_path / "traced")
    assert plain.keys() == traced.keys()
    assert plain == traced


# ------------------------------------------------------------ BENCHMARK.json

def test_benchmark_json_names_what_the_harness_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == probes.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == ["classify", "scan", "verify"]
