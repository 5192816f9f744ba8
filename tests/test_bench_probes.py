"""The benchmark's probes (``perfbench/probes.py``) against the package.

The probes patch module attributes of the package by name, so a rename
there breaks the traced benchmark; these tests catch that in this suite.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

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
from otlab.data import LabeledImage, SyntheticSpec, generate_synthetic  # noqa: E402
from otlab.engine.model import default_architecture, forward, init_model, trace  # noqa: E402
from otlab.engine.train import Schedule  # noqa: E402
from otlab.metric import FinetuneSchedule, LossConfig  # noqa: E402
from otlab.occlusion import OccluderSpec  # noqa: E402


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


@pytest.mark.parametrize("mode", ["standard", "batch"])
def test_probes_time_each_finetune_phase_once_per_update(rng, mode):
    # offline mining on a 12-image pool always yields a batch, so every step
    # updates; each mode's loss builder is looked up when the loss is built
    dataset = generate_synthetic(SyntheticSpec(class_count=3, samples_per_class=6,
                                               image_size=8, seed=0))
    model = init_model(default_architecture(8, 3), rng)
    tracer, patcher = Tracer(), Patcher()
    try:
        probes.install(tracer, patcher)
        _, rows = otlab.metric.finetune(
            model, dataset, LossConfig(mode=mode, online=False),
            FinetuneSchedule(steps=3, lr=0.001, pool_classes=3, pool_per_class=4), rng)
    finally:
        patcher.restore()
    assert sum(np.isfinite(row["loss"]) for row in rows) == 3
    counts = Counter(span.name for span in tracer.spans)
    phases = ("metric.mine", "metric.batch_stats", "metric.loss_build",
              "engine.trace", "engine.backward", "engine.sgd")
    assert {name: counts[name] for name in phases} == dict.fromkeys(phases, 3)


def test_probes_count_one_augment_span_per_training_step(rng):
    # the augmenter is built before the probes go in, so it must look up
    # occlude_fraction each time it augments a batch
    dataset = generate_synthetic(SyntheticSpec(class_count=3, samples_per_class=6,
                                               image_size=8, seed=0))
    model = init_model(default_architecture(8, 3), rng)
    augment = otlab.occlusion.augmenter(0.5, "random", OccluderSpec(2, 2))
    tracer, patcher = Tracer(), Patcher()
    try:
        probes.install(tracer, patcher)
        otlab.engine.train.train_classifier(model, dataset, Schedule(steps=4, batch_size=6),
                                            rng, augment=augment)
    finally:
        patcher.restore()
    assert Counter(span.name for span in tracer.spans)["occlusion.augment"] == 4


def test_probes_count_one_map_span_and_one_scan_per_image(rng):
    # labels are the model's own predictions, so every image is scanned
    model = init_model(default_architecture(8, 3), rng)
    pixels = rng.random((4, 8, 8))
    labels = np.argmax(forward(model, pixels[..., np.newaxis]), axis=1)
    images = [LabeledImage(pixels=p, label=int(lab), id=str(k))
              for k, (p, lab) in enumerate(zip(pixels, labels))]
    tracer, patcher = Tracer(), Patcher()
    try:
        probes.install(tracer, patcher)
        otlab.occlusion.dataset_occlusion_map(model, images, OccluderSpec(2, 2), rng)
    finally:
        patcher.restore()
    counts = Counter(span.name for span in tracer.spans)
    assert (counts["occlusion.map"], counts["occlusion.scan"]) == (1, 4)


def test_probes_time_the_evaluate_path_once_each(rng):
    # six pairs over four images: the score span counts the distinct images,
    # which is what the embed span embeds
    dataset = generate_synthetic(SyntheticSpec(class_count=2, samples_per_class=2,
                                               image_size=8, seed=0))
    a, b, c, d = dataset.images
    pairs = [(a, b, True), (c, d, True), (a, c, False), (b, d, False), (a, b, True),
             (d, a, False)]
    model = init_model(default_architecture(8, 2), rng)
    tracer, patcher = Tracer(), Patcher()
    try:
        probes.install(tracer, patcher)
        scores, matches = otlab.evaluation.score_pairs(model, pairs)
        otlab.evaluation.roc(scores, matches)
        otlab.evaluation.kfold_accuracy(scores, matches, 2)
    finally:
        patcher.restore()
    spans = {span.name: span for span in tracer.spans}
    names = ("evaluation.score", "evaluation.embed", "evaluation.roc", "evaluation.kfold")
    assert Counter(span.name for span in tracer.spans
                   if span.name.startswith("evaluation.")) == dict.fromkeys(names, 1)
    assert spans["evaluation.score"].attrs["distinct"] == 4
    assert spans["evaluation.embed"].attrs["images"] == 4
