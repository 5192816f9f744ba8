"""Classification training loop (the first training stage)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import Dataset, batches
from ..errors import DivergenceError
from ..validation import as_rng, at_least
from . import ops
from .model import Model, forward, trace
from .optim import Sgd, backward


@dataclass(frozen=True)
class Schedule:
    steps: int = 600
    lr: float = 0.05
    momentum: float = 0.9
    batch_size: int = 32

    def __post_init__(self):
        at_least(0, steps=self.steps, lr=self.lr)
        at_least(1, batch_size=self.batch_size)


def train_classifier(model: Model, dataset: Dataset, schedule: Schedule, rng,
                     augment=None) -> list[tuple[int, float, float]]:
    """Train in place with softmax cross-entropy; returns (step, loss, accuracy) rows.

    ``augment`` is an optional callable ``(images, rng) -> images`` applied to
    each raw (N, H, W) batch before the forward pass. All randomness (batch
    order and augmentation) is drawn from the single ``rng`` in sequence, so
    a seed fixes the whole run.
    """
    rng = as_rng(rng)
    opt = Sgd(schedule.lr, schedule.momentum)
    rows: list[tuple[int, float, float]] = []
    step = 0
    while step < schedule.steps:
        for images, labels, _ids in batches(dataset, schedule.batch_size, rng):
            if step >= schedule.steps:
                break
            if augment is not None:
                images = augment(images, rng)
            run = trace(model, images[..., np.newaxis])
            loss_node, probs = ops.softmax_cross_entropy(run.logits, labels)
            loss = float(loss_node.value)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at step {step + 1}")
            grads = backward(run, loss_node)
            opt.step(model, grads, step + 1)
            accuracy = float((probs.argmax(axis=1) == labels).mean())
            step += 1
            rows.append((step, loss, accuracy))
    return rows


def train_accuracy(model: Model, dataset: Dataset) -> float:
    """Fraction of dataset images the model classifies correctly."""
    labels = dataset.label_array()
    pred = np.argmax(forward(model, dataset.image_array()[:, :, :, np.newaxis]), axis=1)
    return int((pred == labels).sum()) / max(len(labels), 1)
