"""Bottleneck embeddings and triplet-based training objectives.

An embedding is an L2-normalized bottleneck feature vector (classification
layer discarded). Two objectives are provided over squared-Euclidean distances:

* standard hinge: sum over triplets of max(0, d_ap - d_an + margin)
* batch form: (1-beta) * (mean_ap - mean_an + margin)
  + beta * (var_ap + var_an), with the means and population variances
  taken over the current batch's positive/negative distance lists.

The batch form penalizes the spread of both score distributions, not just
the gap between their means, so it targets the decidability statistic
directly. Online sampling restricts a batch to margin-violating triplets.

There is one triplet path. A pool's ``autodiff.sq_distances`` node, whose
entries equal each pair's own distance bit for bit, goes to :func:`mine`,
which reads its value and returns a :class:`TripletBatch` of the d_ap and
d_an nodes gathered from it; :func:`triplet_loss` builds the configured loss
over those nodes. ``finetune`` and the tests both go through these two
functions. README "Triplet objectives" has more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .engine import autodiff
from .engine.autodiff import Node, gradients
from .engine.model import Model, forward_features, trace
from .engine.ops import l2_normalize
from .engine.optim import Sgd
from .errors import DivergenceError, ProtocolError, StateError
from .validation import as_rng, at_least


@dataclass(frozen=True)
class LossConfig:
    mode: str = "batch"                 # "standard" | "batch"
    alpha: float = 0.5
    beta: float = 0.7
    online: bool = True
    max_triplets: int | None = None     # seeded subsample cap on a batch

    def __post_init__(self):
        if self.mode not in ("standard", "batch"):
            raise ValueError(f"mode must be 'standard' or 'batch', got {self.mode!r}")
        at_least(0, alpha=self.alpha)
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.max_triplets is not None:
            at_least(1, max_triplets=self.max_triplets)


@dataclass(frozen=True)
class FinetuneSchedule:
    steps: int = 200
    lr: float = 0.01
    momentum: float = 0.9
    pool_classes: int = 8
    pool_per_class: int = 8

    def __post_init__(self):
        at_least(0, steps=self.steps, lr=self.lr)
        at_least(1, pool_classes=self.pool_classes, pool_per_class=self.pool_per_class)


class TripletBatch:
    """Triplets of pool indices with their distance nodes and batch stats.

    ``distances`` is the pool's (n, n) ``autodiff.sq_distances`` node and
    ``triplets`` its (a, p, n) rows; ``d_ap`` and ``d_an`` are gathered from it.
    """

    def __init__(self, distances: Node, labels, triplets):
        self.distances = distances
        self.labels = np.asarray(labels, dtype=np.int64)
        self.index = np.asarray(triplets, dtype=np.intp).reshape(-1, 3)   # (T, 3): a, p, n
        a, p, n = (self.labels[col] for col in self.index.T)
        bad = np.flatnonzero((a != p) | (a == n))
        if bad.size:
            i = bad[0]
            what = "positive labels differ" if a[i] != p[i] else "negative share a label"
            raise ValueError("triplet ({},{},{}): anchor and ".format(*self.index[i]) + what)
        row = self.index[:, 0] * self.distances.shape[0]
        self.d_ap, self.d_an = (autodiff.take_flat(self.distances, row + col)
                                for col in self.index.T[1:])

    def __len__(self):
        return len(self.index)

    @property
    def mu_ap(self) -> float:
        return float(self.d_ap.value.mean())

    @property
    def mu_an(self) -> float:
        return float(self.d_an.value.mean())

    @property
    def var_ap(self) -> float:
        return float(self.d_ap.value.var())    # population variance

    @property
    def var_an(self) -> float:
        return float(self.d_an.value.var())


# ------------------------------------------------------------ embeddings

def _feature_norms(feats: np.ndarray, ids, where: str = "") -> np.ndarray:
    """Row norms of ``feats``; ``ProtocolError`` names the ``ids`` of the rows whose
    bottleneck vector is all zero (a dead network), which no norm can scale."""
    norms = np.sqrt((feats * feats).sum(axis=1))
    if np.any(norms == 0.0):
        bad = [ids[i] for i in np.nonzero(norms == 0.0)[0]]
        raise ProtocolError(f"zero bottleneck feature vector for image(s) {bad}; "
                            f"cannot normalize{where}")
    return norms


def embed(model: Model, pixels: np.ndarray, ids) -> np.ndarray:
    """(N, D) unit-norm bottleneck embeddings of (N, H, W) ``pixels``, in order;
    ``ids`` name the images in errors."""
    if len(pixels) == 0:
        return np.empty((0, model.bottleneck_dim()))
    feats = forward_features(model, pixels)
    return feats / _feature_norms(feats, ids)[:, None]


# ------------------------------------------------------------ loss graphs

MIN_TRIPLETS = {"standard": 1, "batch": 2}     # the batch form's variances need two


def standard_loss_node(batch: TripletBatch, alpha: float) -> Node:
    return autodiff.sum_along(autodiff.relu(batch.d_ap - batch.d_an + alpha))


def batch_loss_node(batch: TripletBatch, alpha: float, beta: float) -> Node:
    mu_ap = autodiff.mean_along(batch.d_ap)
    mu_an = autodiff.mean_along(batch.d_an)
    var_ap = autodiff.mean_along(autodiff.square(batch.d_ap - mu_ap))
    var_an = autodiff.mean_along(autodiff.square(batch.d_an - mu_an))
    return (1.0 - beta) * (mu_ap - mu_an + alpha) + beta * (var_ap + var_an)


def triplet_loss(batch: TripletBatch, config: LossConfig) -> Node:
    """The scalar loss node of ``config.mode`` over ``batch``. A batch of fewer
    than the mode's ``MIN_TRIPLETS`` raises StateError."""
    need = MIN_TRIPLETS[config.mode]
    if len(batch) < need:
        raise StateError(f"{config.mode} triplet loss needs at least {need} triplets, "
                         f"got {len(batch)}")
    if config.mode == "standard":
        return standard_loss_node(batch, config.alpha)
    return batch_loss_node(batch, config.alpha, config.beta)


# -------------------------------------------------------- triplet mining

def _violating_triplets(distances: np.ndarray, labels: np.ndarray, alpha: float,
                        *, online: bool = True) -> np.ndarray:
    """(T, 3) array of all (a, p != a) sharing a label and n of another, in
    lexicographic order; ``online`` keeps margin violators (d_ap + alpha > d_an)
    of the (n, n) squared-distance matrix ``distances``."""
    same = labels[:, None] == labels[None, :]
    mask = (same & ~np.eye(len(labels), dtype=bool))[:, :, None] & ~same[:, None, :]
    if online:
        mask &= distances[:, :, None] + alpha > distances[:, None, :]
    return np.stack(np.nonzero(mask), axis=1)


def mine(distances: Node, labels, config: LossConfig, rng=None) -> TripletBatch:
    """The batch of the pool's triplets over its ``sq_distances`` node: all of
    them, or with ``config.online`` the margin violators, capped to a seeded,
    order-keeping subsample of ``config.max_triplets`` rows (``rng`` is drawn
    from only when the cap bites)."""
    labels = np.asarray(labels)
    triplets = _violating_triplets(distances.value, labels, config.alpha, online=config.online)
    if config.max_triplets is not None and len(triplets) > config.max_triplets:
        triplets = triplets[np.sort(as_rng(rng).choice(len(triplets), size=config.max_triplets,
                                                       replace=False))]
    return TripletBatch(distances, labels, triplets)


# ------------------------------------------------------------ statistics

def decidability(pos_scores, neg_scores) -> float:
    """|mean gap| over the rms of the two spreads; scale-free separation.

    Accepts either distances or similarities of matching (``pos``) and
    non-matching (``neg``) pairs; both lists need at least two values and at
    least one nonzero variance, else ``ProtocolError`` names the counts.
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    counts = f"{pos.size} matching and {neg.size} non-matching"
    if pos.size < 2 or neg.size < 2:
        raise ProtocolError(f"decidability needs at least two scores of each kind, got {counts}")
    var_sum = pos.var() + neg.var()
    if var_sum == 0.0:
        raise ProtocolError("decidability undefined: both score distributions are constant "
                            f"({counts} scores)")
    return float(abs(pos.mean() - neg.mean()) / np.sqrt(var_sum / 2.0))


# -------------------------------------------------------------- finetune

def pool_classes(labels: np.ndarray, class_count: int) -> list[int]:
    """The classes a pool draws from, those with at least two samples;
    StateError unless there are two."""
    eligible = [c for c in range(class_count) if (labels == c).sum() >= 2]
    if len(eligible) < 2:
        raise StateError("fine-tuning needs at least two classes with two samples each")
    return eligible


def _sample_pool(dataset: Dataset, schedule: FinetuneSchedule, rng) -> np.ndarray:
    """Indices of a candidate pool: up to pool_classes classes (each with at
    least two samples) and up to pool_per_class images per class."""
    eligible = pool_classes(dataset.labels, dataset.class_count)
    chosen = rng.choice(eligible, size=min(schedule.pool_classes, len(eligible)),
                        replace=False)
    picks = []
    for c in chosen:
        members = np.nonzero(dataset.labels == c)[0]
        take = min(schedule.pool_per_class, len(members))
        picks.append(rng.choice(members, size=take, replace=False))
    return np.concatenate(picks)


def finetune(model: Model, dataset: Dataset, config: LossConfig,
             schedule: FinetuneSchedule, rng) -> tuple[Model, list[dict]]:
    """Triplet fine-tuning of all layers below the classification layer.

    Per step: embed a fresh candidate pool, mine triplets (online filter per
    config), apply the configured loss, and update. Steps whose batch is too
    small for the loss are skipped (triplet_count still logged). Returns the
    updated model and one log row per step with the batch statistics.
    """
    model.bottleneck_dim()      # the classifier output is discarded; a bottleneck must exist
    rng = as_rng(rng)
    opt = Sgd(schedule.lr, schedule.momentum)
    rows: list[dict] = []
    nan = float("nan")

    for step in range(1, schedule.steps + 1):
        pool_idx = _sample_pool(dataset, schedule, rng)
        run = trace(model, dataset.pixels[pool_idx], through="features")
        _feature_norms(run.features.value, [dataset.ids[i] for i in pool_idx],
                       f" at fine-tune step {step}")
        batch = mine(autodiff.sq_distances(l2_normalize(run.features)),
                     dataset.labels[pool_idx], config, rng)

        row = {"step": step, "loss": nan, "mu_ap": nan, "mu_an": nan,
               "var_ap": nan, "var_an": nan, "decidability": nan,
               "triplet_count": len(batch)}
        rows.append(row)
        try:
            loss_node = triplet_loss(batch, config)
        except StateError:      # too few triplets for the loss: no update this step
            continue
        loss = float(loss_node.value)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite fine-tuning loss at step {step}")
        grads = gradients(loss_node, list(run.param_nodes.values()))
        opt.step(model, dict(zip(run.param_nodes, grads)), step)

        row.update(loss=loss, mu_ap=batch.mu_ap, mu_an=batch.mu_an,
                   var_ap=batch.var_ap, var_an=batch.var_an)
        if len(batch) >= 2 and batch.var_ap + batch.var_an > 0:
            row["decidability"] = decidability(batch.d_ap.value, batch.d_an.value)
    return model, rows


FINETUNE_LOG_COLUMNS = ["step", "loss", "mu_ap", "mu_an", "var_ap", "var_an",
                        "decidability", "triplet_count"]
