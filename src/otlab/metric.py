"""Embedding extraction and triplet-based training objectives.

Embeddings are the L2-normalized bottleneck features (classification layer
discarded). Two objectives are provided over squared-Euclidean distances:

* standard hinge: sum over triplets of max(0, d_ap - d_an + margin)
* batch form: (1-beta) * (mean_ap - mean_an + margin)
  + beta * (var_ap + var_an), with the means and population variances
  taken over the current batch's positive/negative distance lists.

The batch form penalizes the spread of both score distributions, not just
the gap between their means, so it targets the decidability statistic
directly. Online sampling restricts a batch to margin-violating triplets.

Both objectives gather d_ap and d_an from one (n, n) squared-distance matrix
over the pool, built from differences so each entry is bit-equal to that
pair's own distance. Mining lists triplets in lexicographic (a, p, n)
order; README "Triplet objectives" has the details.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, LabeledImage
from .engine import autodiff
from .engine.autodiff import Node, gradients
from .engine.model import Model, forward_features, trace
from .engine.ops import l2_normalize
from .engine.optim import Sgd
from .errors import DivergenceError, StateError
from .validation import as_rng


@dataclass(frozen=True)
class Embedding:
    vector: np.ndarray          # (D,) unit-norm
    source_id: str
    label: int


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
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.max_triplets is not None and self.max_triplets < 1:
            raise ValueError("max_triplets must be positive when set")


@dataclass(frozen=True)
class FinetuneSchedule:
    steps: int
    lr: float = 0.01
    momentum: float = 0.9
    pool_classes: int = 8
    pool_per_class: int = 8


class TripletBatch:
    """Triplets of pool indices with their distance lists and batch stats."""

    def __init__(self, vectors: np.ndarray, labels: np.ndarray, triplets,
                 embeddings: list[Embedding] | None = None):
        self.vectors = np.asarray(vectors, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.index = np.asarray(triplets, dtype=np.intp).reshape(-1, 3)   # (T, 3): a, p, n
        self.embeddings = embeddings
        a, p, n = (self.labels[col] for col in self.index.T)
        bad = np.flatnonzero((a != p) | (a == n))
        if bad.size:
            i = bad[0]
            what = "positive labels differ" if a[i] != p[i] else "negative share a label"
            raise ValueError("triplet ({},{},{}): anchor and ".format(*self.index[i]) + what)
        self.d_ap, self.d_an = (d.value for d in _distance_nodes(Node(self.vectors), self.index))

    @property
    def triplets(self) -> list[tuple[int, int, int]]:
        return list(map(tuple, self.index.tolist()))

    def __len__(self):
        return len(self.index)

    @property
    def mu_ap(self) -> float:
        return float(self.d_ap.mean())

    @property
    def mu_an(self) -> float:
        return float(self.d_an.mean())

    @property
    def var_ap(self) -> float:
        return float(self.d_ap.var())    # population variance

    @property
    def var_an(self) -> float:
        return float(self.d_an.var())


# ------------------------------------------------------------ embeddings

def embed(model: Model, images, batch_size: int = 256) -> list[Embedding]:
    """Unit-norm bottleneck embeddings for a Dataset or list of images."""
    items: list[LabeledImage] = list(images.images) if isinstance(images, Dataset) else list(images)
    out: list[Embedding] = []
    for start in range(0, len(items), batch_size):
        block = items[start:start + batch_size]
        feats = forward_features(model, np.stack([im.pixels for im in block])[:, :, :, np.newaxis])
        norms = np.sqrt((feats * feats).sum(axis=1))
        if np.any(norms == 0.0):
            bad = [block[i].id for i in np.nonzero(norms == 0.0)[0]]
            raise ValueError(f"zero bottleneck feature vector for image(s) {bad}; "
                             "cannot normalize")
        unit = feats / norms[:, None]
        out += [Embedding(vector=unit[i], source_id=im.id, label=im.label)
                for i, im in enumerate(block)]
    return out


def distance(a, b) -> float:
    """Squared Euclidean distance; equals 2 - 2*cos for unit vectors."""
    va = a.vector if isinstance(a, Embedding) else np.asarray(a, dtype=np.float64)
    vb = b.vector if isinstance(b, Embedding) else np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    return float(((va - vb) ** 2).sum())


# ------------------------------------------------------------ loss graphs

def _distance_nodes(z: Node, triplets) -> tuple[Node, Node]:
    anchor, positive, negative = np.asarray(triplets, dtype=np.intp).T
    d, row = autodiff.sq_distances(z), anchor * z.shape[0]
    return autodiff.take_flat(d, row + positive), autodiff.take_flat(d, row + negative)


def standard_loss_node(z: Node, triplets, alpha: float) -> Node:
    d_ap, d_an = _distance_nodes(z, triplets)
    return autodiff.sum_along(autodiff.relu(d_ap - d_an + alpha))


def batch_loss_node(z: Node, triplets, alpha: float, beta: float) -> Node:
    d_ap, d_an = _distance_nodes(z, triplets)
    mu_ap = autodiff.mean_along(d_ap)
    mu_an = autodiff.mean_along(d_an)
    var_ap = autodiff.mean_along(autodiff.square(d_ap - mu_ap))
    var_an = autodiff.mean_along(autodiff.square(d_an - mu_an))
    return (1.0 - beta) * (mu_ap - mu_an + alpha) + beta * (var_ap + var_an)


def standard_triplet_loss(batch: TripletBatch, alpha: float) -> tuple[float, np.ndarray]:
    """Hinge loss and its gradient with respect to the pool embeddings.

    Inactive triplets (margin satisfied) contribute zero loss and zero
    subgradient.
    """
    if len(batch) == 0:
        raise StateError("standard triplet loss needs a nonempty batch")
    z = Node(batch.vectors)
    loss = standard_loss_node(z, batch.index, alpha)
    (grad,) = gradients(loss, [z])
    return float(loss.value), grad


def batch_triplet_loss(batch: TripletBatch, alpha: float, beta: float) -> tuple[float, np.ndarray]:
    """Mean-separation plus variance loss and its embedding gradients."""
    if len(batch) < 2:
        raise ValueError("batch triplet loss needs at least 2 triplets "
                         "(variances require more than one sample)")
    z = Node(batch.vectors)
    loss = batch_loss_node(z, batch.index, alpha, beta)
    (grad,) = gradients(loss, [z])
    return float(loss.value), grad


# -------------------------------------------------------- triplet mining

def _violating_triplets(vectors: np.ndarray, labels: np.ndarray, alpha: float,
                        *, online: bool = True) -> np.ndarray:
    """(T, 3) array of all (a, p != a) sharing a label and n of another, in
    lexicographic order; ``online`` keeps margin violators (d_ap + alpha > d_an)."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    mask = (same & ~np.eye(len(labels), dtype=bool))[:, :, None] & ~same[:, None, :]
    if online:
        d = autodiff.sq_distances(vectors).value
        mask &= d[:, :, None] + alpha > d[:, None, :]
    return np.stack(np.nonzero(mask), axis=1)


def _cap_triplets(triplets: np.ndarray, max_triplets: int | None, rng) -> np.ndarray:
    """Seeded, order-keeping subsample of at most ``max_triplets`` rows."""
    if max_triplets is None or len(triplets) <= max_triplets:
        return triplets
    keep = np.sort(as_rng(rng).choice(len(triplets), size=max_triplets, replace=False))
    return triplets[keep]


def online_sample_triplets(embeddings: list[Embedding], alpha: float,
                           max_triplets: int | None = None, rng=None) -> TripletBatch:
    """Batch of all margin-violating triplets in the pool (possibly empty).

    Raises if the pool admits no anchor-positive pair or no negative. With
    ``max_triplets`` set, a seeded subsample caps the batch (input order
    preserved).
    """
    labels = np.array([e.label for e in embeddings])
    _, counts = np.unique(labels, return_counts=True)
    if not (counts >= 2).any():
        raise ValueError("pool has no class with two samples; no anchor-positive pair exists")
    if len(counts) < 2:
        raise ValueError("pool needs at least two classes to form negatives")
    vectors = np.stack([e.vector for e in embeddings])
    triplets = _cap_triplets(_violating_triplets(vectors, labels, alpha), max_triplets, rng)
    return TripletBatch(vectors, labels, triplets, embeddings=list(embeddings))


# ------------------------------------------------------------ statistics

def decidability(pos_scores, neg_scores) -> float:
    """|mean gap| over the rms of the two spreads; scale-free separation.

    Accepts either distances or similarities; both lists need at least two
    values and at least one nonzero variance.
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size < 2 or neg.size < 2:
        raise ValueError("decidability needs at least two scores per list")
    var_sum = pos.var() + neg.var()
    if var_sum == 0.0:
        raise ValueError("decidability undefined: both score distributions are constant")
    return float(abs(pos.mean() - neg.mean()) / np.sqrt(var_sum / 2.0))


# -------------------------------------------------------------- finetune

def _sample_pool(dataset: Dataset, schedule: FinetuneSchedule, rng) -> np.ndarray:
    """Indices of a candidate pool: up to pool_classes classes (each with at
    least two samples) and up to pool_per_class images per class."""
    labels = dataset.label_array()
    eligible = [c for c in range(dataset.class_count) if (labels == c).sum() >= 2]
    if len(eligible) < 2:
        raise StateError("fine-tuning needs at least two classes with two samples each")
    chosen = rng.choice(eligible, size=min(schedule.pool_classes, len(eligible)),
                        replace=False)
    picks = []
    for c in chosen:
        members = np.nonzero(labels == c)[0]
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
        images = dataset.image_array()[pool_idx][:, :, :, np.newaxis]
        labels = dataset.label_array()[pool_idx]

        run = trace(model, images, through="features")
        z = l2_normalize(run.features)
        triplets = _cap_triplets(
            _violating_triplets(z.value, labels, config.alpha, online=config.online),
            config.max_triplets, rng)

        row = {"step": step, "loss": nan, "mu_ap": nan, "mu_an": nan,
               "var_ap": nan, "var_an": nan, "decidability": nan,
               "triplet_count": len(triplets)}
        needed = 1 if config.mode == "standard" else 2
        if len(triplets) >= needed:
            batch = TripletBatch(z.value, labels, triplets)
            loss_node = (standard_loss_node(z, triplets, config.alpha) if config.mode == "standard"
                         else batch_loss_node(z, triplets, config.alpha, config.beta))
            loss = float(loss_node.value)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite fine-tuning loss at step {step}")
            grads = gradients(loss_node, list(run.param_nodes.values()))
            opt.step(model, dict(zip(run.param_nodes, grads)), step)

            row.update(loss=loss, mu_ap=batch.mu_ap, mu_an=batch.mu_an,
                       var_ap=batch.var_ap, var_an=batch.var_an)
            if len(batch) >= 2 and batch.var_ap + batch.var_an > 0:
                row["decidability"] = decidability(batch.d_ap, batch.d_an)
        rows.append(row)
    return model, rows


FINETUNE_LOG_COLUMNS = ["step", "loss", "mu_ap", "mu_an", "var_ap", "var_an",
                        "decidability", "triplet_count"]
