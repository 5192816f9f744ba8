"""Verification scoring and protocol evaluation.

Pairs are scored with cosine similarity between unit embeddings (higher =
more alike). A pair counts as a match when its score is strictly above the
threshold. The k-fold protocol assigns pairs to contiguous folds in file
order and, for every fold, picks the threshold that maximizes accuracy on
the other folds; candidate thresholds are midpoints between consecutive
distinct held-in scores plus one sentinel below the minimum and one above
the maximum. Among equally accurate candidates the one covering the widest
score interval wins (sentinel intervals count as infinitely wide), with
the lower threshold breaking remaining ties.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .data import Dataset, LabeledImage
from .engine.model import Model
from .errors import FormatError, ProtocolError
from .metric import embed
from .occlusion import OcclusionMap
from .validation import as_rng


@dataclass(frozen=True)
class ScoredPair:
    id_a: str
    id_b: str
    score: float                # cosine similarity in [-1, 1]
    is_match: bool


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray
    points: list[tuple[float, float]]   # (false_accept_rate, true_accept_rate)
    auc: float


@dataclass(frozen=True)
class KFoldReport:
    per_fold_accuracy: list[float]
    per_fold_threshold: list[float]
    mean: float
    std: float


# --------------------------------------------------------------- scoring

def score_pairs(model: Model, pairs: list[tuple[LabeledImage, LabeledImage, bool]]
                ) -> list[ScoredPair]:
    """Cosine similarity of unit embeddings for each (image, image, is_match).

    Each distinct image object is embedded once, in first-seen order.
    """
    slot: dict[int, int] = {}
    distinct = []
    for a, b, _ in pairs:
        for im in (a, b):
            if id(im) not in slot:
                slot[id(im)] = len(distinct)
                distinct.append(im)
    vectors = [e.vector for e in embed(model, distinct)]
    return [ScoredPair(id_a=a.id, id_b=b.id,
                       score=float(vectors[slot[id(a)]] @ vectors[slot[id(b)]]),
                       is_match=bool(is_match))
            for a, b, is_match in pairs]


# ------------------------------------------------------------------- ROC

def roc(scored: list[ScoredPair]) -> RocCurve:
    """Threshold sweep over all distinct scores (acceptance: score > t)."""
    scores = np.array([p.score for p in scored], dtype=np.float64)
    matches = np.array([p.is_match for p in scored], dtype=bool)
    n_pos = int(matches.sum())
    n_neg = int((~matches).sum())
    if n_pos == 0 or n_neg == 0:
        raise ProtocolError("ROC needs both matching and non-matching pairs")

    distinct = np.unique(scores)[::-1]                 # descending
    thresholds = np.append(distinct, distinct[-1] - 1.0)  # final sentinel accepts all
    points = []
    for t in thresholds:
        accepted = scores > t
        far = float((accepted & ~matches).sum() / n_neg)
        tar = float((accepted & matches).sum() / n_pos)
        points.append((far, tar))
    far_arr = np.array([p[0] for p in points])
    tar_arr = np.array([p[1] for p in points])
    auc = float(np.trapezoid(tar_arr, far_arr))
    return RocCurve(thresholds=thresholds, points=points, auc=auc)


# ------------------------------------------------------------ k-fold

def _candidate_thresholds(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidates plus the width of the score interval each one represents."""
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    widths = np.diff(distinct)
    cands = np.concatenate(([distinct[0] - 1.0], mids, [distinct[-1] + 1.0]))
    widths = np.concatenate(([np.inf], widths, [np.inf]))
    return cands, widths


def _accuracy_at(scores: np.ndarray, matches: np.ndarray, t: float) -> float:
    accepted = scores > t
    return float((accepted == matches).mean())


def _best_threshold(scores: np.ndarray, matches: np.ndarray) -> float:
    cands, widths = _candidate_thresholds(scores)
    accepted = scores[None, :] > cands[:, None]
    acc = (accepted == matches[None, :]).mean(axis=1)
    best = acc.max()
    optimal = np.nonzero(acc == best)[0]
    widest = optimal[widths[optimal] == widths[optimal].max()]
    return float(cands[widest[0]])      # lowest threshold among widest intervals


def kfold_accuracy(scored: list[ScoredPair], k: int) -> KFoldReport:
    """Per-fold accuracy with the threshold chosen on the other folds."""
    if k < 2:
        raise ProtocolError("k-fold protocol needs k >= 2")
    if len(scored) < k:
        raise ProtocolError(f"need at least {k} pairs for {k} folds, got {len(scored)}")
    scores = np.array([p.score for p in scored], dtype=np.float64)
    matches = np.array([p.is_match for p in scored], dtype=bool)
    folds = np.array_split(np.arange(len(scored)), k)

    accs, thresholds = [], []
    for fold in folds:
        held_in = np.setdiff1d(np.arange(len(scored)), fold, assume_unique=True)
        t = _best_threshold(scores[held_in], matches[held_in])
        thresholds.append(t)
        accs.append(_accuracy_at(scores[fold], matches[fold], t))
    accs_arr = np.array(accs)
    return KFoldReport(per_fold_accuracy=[float(a) for a in accs],
                       per_fold_threshold=thresholds,
                       mean=float(accs_arr.mean()), std=float(accs_arr.std()))


# ------------------------------------------------------- map statistics

def map_accuracy_stats(occ_map: OcclusionMap) -> tuple[float, float]:
    """Mean classification accuracy (1 - mean cell error) and the population
    standard deviation of per-cell accuracy."""
    grid = occ_map.grid
    return float(1.0 - grid.mean()), float(grid.std())


# ---------------------------------------------------------- pairs files

def make_verification_pairs(dataset: Dataset, n_match: int, n_nonmatch: int,
                            rng) -> list[tuple[str, str, bool]]:
    """Sample balanced id pairs from a dataset, deterministic per seed."""
    rng = as_rng(rng)
    labels = dataset.label_array()
    ids = dataset.ids()
    by_class = {c: np.nonzero(labels == c)[0] for c in range(dataset.class_count)}
    rich = [c for c, members in by_class.items() if len(members) >= 2]
    classes = [c for c, members in by_class.items() if len(members) >= 1]
    if not rich or len(classes) < 2:
        raise ValueError("dataset cannot form both matching and non-matching pairs")

    pairs = []
    for _ in range(n_match):
        c = rich[rng.integers(len(rich))]
        i, j = rng.choice(by_class[c], size=2, replace=False)
        pairs.append((ids[i], ids[j], True))
    for _ in range(n_nonmatch):
        ca, cb = rng.choice(classes, size=2, replace=False)
        i = by_class[ca][rng.integers(len(by_class[ca]))]
        j = by_class[cb][rng.integers(len(by_class[cb]))]
        pairs.append((ids[i], ids[j], False))
    return pairs


def save_pairs_csv(pairs: list[tuple[str, str, bool]], path) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_a", "id_b", "is_match"])
        for id_a, id_b, is_match in pairs:
            writer.writerow([id_a, id_b, int(is_match)])


def load_pairs_csv(path) -> list[tuple[str, str, bool]]:
    """Parse an ``id_a,id_b,is_match`` CSV; errors name the offending line."""
    pairs = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if lineno == 1 and row == ["id_a", "id_b", "is_match"]:
                continue
            if len(row) != 3:
                raise FormatError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
            if row[2] not in ("0", "1"):
                raise FormatError(f"{path}: line {lineno}: is_match must be 0 or 1, "
                                  f"got {row[2]!r}")
            pairs.append((row[0], row[1], row[2] == "1"))
    if not pairs:
        raise FormatError(f"{path}: no pairs found")
    return pairs


def resolve_pairs(pairs: list[tuple[str, str, bool]], dataset: Dataset
                  ) -> list[tuple[LabeledImage, LabeledImage, bool]]:
    index = dataset.by_id()
    resolved = []
    for lineno, (id_a, id_b, is_match) in enumerate(pairs, start=1):
        for pid in (id_a, id_b):
            if pid not in index:
                raise FormatError(f"pair {lineno}: unknown image id {pid!r}")
        resolved.append((index[id_a], index[id_b], is_match))
    return resolved


# --------------------------------------------------------------- reports

def kfold_report_dict(report: KFoldReport, *, k: int, decid: float | None = None,
                      num_pairs: int | None = None) -> dict:
    out = {
        "k": k,
        "per_fold_accuracy": report.per_fold_accuracy,
        "per_fold_threshold": report.per_fold_threshold,
        "mean_accuracy": report.mean,
        "std": report.std,
    }
    if decid is not None:
        out["decidability"] = decid
    if num_pairs is not None:
        out["num_pairs"] = num_pairs
    return out


def validate_kfold_report(doc: dict) -> dict:
    """Schema check for a k-fold report; returns the document unchanged."""
    required = {"k": int, "per_fold_accuracy": list, "per_fold_threshold": list,
                "mean_accuracy": float, "std": float}
    for key, kind in required.items():
        if key not in doc:
            raise ValueError(f"report missing key {key!r}")
        if not isinstance(doc[key], kind):
            raise ValueError(f"report key {key!r} must be {kind.__name__}")
    accs = np.array(doc["per_fold_accuracy"], dtype=np.float64)
    if len(accs) != doc["k"] or len(doc["per_fold_threshold"]) != doc["k"]:
        raise ValueError("per-fold lists must have k entries")
    if abs(accs.mean() - doc["mean_accuracy"]) > 1e-12:
        raise ValueError("mean_accuracy is not the mean of per_fold_accuracy")
    if abs(accs.std() - doc["std"]) > 1e-12:
        raise ValueError("std is not the population std of per_fold_accuracy")
    return doc
