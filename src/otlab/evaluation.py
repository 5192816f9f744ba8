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

Both the ROC curve and each fold's threshold search sort the scores once
and count, per distinct score, the matches and non-matches at or above it.
``np.searchsorted(distinct, t, side="right")`` then gives the accepted
counts at any threshold exactly as ``score > t`` would, midpoints that round
onto a neighbouring score included, so every rate is an integer count over
an integer total: O(n log n) time and O(n) memory per call.
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
class RocCurve:
    thresholds: np.ndarray
    points: list[tuple[float, float]]   # (false_accept_rate, true_accept_rate)
    auc: float


# --------------------------------------------------------------- scoring

def score_pairs(model: Model, pairs: list[tuple[LabeledImage, LabeledImage, bool]]
                ) -> tuple[np.ndarray, np.ndarray]:
    """(scores, matches) in pair order for each (image, image, is_match).

    ``scores`` is a float64 array of each pair's cosine similarity, the
    product of its two unit embeddings; ``matches`` is a bool array of the
    flags. Each distinct image object is embedded once, in first-seen order.
    """
    slot: dict[int, int] = {}
    distinct = []
    for a, b, _ in pairs:
        for im in (a, b):
            if id(im) not in slot:
                slot[id(im)] = len(distinct)
                distinct.append(im)
    vectors = embed(model, distinct)
    scores = np.array([vectors[slot[id(a)]] @ vectors[slot[id(b)]] for a, b, _ in pairs],
                      dtype=np.float64)
    return scores, np.array([m for _, _, m in pairs], dtype=bool)


# ------------------------------------------------------- threshold sweep

def _refuse_nan(scores: np.ndarray) -> None:
    n_nan = int(np.isnan(scores).sum())
    if n_nan:
        raise ProtocolError(f"{n_nan} of {len(scores)} scores are NaN; "
                            "thresholds cannot order them")


def _sweep(scores: np.ndarray, matches: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct scores ascending, plus per index i the numbers of matches and
    of non-matches scoring at least ``distinct[i]`` (a final 0 at i = len).

    The counts at ``np.searchsorted(distinct, t, side="right")`` are those
    accepted at threshold t (``scores`` hold no NaN).
    """
    distinct = np.unique(scores)
    slot = np.searchsorted(distinct, scores)

    def at_least(kind: np.ndarray) -> np.ndarray:
        per_score = np.bincount(slot[kind], minlength=len(distinct))
        return np.append(np.cumsum(per_score[::-1])[::-1], 0)

    return distinct, at_least(matches), at_least(~matches)


# ------------------------------------------------------------------- ROC

def roc(scores: np.ndarray, matches: np.ndarray) -> RocCurve:
    """Threshold sweep over all distinct scores (acceptance: score > t)."""
    _refuse_nan(scores)
    n_pos = int(matches.sum())
    n_neg = len(matches) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ProtocolError("ROC needs both matching and non-matching pairs")

    distinct, pos_from, neg_from = _sweep(scores, matches)
    thresholds = np.append(distinct[::-1], distinct[0] - 1.0)  # final sentinel accepts all
    first = np.searchsorted(distinct, thresholds, side="right")
    far = neg_from[first] / n_neg
    tar = pos_from[first] / n_pos
    auc = float(np.trapezoid(tar, far))
    return RocCurve(thresholds=thresholds, points=list(zip(far.tolist(), tar.tolist())),
                    auc=auc)


# ------------------------------------------------------------ k-fold

def _candidate_thresholds(distinct: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidates plus the width of the score interval each one represents."""
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    widths = np.diff(distinct)
    cands = np.concatenate(([distinct[0] - 1.0], mids, [distinct[-1] + 1.0]))
    widths = np.concatenate(([np.inf], widths, [np.inf]))
    return cands, widths


def _best_threshold(scores: np.ndarray, matches: np.ndarray) -> float:
    distinct, pos_from, neg_from = _sweep(scores, matches)
    cands, widths = _candidate_thresholds(distinct)
    first = np.searchsorted(distinct, cands, side="right")
    correct = pos_from[first] + (neg_from[0] - neg_from[first])  # accepted + rejected
    optimal = np.nonzero(correct == correct.max())[0]
    widest = optimal[widths[optimal] == widths[optimal].max()]
    return float(cands[widest[0]])      # lowest threshold among widest intervals


def kfold_accuracy(scores: np.ndarray, matches: np.ndarray, k: int) -> dict:
    """Per-fold accuracy with the threshold chosen on the other folds.

    Returns the k-fold document: ``k``, ``per_fold_accuracy``,
    ``per_fold_threshold``, ``mean_accuracy`` and the population ``std``.
    """
    if k < 2:
        raise ProtocolError("k-fold protocol needs k >= 2")
    if len(scores) < k:
        raise ProtocolError(f"need at least {k} pairs for {k} folds, got {len(scores)}")
    _refuse_nan(scores)
    accs, thresholds = [], []
    for fold in np.array_split(np.arange(len(scores)), k):
        t = _best_threshold(np.delete(scores, fold), np.delete(matches, fold))
        thresholds.append(t)
        accs.append(float(((scores[fold] > t) == matches[fold]).mean()))
    return {"k": k, "per_fold_accuracy": accs, "per_fold_threshold": thresholds,
            "mean_accuracy": float(np.mean(accs)), "std": float(np.std(accs))}


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
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_a", "id_b", "is_match"])
        for id_a, id_b, is_match in pairs:
            writer.writerow([id_a, id_b, int(is_match)])


def load_pairs_csv(path) -> list[tuple[str, str, bool]]:
    """Parse an ``id_a,id_b,is_match`` CSV; errors name the offending line."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc
    pairs = []
    for lineno, row in enumerate(rows, start=1):
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
