import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from otlab import evaluation
from otlab.data import LabeledImage, SyntheticSpec, generate_synthetic
from otlab.engine import forward_features
from otlab.engine.model import Dense, Model, default_architecture, init_model
from otlab.errors import FormatError, ProtocolError
from otlab.evaluation import (
    kfold_accuracy,
    load_pairs_csv,
    make_verification_pairs,
    map_accuracy_stats,
    resolve_pairs,
    roc,
    save_pairs_csv,
    score_pairs,
    validate_kfold_report,
)
from otlab.metric import embed
from otlab.occlusion import OcclusionMap

from oracles import kfold_loops, mann_whitney, roc_points_loops


def _pairs(scores, matches):
    """(scores, matches) as ``score_pairs`` returns them."""
    return np.array(scores, dtype=np.float64), np.array(matches, dtype=bool)


def _linear_embed_model():
    # features = raw pixels of a (1, 2) image through an identity-ish dense layer
    return Model((1, 2, 1), [Dense(2), Dense(2)],
                 {"dense1.weight": np.array([[1.0, 0.0], [0.0, 1.0]]),
                  "dense1.bias": np.zeros(2),
                  "dense2.weight": np.zeros((2, 2)),
                  "dense2.bias": np.zeros(2)})


def _img(v, label=0, id_="x"):
    return LabeledImage(pixels=np.array([v], dtype=np.float64), label=label, id=id_)


# ----------------------------------------------------------------- scoring

def test_identical_images_score_one():
    model = _linear_embed_model()
    a = _img([0.6, 0.8], id_="a")
    scores, matches = score_pairs(model, [(a, a, True)])
    assert scores[0] == pytest.approx(1.0, abs=1e-10)
    assert matches.tolist() == [True]


def test_orthogonal_images_score_zero():
    model = _linear_embed_model()
    scores, _ = score_pairs(model, [(_img([1.0, 0.0], id_="a"), _img([0.0, 1.0], id_="b"), False)])
    assert scores[0] == pytest.approx(0.0, abs=1e-12)


def test_antipodal_embeddings_score_minus_one():
    # weights map the two images to opposite feature vectors
    model = Model((1, 2, 1), [Dense(1), Dense(2)],
                  {"dense1.weight": np.array([[1.0], [-1.0]]),
                   "dense1.bias": np.zeros(1),
                   "dense2.weight": np.zeros((1, 2)),
                   "dense2.bias": np.zeros(2)})
    scores, _ = score_pairs(model, [(_img([1.0, 0.0], id_="a"), _img([0.0, 1.0], id_="b"), False)])
    assert scores[0] == pytest.approx(-1.0, abs=1e-12)


def test_scores_equal_per_pair_embedding_path(monkeypatch):
    # 1200 pairs over 300 images: every image recurs, and the distinct set
    # spans two 256-image embedding batches
    spec = SyntheticSpec(class_count=3, samples_per_class=100, image_size=8, seed=3)
    ds = generate_synthetic(spec)
    model = init_model(default_architecture(8, 3), np.random.default_rng(1))
    ids = make_verification_pairs(ds, 600, 600, np.random.default_rng(2))
    pairs = resolve_pairs(ids, ds)
    lefts, rights = (embed(model, np.array([pair[side].pixels for pair in pairs]),
                           [pair[side].id for pair in pairs]) for side in (0, 1))
    expected = [float(ea @ eb) for ea, eb in zip(lefts, rights)]

    embedded = []
    monkeypatch.setattr(evaluation, "embed", lambda m, pixels, names:
                        embedded.append(len(pixels)) or embed(m, pixels, names))
    scores, matches = score_pairs(model, pairs)
    assert scores.dtype == np.float64 and matches.dtype == bool
    assert scores.tolist() == expected
    assert matches.tolist() == [m for _, _, m in ids]
    # one record per distinct id, so each image is embedded once
    distinct = {id(im): im.id for pair in pairs for im in pair[:2]}
    assert embedded == [len(distinct)] == [len(set(distinct.values()))]


def test_scores_equal_independent_dot_products(rng):
    model = _linear_embed_model()
    pairs = [(_img(rng.random(2), id_=f"a{k}"), _img(rng.random(2), id_=f"b{k}"), True)
             for k in range(6)]
    scores, _ = score_pairs(model, pairs)
    for (a, b, _), score in zip(pairs, scores):
        fa = forward_features(model, a.pixels[None, :, :, None])[0]
        fb = forward_features(model, b.pixels[None, :, :, None])[0]
        expected = float((fa / np.linalg.norm(fa)) @ (fb / np.linalg.norm(fb)))
        assert score == pytest.approx(expected, abs=1e-12)


# --------------------------------------------------------------------- ROC

def test_perfectly_separated_scores_have_unit_auc():
    scored = _pairs([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
    assert roc(*scored).auc == pytest.approx(1.0, abs=1e-12)


def test_identical_scores_give_diagonal():
    scored = _pairs([0.5] * 8, [True, False] * 4)
    curve = roc(*scored)
    assert curve.points[0] == (0.0, 0.0)
    assert curve.points[-1] == (1.0, 1.0)
    assert curve.auc == pytest.approx(0.5, abs=1e-12)


def test_roc_matches_counting_oracle(rng):
    scores = rng.normal(size=20)
    matches = rng.random(20) > 0.5
    matches[0], matches[1] = True, False       # both classes present
    curve = roc(scores, matches)
    assert curve.points == roc_points_loops(list(scores), list(matches))


def test_roc_far_tar_nondecreasing(rng):
    scores = rng.normal(size=50)
    matches = np.r_[np.ones(25, bool), np.zeros(25, bool)]
    curve = roc(scores, matches)
    fars = [p[0] for p in curve.points]
    tars = [p[1] for p in curve.points]
    assert all(a <= b + 1e-15 for a, b in zip(fars, fars[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(tars, tars[1:]))


@given(st.integers(0, 1000))
def test_roc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=30)
    matches = np.r_[np.ones(15, bool), np.zeros(15, bool)]
    base = roc(scores, matches)
    warped = roc(np.exp(scores) + 3.0, matches)
    assert base.points == warped.points


def test_roc_auc_equals_mann_whitney(rng):
    scores = np.round(rng.normal(size=200), 1)   # rounding forces ties
    matches = rng.random(200) > 0.4
    matches[:2] = [True, False]
    curve = roc(scores, matches)
    assert curve.auc == pytest.approx(mann_whitney(list(scores), list(matches)), abs=1e-10)


def test_roc_single_class_rejected():
    with pytest.raises(ProtocolError):
        roc(*_pairs([0.1, 0.2], [True, True]))


# ------------------------------------------------------------------ k-fold

def test_perfectly_separable_kfold_is_perfect():
    scores = [0.9, 0.8, 0.85, 0.7, 0.95, 0.1, 0.2, 0.15, 0.05, 0.12]
    matches = [True] * 5 + [False] * 5
    order = np.argsort(np.arange(10) % 5)        # interleave folds with both kinds
    report = kfold_accuracy(np.array(scores)[order], np.array(matches)[order], k=5)
    assert report["per_fold_accuracy"] == [1.0] * 5
    assert report["mean_accuracy"] == 1.0 and report["std"] == 0.0


def test_all_equal_scores_balanced_is_half():
    report = kfold_accuracy(*_pairs([0.5] * 20, [True, False] * 10), k=5)
    assert report["per_fold_accuracy"] == [0.5] * 5


def test_kfold_matches_brute_force_oracle(rng):
    scores = np.round(rng.normal(size=50), 2)
    matches = rng.random(50) > 0.5
    matches[:2] = [True, False]
    report = kfold_accuracy(scores, matches, k=5)
    accs, thresholds = kfold_loops(list(scores), list(matches), 5)
    assert report["per_fold_accuracy"] == accs
    assert report["per_fold_threshold"] == thresholds


@st.composite
def _tied_scores(draw):
    """Scores drawn from a few values: one value, a run of adjacent floats
    (every midpoint rounds onto an endpoint), or a mix of both with others."""
    base = draw(st.floats(-1.0, 1.0))
    values = [base]
    for _ in range(draw(st.integers(0, 4))):
        values.append(float(np.nextafter(values[-1], np.inf)))
    values += draw(st.lists(st.floats(-1.0, 1.0), max_size=3))
    n = draw(st.integers(2, 40))
    scores = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    matches = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    matches[0], matches[1] = True, False        # both kinds present
    return scores, matches, draw(st.integers(2, min(n, 10)))


@given(_tied_scores())
def test_sweep_equals_loop_oracles_exactly(case):
    scores, matches, k = case
    scored = _pairs(scores, matches)
    assert roc(*scored).points == roc_points_loops(scores, matches)
    report = kfold_accuracy(*scored, k)
    assert (report["per_fold_accuracy"], report["per_fold_threshold"]) == \
        kfold_loops(scores, matches, k)


def test_nan_scores_rejected():
    scored = _pairs([0.1, float("nan"), 0.9, 0.2], [True, False, True, False])
    with pytest.raises(ProtocolError, match="1 of 4 scores are NaN"):
        roc(*scored)
    with pytest.raises(ProtocolError, match="1 of 4 scores are NaN"):
        kfold_accuracy(*scored, k=2)


def test_threshold_depends_only_on_held_in_folds(rng):
    from otlab.evaluation import _best_threshold

    scores = rng.normal(size=40)
    matches = rng.random(40) > 0.5
    matches[:2] = [True, False]
    report = kfold_accuracy(scores, matches, k=4)
    folds = np.array_split(np.arange(40), 4)
    for f, fold in enumerate(folds):
        held = np.setdiff1d(np.arange(40), fold)
        t = _best_threshold(scores[held], matches[held])
        assert t == report["per_fold_threshold"][f]


def test_kfold_protocol_errors():
    scored = _pairs([0.1, 0.9], [False, True])
    with pytest.raises(ProtocolError):
        kfold_accuracy(*scored, k=1)
    with pytest.raises(ProtocolError):
        kfold_accuracy(*scored, k=3)


# --------------------------------------------------------------- map stats

def test_zero_map_is_perfect_accuracy():
    omap = OcclusionMap(grid=np.zeros((4, 4)), sample_count=1, occluder_shape=(2, 2))
    assert map_accuracy_stats(omap) == (1.0, 0.0)


def test_half_and_half_map():
    grid = np.zeros((4, 4))
    grid[:2] = 1.0
    omap = OcclusionMap(grid=grid, sample_count=1, occluder_shape=(2, 2))
    assert map_accuracy_stats(omap) == (0.5, 0.5)


def test_map_stats_match_second_pass(rng):
    grid = rng.random((6, 6))
    omap = OcclusionMap(grid=grid, sample_count=1, occluder_shape=(2, 2))
    mean_acc, std = map_accuracy_stats(omap)
    cells = [1.0 - grid[i, j] for i in range(6) for j in range(6)]
    assert mean_acc == pytest.approx(sum(cells) / 36, abs=1e-12)
    assert std == pytest.approx(np.std(cells), abs=1e-12)
    assert 0.0 <= mean_acc <= 1.0 and 0.0 <= std <= 0.5


# ------------------------------------------------------------- pairs files

def test_pairs_csv_round_trip(tmp_path):
    pairs = [("c00/s000", "c00/s001", True), ("c00/s000", "c01/s000", False)]
    path = tmp_path / "pairs.csv"
    save_pairs_csv(pairs, path)
    assert load_pairs_csv(path) == pairs


def test_pairs_csv_malformed_row_names_line(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("id_a,id_b,is_match\na,b,1\na,b\n")
    with pytest.raises(FormatError, match="line 3"):
        load_pairs_csv(path)


def test_pairs_csv_bad_flag_names_line(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("a,b,yes\n")
    with pytest.raises(FormatError, match="line 1"):
        load_pairs_csv(path)


def test_make_pairs_deterministic_and_resolvable():
    ds = generate_synthetic(SyntheticSpec(class_count=3, samples_per_class=5,
                                          image_size=6, seed=0))
    a = make_verification_pairs(ds, 10, 10, np.random.default_rng(1))
    b = make_verification_pairs(ds, 10, 10, np.random.default_rng(1))
    assert a == b
    assert sum(1 for _, _, m in a if m) == 10
    resolved = resolve_pairs(a, ds)
    for (ia, ib, m), (ra, rb, rm) in zip(a, resolved):
        assert (ra.id, rb.id, rm) == (ia, ib, m)
    for ia, ib, m in a:
        if m:
            assert ia.split("/")[0] == ib.split("/")[0]
        else:
            assert ia.split("/")[0] != ib.split("/")[0]


def test_resolve_pairs_unknown_id():
    ds = generate_synthetic(SyntheticSpec(class_count=2, samples_per_class=3,
                                          image_size=6, seed=0))
    with pytest.raises(FormatError, match="ghost"):
        resolve_pairs([("ghost", "c00/s000", True)], ds)


def test_identical_vs_disjoint_pairs_reach_full_accuracy():
    # pairs of an image with itself vs cross-class pairs are separable by
    # construction once the model embeds classes apart
    from otlab.engine import Schedule, init_model, train_classifier

    ds = generate_synthetic(SyntheticSpec(class_count=3, samples_per_class=8,
                                          image_size=8, cue_region=(2, 2, 4, 4),
                                          seed=1))
    model = init_model({"input": [8, 8, 1],
                        "layers": [{"type": "conv", "kernel": [3, 3], "filters": 4,
                                    "padding": 1},
                                   {"type": "relu"},
                                   {"type": "maxpool", "window": 2},
                                   {"type": "dense", "units": 8},
                                   {"type": "dense", "units": 3}]},
                       np.random.default_rng(0))
    train_classifier(model, ds, Schedule(steps=80, lr=0.05, batch_size=12),
                     np.random.default_rng(0))
    images = [ds.image(i) for i in range(16)]
    pairs = [(im, im, True) for im in images[:8]]
    pairs += [(a, b, False) for a, b in zip(images[:8], images[8:])]
    report = kfold_accuracy(*score_pairs(model, pairs), k=4)
    assert report["mean_accuracy"] == 1.0 and report["std"] == 0.0


# ----------------------------------------------------------------- reports

def test_kfold_report_round_trips_schema(rng):
    scores = rng.normal(size=30)
    matches = rng.random(30) > 0.5
    matches[:2] = [True, False]
    doc = {**kfold_accuracy(scores, matches, k=3), "decidability": 1.5, "num_pairs": 30}
    import json
    assert validate_kfold_report(json.loads(json.dumps(doc))) == doc


def test_validate_report_rejects_inconsistent_mean():
    doc = {"k": 2, "per_fold_accuracy": [1.0, 0.0], "per_fold_threshold": [0.1, 0.2],
           "mean_accuracy": 0.7, "std": 0.5}
    with pytest.raises(ValueError, match="mean_accuracy"):
        validate_kfold_report(doc)
