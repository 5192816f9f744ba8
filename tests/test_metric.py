import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from otlab import metric
from otlab.data import Dataset, SyntheticSpec, generate_synthetic
from otlab.engine import (
    Schedule,
    autodiff,
    default_architecture,
    forward_features,
    init_model,
    train_classifier,
)
from otlab.engine.autodiff import Node, gradients
from otlab.errors import DivergenceError, StateError
from otlab.metric import (
    FinetuneSchedule,
    LossConfig,
    TripletBatch,
    decidability,
    embed,
    finetune,
    mine,
    triplet_loss,
)

from oracles import (
    finite_difference,
    rel_error,
    violating_triplets_loops,
    violating_triplets_ordered_loops,
)


def small_model(rng, size=6, classes=3, bottleneck=4):
    return init_model({"input": [size, size, 1],
                       "layers": [{"type": "conv", "kernel": [3, 3], "filters": 2, "padding": 1},
                                  {"type": "relu"},
                                  {"type": "maxpool", "window": 2},
                                  {"type": "dense", "units": bottleneck},
                                  {"type": "dense", "units": classes}]}, rng)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def make_pool(rng, n=32, classes=4, dim=8):
    """(n, dim) unit vectors and their labels."""
    labels = rng.integers(0, classes, size=n)
    vectors = np.stack([unit(rng.normal(size=dim)) for _ in range(n)])
    return vectors, labels


def rows(batch):
    return [tuple(t) for t in batch.index.tolist()]


def loss_of(batch, **config):
    return float(triplet_loss(batch, LossConfig(**config)).value)


# ------------------------------------------------------------------- embed

def test_embeddings_are_unit_norm(rng):
    model = small_model(rng)
    for vector in embed(model, rng.random((7, 6, 6)), [f"i{k}" for k in range(7)]):
        assert abs(np.linalg.norm(vector) - 1.0) < 1e-10


def test_duplicate_images_embed_identically(rng):
    model = small_model(rng)
    pixels = rng.random((6, 6))
    a, b = embed(model, np.stack([pixels, pixels.copy()]), ["d0", "d1"])
    assert np.array_equal(a, b)


def test_embed_matches_two_step_oracle(rng):
    model = small_model(rng, bottleneck=5)
    pixels = rng.random((4, 6, 6))
    feats = forward_features(model, pixels[..., None])
    for vector, row in zip(embed(model, pixels, [f"o{k}" for k in range(4)]), feats):
        np.testing.assert_allclose(vector, row / np.linalg.norm(row), atol=1e-14)


def test_zero_feature_vector_reported(rng):
    model = small_model(rng)
    for name in model.params:
        model.params[name][:] = 0.0
    with pytest.raises(ValueError, match="zero-case"):
        embed(model, rng.random((1, 6, 6)), ["zero-case"])


# ------------------------------------------------- pool distance matrix

def test_distance_identical_vectors_is_zero():
    v = unit([1.0, 2.0, 3.0])
    assert autodiff.sq_distances(np.stack([v, v])).value[0, 1] == 0.0


def test_distance_antipodal_unit_vectors_is_four():
    v = unit([0.3, -0.4, 0.5])
    assert autodiff.sq_distances(np.stack([v, -v])).value[0, 1] == pytest.approx(4.0, abs=1e-12)


@given(st.integers(0, 10_000))
def test_distance_cosine_identity(seed):
    rng = np.random.default_rng(seed)
    a, b = unit(rng.normal(size=6)), unit(rng.normal(size=6))
    d = autodiff.sq_distances(np.stack([a, b])).value[0, 1]
    assert abs(d - (2.0 - 2.0 * float(a @ b))) < 1e-12


# ------------------------------------------------------------ triplet batch

def _batch_from_distances(d_aps, d_ans):
    """Leaf points (1-D embeddings realizing the requested squared distances
    exactly-ish) and the batch of one triplet per (d_ap, d_an)."""
    vectors, labels, triplets = [], [], []
    for i, (dap, dan) in enumerate(zip(d_aps, d_ans)):
        base = len(vectors)
        vectors += [[0.0], [np.sqrt(dap)], [np.sqrt(dan)]]
        labels += [2 * i, 2 * i, 2 * i + 1]
        triplets.append((base, base + 1, base + 2))
    points = Node(np.array(vectors))
    return points, TripletBatch(autodiff.sq_distances(points), np.array(labels), triplets)


def test_batch_stats_recomputable_from_distance_lists(rng):
    vectors, labels = make_pool(rng)
    batch = mine(autodiff.sq_distances(vectors), labels, LossConfig(alpha=0.5))
    assert len(batch) > 0
    d_ap = batch.d_ap.value
    assert batch.mu_ap == pytest.approx(float(np.mean(d_ap)), abs=1e-12)
    assert batch.var_ap == pytest.approx(float(np.mean((d_ap - np.mean(d_ap)) ** 2)), abs=1e-12)


def test_triplet_label_contract_enforced():
    distances = autodiff.sq_distances(np.eye(3))
    with pytest.raises(ValueError, match="labels differ"):
        TripletBatch(distances, np.array([0, 1, 2]), [(0, 1, 2)])
    with pytest.raises(ValueError, match="share a label"):
        TripletBatch(distances, np.array([0, 0, 0]), [(0, 1, 2)])


def test_triplet_label_contract_names_first_bad_triplet():
    distances = autodiff.sq_distances(np.eye(4))
    labels = np.array([0, 0, 1, 0])
    with pytest.raises(ValueError, match=r"triplet \(0,1,3\): anchor and negative"):
        TripletBatch(distances, labels, [(0, 1, 2), (0, 1, 3), (0, 2, 1)])
    with pytest.raises(ValueError, match=r"triplet \(0,2,1\): anchor and positive"):
        TripletBatch(distances, labels, [(0, 1, 2), (0, 2, 1), (0, 1, 3)])


# ------------------------------------------------------------ standard loss

def test_satisfied_margin_contributes_zero():
    points, batch = _batch_from_distances([0.1], [0.9])
    loss = triplet_loss(batch, LossConfig(mode="standard", alpha=0.5))
    (grads,) = gradients(loss, [points])
    assert float(loss.value) == 0.0
    assert np.all(grads == 0.0)


def test_hinge_arithmetic():
    _, batch = _batch_from_distances([0.5], [0.6])
    loss = loss_of(batch, mode="standard", alpha=0.5)
    assert loss == pytest.approx(0.4, abs=1e-12)


def test_standard_loss_gradients_match_finite_differences(rng):
    vectors, labels = make_pool(rng, n=24)
    points = Node(vectors)
    config = LossConfig(mode="standard", alpha=0.5)
    batch = mine(autodiff.sq_distances(points), labels, config)
    assert len(batch) > 0
    (grads,) = gradients(triplet_loss(batch, config), [points])
    ai, pi, ni = batch.index.T

    def loss_value():
        d_ap = ((vectors[ai] - vectors[pi]) ** 2).sum(axis=1)
        d_an = ((vectors[ai] - vectors[ni]) ** 2).sum(axis=1)
        return float(np.maximum(0.0, d_ap - d_an + 0.5).sum())

    fd = finite_difference(loss_value, vectors)
    assert rel_error(grads, fd) < 1e-4


def test_standard_loss_empty_batch_rejected():
    batch = TripletBatch(autodiff.sq_distances(np.eye(2)), np.array([0, 1]), [])
    with pytest.raises(StateError, match="standard triplet loss needs at least 1 triplets, got 0"):
        triplet_loss(batch, LossConfig(mode="standard", alpha=0.5))


# --------------------------------------------------------------- batch loss

def test_batch_loss_beta_zero_reduces_to_mean_separation(rng):
    for _ in range(100):
        n = int(rng.integers(2, 9))
        _, batch = _batch_from_distances(rng.uniform(0, 2, size=n), rng.uniform(0, 2, size=n))
        loss = loss_of(batch, alpha=0.5, beta=0.0)
        expected = batch.mu_ap - batch.mu_an + 0.5
        assert abs(loss - expected) <= 1e-12


def test_batch_loss_beta_one_is_pure_variance(rng):
    for _ in range(100):
        n = int(rng.integers(2, 9))
        _, batch = _batch_from_distances(rng.uniform(0, 2, size=n), rng.uniform(0, 2, size=n))
        loss = loss_of(batch, alpha=0.5, beta=1.0)
        assert abs(loss - (batch.var_ap + batch.var_an)) <= 1e-12


def test_batch_loss_zero_variance_at_beta_one():
    _, batch = _batch_from_distances([0.3, 0.3], [1.1, 1.1])
    loss = loss_of(batch, alpha=0.5, beta=1.0)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_batch_loss_frozen_scalar_example():
    # d_ap {0.2, 0.4}, d_an {1.0, 1.2}, alpha 0.5, beta 0.7 ->
    # 0.3 * (0.3 - 1.1 + 0.5) + 0.7 * (0.01 + 0.01) = -0.076
    _, batch = _batch_from_distances([0.2, 0.4], [1.0, 1.2])
    loss = loss_of(batch, alpha=0.5, beta=0.7)
    assert loss == pytest.approx(-0.076, abs=1e-12)


def test_batch_loss_invariant_under_triplet_permutation(rng):
    vectors, labels = make_pool(rng, n=20)
    batch = mine(autodiff.sq_distances(vectors), labels, LossConfig(alpha=0.5))
    perm = rows(batch)
    rng.shuffle(perm)
    shuffled = TripletBatch(batch.distances, batch.labels, perm)
    a = loss_of(batch, alpha=0.5, beta=0.7)
    b = loss_of(shuffled, alpha=0.5, beta=0.7)
    assert abs(a - b) < 1e-12


def test_batch_loss_gradients_match_finite_differences(rng):
    vectors, labels = make_pool(rng, n=20)
    points = Node(vectors)
    config = LossConfig(alpha=0.5, beta=0.7)
    batch = mine(autodiff.sq_distances(points), labels, config)
    (grads,) = gradients(triplet_loss(batch, config), [points])
    ai, pi, ni = batch.index.T

    def loss_value():
        d_ap = ((vectors[ai] - vectors[pi]) ** 2).sum(axis=1)
        d_an = ((vectors[ai] - vectors[ni]) ** 2).sum(axis=1)
        return float(0.3 * (d_ap.mean() - d_an.mean() + 0.5)
                     + 0.7 * (d_ap.var() + d_an.var()))

    fd = finite_difference(loss_value, vectors)
    assert rel_error(grads, fd) < 1e-4


def test_batch_loss_single_triplet_rejected():
    _, batch = _batch_from_distances([0.2], [1.0])
    with pytest.raises(StateError, match="batch triplet loss needs at least 2 triplets, got 1"):
        triplet_loss(batch, LossConfig(alpha=0.5, beta=0.7))


# ------------------------------------------------------------ online mining

def test_converged_pool_yields_empty_batch():
    up = unit([1.0, 0.0])
    down = unit([-1.0, 0.0])
    vectors = np.stack([up, up, down, down])
    batch = mine(autodiff.sq_distances(vectors), np.array([0, 0, 1, 1]), LossConfig(alpha=0.5))
    assert len(batch) == 0


# a pool is drawn from classes with two samples or more; fine-tuning refuses
# a dataset that cannot give two such classes before it traces anything
def _pool_composition_error(labels):
    rng = np.random.default_rng(0)
    dataset = Dataset(pixels=rng.random((len(labels), 6, 6)), labels=labels,
                      ids=[f"e{k}" for k in range(len(labels))], class_count=max(labels) + 1)
    with pytest.raises(StateError, match="two classes with two samples each"):
        finetune(small_model(rng), dataset,
                 LossConfig(), FinetuneSchedule(steps=1), rng)


def test_singleton_classes_raise_composition_error():
    _pool_composition_error([0, 1])


def test_single_class_pool_raises():
    _pool_composition_error([0, 0, 0])


def test_online_selection_equals_exhaustive_enumeration(rng):
    vectors, labels = make_pool(rng, n=32, classes=4)
    batch = mine(autodiff.sq_distances(vectors), labels, LossConfig(alpha=0.5))
    expected = violating_triplets_loops(vectors, labels, 0.5)
    assert set(rows(batch)) == expected


@st.composite
def _tie_prone_pools(draw):
    """Small pools on an integer grid: duplicated vectors and integer
    distances make d_ap + alpha == d_an ties common, and up to ten labels
    drawn from four classes often leave singleton classes."""
    n = draw(st.integers(2, 10))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    coords = draw(st.lists(st.lists(st.integers(-1, 1), min_size=2, max_size=2),
                           min_size=n, max_size=n))
    return np.array(coords, dtype=np.float64), np.array(labels)


@given(_tie_prone_pools(), st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.booleans())
def test_miner_equals_ordered_oracle(pool, alpha, online):
    vectors, labels = pool
    distances = autodiff.sq_distances(vectors)
    mined = mine(distances, labels, LossConfig(alpha=alpha, online=online)).index
    assert mined.shape == (len(mined), 3)
    assert [tuple(t) for t in mined.tolist()] == violating_triplets_ordered_loops(
        vectors, labels, alpha, online)


@pytest.mark.parametrize("online", [False, True])
def test_finetune_cap_selects_oracle_triplets(monkeypatch, online):
    # each step's capped batch must be the seeded draw over the oracle's
    # ordered list, taken from the rng state the miner was called with
    rng = np.random.default_rng(5)
    normalize, mine, build = metric.l2_normalize, metric._violating_triplets, metric.batch_loss_node
    steps = []

    def recording_normalize(features):
        z = normalize(features)
        steps.append({"vectors": z.value.copy()})
        return z

    def recording_violators(distances, labels, alpha, *, online):
        steps[-1].update(labels=labels.copy(), state=rng.bit_generator.state)
        return mine(distances, labels, alpha, online=online)

    def recording_build(batch, alpha, beta):
        steps[-1]["used"] = rows(batch)
        return build(batch, alpha, beta)

    monkeypatch.setattr(metric, "l2_normalize", recording_normalize)
    monkeypatch.setattr(metric, "_violating_triplets", recording_violators)
    monkeypatch.setattr(metric, "batch_loss_node", recording_build)
    cap = 32
    finetune(small_model(np.random.default_rng(2)), _tiny_dataset(seed=3),
             LossConfig(mode="batch", alpha=0.5, online=online, max_triplets=cap),
             FinetuneSchedule(steps=4, lr=0.001, pool_classes=3, pool_per_class=4), rng)
    compared = 0
    for step in steps:
        expected = violating_triplets_ordered_loops(step["vectors"], step["labels"], 0.5,
                                                    online)
        if len(expected) > cap:
            draw = np.random.default_rng()
            draw.bit_generator.state = step["state"]
            keep = np.sort(draw.choice(len(expected), size=cap, replace=False))
            expected = [expected[i] for i in keep]
        if "used" in step:
            assert step["used"] == expected
            compared += 1
    assert compared >= 3


@pytest.mark.parametrize("mode", ["standard", "batch"])
@pytest.mark.parametrize("online", [False, True])
def test_finetune_builds_one_distance_matrix_per_step(monkeypatch, mode, online):
    # mining, the batch statistics and the loss all read one sq_distances node
    calls = []
    real = autodiff.sq_distances
    monkeypatch.setattr(autodiff, "sq_distances", lambda x: calls.append(1) or real(x))
    steps = 3
    finetune(small_model(np.random.default_rng(2)), _tiny_dataset(seed=3),
             LossConfig(mode=mode, alpha=0.5, online=online),
             FinetuneSchedule(steps=steps, lr=0.001, pool_classes=3, pool_per_class=4),
             np.random.default_rng(5))
    assert len(calls) == steps


def test_max_triplets_cap_is_seeded_subsample(rng):
    vectors, labels = make_pool(rng, n=32, classes=4)
    distances = autodiff.sq_distances(vectors)
    full = mine(distances, labels, LossConfig(alpha=0.5))
    capped_config = LossConfig(alpha=0.5, max_triplets=10)
    capped = mine(distances, labels, capped_config, np.random.default_rng(3))
    again = mine(distances, labels, capped_config, np.random.default_rng(3))
    assert len(capped) == 10
    assert rows(capped) == rows(again)
    assert set(rows(capped)) <= set(rows(full))


# ------------------------------------------------------------- decidability

def test_equal_means_give_zero():
    assert decidability([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == 0.0


def test_decidability_direct_evaluation():
    # means 0 and 1, each population variance 0.5
    pos = [np.sqrt(0.5), -np.sqrt(0.5)]
    neg = [1 + np.sqrt(0.5), 1 - np.sqrt(0.5)]
    assert decidability(pos, neg) == pytest.approx(1.0 / np.sqrt(0.5), abs=1e-12)


@given(st.floats(0.01, 100.0))
def test_decidability_scale_invariant(c):
    pos = np.array([0.1, 0.3, 0.2])
    neg = np.array([0.9, 1.1, 1.4])
    base = decidability(pos, neg)
    assert abs(decidability(c * pos, c * neg) - base) < 1e-10 * max(base, 1.0)


def test_decidability_undefined_for_constant_lists():
    with pytest.raises(ValueError, match="undefined"):
        decidability([1.0, 1.0], [2.0, 2.0])


def test_decidability_needs_two_scores():
    with pytest.raises(ValueError, match="two scores"):
        decidability([1.0], [2.0, 3.0])


@pytest.mark.parametrize("fields, message", [
    ({"alpha": float("nan")}, "alpha must be at least 0, got nan"),
    ({"max_triplets": float("nan")}, "max_triplets must be at least 1, got nan"),
])
def test_loss_config_refuses_nan(fields, message):
    # NaN fails every comparison; a NaN alpha would mine no triplet at any step
    with pytest.raises(ValueError, match=message):
        LossConfig(**fields)


# ----------------------------------------------------------------- finetune

def _tiny_dataset(seed=0):
    return generate_synthetic(SyntheticSpec(class_count=3, samples_per_class=6,
                                            image_size=6, seed=seed))


def test_finetune_zero_steps_keeps_model(rng):
    model = small_model(rng)
    before = {k: v.copy() for k, v in model.params.items()}
    model, rows = finetune(model, _tiny_dataset(), LossConfig(),
                           FinetuneSchedule(steps=0), rng)
    assert rows == []
    for k in before:
        np.testing.assert_array_equal(model.params[k], before[k])


def test_finetune_without_violations_never_updates():
    # two constant classes: embeddings coincide within a class, so with
    # alpha=0 no triplet violates and no gradient step happens
    fills = np.repeat([0.1, 0.9], 4)
    pixels = np.broadcast_to(fills[:, None, None], (8, 6, 6)).copy()
    pixels[:, 0, 0] = 1.0 - fills
    ds = Dataset(pixels=pixels, labels=np.repeat([0, 1], 4),
                 ids=[f"{k // 4}-{k % 4}" for k in range(8)], class_count=2)
    model = small_model(np.random.default_rng(0), classes=2)
    before = {k: v.copy() for k, v in model.params.items()}
    model, rows = finetune(model, ds, LossConfig(mode="standard", alpha=0.0),
                           FinetuneSchedule(steps=5, pool_classes=2, pool_per_class=4),
                           np.random.default_rng(1))
    assert all(r["triplet_count"] == 0 for r in rows)
    for k in before:
        np.testing.assert_array_equal(model.params[k], before[k])


def test_finetune_standard_log_is_self_consistent():
    # with online sampling every logged triplet violates the margin, so
    # loss == triplet_count * (mu_ap - mu_an + alpha)
    ds = _tiny_dataset(seed=3)
    model = small_model(np.random.default_rng(2))
    model, rows = finetune(model, ds, LossConfig(mode="standard", alpha=0.5,
                                                 max_triplets=32),
                           FinetuneSchedule(steps=10, lr=0.001, pool_classes=3,
                                            pool_per_class=4),
                           np.random.default_rng(5))
    updated = [r for r in rows if np.isfinite(r["loss"])]
    assert updated
    for r in updated:
        expected = r["triplet_count"] * (r["mu_ap"] - r["mu_an"] + 0.5)
        assert r["loss"] == pytest.approx(expected, rel=1e-12)


def test_finetune_batch_beta_zero_log_reduction():
    ds = _tiny_dataset(seed=3)
    model = small_model(np.random.default_rng(2))
    model, rows = finetune(model, ds, LossConfig(mode="batch", alpha=0.5, beta=0.0,
                                                 max_triplets=32),
                           FinetuneSchedule(steps=10, lr=0.001, pool_classes=3,
                                            pool_per_class=4),
                           np.random.default_rng(5))
    updated = [r for r in rows if np.isfinite(r["loss"])]
    assert updated
    for r in updated:
        assert r["loss"] == pytest.approx(r["mu_ap"] - r["mu_an"] + 0.5, rel=1e-12)


def test_finetune_huge_lr_names_first_non_finite_parameter():
    model = small_model(np.random.default_rng(0))
    with np.errstate(all="ignore"), pytest.raises(
            DivergenceError, match="non-finite parameter conv1.weight after the update at step 1"):
        finetune(model, _tiny_dataset(), LossConfig(mode="standard", online=False),
                 FinetuneSchedule(steps=3, lr=1e308, pool_classes=3, pool_per_class=4),
                 np.random.default_rng(0))


def test_finetune_batch_mode_shrinks_variance():
    # fine-tuning presumes a classification-pretrained model
    ds = generate_synthetic(SyntheticSpec(class_count=4, samples_per_class=12,
                                          image_size=8, seed=11))
    model = init_model({"input": [8, 8, 1],
                        "layers": [{"type": "conv", "kernel": [3, 3], "filters": 4, "padding": 1},
                                   {"type": "relu"},
                                   {"type": "maxpool", "window": 2},
                                   {"type": "dense", "units": 8},
                                   {"type": "dense", "units": 4}]},
                       np.random.default_rng(4))
    train_classifier(model, ds, Schedule(steps=120, lr=0.03, batch_size=16),
                     np.random.default_rng(4))
    model, rows = finetune(model, ds, LossConfig(mode="batch", online=False,
                                                 max_triplets=64),
                           FinetuneSchedule(steps=60, lr=0.005, pool_classes=4,
                                            pool_per_class=6),
                           np.random.default_rng(6))
    updated = [r for r in rows if np.isfinite(r["loss"])]
    first = updated[0]["var_ap"] + updated[0]["var_an"]
    last = updated[-1]["var_ap"] + updated[-1]["var_an"]
    assert last < first


# parameters of the seed-0 default net after a 3-step batch-loss fine-tune, one
# 64-image pool per step: pins the batch-64 forward and VJP bits the way
# tests/test_engine.py's DEFAULT_TRAIN20_SHA256 pins batch 32
DEFAULT_FINETUNE3_SHA256 = "1814bc9180499b992bfb34e13caadbe49d9a76613012cc3d861e0bae812708f7"


def test_default_finetune_bits_are_pinned():
    dataset = generate_synthetic(SyntheticSpec(class_count=10, samples_per_class=8, seed=0))
    model = init_model(default_architecture(32, 10), 0)
    _, rows = finetune(model, dataset, LossConfig(mode="batch"), FinetuneSchedule(steps=3), 0)
    assert [r["triplet_count"] for r in rows] == [25088] * 3
    digest = hashlib.sha256()
    for name, value in model.params.items():
        digest.update(name.encode())
        digest.update(value.tobytes())
    assert digest.hexdigest() == DEFAULT_FINETUNE3_SHA256
