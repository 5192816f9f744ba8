import hashlib
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otlab.data import Dataset, LabeledImage, SyntheticSpec, generate_synthetic
from otlab.engine import (
    Schedule,
    backward,
    forward,
    forward_features,
    init_model,
    save_checkpoint,
    read_checkpoint,
    load_checkpoint,
    softmax_cross_entropy,
    softmax_cross_entropy_value,
    sgd_step,
    trace,
    train_classifier,
)
from otlab.engine import autodiff as ad
from otlab.engine import ops
from otlab.engine.model import (
    INFERENCE_ROWS,
    Conv,
    Dense,
    Model,
    default_architecture,
    layer_from_config,
    plan_layers,
)
from otlab.errors import ConfigError, CorruptionError, DivergenceError, FormatError, StateError

from oracles import (
    conv2d_loops,
    finite_difference,
    gradients_unpruned,
    maxpool_gather,
    maxpool_loops,
    rel_error,
    softmax_ce_loops,
)


def small_config(classes=3):
    return {
        "input": [6, 6, 1],
        "layers": [
            {"type": "conv", "kernel": [3, 3], "filters": 2, "padding": 1},
            {"type": "relu"},
            {"type": "maxpool", "window": 2},
            {"type": "dense", "units": 5},
            {"type": "dense", "units": classes},
        ],
    }


# ----------------------------------------------------------------- forward

def test_zero_parameters_give_zero_logits(rng):
    model = init_model(small_config(), rng)
    for name in model.params:
        model.params[name][:] = 0.0
    logits = forward(model, rng.random((4, 6, 6, 1)))
    np.testing.assert_array_equal(logits, np.zeros((4, 3)))


def test_identity_conv_on_single_pixel():
    # one 1x1 conv with unit weight: logits equal the input values
    model = Model((1, 1, 1), [Conv((1, 1), 1)],
                  {"conv1.weight": np.ones((1, 1, 1, 1)), "conv1.bias": np.zeros(1)})
    x = np.array([0.25, 0.75]).reshape(2, 1, 1, 1)
    out = forward(model, x)
    np.testing.assert_array_equal(out.ravel(), [0.25, 0.75])


def test_forward_matches_loop_oracle(rng):
    model = init_model(small_config(), rng)
    x = rng.random((2, 6, 6, 1))
    expected = conv2d_loops(x, model.params["conv1.weight"], model.params["conv1.bias"], padding=1)
    expected = np.maximum(expected, 0.0)
    expected = maxpool_loops(expected, 2)
    expected = expected.reshape(2, -1) @ model.params["dense1.weight"] + model.params["dense1.bias"]
    expected = expected @ model.params["dense2.weight"] + model.params["dense2.bias"]
    np.testing.assert_allclose(forward(model, x), expected, rtol=1e-12, atol=1e-12)


def test_forward_is_pure(rng):
    model = init_model(small_config(), rng)
    x = rng.random((3, 6, 6, 1))
    first = forward(model, x)
    second = forward(model, x)
    assert np.array_equal(first, second)


def test_forward_rejects_wrong_shape(rng):
    model = init_model(small_config(), rng)
    with pytest.raises(ValueError, match="does not match"):
        forward(model, rng.random((1, 5, 6, 1)))


def test_shapes_must_compose():
    with pytest.raises(ConfigError):
        init_model({"input": [4, 4, 1],
                    "layers": [{"type": "conv", "kernel": [7, 7], "filters": 1}]},
                   np.random.default_rng(0))


@pytest.mark.parametrize("spec, message", [
    (["a", 6, 1], "model input must be a number, got 'a'"),
    ([6, 1.5, 1], "model input must be an integer, got 1.5"),
    (6, "model input must be [height, width, channels], got 6"),
    ([6, 6], "model input must be [height, width, channels], got [6, 6]"),
    ([6, 0, 1], "model input must be positive, got [6, 0, 1]"),
])
def test_malformed_model_input_is_a_config_error(spec, message):
    config = dict(small_config(), input=spec)
    with pytest.raises(ConfigError, match=re.escape(message)):
        init_model(config, 0)


@pytest.mark.parametrize("layer, message", [
    ({"type": "maxpool", "window": 0}, "maxpool window must be at least 1, got 0"),
    ({"type": "conv", "kernel": [0, 3], "filters": 2}, "conv kernel must be at least 1, got 0"),
    ({"type": "conv", "kernel": [3, 3], "filters": 2, "padding": -1},
     "conv padding must be at least 0, got -1"),
    ({"type": "conv", "kernel": [3, 3], "filters": 0}, "conv filters must be at least 1, got 0"),
    ({"type": "dense", "units": 0}, "dense units must be at least 1, got 0"),
])
def test_non_positive_layer_sizes_are_config_errors(layer, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        layer_from_config(layer)


@pytest.mark.parametrize("name, shape", [
    ("conv1.weight", (2, 2, 1, 2)),     # a 2x2 kernel under a declared 3x3 conv
    ("conv1.bias", (3,)),
    ("dense2.weight", (5, 4)),          # 4 outputs under units: 3
])
def test_model_rejects_a_tensor_of_the_wrong_shape(rng, name, shape):
    params = dict(init_model(small_config(), rng).params)
    expected = params[name].shape
    params[name] = np.zeros(shape)
    layers = [layer_from_config(c) for c in small_config()["layers"]]
    with pytest.raises(ConfigError, match=re.escape(
            f"parameter {name} has shape {shape}, expected {expected}")):
        Model((6, 6, 1), layers, params)


# bytes of the default net's seed-0 checkpoint: pins the init draws' order,
# shapes and names
DEFAULT_INIT_SHA256 = "fe133cb46cd579cb91722fee9c7890b1eceadb13fbe22438be4c56949a920b89"


def test_default_init_draws_are_pinned(tmp_path):
    model = init_model(default_architecture(32, 10), 0)
    assert list(model.params) == [f"{layer}.{part}" for layer in
                                  ("conv1", "conv2", "dense1", "dense2")
                                  for part in ("weight", "bias")]
    path = tmp_path / "init.otl"
    save_checkpoint(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_INIT_SHA256


# parameters of the seed-0 default net after 20 training steps: any change to a
# forward, gradient or update bit changes every trained checkpoint and fails this
DEFAULT_TRAIN20_SHA256 = "0790896e3fc1f2660b4ef5aa733f4cced17766fc02ea08cf35f6d361152c85e7"


def test_default_training_bits_are_pinned():
    dataset = generate_synthetic(SyntheticSpec(class_count=10, samples_per_class=8, seed=0))
    model = init_model(default_architecture(32, 10), 0)
    rows = train_classifier(model, dataset, Schedule(steps=20, lr=0.02), 0)
    assert len(rows) == 20
    digest = hashlib.sha256()
    for name, value in model.params.items():
        digest.update(name.encode())
        digest.update(value.tobytes())
    assert digest.hexdigest() == DEFAULT_TRAIN20_SHA256


_SPATIAL_LAYER = st.one_of(
    st.builds(lambda kh, kw, filters, padding: {"type": "conv", "kernel": [kh, kw],
                                                "filters": filters, "padding": padding},
              st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 1)),
    st.just({"type": "relu"}),
    st.builds(lambda window: {"type": "maxpool", "window": window}, st.integers(2, 3)),
)


def _random_config(input_spec, spatial, head) -> dict:
    """The ``spatial`` layers that still fit the image, then the dense ``head``."""
    layers = []
    for cfg in spatial:
        try:
            plan_layers(input_spec, [layer_from_config(c) for c in layers + [cfg]])
        except ConfigError:
            continue        # too large for what is left of the image
        layers.append(cfg)
    for relu, units in head:
        if relu:
            layers.append({"type": "relu"})
        layers.append({"type": "dense", "units": units})
    return {"input": input_spec, "layers": layers}


_RANDOM_NET = dict(
    height=st.integers(2, 9), width=st.integers(2, 9), channels=st.integers(1, 2),
    spatial=st.lists(_SPATIAL_LAYER, max_size=5),
    head=st.lists(st.tuples(st.booleans(), st.integers(1, 4)), min_size=1, max_size=3),
    batch=st.sampled_from([1, 7, 33]), seed=st.integers(0, 2 ** 16))


@settings(max_examples=60)
@given(**_RANDOM_NET)
def test_trace_and_forward_compute_the_same_bits(height, width, channels, spatial, head,
                                                 batch, seed):
    config = _random_config([height, width, channels], spatial, head)
    assume(len(config["layers"]) >= 2)    # the features need a layer before the classifier
    model = init_model(config, seed)
    x = np.random.default_rng(seed).normal(size=(batch, height, width, channels))
    assert np.array_equal(trace(model, x).logits.value, forward(model, x))
    assert np.array_equal(trace(model, x, through="features").features.value,
                          forward_features(model, x))


# ---------------------------------------------------------------- max pool

@settings(max_examples=80)
@given(n=st.integers(1, 3), height=st.integers(1, 7), width=st.integers(1, 7),
       channels=st.integers(1, 3), window=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_strided_pool_matches_the_gather_form(n, height, width, channels, window, seed):
    # integer grid: many ties within a window, and zeros of both signs
    assume(window <= min(height, width))
    r = np.random.default_rng(seed)
    shape = (n, height, width, channels)
    x = r.integers(-2, 3, size=shape).astype(np.float64)
    x[(x == 0.0) & (r.random(shape) < 0.5)] = -0.0
    expected, expected_vjp = maxpool_gather(x, window)
    node = ops.maxpool(x, window)
    assert np.array_equal(ops.maxpool_value(x, window), expected)
    assert np.array_equal(node.value, expected)
    g = r.normal(size=expected.shape)
    g[r.random(g.shape) < 0.2] = -0.0
    ((_, vjp),) = node.parents
    assert vjp(g).tobytes() == expected_vjp(g).tobytes()


# ------------------------------------------------------------- softmax CE

def test_uniform_logits_loss_is_log_k():
    logits = np.zeros((5, 4))
    loss, probs = softmax_cross_entropy_value(logits, [0, 1, 2, 3, 0])
    assert loss == pytest.approx(np.log(4.0), abs=1e-12)
    np.testing.assert_allclose(probs, 0.25)


def test_saturated_correct_logit_loss_vanishes():
    logits = np.array([[50.0, 0.0, 0.0]])
    loss, _ = softmax_cross_entropy_value(logits, [0])
    assert 0.0 <= loss < 1e-20


def test_softmax_ce_matches_scalar_oracle():
    logits = np.array([[1.0, 2.0, 0.5]])
    expected_loss, expected_probs = softmax_ce_loops(logits, [1])
    loss, probs = softmax_cross_entropy_value(logits, [1])
    assert loss == pytest.approx(expected_loss, abs=1e-14)
    np.testing.assert_allclose(probs, expected_probs, atol=1e-14)


def test_probability_rows_sum_to_one(rng):
    logits = rng.normal(scale=10.0, size=(8, 6))
    _, probs = softmax_cross_entropy_value(logits, rng.integers(0, 6, size=8))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


@given(shift=st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_softmax_invariant_to_constant_shift(shift):
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(4, 5))
    labels = [0, 4, 2, 1]
    loss_a, probs_a = softmax_cross_entropy_value(logits, labels)
    loss_b, probs_b = softmax_cross_entropy_value(logits + shift, labels)
    assert abs(loss_a - loss_b) < 1e-12
    assert np.max(np.abs(probs_a - probs_b)) < 1e-12


def test_label_out_of_range_rejected():
    with pytest.raises(ValueError, match="labels"):
        softmax_cross_entropy_value(np.zeros((2, 3)), [0, 3])


# ---------------------------------------------------------------- backward

def test_detached_loss_gives_all_zero_gradients(rng):
    model = init_model(small_config(), rng)
    run = trace(model, rng.random((2, 6, 6, 1)))
    grads = backward(run, ad.Node(np.float64(3.0)))
    assert set(grads) == set(model.params)
    assert all(np.all(g == 0.0) for g in grads.values())


def test_single_linear_layer_squared_loss_closed_form(rng):
    # loss = mean over batch of ||x w - y||^2  =>  dL/dw = 2 x^T (x w - y) / N
    model = Model((1, 3, 1), [Dense(1)],
                  {"dense1.weight": rng.normal(size=(3, 1)), "dense1.bias": np.zeros(1)})
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=(5, 1))
    run = trace(model, x.reshape(5, 1, 3, 1))
    loss = ad.mean_along(ad.sum_along(ad.square(run.logits - y), axis=1))
    grads = backward(run, loss)
    expected = 2.0 * x.T @ (x @ model.params["dense1.weight"] - y) / 5
    np.testing.assert_allclose(grads["dense1.weight"], expected, rtol=1e-12)


def test_model_gradients_match_finite_differences(rng):
    model = init_model(small_config(), rng)
    x = rng.random((3, 6, 6, 1))
    labels = np.array([0, 2, 1])
    run = trace(model, x)
    loss_node, _ = softmax_cross_entropy(run.logits, labels)
    grads = backward(run, loss_node)

    for name, param in model.params.items():
        def f():
            return softmax_cross_entropy_value(forward(model, x), labels)[0]

        fd = finite_difference(f, param)
        assert rel_error(grads[name], fd) < 1e-4, name


def _assert_same_gradient_bits(model, x, labels):
    run = trace(model, x)
    loss, _ = softmax_cross_entropy(run.logits, labels)
    leaves = list(run.param_nodes.values())
    # an iterator: gradients must read the leaves once and keep them
    for pruned, unpruned in zip(ad.gradients(loss, iter(leaves)),
                                gradients_unpruned(loss, leaves)):
        assert pruned.tobytes() == unpruned.tobytes()


def test_default_net_gradients_equal_the_unpruned_walk(rng):
    model = init_model(default_architecture(16, 4), rng)
    _assert_same_gradient_bits(model, rng.random((8, 16, 16, 1)), rng.integers(0, 4, 8))


@settings(max_examples=40)
@given(**_RANDOM_NET)
def test_random_net_gradients_equal_the_unpruned_walk(height, width, channels, spatial,
                                                      head, batch, seed):
    model = init_model(_random_config([height, width, channels], spatial, head), seed)
    r = np.random.default_rng(seed)
    x = r.normal(size=(batch, height, width, channels))
    _assert_same_gradient_bits(model, x, r.integers(0, model.num_classes(), batch))


def test_backward_never_runs_the_vjp_into_the_input(rng):
    model = init_model(default_architecture(8, 3), rng)
    run = trace(model, rng.random((2, 8, 8, 1)))
    loss, _ = softmax_cross_entropy(run.logits, [0, 2])
    calls, edges, leaves, stack, seen = Counter(), Counter(), {}, [loss], set()

    def counted(parent, vjp):
        def wrapped(g):
            calls[id(parent)] += 1
            return vjp(g)
        return wrapped

    while stack:                    # wrap every VJP in the graph with a counter
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if not node.parents:
            leaves[id(node)] = node
        node.parents = tuple((p, counted(p, vjp)) for p, vjp in node.parents)
        edges.update(id(p) for p, _ in node.parents)
        stack.extend(p for p, _ in node.parents)
    (image,) = [leaves[k] for k in leaves.keys() - {id(n) for n in run.param_nodes.values()}]

    backward(run, loss)
    assert calls[id(image)] == 0    # conv1's vjp_x
    assert calls == edges - Counter({id(image): 1})

    # asked for, the input's gradient is computed as before
    (g,) = ad.gradients(loss, [image])
    assert g.tobytes() == gradients_unpruned(loss, [image])[0].tobytes()


def test_backward_without_recorded_forward_errors(rng):
    model = init_model(small_config(), rng)
    run = trace(model, rng.random((1, 6, 6, 1)))
    with pytest.raises(StateError):
        backward(run, np.float64(1.0))


def test_features_stop_before_classifier(rng):
    model = init_model(small_config(), rng)
    x = rng.random((2, 6, 6, 1))
    feats = forward_features(model, x)
    assert feats.shape == (2, 5)
    manual = feats @ model.params["dense2.weight"] + model.params["dense2.bias"]
    np.testing.assert_allclose(manual, forward(model, x), rtol=1e-12)


def test_inference_walks_blocks_of_inference_rows(rng, monkeypatch):
    model = init_model(small_config(), rng)
    x = rng.random((600, 6, 6, 1))
    rows = []
    conv = ops.conv2d_value

    def recording(batch, *args):
        rows.append(len(batch))
        return conv(batch, *args)

    monkeypatch.setattr(ops, "conv2d_value", recording)
    for fn in (forward, forward_features):
        blocks = [fn(model, x[s:s + INFERENCE_ROWS]) for s in range(0, len(x), INFERENCE_ROWS)]
        rows.clear()
        np.testing.assert_array_equal(fn(model, x), np.concatenate(blocks))
        assert rows == [INFERENCE_ROWS, INFERENCE_ROWS, 600 - 2 * INFERENCE_ROWS]


# --------------------------------------------------------------------- SGD

def test_zero_learning_rate_keeps_parameters(rng):
    params = {"w": rng.normal(size=(3,))}
    before = params["w"].copy()
    sgd_step(params, {}, {"w": rng.normal(size=(3,))}, lr=0.0, momentum=0.9)
    np.testing.assert_array_equal(params["w"], before)


def test_single_step_arithmetic():
    params = {"w": np.array([1.0])}
    sgd_step(params, {}, {"w": np.array([2.0])}, lr=0.1, momentum=0.0)
    assert params["w"][0] == pytest.approx(0.8, abs=1e-15)


def test_momentum_matches_unrolled_recurrence():
    params = {"w": np.array([1.0])}
    velocities = {}
    grads = [0.5, -0.25, 1.5]
    for g in grads:
        sgd_step(params, velocities, {"w": np.array([g])}, lr=0.1, momentum=0.9)

    # independent hand-unrolled recurrence
    p, v = 1.0, 0.0
    for g in grads:
        v = 0.9 * v - 0.1 * g
        p = p + v
    assert params["w"][0] == pytest.approx(p, abs=1e-15)


def test_missing_gradient_key_raises():
    with pytest.raises(KeyError):
        sgd_step({"w": np.ones(1)}, {}, {}, lr=0.1, momentum=0.0)


# --------------------------------------------------------------- training

def _toy_separable():
    rng = np.random.default_rng(3)
    images = []
    for i in range(20):
        for label, center in ((0, (1.0, 0.0)), (1, (0.0, 1.0))):
            pix = np.array([center]) + rng.normal(scale=0.05, size=(1, 2))
            images.append(LabeledImage(pixels=pix, label=label, id=f"{label}-{i}"))
    return Dataset(images=images, class_count=2)


def test_linearly_separable_set_trains_below_threshold():
    dataset = _toy_separable()
    model = init_model({"input": [1, 2, 1],
                        "layers": [{"type": "dense", "units": 2}]},
                       np.random.default_rng(0))
    rows = train_classifier(model, dataset, Schedule(steps=500, lr=0.1, batch_size=8),
                            np.random.default_rng(1))
    assert rows[-1][1] < 0.01


def test_train_zero_steps_is_identity(rng):
    dataset = _toy_separable()
    model = init_model({"input": [1, 2, 1], "layers": [{"type": "dense", "units": 2}]}, rng)
    before = {k: v.copy() for k, v in model.params.items()}
    rows = train_classifier(model, dataset, Schedule(steps=0), np.random.default_rng(0))
    assert rows == []
    for k in before:
        np.testing.assert_array_equal(model.params[k], before[k])


def test_divergence_raises():
    dataset = _toy_separable()
    model = init_model({"input": [1, 2, 1], "layers": [{"type": "dense", "units": 2}]},
                       np.random.default_rng(0))
    model.params["dense1.weight"][:] = np.nan
    with pytest.raises(DivergenceError, match="non-finite loss"):
        train_classifier(model, dataset, Schedule(steps=5), np.random.default_rng(0))


def test_divergent_update_names_first_non_finite_parameter():
    # an infinite step makes every parameter non-finite in the first update
    # (inf * g, or nan where g is 0), before any loss is non-finite
    dataset = _toy_separable()
    model = init_model({"input": [1, 2, 1], "layers": [{"type": "dense", "units": 2}]},
                       np.random.default_rng(0))
    first = next(iter(model.params))
    with np.errstate(all="ignore"), pytest.raises(
            DivergenceError, match=rf"non-finite parameter {first} after the update at step 1"):
        train_classifier(model, dataset, Schedule(steps=5, lr=np.inf), np.random.default_rng(0))


# ------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_is_bit_exact(rng, tmp_path):
    model = init_model(small_config(), rng)
    state = {"bit_generator": "PCG64", "state": {"state": 123, "inc": 5}}
    path = tmp_path / "model.otl"
    save_checkpoint(model, path, rng_state=state, training_meta={"stage": "test", "steps": 7})
    loaded = read_checkpoint(path)
    assert set(loaded.model.params) == set(model.params)
    for name in model.params:
        assert np.array_equal(loaded.model.params[name], model.params[name])
    assert loaded.rng_state == state
    assert loaded.training_meta["steps"] == 7
    assert loaded.model.to_config() == model.to_config()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.otl"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    import json
    header = json.dumps({"format_version": 0, "model_config": {}, "tensors": {},
                         "rng_state": None, "training_meta": {}}).encode()
    path = tmp_path / "old.otl"
    path.write_bytes(b"OTL1" + len(header).to_bytes(4, "little") + header)
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncated_payload(rng, tmp_path):
    model = init_model(small_config(), rng)
    path = tmp_path / "model.otl"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


def _rewrite_header(path, edit):
    """Apply ``edit`` to a saved checkpoint's JSON header, keeping the blob."""
    import json
    raw = path.read_bytes()
    n = int.from_bytes(raw[4:8], "little")
    header = json.loads(raw[8:8 + n])
    edit(header)
    new = json.dumps(header).encode()
    path.write_bytes(raw[:4] + len(new).to_bytes(4, "little") + new + raw[8 + n:])


@pytest.mark.parametrize("edit, match", [
    (lambda h: h["tensors"].update({"conv1.bias": 7}), "'conv1.bias' entry"),
    (lambda h: h["tensors"]["conv1.bias"].__setitem__(1, "0"), "'conv1.bias' offset"),
    (lambda h: h["tensors"]["conv1.bias"].__setitem__(0, [1.5]), "'conv1.bias' shape"),
    (lambda h: h["tensors"]["conv1.bias"].__setitem__(2, 3), "'conv1.bias' has 3 bytes"),
    # 8 * (2**32)**2 wraps to 0 in int64, which would match the 0-byte length
    (lambda h: h["tensors"].update({"conv1.bias": [[2**32, 2**32], 0, 0]}),
     "'conv1.bias' has 0 bytes, expected 147573952589676412928"),
    (lambda h: h["model_config"]["layers"][0].update({"kernel": "ab"}), "layer 0: conv kernel"),
    (lambda h: h["model_config"]["layers"][0].update({"filters": True}), "layer 0: conv filters"),
])
def test_checkpoint_malformed_header_names_the_field(rng, tmp_path, edit, match):
    path = tmp_path / "model.otl"
    save_checkpoint(init_model(small_config(), rng), path)
    _rewrite_header(path, edit)
    with pytest.raises(CorruptionError, match=match) as info:
        read_checkpoint(path)
    assert str(path) in str(info.value)


def test_checkpoint_non_finite_tensor_rejected(rng, tmp_path):
    model = init_model(small_config(), rng)
    model.params["conv1.bias"][1] = np.nan
    path = tmp_path / "model.otl"
    save_checkpoint(model, path)
    with pytest.raises(CorruptionError, match="'conv1.bias' holds a non-finite value"):
        read_checkpoint(path)


def test_checkpoint_with_a_misshapen_tensor_is_corrupt(rng, tmp_path):
    model = init_model(small_config(), rng)
    model.params["conv1.weight"] = np.zeros((2, 2, 1, 2))   # under a 3x3 conv layer
    path = tmp_path / "model.otl"
    save_checkpoint(model, path)
    with pytest.raises(CorruptionError, match=re.escape(
            "parameter conv1.weight has shape (2, 2, 1, 2), expected (3, 3, 1, 2)")):
        read_checkpoint(path)


def test_checkpoint_same_model_same_bytes(rng, tmp_path):
    model = init_model(small_config(), rng)
    p1, p2 = tmp_path / "a.otl", tmp_path / "b.otl"
    save_checkpoint(model, p1, training_meta={"stage": "x"})
    save_checkpoint(model, p2, training_meta={"stage": "x"})
    assert p1.read_bytes() == p2.read_bytes()
