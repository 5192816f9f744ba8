import hashlib
import json
import re
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from otlab.data import Dataset, SyntheticSpec, generate_synthetic
from otlab.engine import (
    Schedule,
    backward,
    forward,
    forward_features,
    init_model,
    save_checkpoint,
    read_checkpoint,
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
    SPATIAL_ROWS,
    Conv,
    Dense,
    MaxPool,
    Model,
    Relu,
    apply_layer,
    default_architecture,
    layer_from_config,
    plan_layers,
)
from otlab.errors import ConfigError, CorruptionError, DivergenceError, FormatError, StateError

from oracles import (
    conv2d_bias_grad_rows,
    conv2d_loops,
    conv2d_nhwc,
    conv2d_vjp_loops,
    finite_difference,
    gradients_unpruned,
    maxpool_gather,
    maxpool_loops,
    rel_error,
    softmax_ce_loops,
    walk_declared,
    walk_plain,
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


# ----------------------------------------------------------------- exports

def test_every_exported_name_resolves():
    import otlab
    import otlab.engine
    for module in (otlab, otlab.engine):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names missing attributes {missing}"


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


@pytest.fixture(scope="module")
def trained_default_net():
    """The seed-0 default net after 20 training steps, and its log rows."""
    dataset = generate_synthetic(SyntheticSpec(class_count=10, samples_per_class=8, seed=0))
    model = init_model(default_architecture(32, 10), 0)
    rows = train_classifier(model, dataset, Schedule(steps=20, lr=0.02), 0)
    return model, rows


def test_default_training_bits_are_pinned(trained_default_net):
    model, rows = trained_default_net
    assert len(rows) == 20
    digest = hashlib.sha256()
    for name, value in model.params.items():
        digest.update(name.encode())
        digest.update(value.tobytes())
    assert digest.hexdigest() == DEFAULT_TRAIN20_SHA256


def _spatial_layer(filters):
    return st.one_of(
        st.builds(lambda kh, kw, filters, padding: {"type": "conv", "kernel": [kh, kw],
                                                    "filters": filters, "padding": padding},
                  st.integers(1, 3), st.integers(1, 3), filters, st.integers(0, 1)),
        st.just({"type": "relu"}),
        st.builds(lambda window: {"type": "maxpool", "window": window}, st.integers(2, 3)),
    )


_SPATIAL_LAYER = _spatial_layer(st.integers(1, 3))


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


# ---------------------------------------------------------------- conv

@pytest.mark.parametrize("n, size, cin, cout, padding", [
    *((n, 32, 1, 8, 1) for n in (32, 64, 256)),          # default net conv1
    *((n, 16, 8, 16, 1) for n in (32, 64, 256)),         # default net conv2
    (256, 17, 1, 8, 0), (256, 10, 8, 16, 0), (256, 7, 8, 16, 0),   # scan regions
])
def test_conv_bits_equal_the_nhwc_kernel(n, size, cin, cout, padding):
    # only the memory order around each GEMM differs: every GEMM sees the same
    # values and every output cell keeps its sum order
    r = np.random.default_rng(size * cin + n)
    x = r.normal(size=(n, size, size, cin))
    weight = r.normal(size=(3, 3, cin, cout))
    bias = r.normal(size=cout)
    expected, expected_vjp_x, expected_vjp_w = conv2d_nhwc(x, weight, bias, padding)
    node = ops.conv2d(x, weight, bias, padding)
    assert ops.conv2d_value(x, weight, bias, padding).tobytes() == expected.tobytes()
    assert node.value.tobytes() == expected.tobytes()
    g = r.normal(size=expected.shape)
    (_, vjp_x), (_, vjp_w), _ = node.parents
    assert vjp_x(g).tobytes() == expected_vjp_x(g).tobytes()
    assert vjp_w(g).tobytes() == expected_vjp_w(g).tobytes()


@settings(max_examples=60)
@given(n=st.integers(1, 3), height=st.integers(1, 6), width=st.integers(1, 6),
       cin=st.sampled_from([1, 2, 3, 4, 8]), kh=st.integers(1, 3), kw=st.integers(1, 3),
       cout=st.integers(1, 16), padding=st.integers(0, 2), seed=st.integers(0, 2 ** 16))
def test_conv_matches_the_loop_oracle(n, height, width, cin, kh, kw, cout, padding, seed):
    # other filter and row counts may round the last bit differently from the
    # NHWC kernel (README "Engine"), so these compare to 1e-12
    assume(kh <= height + 2 * padding and kw <= width + 2 * padding)
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, height, width, cin))
    weight = r.normal(size=(kh, kw, cin, cout))
    bias = r.normal(size=cout)
    expected = conv2d_loops(x, weight, bias, padding)
    node = ops.conv2d(x, weight, bias, padding)
    np.testing.assert_allclose(ops.conv2d_value(x, weight, bias, padding), expected,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(node.value, expected, rtol=0, atol=1e-12)
    g = r.normal(size=expected.shape)
    dx, dw = conv2d_vjp_loops(x, weight, g, padding)
    (_, vjp_x), (_, vjp_w), (_, vjp_b) = node.parents
    np.testing.assert_allclose(vjp_x(g), dx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(vjp_w(g), dw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(vjp_b(g), g.sum(axis=(0, 1, 2)), rtol=0, atol=1e-12)


@settings(max_examples=60)
@given(n=st.integers(1, 4), height=st.integers(1, 12), width=st.integers(1, 12),
       cout=st.integers(2, 64), layout=st.sampled_from(["contiguous", "channel-major"]),
       seed=st.integers(0, 2 ** 16))
def test_conv_bias_grad_adds_rows_in_order(n, height, width, cout, layout, seed):
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, height, width, 1))
    node = ops.conv2d(x, r.normal(size=(1, 1, 1, cout)), r.normal(size=cout))
    g = r.normal(size=node.shape)
    g[r.random(g.shape) < 0.2] = -0.0     # dead relu outputs pass back signed zeros
    (_, _), (_, _), (_, vjp_b) = node.parents
    if layout == "contiguous":
        assert vjp_b(g).tobytes() == g.sum(axis=(0, 1, 2)).tobytes()
    else:   # as a cropped vjp_x result arrives; sum would add each channel pairwise
        g = np.ascontiguousarray(g.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
    assert vjp_b(g).tobytes() == conv2d_bias_grad_rows(g).tobytes()


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
    # g as the cropped channel-major view that conv2d's vjp_x returns
    buf = np.zeros((channels, n) + tuple(s + 2 for s in g.shape[1:3]))
    buf[:, :, 1:-1, 1:-1] = g.transpose(3, 0, 1, 2)
    view = buf.transpose(1, 2, 3, 0)[:, 1:-1, 1:-1]
    assert vjp(view).tobytes() == expected_vjp(g).tobytes()


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
    # the oracle first: gradients consumes the graph it walks
    unpruned = gradients_unpruned(loss, leaves)
    # an iterator: gradients must read the leaves once and keep them
    for pruned, want in zip(ad.gradients(loss, iter(leaves)), unpruned):
        assert pruned.tobytes() == want.tobytes()


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


def test_the_plan_runs_pools_first_and_the_model_keeps_the_declared_order(tmp_path):
    config = default_architecture(32, 10)
    model = init_model(config, 0)
    assert [type(step.spec) for step in model.plan] == [Conv, MaxPool, Relu] * 2 + [Dense] * 2
    assert [(step.in_shape, step.out_shape) for step in model.plan[:3]] == [
        ((32, 32, 1), (32, 32, 8)), ((32, 32, 8), (16, 16, 8)), ((16, 16, 8), (16, 16, 8))]
    declared = [layer["type"] for layer in config["layers"]]
    assert [type(layer) for layer in model.layers] == [Conv, Relu, MaxPool] * 2 + [Dense] * 2
    assert [layer["type"] for layer in model.to_config()["layers"]] == declared
    path = tmp_path / "model.otl"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    header = json.loads(raw[8:8 + int.from_bytes(raw[4:8], "little")])
    assert [layer["type"] for layer in header["model_config"]["layers"]] == declared
    loaded = read_checkpoint(path).model
    assert loaded.layers == model.layers and loaded.plan == model.plan


def test_relus_declared_before_a_pool_run_after_it():
    layers = [layer_from_config(c) for c in (
        {"type": "relu"}, {"type": "relu"}, {"type": "maxpool", "window": 2},
        {"type": "maxpool", "window": 3}, {"type": "relu"}, {"type": "dense", "units": 2})]
    plan = plan_layers([12, 12, 1], layers)
    assert [type(step.spec) for step in plan] == [MaxPool, MaxPool, Relu, Relu, Relu, Dense]
    assert [step.out_shape for step in plan] == [(6, 6, 1), (2, 2, 1)] + [(2, 2, 1)] * 3 + [(2,)]


_RELUS_THEN_POOL = st.builds(
    lambda relus, window: [{"type": "relu"}] * relus + [{"type": "maxpool", "window": window}],
    st.integers(1, 2), st.integers(2, 3))


def _declared_trace(model, x):
    """Logits and parameter nodes of ``oracles.walk_declared`` on the graph ops."""
    nodes = {name: ad.Node(value) for name, value in model.params.items()}
    kernels = {"conv": lambda x, layer, w, b: ops.conv2d(x, w, b, layer["padding"]),
               "relu": lambda x, layer: ad.relu(x),
               "maxpool": lambda x, layer: ops.maxpool(x, layer["window"]),
               "dense": lambda x, layer, w, b: ops.dense(x, w, b)}
    return walk_declared(model.to_config()["layers"], nodes, ad.Node(x), kernels), nodes


@settings(max_examples=60)
@given(**{**_RANDOM_NET, "spatial": st.lists(st.one_of(_SPATIAL_LAYER.map(lambda c: [c]),
                                                       _RELUS_THEN_POOL), max_size=4)
          .map(lambda blocks: [c for block in blocks for c in block])})
def test_the_pool_first_plan_gives_the_declared_order_bits(height, width, channels, spatial,
                                                          head, batch, seed):
    # relu is monotone and neither max nor relu rounds, so outputs and gradients keep
    # their bits. The one allowed difference is a zero's sign (or which cell holds a
    # -0.0) where a pool window's maximum is <= 0: values are compared after
    # ``+ 0.0``, which turns -0.0 into +0.0 and keeps every other value's bits.
    model = init_model(_random_config([height, width, channels], spatial, head), seed)
    r = np.random.default_rng(seed)
    x = r.normal(size=(batch, height, width, channels))
    weights = r.normal(size=(batch, model.num_classes()))
    run = trace(model, x)
    grads = ad.gradients(ad.sum_along(run.logits * weights), run.param_nodes.values())
    logits, nodes = _declared_trace(model, x)
    declared = ad.gradients(ad.sum_along(logits * weights), nodes.values())
    assert (run.logits.value + 0.0).tobytes() == (logits.value + 0.0).tobytes()
    for name, got, want in zip(nodes, grads, declared):
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), name


def test_backward_never_runs_the_vjp_into_the_input(rng):
    model = init_model(default_architecture(8, 3), rng)
    x = rng.random((2, 8, 8, 1))
    run = trace(model, x)
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

    # asked for, the input's gradient is computed as before; the walk above
    # consumed the graph, so this one walks a fresh trace
    run = trace(model, x)
    loss, _ = softmax_cross_entropy(run.logits, [0, 2])
    image = loss
    while image.parents:            # each op's first parent is its activation input
        image = image.parents[0][0]
    assert image.value.tobytes() == x.tobytes()
    want = gradients_unpruned(loss, [image])[0]
    (g,) = ad.gradients(loss, [image])
    assert g.tobytes() == want.tobytes()


def test_backward_frees_each_layers_saved_state_as_it_passes(rng, monkeypatch):
    model = init_model(default_architecture(16, 4), rng)
    patches, freed = [], []
    im2col = ops._im2col

    def recorded(*args):
        cols = im2col(*args)
        patches.append(weakref.ref(cols))
        return cols

    monkeypatch.setattr(ops, "_im2col", recorded)
    run = trace(model, rng.random((4, 16, 16, 1)))
    loss, _ = softmax_cross_entropy(run.logits, [0, 1, 2, 3])
    conv1, conv2 = patches              # each conv's patch matrix, saved for its vjp_w
    assert conv1() is not None and conv2() is not None

    def checked(vjp):
        def wrapped(g):
            freed.append(conv2() is None)
            return vjp(g)
        return wrapped

    node = run.logits
    while node.parents[0][0].parents:   # down the first parents to conv1's node
        node = node.parents[0][0]
    node.parents = tuple((parent, checked(vjp)) for parent, vjp in node.parents)

    grads = backward(run, loss)
    assert freed == [True, True]        # conv1's vjp_w and vjp_b ran after conv2's state went
    assert conv1() is None and conv2() is None
    assert run.logits.parents is None and run.logits.value.shape == (4, 4)
    assert all(node.parents == () for node in run.param_nodes.values())
    assert set(grads) == set(model.params)


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
    rows = {"conv2d_value": [], "dense_value": []}

    def recording(name):
        kernel = getattr(ops, name)

        def record(batch, *args):
            rows[name].append(len(batch))
            return kernel(batch, *args)
        return record

    for name in rows:
        monkeypatch.setattr(ops, name, recording(name))
    tail = 600 - 2 * INFERENCE_ROWS
    for fn, dense_layers in ((forward, 2), (forward_features, 1)):
        blocks = [fn(model, x[s:s + INFERENCE_ROWS]) for s in range(0, len(x), INFERENCE_ROWS)]
        for kernel_rows in rows.values():
            kernel_rows.clear()
        np.testing.assert_array_equal(fn(model, x), np.concatenate(blocks))
        # the spatial layers walk sub-blocks, the dense head whole blocks
        assert rows["conv2d_value"] == ([SPATIAL_ROWS] * (2 * INFERENCE_ROWS // SPATIAL_ROWS)
                                        + [SPATIAL_ROWS] * (tail // SPATIAL_ROWS)
                                        + [tail % SPATIAL_ROWS])
        assert rows["dense_value"] == [n for n in (INFERENCE_ROWS, INFERENCE_ROWS, tail)
                                       for _ in range(dense_layers)]


def _walk_plain(model, steps, x):
    return walk_plain(lambda step, batch: apply_layer(step, model.params, batch), steps, x)


@pytest.mark.parametrize("trained", [False, True], ids=["init", "trained20"])
def test_blocked_walk_bits_equal_the_plain_walk(trained, trained_default_net):
    model = trained_default_net[0] if trained else init_model(default_architecture(32, 10), 0)
    x = np.random.default_rng(3).random((600, 32, 32, 1))
    for n in (1, 31, 32, 33, 255, 256, 257, 600):
        assert forward(model, x[:n]).tobytes() == _walk_plain(model, model.plan, x[:n]).tobytes()
        features = _walk_plain(model, model.plan[:-1], x[:n]).reshape(n, -1)
        assert forward_features(model, x[:n]).tobytes() == features.tobytes()


@settings(max_examples=40)
@given(**{**_RANDOM_NET, "spatial": st.lists(_spatial_layer(st.sampled_from([1, 2, 9])),
                                               max_size=5),
          "batch": st.sampled_from([1, 33, 70])})
def test_blocked_walk_matches_the_plain_walk_on_random_nets(height, width, channels, spatial,
                                                            head, batch, seed):
    # 1- and 9-filter convs may round a row differently at another row count
    # (README "Engine"), so these compare to 1e-12
    config = _random_config([height, width, channels], spatial, head)
    assume(len(config["layers"]) >= 2)
    model = init_model(config, seed)
    x = np.random.default_rng(seed).normal(size=(batch, height, width, channels))
    np.testing.assert_allclose(forward(model, x), _walk_plain(model, model.plan, x),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(forward_features(model, x),
                               _walk_plain(model, model.plan[:-1], x).reshape(batch, -1),
                               rtol=1e-12, atol=1e-12)


def test_inference_peak_memory_is_bounded():
    # sub-blocks keep the largest temporary, conv2's patch matrix, at 4.7 MB;
    # whole 256-image blocks made it 37.7 MB
    model = init_model(default_architecture(32, 10), 0)
    x = np.random.default_rng(0).random((600, 32, 32, 1))
    tracemalloc.start()
    try:
        forward(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


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
    labels = np.tile([0, 1], 20)
    centers = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])[labels]
    return Dataset(pixels=centers + rng.normal(scale=0.05, size=(40, 1, 2)), labels=labels,
                   ids=[f"{label}-{k // 2}" for k, label in enumerate(labels)], class_count=2)


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
        read_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    import json
    header = json.dumps({"format_version": 0, "model_config": {}, "tensors": {},
                         "rng_state": None, "training_meta": {}}).encode()
    path = tmp_path / "old.otl"
    path.write_bytes(b"OTL1" + len(header).to_bytes(4, "little") + header)
    with pytest.raises(FormatError, match="version"):
        read_checkpoint(path)


def test_checkpoint_truncated_payload(rng, tmp_path):
    model = init_model(small_config(), rng)
    path = tmp_path / "model.otl"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(CorruptionError):
        read_checkpoint(path)


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


@pytest.mark.parametrize("edit, tail, match", [
    (None, bytes(8), "8 trailing bytes after the last tensor"),
    (lambda h: h["tensors"]["conv1.weight"].__setitem__(1, 8), b"",
     "tensor 'conv1.weight' at byte 8 overlaps the tensor before it"),
    (lambda h: h["tensors"]["conv1.weight"].__setitem__(1, 24), b"",
     "tensor 'conv1.weight' at byte 24 leaves 8 unused bytes before it"),
])
def test_checkpoint_tensors_must_tile_the_blob(rng, tmp_path, edit, tail, match):
    path = tmp_path / "model.otl"
    save_checkpoint(init_model(small_config(), rng), path)
    if edit is not None:
        _rewrite_header(path, edit)
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(CorruptionError, match=match):
        read_checkpoint(path)


def _mutated_checkpoint(draw, raw):
    """``raw`` with one drawn mutation: header length, truncation, appended bytes,
    a header byte, or one field of a tensor-table entry."""
    n = int.from_bytes(raw[4:8], "little")
    kind = draw(st.sampled_from(["length", "truncate", "append", "header byte", "entry"]))
    if kind == "length":
        return raw[:4] + draw(st.integers(0, 2**32 - 1)).to_bytes(4, "little") + raw[8:]
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "append":
        return raw + draw(st.binary(min_size=1, max_size=16))
    if kind == "header byte":
        at = draw(st.integers(8, 8 + n - 1))
        return raw[:at] + bytes([draw(st.integers(0, 255))]) + raw[at + 1:]
    header = json.loads(raw[8:8 + n])
    entry = header["tensors"][draw(st.sampled_from(sorted(header["tensors"])))]
    entry[draw(st.integers(0, 2))] = draw(st.one_of(
        st.none(), st.booleans(), st.integers(-8, 2000), st.floats(),
        st.text(max_size=3), st.lists(st.integers(-1, 20), max_size=4)))
    new = json.dumps(header).encode()
    return raw[:4] + len(new).to_bytes(4, "little") + new + raw[8 + n:]


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_checkpoint_loads_or_raises_a_format_error(tmp_path, data):
    # a flipped blob byte that stays finite still loads: the blob carries no checksum
    path = tmp_path / "model.otl"
    save_checkpoint(init_model(small_config(), 0), path)
    path.write_bytes(_mutated_checkpoint(data.draw, path.read_bytes()))
    try:
        read_checkpoint(path)
    except FormatError:     # CorruptionError included
        pass


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
