"""Network definition: layer descriptors, parameter init, forward passes.

A model is an ordered list of layer descriptors plus a named parameter
dict. Shapes are inferred once at construction and validated so that
consecutive layers compose; parameter names are derived from layer order
and are unique by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..validation import as_number, as_rng, check_finite, check_image_batch
from . import autodiff, ops
from .autodiff import Node


@dataclass(frozen=True)
class Conv:
    kernel: tuple[int, int]
    filters: int
    padding: int = 0


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class MaxPool:
    window: int


@dataclass(frozen=True)
class Dense:
    units: int


LayerSpec = Conv | Relu | MaxPool | Dense


def layer_from_config(cfg: dict) -> LayerSpec:
    if not isinstance(cfg, dict):
        raise ConfigError(f"a layer must be a JSON object, got {cfg!r}")
    kind = cfg.get("type")

    def field(key, default=None):
        if key not in cfg and default is None:
            raise ConfigError(f"{kind} layer needs {key!r}")
        return as_number(cfg.get(key, default), f"{kind} {key}", integer=True)

    if kind == "conv":
        kernel = cfg.get("kernel")
        if not isinstance(kernel, (list, tuple)) or len(kernel) != 2:
            raise ConfigError(f"conv kernel must be [height, width], got {kernel!r}")
        kh, kw = (as_number(v, "conv kernel", integer=True) for v in kernel)
        return Conv((kh, kw), field("filters"), field("padding", 0))
    if kind == "relu":
        return Relu()
    if kind == "maxpool":
        return MaxPool(field("window"))
    if kind == "dense":
        return Dense(field("units"))
    raise ConfigError(f"unknown layer type {kind!r}")


def layer_to_config(layer: LayerSpec) -> dict:
    if isinstance(layer, Conv):
        return {"type": "conv", "kernel": list(layer.kernel),
                "filters": layer.filters, "padding": layer.padding}
    if isinstance(layer, Relu):
        return {"type": "relu"}
    if isinstance(layer, MaxPool):
        return {"type": "maxpool", "window": layer.window}
    return {"type": "dense", "units": layer.units}


def _infer_shapes(input_spec, layers) -> list[tuple]:
    """Shape after each layer, starting from (H, W, C). Dense flattens."""
    shapes = []
    shape = tuple(int(v) for v in input_spec)
    if len(shape) != 3 or min(shape) < 1:
        raise ConfigError(f"input_spec must be (height, width, channels), got {input_spec}")
    for i, layer in enumerate(layers):
        if isinstance(layer, Conv):
            if len(shape) != 3:
                raise ConfigError(f"layer {i}: conv after flattening is not supported")
            h, w, _ = shape
            kh, kw = layer.kernel
            ho = h + 2 * layer.padding - kh + 1
            wo = w + 2 * layer.padding - kw + 1
            if ho < 1 or wo < 1:
                raise ConfigError(f"layer {i}: kernel {layer.kernel} too large for input {shape}")
            shape = (ho, wo, layer.filters)
        elif isinstance(layer, MaxPool):
            if len(shape) != 3:
                raise ConfigError(f"layer {i}: maxpool after flattening is not supported")
            h, w, c = shape
            if h < layer.window or w < layer.window:
                raise ConfigError(f"layer {i}: pool window {layer.window} too large for {shape}")
            shape = (h // layer.window, w // layer.window, c)
        elif isinstance(layer, Dense):
            shape = (layer.units,)
        shapes.append(shape)
    return shapes


class Model:
    """A sequential conv/pool/relu/dense network with named parameters."""

    def __init__(self, input_spec, layers, params: dict[str, np.ndarray]):
        self.input_spec = tuple(int(v) for v in input_spec)
        self.layers = list(layers)
        self.shapes = _infer_shapes(self.input_spec, self.layers)
        self.params = {name: np.asarray(v, dtype=np.float64) for name, v in params.items()}
        expected = set(self.param_names())
        if expected != set(self.params):
            missing = expected ^ set(self.params)
            raise ConfigError(f"parameter set does not match layers: {sorted(missing)}")

    def param_names(self) -> list[str]:
        names = []
        conv_i = dense_i = 0
        for layer in self.layers:
            if isinstance(layer, Conv):
                conv_i += 1
                names += [f"conv{conv_i}.weight", f"conv{conv_i}.bias"]
            elif isinstance(layer, Dense):
                dense_i += 1
                names += [f"dense{dense_i}.weight", f"dense{dense_i}.bias"]
        return names

    def num_classes(self) -> int:
        if not self.layers or not isinstance(self.layers[-1], Dense):
            raise ConfigError("model must end in a dense classification layer")
        return self.layers[-1].units

    def bottleneck_dim(self) -> int:
        """Width of the layer feeding the classification layer."""
        if len(self.layers) < 2 or not isinstance(self.layers[-1], Dense):
            raise ConfigError("model has no bottleneck layer before the classifier")
        shape = self.shapes[-2]
        return int(np.prod(shape))

    def copy(self) -> "Model":
        return Model(self.input_spec, self.layers,
                     {k: v.copy() for k, v in self.params.items()})

    def to_config(self) -> dict:
        return {"input": list(self.input_spec),
                "layers": [layer_to_config(l) for l in self.layers]}


def init_model(config: dict, rng) -> Model:
    """Build a model from a JSON-style config with Glorot-uniform weights.

    Weights are drawn uniformly from +-sqrt(6 / (fan_in + fan_out)); biases
    start at zero. Draw order follows layer order, so a given seed yields a
    bit-identical model.
    """
    rng = as_rng(rng)
    input_spec = tuple(int(v) for v in config["input"])
    layers = [layer_from_config(c) for c in config["layers"]]
    shapes = _infer_shapes(input_spec, layers)

    params: dict[str, np.ndarray] = {}
    conv_i = dense_i = 0
    prev = input_spec
    for layer, shape in zip(layers, shapes):
        if isinstance(layer, Conv):
            conv_i += 1
            kh, kw = layer.kernel
            cin = prev[2]
            fan_in, fan_out = kh * kw * cin, kh * kw * layer.filters
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            params[f"conv{conv_i}.weight"] = rng.uniform(-limit, limit, size=(kh, kw, cin, layer.filters))
            params[f"conv{conv_i}.bias"] = np.zeros(layer.filters)
        elif isinstance(layer, Dense):
            dense_i += 1
            d_in = int(np.prod(prev))
            limit = np.sqrt(6.0 / (d_in + layer.units))
            params[f"dense{dense_i}.weight"] = rng.uniform(-limit, limit, size=(d_in, layer.units))
            params[f"dense{dense_i}.bias"] = np.zeros(layer.units)
        prev = shape
    return Model(input_spec, layers, params)


def default_architecture(image_size: int, classes: int, channels: int = 1,
                         bottleneck: int = 32) -> dict:
    """Desk-scale default: two conv/pool blocks into a narrow bottleneck."""
    return {
        "input": [image_size, image_size, channels],
        "layers": [
            {"type": "conv", "kernel": [3, 3], "filters": 8, "padding": 1},
            {"type": "relu"},
            {"type": "maxpool", "window": 2},
            {"type": "conv", "kernel": [3, 3], "filters": 16, "padding": 1},
            {"type": "relu"},
            {"type": "maxpool", "window": 2},
            {"type": "dense", "units": bottleneck},
            {"type": "dense", "units": classes},
        ],
    }


def _check_batch(model: Model, batch) -> np.ndarray:
    batch = check_image_batch(batch, name="batch")
    if batch.shape[1:] != model.input_spec:
        raise ValueError(f"batch shape {batch.shape[1:]} does not match "
                         f"model input {model.input_spec}")
    return batch


def layer_params(model: Model) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """(weight, bias) of each conv and dense layer, None for the others."""
    out = []
    conv_i = dense_i = 0
    for layer in model.layers:
        if isinstance(layer, Conv):
            conv_i += 1
            out.append((model.params[f"conv{conv_i}.weight"], model.params[f"conv{conv_i}.bias"]))
        elif isinstance(layer, Dense):
            dense_i += 1
            out.append((model.params[f"dense{dense_i}.weight"], model.params[f"dense{dense_i}.bias"]))
        else:
            out.append(None)
    return out


def apply_layer(layer: LayerSpec, params, x: np.ndarray, padding: int | None = None) -> np.ndarray:
    """One inference layer on a batch; ``padding`` overrides a conv layer's own."""
    if isinstance(layer, Conv):
        return ops.conv2d_value(x, *params, layer.padding if padding is None else padding)
    if isinstance(layer, Relu):
        return np.maximum(x, 0.0)
    if isinstance(layer, MaxPool):
        return ops.maxpool_value(x, layer.window)
    return ops.dense_value(x, *params)


def _apply_value(model: Model, x: np.ndarray, layers) -> np.ndarray:
    for layer, params in zip(layers, layer_params(model)):
        x = apply_layer(layer, params, x)
    return x


def forward(model: Model, batch) -> np.ndarray:
    """Class scores for a batch; a pure function of (parameters, input)."""
    batch = _check_batch(model, batch)
    logits = _apply_value(model, batch, model.layers)
    return check_finite(logits, "logits")


def forward_features(model: Model, batch) -> np.ndarray:
    """Activations feeding the classification layer (the bottleneck features)."""
    model.bottleneck_dim()  # validates that a bottleneck exists
    batch = _check_batch(model, batch)
    feats = _apply_value(model, batch, model.layers[:-1])
    return check_finite(feats.reshape(batch.shape[0], -1), "features")


def predict(model: Model, batch) -> np.ndarray:
    """Predicted class indices (first argmax wins on ties)."""
    return np.argmax(forward(model, batch), axis=1)


@dataclass
class Trace:
    """A recorded forward pass: graph nodes for outputs and parameters.

    When traced with ``through="features"`` the classification layer is
    never applied and ``logits`` simply aliases ``features``.
    """

    logits: Node
    features: Node          # input to the classification layer, flattened
    param_nodes: dict[str, Node] = field(default_factory=dict)


def trace(model: Model, batch, *, through: str = "logits") -> Trace:
    """Run a recorded forward pass for training.

    ``through="features"`` stops before the classification layer (used by the
    metric-learning fine-tuning stage, which discards that layer).
    """
    batch = _check_batch(model, batch)
    param_nodes = {name: Node(value) for name, value in model.params.items()}

    x = Node(batch)
    feature_node: Node | None = None
    last = len(model.layers) - 1
    conv_i = dense_i = 0
    for i, layer in enumerate(model.layers):
        if i == last:
            feature_node = x
            if through == "features":
                break
        if isinstance(layer, Conv):
            conv_i += 1
            x = ops.conv2d(x, param_nodes[f"conv{conv_i}.weight"],
                           param_nodes[f"conv{conv_i}.bias"], layer.padding)
        elif isinstance(layer, Relu):
            x = autodiff.relu(x)
        elif isinstance(layer, MaxPool):
            x = ops.maxpool(x, layer.window)
        else:
            dense_i += 1
            x = ops.dense(x, param_nodes[f"dense{dense_i}.weight"],
                          param_nodes[f"dense{dense_i}.bias"])

    if feature_node is None:
        feature_node = x
    if feature_node.value.ndim > 2:
        feature_node = autodiff.reshape(feature_node, (feature_node.value.shape[0], -1))
    return Trace(logits=x, features=feature_node, param_nodes=param_nodes)
