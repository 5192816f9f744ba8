"""Network definition: layer descriptors, the layer plan, init and forward passes.

A model is an ordered list of layer descriptors plus a named parameter
dict. :func:`plan_layers` derives the rest once per model: each layer's
parameter names and shapes and its input and output shapes. Construction
checks that the layers compose and that every tensor has its planned
shape.

The plan is the order the layers run in. ``Model.layers``, ``to_config`` and
checkpoints keep the declared order, but a max-pool runs before the relus
declared directly ahead of it, so relu, its mask and its VJP work on the
pooled map (a quarter of a 2x2-pooled conv output). Neither max nor relu
rounds and relu is monotone, so ``max(relu(a), relu(b)) == relu(max(a, b))``
bit for bit. A window whose maximum is > 0 sends its gradient to the same
first-maximum cell in either order; one whose maximum is <= 0 sends zeros
either way, which may differ only in a zero's sign or cell.

One walk over the plan (:func:`walk`) serves inference and
recording: :func:`apply_layer` runs a layer's graph op when its input is a
``Node`` and its ``*_value`` kernel otherwise. Inference walks any batch in
``INFERENCE_ROWS``-row blocks (:func:`walk_blocks`); inside a block the
spatial layers (:func:`spatial_depth`) walk ``SPATIAL_ROWS``-image sub-blocks,
so each conv's patch matrix stays cache-sized, and the dense head walks the
whole block.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import ConfigError
from ..validation import (as_number, as_rng, at_least, check_image_batch, check_outputs,
                          from_section)
from . import autodiff, ops
from .autodiff import Node


@dataclass(frozen=True)
class Conv:
    kernel: tuple[int, int]
    filters: int
    padding: int = 0

    def __post_init__(self):
        at_least(1, "conv ", kernel=min(self.kernel), filters=self.filters)
        at_least(0, "conv ", padding=self.padding)


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class MaxPool:
    window: int

    def __post_init__(self):
        at_least(1, "maxpool ", window=self.window)


@dataclass(frozen=True)
class Dense:
    units: int

    def __post_init__(self):
        at_least(1, "dense ", units=self.units)


LayerSpec = Conv | Relu | MaxPool | Dense

LAYER_TYPES = {"conv": Conv, "relu": Relu, "maxpool": MaxPool, "dense": Dense}

# Rows per block of every inference walk (``forward``, ``forward_features`` and
# the occlusion scan's dense head): bounds inference memory, and keeps one set of
# GEMM shapes, so a row's bits do not depend on how many rows a caller passes.
INFERENCE_ROWS = 256

# Images per sub-block of a block's spatial layers. Conv GEMM rows round alike at
# any row count on the default net, so the training batch (32) keeps a conv's
# patch matrix (4.7 MB for the default conv2) in cache and under glibc's mmap
# threshold; dense GEMMs below ~1M multiply-adds take OpenBLAS's small-matrix
# path and round differently, so the head keeps whole blocks.
SPATIAL_ROWS = 32


def layer_from_config(cfg: dict) -> LayerSpec:
    if not isinstance(cfg, dict):
        raise ConfigError(f"a layer must be a JSON object, got {cfg!r}")
    kind = cfg.get("type")
    if not isinstance(kind, str) or kind not in LAYER_TYPES:
        raise ConfigError(f"unknown layer type {kind!r}")
    fields = {key: value for key, value in cfg.items() if key != "type"}
    return from_section(LAYER_TYPES[kind], fields, kind, sep=" ")


def layer_to_config(layer: LayerSpec) -> dict:
    kind = next(kind for kind, cls in LAYER_TYPES.items() if isinstance(layer, cls))
    return {"type": kind, **asdict(layer)}


@dataclass(frozen=True)
class LayerPlan:
    """One layer of a model: its spec, the (name, shape) of each of its
    parameters, and its per-image input and output shapes, (H, W, C) or
    (units,)."""

    spec: LayerSpec
    params: tuple[tuple[str, tuple[int, ...]], ...]
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]


def _input_shape(spec) -> tuple[int, int, int]:
    if not isinstance(spec, (list, tuple)) or len(spec) != 3:
        raise ConfigError(f"model input must be [height, width, channels], got {spec!r}")
    shape = tuple(as_number(v, "model input", integer=True) for v in spec)
    if min(shape) < 1:
        raise ConfigError(f"model input must be positive, got {list(shape)}")
    return shape


def plan_layers(input_spec, layers) -> list[LayerPlan]:
    """The execution plan of ``layers``, from the (height, width, channels) input on.

    Raises ConfigError for a malformed input or layers that do not compose.
    Dense flattens its input. A max-pool runs before the relus declared
    directly ahead of it, so relu works on the pooled map; the outputs and
    gradients are those of the declared order (see the module docstring).
    """
    shape = _input_shape(input_spec)
    counts = {"conv": 0, "dense": 0}
    plan = []
    for i, layer in enumerate(layers):
        kind, out = None, shape
        if isinstance(layer, (Conv, MaxPool)) and len(shape) != 3:
            raise ConfigError(f"layer {i}: {layer_to_config(layer)['type']} "
                              "after flattening is not supported")
        if isinstance(layer, Conv):
            kh, kw = layer.kernel
            out = (shape[0] + 2 * layer.padding - kh + 1,
                   shape[1] + 2 * layer.padding - kw + 1, layer.filters)
            if min(out[:2]) < 1:
                raise ConfigError(f"layer {i}: kernel {layer.kernel} too large for input {shape}")
            kind, weight = "conv", (kh, kw, shape[2], layer.filters)
        elif isinstance(layer, MaxPool):
            if min(shape[:2]) < layer.window:
                raise ConfigError(f"layer {i}: pool window {layer.window} too large for {shape}")
            out = (shape[0] // layer.window, shape[1] // layer.window, shape[2])
        elif isinstance(layer, Dense):
            kind, weight, out = "dense", (math.prod(shape), layer.units), (layer.units,)
        params = ()
        if kind:
            counts[kind] += 1
            name = f"{kind}{counts[kind]}"
            params = ((f"{name}.weight", weight), (f"{name}.bias", weight[-1:]))
        step = LayerPlan(layer, params, shape, out)
        if isinstance(layer, MaxPool):
            first = len(plan)
            while first and isinstance(plan[first - 1].spec, Relu):
                first -= 1
            plan[first:] = [step] + [LayerPlan(r.spec, (), out, out) for r in plan[first:]]
        else:
            plan.append(step)
        shape = out
    return plan


class Model:
    """A sequential conv/pool/relu/dense network; ``params`` are in plan order."""

    def __init__(self, input_spec, layers, params: dict[str, np.ndarray]):
        self.input_spec = _input_shape(input_spec)
        self.layers = list(layers)
        self.plan = plan_layers(self.input_spec, self.layers)
        shapes = dict(pair for step in self.plan for pair in step.params)
        if set(shapes) != set(params):
            missing = set(shapes) ^ set(params)
            raise ConfigError(f"parameter set does not match layers: {sorted(missing)}")
        self.params = {name: np.asarray(params[name], dtype=np.float64) for name in shapes}
        for name, shape in shapes.items():
            if self.params[name].shape != shape:
                raise ConfigError(f"parameter {name} has shape {self.params[name].shape}, "
                                  f"expected {shape}")

    def num_classes(self) -> int:
        if not self.layers or not isinstance(self.layers[-1], Dense):
            raise ConfigError("model must end in a dense classification layer")
        return self.layers[-1].units

    def bottleneck_dim(self) -> int:
        """Width of the layer feeding the classification layer."""
        if len(self.layers) < 2 or not isinstance(self.layers[-1], Dense):
            raise ConfigError("model has no bottleneck layer before the classifier")
        return math.prod(self.plan[-1].in_shape)

    def copy(self) -> "Model":
        return Model(self.input_spec, self.layers,
                     {k: v.copy() for k, v in self.params.items()})

    def to_config(self) -> dict:
        return {"input": list(self.input_spec),
                "layers": [layer_to_config(l) for l in self.layers]}


def init_model(config: dict, rng) -> Model:
    """Build a model from a JSON-style config with Glorot-uniform weights.

    Weights are drawn uniformly from +-sqrt(6 / (fan_in + fan_out)), with
    fan_in = receptive field x input channels and fan_out = receptive field
    x output channels (receptive field 1 for dense); biases start at zero.
    Draw order follows layer order, so a given seed yields a bit-identical
    model.
    """
    rng = as_rng(rng)
    layers = [layer_from_config(c) for c in config["layers"]]
    params: dict[str, np.ndarray] = {}
    for step in plan_layers(config["input"], layers):
        if step.params:
            (weight, shape), (bias, bias_shape) = step.params
            fans = math.prod(shape[:-2]) * (shape[-2] + shape[-1])
            limit = np.sqrt(6.0 / fans)
            params[weight] = rng.uniform(-limit, limit, size=shape)
            params[bias] = np.zeros(bias_shape)
    return Model(config["input"], layers, params)


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


def apply_layer(step: LayerPlan, params, x, padding: int | None = None):
    """One layer on a batch: the graph op when ``x`` is a Node, else the value kernel.

    ``params`` maps parameter names to arrays or Nodes; ``padding``
    overrides a conv layer's own.
    """
    layer = step.spec
    weights = [params[name] for name, _ in step.params]
    graph = isinstance(x, Node)
    if isinstance(layer, Conv):
        conv = ops.conv2d if graph else ops.conv2d_value
        return conv(x, *weights, layer.padding if padding is None else padding)
    if isinstance(layer, Relu):
        return autodiff.relu(x) if graph else np.maximum(x, 0.0)
    if isinstance(layer, MaxPool):
        return (ops.maxpool if graph else ops.maxpool_value)(x, layer.window)
    return (ops.dense if graph else ops.dense_value)(x, *weights)


def walk(x, steps, params):
    """Apply ``steps`` in order, rebinding one activation (no intermediates kept)."""
    for step in steps:
        x = apply_layer(step, params, x)
    return x


def spatial_depth(steps) -> int:
    """How many leading ``steps`` are spatial (conv, relu or max-pool on (H, W, C))."""
    return sum(len(step.out_shape) == 3 for step in steps)


def walk_blocks(block, rows: int, steps, params) -> np.ndarray:
    """``walk`` over ``rows`` inputs in ``INFERENCE_ROWS``-row blocks, outputs stacked.

    Inside a block the spatial steps walk ``SPATIAL_ROWS``-image sub-blocks and
    the rest walk the stacked block. ``block(rows)`` builds the inputs of a slice
    of rows and goes straight into the walk, so no name holds a block while its
    head runs (an empty batch walks once).
    """
    split = spatial_depth(steps)
    spatial, head = steps[:split], steps[split:]

    def spatial_block(part):
        x = block(part)
        return np.concatenate([walk(x[s:s + SPATIAL_ROWS], spatial, params)
                               for s in range(0, max(len(x), 1), SPATIAL_ROWS)])

    source = spatial_block if split else block
    return np.concatenate([walk(source(slice(s, s + INFERENCE_ROWS)), head, params)
                           for s in range(0, max(rows, 1), INFERENCE_ROWS)])


def forward(model: Model, batch) -> np.ndarray:
    """Class scores for a batch; a pure function of (parameters, input)."""
    batch = _check_batch(model, batch)
    logits = walk_blocks(batch.__getitem__, len(batch), model.plan, model.params)
    return check_outputs(logits, "logits")


def forward_features(model: Model, batch) -> np.ndarray:
    """Activations feeding the classification layer (the bottleneck features)."""
    model.bottleneck_dim()  # validates that a bottleneck exists
    batch = _check_batch(model, batch)
    feats = walk_blocks(batch.__getitem__, len(batch), model.plan[:-1], model.params)
    return check_outputs(feats.reshape(len(batch), -1), "features")


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
    features = walk(Node(batch), model.plan[:-1], param_nodes)
    logits = features if through == "features" else walk(features, model.plan[-1:], param_nodes)
    if features.value.ndim > 2:
        features = autodiff.reshape(features, (features.value.shape[0], -1))
    return Trace(logits=logits, features=features, param_nodes=param_nodes)
