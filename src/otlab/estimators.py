"""Scikit-learn style estimators wrapping the training pipelines.

These follow the sklearn contract (constructor stores hyperparameters
verbatim, ``fit`` learns and returns self, learned state lives in
trailing-underscore attributes, ``get_params``/``set_params`` support
cloning and grid search) without depending on scikit-learn itself.
"""

from __future__ import annotations

import inspect

import numpy as np

from . import metric, occlusion
from .data import Dataset, LabeledImage
from .engine import checkpoint as ckpt
from .engine.model import Model, default_architecture, forward, init_model
from .engine.ops import softmax_value
from .engine.train import Schedule, train_classifier
from .errors import StateError
from .validation import as_rng, check_image_batch, check_labels


class ParamsMixin:
    """get_params/set_params introspected from the constructor signature."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [name for name, p in sig.parameters.items()
                if name != "self" and p.kind == p.POSITIONAL_OR_KEYWORD]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}; "
                                 f"valid parameters are {sorted(valid)}")
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def _images(X: np.ndarray, y) -> list[LabeledImage]:
    return [LabeledImage(pixels=X[i, :, :, 0], label=int(label), id=f"i{i:05d}")
            for i, label in enumerate(y)]


def _encode(classes: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of labels ``y`` in the sorted ``classes``; other labels raise ValueError."""
    unseen = np.setdiff1d(y, classes)
    if unseen.size:
        raise ValueError(f"labels {unseen.tolist()} are not among the model's classes "
                         f"{classes.tolist()}")
    return np.searchsorted(classes, y)


def _resolve_model(source) -> Model:
    if isinstance(source, Model):
        return source.copy()
    if isinstance(source, ConvNetClassifier):
        if not hasattr(source, "model_"):
            raise StateError("base classifier is not fitted")
        return source.model_.copy()
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        return ckpt.load_checkpoint(source)
    raise TypeError(f"cannot resolve a model from {type(source).__name__}")


class ConvNetClassifier(ParamsMixin):
    """Small convolutional classifier with optional occlusion augmentation.

    Parameters
    ----------
    architecture : dict or None
        Model config ({"input": ..., "layers": [...]}); None builds the
        default two-block net for the input size.
    augment : None, "random", or occlusion.PlacementDistribution
        Occlude ``occluded_fraction`` of every training batch at locations
        drawn from the given placement distribution ("random" =
        center-weighted normal).
    occluder : dict, occlusion.OccluderSpec, or None
        Patch spec used when ``augment`` is set.
    """

    def __init__(self, architecture=None, bottleneck=32, steps=300, lr=0.05,
                 momentum=0.9, batch_size=32, augment=None, occluder=None,
                 occluded_fraction=0.5, seed=0):
        self.architecture = architecture
        self.bottleneck = bottleneck
        self.steps = steps
        self.lr = lr
        self.momentum = momentum
        self.batch_size = batch_size
        self.augment = augment
        self.occluder = occluder
        self.occluded_fraction = occluded_fraction
        self.seed = seed

    def fit(self, X, y, base_model: Model | None = None):
        X = check_image_batch(X)
        y = check_labels(y)
        self.classes_ = np.unique(y)
        dataset = Dataset(_images(X, _encode(self.classes_, y)), len(self.classes_))

        rng = as_rng(self.seed)
        if base_model is not None:
            if base_model.num_classes() != len(self.classes_):
                raise ValueError(f"base_model has {base_model.num_classes()} outputs, "
                                 f"but y has {len(self.classes_)} classes")
            self.model_ = base_model.copy()
        else:
            cfg = self.architecture
            if cfg is None:
                h, w = X.shape[1], X.shape[2]
                if h != w:
                    raise ValueError("default architecture expects square images; "
                                     "pass architecture=")
                cfg = default_architecture(h, len(self.classes_),
                                           channels=X.shape[3],
                                           bottleneck=self.bottleneck)
            self.model_ = init_model(cfg, rng)

        augment_fn = None
        if self.augment is not None:
            augment_fn = occlusion.augmenter(self.occluded_fraction, self.augment,
                                             occlusion.OccluderSpec.from_config(self.occluder))
        schedule = Schedule(steps=self.steps, lr=self.lr, momentum=self.momentum,
                            batch_size=self.batch_size)
        self.history_ = train_classifier(self.model_, dataset, schedule, rng,
                                         augment=augment_fn)
        return self

    def _check_fitted(self):
        if not hasattr(self, "model_"):
            raise StateError(f"{type(self).__name__} is not fitted")

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted()
        return forward(self.model_, check_image_batch(X))

    def predict_proba(self, X) -> np.ndarray:
        return softmax_value(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def score(self, X, y) -> float:
        y = check_labels(y)
        return float((self.predict(X) == y).mean())


class TripletEmbedder(ParamsMixin):
    """Triplet fine-tuning of a pretrained classifier into an embedder.

    ``fit`` copies the base model (fitted ConvNetClassifier, Model, or
    checkpoint path) and fine-tunes all layers below the classification
    layer; ``transform`` returns unit-norm embeddings.
    """

    def __init__(self, base_model=None, mode="batch", alpha=0.5, beta=0.7,
                 online=True, steps=200, lr=0.01, momentum=0.9,
                 pool_classes=8, pool_per_class=8, seed=0):
        self.base_model = base_model
        self.mode = mode
        self.alpha = alpha
        self.beta = beta
        self.online = online
        self.steps = steps
        self.lr = lr
        self.momentum = momentum
        self.pool_classes = pool_classes
        self.pool_per_class = pool_per_class
        self.seed = seed

    def fit(self, X, y):
        if self.base_model is None:
            raise ValueError("TripletEmbedder needs base_model (a fitted classifier, "
                             "Model, or checkpoint path)")
        X = check_image_batch(X)
        y = check_labels(y)
        classes = np.unique(y)
        dataset = Dataset(_images(X, _encode(classes, y)), len(classes))

        model = _resolve_model(self.base_model)
        config = metric.LossConfig(mode=self.mode, alpha=self.alpha, beta=self.beta,
                                   online=self.online)
        schedule = metric.FinetuneSchedule(steps=self.steps, lr=self.lr,
                                           momentum=self.momentum,
                                           pool_classes=self.pool_classes,
                                           pool_per_class=self.pool_per_class)
        self.model_, self.history_ = metric.finetune(model, dataset, config,
                                                     schedule, as_rng(self.seed))
        return self

    def transform(self, X) -> np.ndarray:
        if not hasattr(self, "model_"):
            raise StateError("TripletEmbedder is not fitted")
        X = check_image_batch(X)
        return metric.embed(self.model_, _images(X, [0] * len(X)))

    def fit_transform(self, X, y) -> np.ndarray:
        return self.fit(X, y).transform(X)


class OcclusionMapper(ParamsMixin):
    """Occlusion-sensitivity analysis of a fitted model.

    ``fit`` computes the aggregate occlusion map over the correctly
    classified inputs; the map, its placement distribution, and the
    excluded-image count land in ``map_``, ``placement_``, ``excluded_``.
    """

    def __init__(self, model=None, occluder=None, stride=1, temperature=0.4,
                 max_images=None, seed=0):
        self.model = model
        self.occluder = occluder
        self.stride = stride
        self.temperature = temperature
        self.max_images = max_images
        self.seed = seed

    def fit(self, X, y):
        if self.model is None:
            raise ValueError("OcclusionMapper needs a model to probe")
        X = check_image_batch(X)
        model = _resolve_model(self.model)
        # a classifier's labels map to its class indices; a bare model's are indices
        classes = getattr(self.model, "classes_", np.arange(model.num_classes()))
        labels = _encode(classes, check_labels(y))
        spec = occlusion.default_occluders(X.shape[1])["small"] if self.occluder is None \
            else occlusion.OccluderSpec.from_config(self.occluder)
        self.map_, info = occlusion.dataset_occlusion_map(
            model, _images(X, labels), spec, as_rng(self.seed), stride=self.stride,
            limit=self.max_images)
        self.placement_ = occlusion.placement_distribution(self.map_, self.temperature)
        self.excluded_ = info["excluded"]
        return self
