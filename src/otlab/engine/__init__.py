"""Minimal deterministic network engine: autodiff, layers, SGD, checkpoints."""

from .autodiff import Node, gradients
from .checkpoint import Checkpoint, read_checkpoint, save_checkpoint
from .model import (
    Conv,
    Dense,
    MaxPool,
    Model,
    Relu,
    Trace,
    default_architecture,
    forward,
    forward_features,
    init_model,
    predict,
    trace,
)
from .ops import softmax_cross_entropy, softmax_cross_entropy_value
from .optim import Sgd, backward, sgd_step
from .train import Schedule, train_accuracy, train_classifier

__all__ = [
    "Node", "gradients",
    "Checkpoint", "read_checkpoint", "save_checkpoint",
    "Conv", "Dense", "MaxPool", "Model", "Relu", "Trace",
    "default_architecture", "forward", "forward_features", "init_model",
    "predict", "trace",
    "softmax_cross_entropy", "softmax_cross_entropy_value",
    "Sgd", "backward", "sgd_step",
    "Schedule", "train_accuracy", "train_classifier",
]
