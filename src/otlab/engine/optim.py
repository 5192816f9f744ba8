"""SGD with classical momentum.

Update rule per parameter: v <- momentum * v - lr * g; p <- p + v.
Velocities start at zero and live in the optimizer, not the checkpoint;
each training stage starts momentum fresh.
"""

from __future__ import annotations

import numpy as np

from ..errors import DivergenceError
from .autodiff import Node, gradients
from .model import Model, Trace


def backward(trace: Trace, loss_node: Node) -> dict[str, np.ndarray]:
    """Gradient of a recorded scalar loss for every model parameter.

    Parameters the loss does not depend on (a detached or constant loss)
    get zero gradients of the right shape.
    """
    names = list(trace.param_nodes)
    grads = gradients(loss_node, [trace.param_nodes[n] for n in names])
    return dict(zip(names, grads))


def sgd_step(params: dict[str, np.ndarray], velocities: dict[str, np.ndarray],
             grads: dict[str, np.ndarray], lr: float, momentum: float) -> None:
    """One in-place momentum-SGD update of ``params`` and ``velocities``.

    Raises KeyError on a missing gradient.
    """
    for name in params:
        g = grads[name]
        if g.shape != params[name].shape:
            raise ValueError(f"gradient for {name} has shape {g.shape}, "
                             f"expected {params[name].shape}")
        v = velocities.get(name)
        if v is None:
            v = velocities[name] = np.zeros_like(params[name])
        v *= momentum
        v -= lr * g
        params[name] += v


class Sgd:
    """Holds per-parameter velocity state across steps."""

    def __init__(self, lr: float, momentum: float = 0.9):
        if lr < 0:
            raise ValueError("learning rate must be nonnegative")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.velocities: dict[str, np.ndarray] = {}

    def step(self, model: Model, grads: dict[str, np.ndarray], step: int) -> Model:
        """Update in place; raise DivergenceError on the first non-finite parameter."""
        sgd_step(model.params, self.velocities, grads, self.lr, self.momentum)
        for name, value in model.params.items():
            if not np.isfinite(value).all():
                raise DivergenceError(f"non-finite parameter {name} after the update at step {step}")
        return model
