"""Layer kernels (plain float64 arrays) and their recorded-graph wrappers.

Every kernel has a ``*_value`` function for inference and a graph op
returning a :class:`~otlab.engine.autodiff.Node` for training. Conv and
dense compute both from one private forward each, so inference and
training are bit-identical by construction. ``maxpool`` and
:func:`~otlab.engine.autodiff.relu` keep gather and mask forms for their
VJPs; they select exactly the values ``maxpool_value`` and ``np.maximum``
give (the mask writes -0.0 for negative inputs, which compares equal).
Graph ops never call the public ``*_value`` names, so a probe on either
entry point counts each kernel call once.

Layout conventions: image batches are NHWC, conv weights are
(kh, kw, c_in, c_out), dense weights are (d_in, d_out).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Node, as_node


# ---------------------------------------------------------------- conv2d

def _im2col(x: np.ndarray, kh: int, kw: int, padding: int) -> np.ndarray:
    """(N, H, W, C) -> (N, Ho, Wo, kh, kw, C) patch view (copied)."""
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))
    # sliding_window_view yields (N, Ho, Wo, C, kh, kw); move C last to match
    # the (kh, kw, c_in, c_out) weight layout when flattened.
    return np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))


def _conv2d_forward(cols: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Convolution output from the (N, Ho, Wo, kh, kw, C) patches of ``_im2col``."""
    n, ho, wo = cols.shape[:3]
    out = cols.reshape(n * ho * wo, -1) @ weight.reshape(-1, weight.shape[3])
    return out.reshape(n, ho, wo, -1) + bias


def conv2d_value(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, padding: int = 0) -> np.ndarray:
    return _conv2d_forward(_im2col(x, *weight.shape[:2], padding), weight, bias)


def conv2d(x, weight, bias, padding: int = 0) -> Node:
    x, weight, bias = as_node(x), as_node(weight), as_node(bias)
    w_value = weight.value
    kh, kw, cin, cout = w_value.shape
    cols = _im2col(x.value, kh, kw, padding)
    out = _conv2d_forward(cols, w_value, bias.value)
    n, ho, wo = cols.shape[:3]
    flat_cols = cols.reshape(n * ho * wo, kh * kw * cin)

    def vjp_x(g):
        dcols = (g.reshape(n * ho * wo, cout) @ w_value.reshape(-1, cout).T)
        dcols = dcols.reshape(n, ho, wo, kh, kw, cin)
        hp, wp = x.value.shape[1] + 2 * padding, x.value.shape[2] + 2 * padding
        dxp = np.zeros((n, hp, wp, cin))
        for i in range(kh):
            for j in range(kw):
                dxp[:, i:i + ho, j:j + wo, :] += dcols[:, :, :, i, j, :]
        if padding:
            return dxp[:, padding:-padding, padding:-padding, :]
        return dxp

    def vjp_w(g):
        dw = flat_cols.T @ g.reshape(n * ho * wo, cout)
        return dw.reshape(kh, kw, cin, cout)

    def vjp_b(g):
        return g.sum(axis=(0, 1, 2))

    return Node(out, [(x, vjp_x), (weight, vjp_w), (bias, vjp_b)])


# ---------------------------------------------------------------- max pool

def _pool_windows(x: np.ndarray, w: int):
    n, h, wd, c = x.shape
    hp, wp = h // w, wd // w
    cropped = x[:, :hp * w, :wp * w, :]
    tiles = cropped.reshape(n, hp, w, wp, w, c).transpose(0, 1, 3, 2, 4, 5)
    return tiles.reshape(n, hp, wp, w * w, c), (hp, wp)


def maxpool_value(x: np.ndarray, window: int) -> np.ndarray:
    tiles, _ = _pool_windows(x, window)
    return tiles.max(axis=3)


def maxpool(x, window: int) -> Node:
    x = as_node(x)
    tiles, (hp, wp) = _pool_windows(x.value, window)
    arg = tiles.argmax(axis=3)          # first max wins; deterministic tie-break
    out = np.take_along_axis(tiles, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    n, h, wd, c = x.value.shape
    w = window

    def vjp(g):
        dtiles = np.zeros((n, hp, wp, w * w, c))
        np.put_along_axis(dtiles, arg[:, :, :, None, :], g[:, :, :, None, :], axis=3)
        dcrop = dtiles.reshape(n, hp, wp, w, w, c).transpose(0, 1, 3, 2, 4, 5)
        dx = np.zeros_like(x.value)
        dx[:, :hp * w, :wp * w, :] = dcrop.reshape(n, hp * w, wp * w, c)
        return dx

    return Node(out, [(x, vjp)])


# ---------------------------------------------------------------- dense

def _dense_forward(flat: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Dense output from the (N, d_in) flattened input."""
    return flat @ weight + bias


def dense_value(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    return _dense_forward(x.reshape(x.shape[0], -1), weight, bias)


def dense(x, weight, bias) -> Node:
    x, weight, bias = as_node(x), as_node(weight), as_node(bias)
    in_shape = x.value.shape
    flat = x.value.reshape(in_shape[0], -1)
    out = _dense_forward(flat, weight.value, bias.value)
    return Node(out, [
        (x, lambda g: (g @ weight.value.T).reshape(in_shape)),
        (weight, lambda g: flat.T @ g),
        (bias, lambda g: g.sum(axis=0)),
    ])


# -------------------------------------------------- softmax cross-entropy

def softmax_value(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy_value(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch plus the softmax probabilities.

    The per-sample probability of the correct class is computed with
    max-subtraction so saturated logits stay finite.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_norm[:, None]
    loss = float(-log_probs[np.arange(n), labels].mean())
    return loss, np.exp(log_probs)


def softmax_cross_entropy(logits, labels) -> tuple[Node, np.ndarray]:
    """Graph version: returns (loss node, probs array)."""
    logits = as_node(logits)
    labels = np.asarray(labels)
    loss, probs = softmax_cross_entropy_value(logits.value, labels)
    n = logits.value.shape[0]
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels] = 1.0

    def vjp(g):
        return g * (probs - onehot) / n

    return Node(np.float64(loss), [(logits, vjp)]), probs


# ---------------------------------------------------------- l2 normalize

def l2_normalize_value(x: np.ndarray) -> np.ndarray:
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    if np.any(norms == 0.0):
        bad = int(np.nonzero(norms[:, 0] == 0.0)[0][0])
        raise ValueError(f"cannot normalize zero feature vector (row {bad})")
    return x / norms


def l2_normalize(x) -> Node:
    x = as_node(x)
    out = l2_normalize_value(x.value)
    norms = np.sqrt((x.value * x.value).sum(axis=1, keepdims=True))

    def vjp(g):
        # d(x/|x|) = (g - z (g.z)) / |x| with z the unit vector
        inner = (g * out).sum(axis=1, keepdims=True)
        return (g - out * inner) / norms

    return Node(out, [(x, vjp)])
