"""Layer kernels (plain float64 arrays) and their recorded-graph wrappers.

Conv, max-pool, dense and softmax-CE each have a ``*_value`` function for
inference and a graph op returning a :class:`~otlab.engine.autodiff.Node`
for training; L2 normalisation runs only in training and has only the graph
op. Conv, max-pool and dense compute both from one private forward each, so
inference and training are bit-identical by construction. The pool forward
folds ``np.maximum`` over strided window cells; its VJP picks the first cell
equal to the maximum, as ``argmax`` would, and writes ``g`` there through a
bitwise AND with the hit mask (same bytes as ``np.where(hit, g, 0.0)``,
-0.0 included, in less time). :func:`~otlab.engine.autodiff.relu` computes
``np.maximum(x, 0.0)`` as inference does and keeps a mask for its VJP.
Graph ops never call the public ``*_value`` names, so a probe on either
entry point counts each kernel call once.

Conv is one GEMM per direction over the (N·Ho·Wo, kh·kw·C) patch matrix.
The memory order around the GEMMs is chosen for speed: ``_im2col`` picks
the matrix's order from the channel count, and ``vjp_x`` gets the patch
gradients tap-major from ``w @ g.T`` and adds the taps, in (i, j) order,
into a channel-major buffer returned as a transposed, cropped view. Each
GEMM sees the values of the NHWC patch matrix and each output cell keeps
its sum order, so for the default net's shapes the bits equal the NHWC
form's (``tests/oracles.py`` ``conv2d_nhwc``); other filter or row counts
may round a last bit differently, deterministically.

Layout conventions: image batches are NHWC, conv weights are
(kh, kw, c_in, c_out), dense weights are (d_in, d_out).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Node, as_node


# ---------------------------------------------------------------- conv2d

def _im2col(x: np.ndarray, kh: int, kw: int, padding: int) -> np.ndarray:
    """(N, H, W, C) -> (N·Ho·Wo, kh·kw·C) patch matrix (copied).

    Rows run over (n, y, x) and columns over (i, j, c), matching the
    (kh, kw, c_in, c_out) weight layout. With one channel the copy is
    tap-major, so each copied run is an image row, and its F-ordered
    transpose is returned (numpy hands BLAS a transposed operand, no copy).
    With more, a tap-major copy is slower than NHWC, whose runs are C long.
    """
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    # (N, Ho, Wo, C, kh, kw)
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))
    taps = kh * kw * x.shape[3]
    if x.shape[3] == 1:
        return np.ascontiguousarray(windows.transpose(4, 5, 3, 0, 1, 2)).reshape(taps, -1).T
    return np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, taps)


def _conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                    padding: int) -> tuple[np.ndarray, np.ndarray]:
    """Convolution output and the ``_im2col`` patch matrix it was computed from."""
    kh, kw, _, cout = weight.shape
    n, h, w = x.shape[:3]
    cols = _im2col(x, kh, kw, padding)
    out = cols @ weight.reshape(-1, cout)
    out += bias
    return out.reshape(n, h + 2 * padding - kh + 1, w + 2 * padding - kw + 1, cout), cols


def conv2d_value(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, padding: int = 0) -> np.ndarray:
    return _conv2d_forward(x, weight, bias, padding)[0]


def conv2d(x, weight, bias, padding: int = 0) -> Node:
    x, weight, bias = as_node(x), as_node(weight), as_node(bias)
    w_value = weight.value
    kh, kw, cin, cout = w_value.shape
    out, cols = _conv2d_forward(x.value, w_value, bias.value, padding)
    n, ho, wo = out.shape[:3]
    h, w = x.value.shape[1:3]

    def vjp_x(g):
        # patch gradients come out tap-major, (kh, kw, c_in, N, Ho, Wo); each
        # tap adds Wo-long runs into a channel-major buffer, taps in (i, j) order
        dcols = (w_value.reshape(-1, cout) @ g.reshape(-1, cout).T).reshape(kh, kw, cin, n, ho, wo)
        dxp = np.zeros((cin, n, h + 2 * padding, w + 2 * padding))
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i:i + ho, j:j + wo] += dcols[i, j]
        return dxp.transpose(1, 2, 3, 0)[:, padding:padding + h, padding:padding + w]

    def vjp_w(g):
        return (cols.T @ g.reshape(-1, cout)).reshape(kh, kw, cin, cout)

    def vjp_b(g):
        # einsum adds C-ordered rows in order, as sum does for a C-ordered g, and is
        # 2-5x faster; with one filter sum adds pairwise instead
        if cout == 1:
            return g.sum(axis=(0, 1, 2))
        return np.einsum("ij->j", np.ascontiguousarray(g).reshape(-1, cout))

    return Node(out, [(x, vjp_x), (weight, vjp_w), (bias, vjp_b)])


# ---------------------------------------------------------------- max pool

def _pool_tiles(x: np.ndarray, w: int) -> np.ndarray:
    """(N, H, W, C) -> (N, H//w, w, W//w, w, C) view of the cropped windows."""
    n, h, wd, c = x.shape
    return x[:, :h // w * w, :wd // w * w, :].reshape(n, h // w, w, wd // w, w, c)


def _maxpool_forward(tiles: np.ndarray) -> np.ndarray:
    """Window maxima: ``np.maximum`` folded over the cells of ``_pool_tiles``."""
    w = tiles.shape[2]
    out = tiles[:, :, 0, :, 0, :].copy()
    for k in range(1, w * w):
        np.maximum(out, tiles[:, :, k // w, :, k % w, :], out=out)
    return out


def maxpool_value(x: np.ndarray, window: int) -> np.ndarray:
    return _maxpool_forward(_pool_tiles(x, window))


def maxpool(x, window: int) -> Node:
    x, w = as_node(x), window
    shape = x.value.shape
    tiles = _pool_tiles(x.value, w)
    out = _maxpool_forward(tiles)

    def vjp(g):
        # g goes to the first cell, in row-major order, equal to the maximum; the
        # tiles write every cell of dx but a cropped tail, which is zeroed
        dx = np.empty(shape)
        dx[:, shape[1] // w * w:] = 0.0
        dx[:, :, shape[2] // w * w:] = 0.0
        dtiles = _pool_tiles(dx, w).view(np.int64)
        bits = g.view(np.int64)
        free = np.ones(out.shape, dtype=bool)
        hit = np.empty(out.shape, dtype=bool)
        mask = np.empty(out.shape, dtype=np.int64)
        for i, j in np.ndindex(w, w):
            np.equal(tiles[:, :, i, :, j, :], out, out=hit)
            hit &= free
            free ^= hit
            # g's bits where hit, +0.0 elsewhere: np.where(hit, g, 0.0) as a bitwise AND
            np.negative(hit.view(np.int8), out=mask)
            np.bitwise_and(bits, mask, out=dtiles[:, :, i, :, j, :])
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

def l2_normalize(x) -> Node:
    """Rows of ``x`` scaled to unit length; callers refuse all-zero rows first."""
    x = as_node(x)
    norms = np.sqrt((x.value * x.value).sum(axis=1, keepdims=True))
    out = x.value / norms

    def vjp(g):
        # d(x/|x|) = (g - z (g.z)) / |x| with z the unit vector
        inner = (g * out).sum(axis=1, keepdims=True)
        return (g - out * inner) / norms

    return Node(out, [(x, vjp)])
