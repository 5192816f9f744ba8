"""Independent reference implementations used as test oracles.

Everything here is deliberately written as straight-line loops with no
imports from the package, so a test comparing the package against these
functions exercises two independent code paths.
"""

import numpy as np


def conv2d_loops(x, weight, bias, padding=0):
    """Direct quadruple-loop convolution. x: (N,H,W,C), weight: (kh,kw,ci,co)."""
    n, h, w, cin = x.shape
    kh, kw, _, cout = weight.shape
    if padding:
        xp = np.zeros((n, h + 2 * padding, w + 2 * padding, cin))
        xp[:, padding:padding + h, padding:padding + w, :] = x
    else:
        xp = x
    ho = xp.shape[1] - kh + 1
    wo = xp.shape[2] - kw + 1
    out = np.zeros((n, ho, wo, cout))
    for b in range(n):
        for i in range(ho):
            for j in range(wo):
                for co in range(cout):
                    acc = bias[co]
                    for di in range(kh):
                        for dj in range(kw):
                            for ci in range(cin):
                                acc += xp[b, i + di, j + dj, ci] * weight[di, dj, ci, co]
                    out[b, i, j, co] = acc
    return out


def conv2d_vjp_loops(x, weight, g, padding=0):
    """Loop-form VJPs of ``conv2d_loops``: (dx, dweight) for output gradient g."""
    n, h, w, cin = x.shape
    kh, kw, _, cout = weight.shape
    xp = np.zeros((n, h + 2 * padding, w + 2 * padding, cin))
    xp[:, padding:padding + h, padding:padding + w, :] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(weight)
    for b in range(n):
        for i in range(g.shape[1]):
            for j in range(g.shape[2]):
                for co in range(cout):
                    for di in range(kh):
                        for dj in range(kw):
                            for ci in range(cin):
                                dxp[b, i + di, j + dj, ci] += g[b, i, j, co] * weight[di, dj, ci, co]
                                dw[di, dj, ci, co] += g[b, i, j, co] * xp[b, i + di, j + dj, ci]
    return dxp[:, padding:padding + h, padding:padding + w, :], dw


def conv2d_bias_grad_rows(g):
    """Bias gradient of a conv output gradient g (N, H, W, C_out): the
    (N*H*W, C_out) rows added one at a time, in order, onto zeros."""
    total = np.zeros(g.shape[-1])
    for row in g.reshape(-1, g.shape[-1]):
        total += row
    return total


def conv2d_nhwc(x, weight, bias, padding=0):
    """The NHWC im2col convolution: (output, vjp_x, vjp_w).

    The patch matrix is a C-ordered (N*Ho*Wo, kh*kw*C) copy with rows over
    (n, y, x) and columns over (i, j, c); the forward and both VJPs are one
    GEMM each, and vjp_x adds the kh*kw taps of the patch gradients, in
    (i, j) order, into a zero-padded NHWC buffer.
    """
    n, h, w, cin = x.shape
    kh, kw, _, cout = weight.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho, wo = xp.shape[1] - kh + 1, xp.shape[2] - kw + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)).reshape(n * ho * wo, -1)
    w2d = weight.reshape(-1, cout)
    out = cols @ w2d
    out += bias

    def vjp_x(g):
        dcols = (g.reshape(-1, cout) @ w2d.T).reshape(n, ho, wo, kh, kw, cin)
        dxp = np.zeros(xp.shape)
        for i in range(kh):
            for j in range(kw):
                dxp[:, i:i + ho, j:j + wo, :] += dcols[:, :, :, i, j, :]
        return dxp[:, padding:padding + h, padding:padding + w, :]

    def vjp_w(g):
        return (cols.T @ g.reshape(-1, cout)).reshape(weight.shape)

    return out.reshape(n, ho, wo, cout), vjp_x, vjp_w


def maxpool_loops(x, window):
    n, h, w, c = x.shape
    ho, wo = h // window, w // window
    out = np.zeros((n, ho, wo, c))
    for b in range(n):
        for i in range(ho):
            for j in range(wo):
                for ch in range(c):
                    block = x[b, i * window:(i + 1) * window,
                              j * window:(j + 1) * window, ch]
                    out[b, i, j, ch] = block.max()
    return out


def maxpool_gather(x, window):
    """Max-pool as a gather: (output, vjp). The forward takes the first
    argmax of each window; the vjp scatters into zeros at that cell."""
    n, h, wd, c = x.shape
    w = window
    hp, wp = h // w, wd // w
    tiles = x[:, :hp * w, :wp * w, :].reshape(n, hp, w, wp, w, c)
    tiles = tiles.transpose(0, 1, 3, 2, 4, 5).reshape(n, hp, wp, w * w, c)
    arg = tiles.argmax(axis=3)
    out = np.take_along_axis(tiles, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]

    def vjp(g):
        dtiles = np.zeros((n, hp, wp, w * w, c))
        np.put_along_axis(dtiles, arg[:, :, :, None, :], g[:, :, :, None, :], axis=3)
        dcrop = dtiles.reshape(n, hp, wp, w, w, c).transpose(0, 1, 3, 2, 4, 5)
        dx = np.zeros_like(x)
        dx[:, :hp * w, :wp * w, :] = dcrop.reshape(n, hp * w, wp * w, c)
        return dx

    return out, vjp


def matmul(a, b):
    """Recorded ``a @ b`` of two graph nodes, built as ``type(a)(value, parents)``;
    its VJPs are ``g @ b.T`` and ``a.T @ g``."""
    return type(a)(a.value @ b.value, [(a, lambda g: g @ b.value.T),
                                       (b, lambda g: a.value.T @ g)])


def gradients_unpruned(loss, leaves):
    """Reverse walk over a recorded graph (anything with ``.value`` and
    ``.parents`` of (parent, vjp) pairs) that runs every parent's vjp,
    whether or not a requested leaf lies behind it."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    grads = {id(loss): np.ones_like(loss.value)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, vjp in node.parents:
            contribution = vjp(g)
            pid = id(parent)
            grads[pid] = grads[pid] + contribution if pid in grads else contribution
        if not node.parents:
            grads[id(node)] = g
    return [grads.get(id(leaf), np.zeros_like(leaf.value)) for leaf in leaves]


def softmax_ce_loops(logits, labels):
    """Scalar-at-a-time mean cross-entropy and probabilities."""
    n, k = logits.shape
    probs = np.zeros((n, k))
    total = 0.0
    for b in range(n):
        m = max(logits[b])
        exps = [np.exp(v - m) for v in logits[b]]
        z = sum(exps)
        for j in range(k):
            probs[b, j] = exps[j] / z
        total += -np.log(probs[b, labels[b]])
    return total / n, probs


def finite_difference(f, params, eps=1e-5):
    """Central finite differences of a scalar function of a flat array."""
    grad = np.zeros_like(params, dtype=np.float64)
    flat = params.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def rel_error(analytic, numeric):
    a = np.asarray(analytic).ravel()
    b = np.asarray(numeric).ravel()
    return np.linalg.norm(a - b) / max(np.linalg.norm(a) + np.linalg.norm(b), 1e-12)


def occlude_loops(image, patch, center):
    """Paste a patch at (i, j) using explicit per-pixel bounds checks."""
    h, w = image.shape
    ph, pw = patch.shape
    out = image.copy()
    i, j = center
    r_start = i - ph // 2
    c_start = j - pw // 2
    for di in range(ph):
        for dj in range(pw):
            r, c = r_start + di, c_start + dj
            if 0 <= r < h and 0 <= c < w:
                out[r, c] = patch[di, dj]
    return out


def binary_map_loops(predict_fn, image, label, patch):
    """Position sweep with the loop-based paste; predict_fn maps (H,W)->class."""
    h, w = image.shape
    grid = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            occluded = occlude_loops(image, patch, (i, j))
            grid[i, j] = 0.0 if predict_fn(occluded) == label else 1.0
    return grid


def splice_loops(base, start, size, values, vstart):
    """Per-position crops ``base[start[n] + (0..size)]`` of an (H, W, C) tensor,
    with each cell of ``values[n]`` (top-left cell at ``vstart[n]`` in base
    coordinates) copied over the crop cell it lands on, if any."""
    n, a, b, _ = values.shape
    out = np.zeros((n, size[0], size[1], base.shape[2]))
    for k in range(n):
        for i in range(size[0]):
            for j in range(size[1]):
                out[k, i, j] = base[start[k][0] + i, start[k][1] + j]
        for di in range(a):
            for dj in range(b):
                i = vstart[k][0] - start[k][0] + di
                j = vstart[k][1] - start[k][1] + dj
                if 0 <= i < size[0] and 0 <= j < size[1]:
                    out[k, i, j] = values[k, di, dj]
    return out


def walk_plain(apply, steps, x, rows=256):
    """The plain inference walk: every step on whole ``rows``-row blocks of ``x``,
    outputs stacked; ``apply(step, batch)`` runs one layer."""
    outs = []
    for s in range(0, max(len(x), 1), rows):
        block = x[s:s + rows]
        for step in steps:
            block = apply(step, block)
        outs.append(block)
    return np.concatenate(outs)


def walk_declared(layers, params, x, kernels):
    """The layers of a model config walked in their declared order.

    ``layers`` are config dicts. A conv or dense layer takes the weight and
    bias named ``conv{i}``/``dense{i}`` (counted per type) from ``params``;
    ``kernels[type](x, layer, *weights)`` runs one layer.
    """
    counts = {"conv": 0, "dense": 0}
    for layer in layers:
        kind = layer["type"]
        weights = ()
        if kind in counts:
            counts[kind] += 1
            name = f"{kind}{counts[kind]}"
            weights = (params[f"{name}.weight"], params[f"{name}.bias"])
        x = kernels[kind](x, layer, *weights)
    return x


def scan_logits_full(forward_fn, image, patch, stride, chunk=256):
    """Logits of a full forward of every occluded image, positions in
    row-major order, in batches of ``chunk``; forward_fn maps (N,H,W,1)->(N,K)."""
    h, w = image.shape
    ph, pw = patch.shape
    positions = [(i, j) for i in range(0, h, stride) for j in range(0, w, stride)]

    def occluded(batch):
        # one chunk at a time, so large images do not stack every position
        out = np.empty((len(batch), h, w))
        for n, (i, j) in enumerate(batch):
            out[n] = image
            r0, c0 = i - ph // 2, j - pw // 2
            rs, cs = max(r0, 0), max(c0, 0)
            re, ce = min(r0 + ph, h), min(c0 + pw, w)
            out[n, rs:re, cs:ce] = patch[rs - r0:re - r0, cs - c0:ce - c0]
        return out[:, :, :, np.newaxis]

    return np.concatenate([forward_fn(occluded(positions[s:s + chunk]))
                           for s in range(0, len(positions), chunk)])


def scan_grid_full(forward_fn, image, label, patch, stride, chunk=256):
    """Error indicator per scan position from full forwards; stride blocks
    share the value of their top-left position."""
    h, w = image.shape
    predictions = np.argmax(scan_logits_full(forward_fn, image, patch, stride, chunk), axis=1)
    grid = np.zeros((h, w))
    n = 0
    for i in range(0, h, stride):
        for j in range(0, w, stride):
            grid[i:i + stride, j:j + stride] = 0.0 if predictions[n] == label else 1.0
            n += 1
    return grid


def violating_triplets_loops(vectors, labels, alpha):
    """Exhaustive margin-violating triplet enumeration."""
    n = len(labels)
    found = set()
    for a in range(n):
        for p in range(n):
            if a == p or labels[a] != labels[p]:
                continue
            d_ap = np.sum((vectors[a] - vectors[p]) ** 2)
            for k in range(n):
                if labels[k] == labels[a]:
                    continue
                d_an = np.sum((vectors[a] - vectors[k]) ** 2)
                if d_ap + alpha > d_an:
                    found.add((a, p, k))
    return found


def violating_triplets_ordered_loops(vectors, labels, alpha, online=True):
    """Triplet list in (anchor, positive, negative) loop order; with
    ``online`` only margin violators (d_ap + alpha > d_an) are kept."""
    n = len(labels)
    diff = vectors[:, None, :] - vectors[None, :, :]
    d2 = (diff ** 2).sum(axis=2)
    triplets = []
    for a in range(n):
        for p in range(n):
            if p == a or labels[p] != labels[a]:
                continue
            for k in range(n):
                if labels[k] == labels[a]:
                    continue
                if not online or d2[a, p] + alpha > d2[a, k]:
                    triplets.append((a, p, k))
    return triplets


def roc_points_loops(scores, matches):
    """Per-threshold counting over distinct scores plus an accept-all sentinel."""
    thresholds = sorted(set(scores), reverse=True) + [min(scores) - 1.0]
    n_pos = sum(matches)
    n_neg = len(matches) - n_pos
    points = []
    for t in thresholds:
        fa = sum(1 for s, m in zip(scores, matches) if s > t and not m)
        ta = sum(1 for s, m in zip(scores, matches) if s > t and m)
        points.append((fa / n_neg, ta / n_pos))
    return points


def mann_whitney(scores, matches):
    """P(random match outscores random non-match), ties counted half."""
    pos = [s for s, m in zip(scores, matches) if m]
    neg = [s for s, m in zip(scores, matches) if not m]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def kfold_loops(scores, matches, k):
    """Brute-force fold evaluation with the widest-interval/lowest tie rule."""
    n = len(scores)
    base, extra = divmod(n, k)
    folds, start = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(list(range(start, start + size)))
        start += size

    def accuracy(idx, t):
        ok = sum(1 for i in idx if (scores[i] > t) == matches[i])
        return ok / len(idx)

    accs, thresholds = [], []
    for fold in folds:
        held = [i for i in range(n) if i not in fold]
        hs = sorted(set(scores[i] for i in held))
        cands = [hs[0] - 1.0] + [(a + b) / 2 for a, b in zip(hs, hs[1:])] + [hs[-1] + 1.0]
        widths = [np.inf] + [b - a for a, b in zip(hs, hs[1:])] + [np.inf]
        best = max(accuracy(held, t) for t in cands)
        optimal = [i for i, t in enumerate(cands) if accuracy(held, t) == best]
        max_width = max(widths[i] for i in optimal)
        chosen = min(cands[i] for i in optimal if widths[i] == max_width)
        thresholds.append(chosen)
        accs.append(accuracy(fold, chosen))
    return accs, thresholds
