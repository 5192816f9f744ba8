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


def scan_logits_full(forward_fn, image, patch, stride, chunk=256):
    """Logits of a full forward of every occluded image, positions in
    row-major order, in batches of ``chunk``; forward_fn maps (N,H,W,1)->(N,K)."""
    h, w = image.shape
    ph, pw = patch.shape
    positions = [(i, j) for i in range(0, h, stride) for j in range(0, w, stride)]
    occluded = np.empty((len(positions), h, w))
    for n, (i, j) in enumerate(positions):
        occluded[n] = image
        r0, c0 = i - ph // 2, j - pw // 2
        rs, cs = max(r0, 0), max(c0, 0)
        re, ce = min(r0 + ph, h), min(c0 + pw, w)
        occluded[n, rs:re, cs:ce] = patch[rs - r0:re - r0, cs - c0:ce - c0]
    return np.concatenate([forward_fn(occluded[s:s + chunk, :, :, np.newaxis])
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
