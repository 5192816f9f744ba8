"""Per-layer probes on otlab, installed from outside the package.

Each probe replaces the binding a caller actually looks up: a module
attribute read at call time (``otlab.occlusion.forward``), a class
attribute (``Sgd.step``), or the VJP closures on the ``Node`` an op
returns. The inference-path relu is ``np.maximum`` inside
``otlab.engine.model``, so that module's ``np`` binding is swapped for a
proxy whose ``maximum`` is traced.

Kernel work is computed from array shapes, not measured: ``flop`` counts
multiply-adds as two operations and, for relu and max-pool, one operation
per comparison or selected element; ``bytes`` counts each float64 operand
read and result written once (so it ignores im2col copies and cache
misses).
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from stats import median, p90_or_zero
from tracing import Patcher, Tracer, self_times

F8 = 8
KERNELS = ("conv2d", "maxpool", "dense", "relu", "softmax_ce", "l2_normalize")


# ------------------------------------------------------------ kernel work

def _val(x) -> np.ndarray:
    return x.value if hasattr(x, "parents") else np.asarray(x)


def _conv_work(x, w, out):
    n, ho, wo, cout = out.shape
    kh, kw, cin, _ = w.shape
    m, k = n * ho * wo, kh * kw * cin
    gemm = 2 * m * k * cout
    fwd = (gemm + m * cout, F8 * (x.size + w.size + cout + out.size))
    vjps = [(gemm + m * k, F8 * (out.size + w.size + x.size)),
            (gemm, F8 * (m * k + out.size + w.size)),
            (m * cout, F8 * (out.size + cout))]
    return fwd, vjps


def _pool_work(x, out):
    window_cells = (x.shape[1] // out.shape[1]) * (x.shape[2] // out.shape[2])
    fwd = (out.size * window_cells, F8 * (x.size + out.size))
    return fwd, [(out.size, F8 * (out.size + x.size))]


def _dense_work(x, w, out):
    n, (din, dout) = x.shape[0], w.shape
    gemm = 2 * n * din * dout
    fwd = (gemm + n * dout, F8 * (x.size + w.size + dout + out.size))
    vjps = [(gemm, F8 * (out.size + w.size + x.size)),
            (gemm, F8 * (x.size + out.size + w.size)),
            (n * dout, F8 * (out.size + dout))]
    return fwd, vjps


def _relu_work(x, graph: bool):
    fwd = ((2 if graph else 1) * x.size, F8 * 2 * x.size)
    return fwd, [(x.size, F8 * 2 * x.size)]


def _softmax_ce_work(logits):
    return (5 * logits.size, F8 * 2 * logits.size), [(3 * logits.size, F8 * 3 * logits.size)]


def _l2_work(x):
    return (3 * x.size, F8 * 2 * x.size), [(5 * x.size, F8 * 3 * x.size)]


# ------------------------------------------------------------ installing

class _TracedNumpy:
    """Stands in for ``numpy`` in one module; only ``maximum`` is traced."""

    def __init__(self, numpy, maximum):
        self._numpy = numpy
        self.maximum = maximum

    def __getattr__(self, name):
        return getattr(self._numpy, name)


def _triplet_candidates(labels) -> int:
    _, counts = np.unique(np.asarray(labels), return_counts=True)
    n = int(counts.sum())
    return int(sum(int(c) * (int(c) - 1) * (n - int(c)) for c in counts))


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Patch every probe; ``patcher.restore()`` undoes all of them."""
    import otlab.cli
    import otlab.engine.autodiff as autodiff
    import otlab.engine.checkpoint as checkpoint
    import otlab.engine.model as model
    import otlab.engine.ops as ops
    import otlab.engine.optim as optim
    import otlab.engine.train as train
    import otlab.evaluation as evaluation
    import otlab.metric as metric
    import otlab.occlusion as occlusion
    from otlab.config import ExperimentConfig

    def wrap(owner, attr, name, attrs=None):
        patcher.set(owner, attr, tracer.wrap(getattr(owner, attr), name, attrs))

    def traced_vjp(key, vjp, work):
        def wrapped(g):
            idx = tracer.begin(f"ops.{key}.vjp")
            try:
                return vjp(g)
            finally:
                tracer.end(idx, flop=work[0], bytes=work[1])
        return wrapped

    def kernel(owner, attr, key, work):
        """Value kernel: ``work(args, result) -> (flop, bytes)``."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            idx = tracer.begin(f"ops.{key}")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            flop, nbytes = work(args, out)
            tracer.spans[idx].attrs.update(flop=flop, bytes=nbytes)
            return out
        patcher.set(owner, attr, wrapper)

    def graph_kernel(owner, attr, key, work):
        """Graph op: ``work(args, node) -> (fwd, [vjp per parent])``; the
        returned node's VJP closures are replaced by traced ones."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            idx = tracer.begin(f"ops.{key}")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            node = result[0] if isinstance(result, tuple) else result
            (flop, nbytes), vjps = work(args, node)
            tracer.spans[idx].attrs.update(flop=flop, bytes=nbytes)
            node.parents = tuple((parent, traced_vjp(key, vjp, w))
                                 for (parent, vjp), w in zip(node.parents, vjps))
            return result
        patcher.set(owner, attr, wrapper)

    def images(args, kwargs, result):
        return {"images": int(np.shape(args[1])[0])}

    # config / data
    wrap(ExperimentConfig, "dataset_splits", "data.dataset")
    patcher.set(train, "batches", tracer.wrap_generator(train.batches, "data.batches"))

    # engine: checkpoints, training path, inference path
    wrap(checkpoint, "save_checkpoint", "engine.checkpoint")
    wrap(checkpoint, "read_checkpoint", "engine.checkpoint")
    wrap(otlab.cli, "init_model", "engine.init")
    wrap(otlab.cli, "train_classifier", "engine.train")
    wrap(otlab.cli, "train_accuracy", "engine.accuracy")
    wrap(train, "trace", "engine.trace")
    wrap(metric, "trace", "engine.trace")
    wrap(train, "backward", "engine.backward")
    wrap(metric, "gradients", "engine.backward")
    wrap(optim.Sgd, "step", "engine.sgd")
    wrap(train, "forward", "engine.forward", images)
    wrap(occlusion, "forward", "engine.forward", images)
    wrap(metric, "forward_features", "engine.forward_features", images)

    kernel(ops, "conv2d_value", "conv2d",
           lambda a, out: _conv_work(a[0], a[1], out)[0])
    kernel(ops, "maxpool_value", "maxpool", lambda a, out: _pool_work(a[0], out)[0])
    kernel(ops, "dense_value", "dense", lambda a, out: _dense_work(a[0], a[1], out)[0])
    relu_value = tracer.wrap(np.maximum, "ops.relu",
                             lambda a, k, out: dict(zip(("flop", "bytes"),
                                                        _relu_work(out, False)[0])))
    patcher.set(model, "np", _TracedNumpy(np, relu_value))

    graph_kernel(ops, "conv2d", "conv2d",
                 lambda a, node: _conv_work(_val(a[0]), _val(a[1]), node.value))
    graph_kernel(ops, "maxpool", "maxpool", lambda a, node: _pool_work(_val(a[0]), node.value))
    graph_kernel(ops, "dense", "dense",
                 lambda a, node: _dense_work(_val(a[0]), _val(a[1]), node.value))
    graph_kernel(autodiff, "relu", "relu", lambda a, node: _relu_work(node.value, True))
    graph_kernel(ops, "softmax_cross_entropy", "softmax_ce",
                 lambda a, node: _softmax_ce_work(_val(a[0])))
    graph_kernel(metric, "l2_normalize", "l2_normalize", lambda a, node: _l2_work(node.value))

    # occlusion
    def scan_attrs(args, kwargs, grid):
        stride = args[4] if len(args) > 4 else kwargs.get("stride", 1)
        h, w = grid.shape
        return {"positions": math.ceil(h / stride) * math.ceil(w / stride),
                "flips": int(grid[::stride, ::stride].sum()),
                "patch": list(args[3].shape)}

    wrap(occlusion, "dataset_occlusion_map", "occlusion.map")
    wrap(occlusion, "_scan_grid", "occlusion.scan", scan_attrs)
    wrap(occlusion, "occlude_fraction", "occlusion.augment",
         lambda a, k, out: {"occluders": math.ceil(a[1] * len(a[0]))})

    # metric
    def finetune_attrs(args, kwargs, result):
        rows = result[1]
        return {"steps": len(rows),
                "updates": sum(1 for r in rows if np.isfinite(r["loss"]))}

    wrap(metric, "finetune", "metric.finetune", finetune_attrs)
    wrap(metric, "_sample_pool", "metric.pool")
    wrap(metric, "_violating_triplets", "metric.mine",
         lambda a, k, out: {"candidates": _triplet_candidates(a[1]), "mined": len(out)})
    wrap(metric.TripletBatch, "__init__", "metric.batch_stats")
    wrap(metric, "batch_loss_node", "metric.loss_build")
    wrap(metric, "standard_loss_node", "metric.loss_build")

    # evaluation
    def score_attrs(args, kwargs, result):
        pairs = args[1]
        return {"distinct": len({p[0].id for p in pairs} | {p[1].id for p in pairs})}

    def embed_attrs(args, kwargs, result):
        return {"images": len(result)}

    wrap(evaluation, "load_pairs_csv", "evaluation.pairs_io")
    wrap(evaluation, "resolve_pairs", "evaluation.pairs_io")
    wrap(evaluation, "score_pairs", "evaluation.score", score_attrs)
    wrap(evaluation, "embed", "evaluation.embed", embed_attrs)
    wrap(evaluation, "roc", "evaluation.roc")
    wrap(evaluation, "kfold_accuracy", "evaluation.kfold")


# ------------------------------------------------------------ metrics

# (name, unit, better); the trace run prints every row on every workload,
# with 0 where a workload never reaches the layer.
PER_LAYER = [
    ("data.dataset_s", "s", "lower"),
    ("data.batches_s", "s", "lower"),
    ("engine.checkpoint_s", "s", "lower"),
    ("engine.trace_s", "s", "lower"),
    ("engine.trace_calls", "count", "lower"),
    ("engine.backward_s", "s", "lower"),
    ("engine.sgd_s", "s", "lower"),
    ("engine.softmax_ce_s", "s", "lower"),
    ("engine.train_step_ms_p50", "ms", "lower"),
    ("engine.train_step_ms_p90", "ms", "lower"),
    ("engine.train_steps", "count", "higher"),
    ("engine.forward_s", "s", "lower"),
    ("engine.forward_images", "count", "lower"),
    ("engine.forward_images_per_s", "images/s", "higher"),
    ("engine.forward_features_s", "s", "lower"),
] + [
    (f"ops.{k}.{field}", unit, better)
    for k in KERNELS
    for field, unit, better in (("fwd_s", "s", "lower"), ("vjp_s", "s", "lower"),
                                ("calls", "count", "lower"), ("gflop", "GFLOP", "lower"),
                                ("mb_moved", "MB", "lower"),
                                ("gflops_per_s", "GFLOP/s", "higher"))
] + [
    ("occlusion.map_s", "s", "lower"),
    ("occlusion.scan_s", "s", "lower"),
    ("occlusion.scan_positions", "count", "higher"),
    ("occlusion.forwards_per_position", "ratio", "lower"),
    ("occlusion.flip_frac", "ratio", "lower"),
    ("occlusion.image_ms_p50", "ms", "lower"),
    ("occlusion.augment_s", "s", "lower"),
    ("occlusion.occluders", "count", "higher"),
    ("metric.finetune_s", "s", "lower"),
    ("metric.pool_s", "s", "lower"),
    ("metric.mine_s", "s", "lower"),
    ("metric.candidate_triplets", "count", "lower"),
    ("metric.mined_triplets", "count", "lower"),
    ("metric.mined_frac", "ratio", "higher"),
    ("metric.batch_stats_s", "s", "lower"),
    ("metric.loss_build_s", "s", "lower"),
    ("metric.update_frac", "ratio", "higher"),
    ("metric.finetune_step_ms_p50", "ms", "lower"),
    ("metric.finetune_step_ms_p90", "ms", "lower"),
    ("metric.finetune_steps", "count", "higher"),
    ("evaluation.pairs_io_s", "s", "lower"),
    ("evaluation.score_s", "s", "lower"),
    ("evaluation.embed_s", "s", "lower"),
    ("evaluation.embedded_images", "count", "lower"),
    ("evaluation.embed_unique_frac", "ratio", "higher"),
    ("evaluation.roc_s", "s", "lower"),
    ("evaluation.kfold_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def step_samples_ms(spans: list, loop: str) -> list[float]:
    """Step durations inside each ``loop`` span, split at the end of each
    optimizer step (the first step starts with the loop)."""
    samples = []
    for i, span in enumerate(spans):
        if span.name != loop:
            continue
        cursor = span.start
        for child in spans[i + 1:]:
            if child.start >= span.end:
                break
            if child.name == "engine.sgd":
                samples.append((child.end - cursor) * 1e3)
                cursor = child.end
    return samples


def pass_metrics(spans: list) -> tuple[dict, dict]:
    """Scalar rows for one traced pass, plus the raw samples behind the
    percentile rows (pooled across passes by ``combine``)."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)

    def self_s(*names):
        return sum(selfs[i] for n in names for i in by_name[n])

    def incl_s(name):
        return sum(spans[i].duration for i in by_name[name])

    def attr(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name[name])

    m = {
        "data.dataset_s": self_s("data.dataset"),
        "data.batches_s": self_s("data.batches"),
        "engine.checkpoint_s": self_s("engine.checkpoint"),
        "engine.trace_s": incl_s("engine.trace"),
        "engine.trace_calls": len(by_name["engine.trace"]),
        "engine.backward_s": incl_s("engine.backward"),
        "engine.sgd_s": self_s("engine.sgd"),
        "engine.softmax_ce_s": self_s("ops.softmax_ce", "ops.softmax_ce.vjp"),
        "engine.forward_s": incl_s("engine.forward"),
        "engine.forward_images": attr("engine.forward", "images"),
        "engine.forward_features_s": incl_s("engine.forward_features"),
    }
    m["engine.forward_images_per_s"] = _ratio(m["engine.forward_images"], m["engine.forward_s"])
    for k in KERNELS:
        fwd, vjp = f"ops.{k}", f"ops.{k}.vjp"
        gflop = (attr(fwd, "flop") + attr(vjp, "flop")) / 1e9
        busy = self_s(fwd) + self_s(vjp)
        m.update({f"{fwd}.fwd_s": self_s(fwd), f"{fwd}.vjp_s": self_s(vjp),
                  f"{fwd}.calls": len(by_name[fwd]), f"{fwd}.gflop": gflop,
                  f"{fwd}.mb_moved": (attr(fwd, "bytes") + attr(vjp, "bytes")) / 1e6,
                  f"{fwd}.gflops_per_s": _ratio(gflop, busy)})

    scans = set(by_name["occlusion.scan"])
    scanned_images = sum(spans[i].attrs.get("images", 0) for i in by_name["engine.forward"]
                         if spans[i].parent in scans)
    positions = attr("occlusion.scan", "positions")
    m.update({
        "occlusion.map_s": self_s("occlusion.map"),
        "occlusion.scan_s": self_s("occlusion.scan"),
        "occlusion.scan_positions": positions,
        "occlusion.forwards_per_position": _ratio(scanned_images, positions),
        "occlusion.flip_frac": _ratio(attr("occlusion.scan", "flips"), positions),
        "occlusion.augment_s": self_s("occlusion.augment"),
        "occlusion.occluders": attr("occlusion.augment", "occluders"),
    })

    candidates = attr("metric.mine", "candidates")
    mined = attr("metric.mine", "mined")
    m.update({
        "metric.finetune_s": self_s("metric.finetune"),
        "metric.pool_s": self_s("metric.pool"),
        "metric.mine_s": self_s("metric.mine"),
        "metric.candidate_triplets": candidates,
        "metric.mined_triplets": mined,
        "metric.mined_frac": _ratio(mined, candidates),
        "metric.batch_stats_s": self_s("metric.batch_stats"),
        "metric.loss_build_s": self_s("metric.loss_build"),
        "metric.update_frac": _ratio(attr("metric.finetune", "updates"),
                                     attr("metric.finetune", "steps")),
    })

    m.update({
        "evaluation.pairs_io_s": self_s("evaluation.pairs_io"),
        "evaluation.score_s": self_s("evaluation.score"),
        "evaluation.embed_s": self_s("evaluation.embed"),
        "evaluation.embedded_images": attr("evaluation.embed", "images"),
        "evaluation.embed_unique_frac": _ratio(attr("evaluation.score", "distinct"),
                                               attr("evaluation.embed", "images")),
        "evaluation.roc_s": self_s("evaluation.roc"),
        "evaluation.kfold_s": self_s("evaluation.kfold"),
        "cli.self_s": sum(selfs[i] for i, s in enumerate(spans) if s.name.startswith("cli.")),
        "trace.spans": len(spans),
    })

    samples = {
        "train_step_ms": step_samples_ms(spans, "engine.train"),
        "finetune_step_ms": step_samples_ms(spans, "metric.finetune"),
        "image_ms": [spans[i].duration * 1e3 for i in by_name["occlusion.scan"]],
    }
    return m, samples


def combine(per_pass: list[tuple[dict, dict]]) -> dict:
    """Median of each scalar row over traced passes; percentile rows from
    the samples of all passes together (0 where there are none)."""
    out = {name: median([m[name] for m, _ in per_pass]) for name in per_pass[0][0]}
    pooled = defaultdict(list)
    for _, samples in per_pass:
        for key, values in samples.items():
            pooled[key] += values
    for prefix, key in (("engine.train_step", "train_step_ms"),
                        ("metric.finetune_step", "finetune_step_ms")):
        values = pooled[key]
        out[f"{prefix}_ms_p50"] = median(values) if values else 0.0
        out[f"{prefix}_ms_p90"] = p90_or_zero(values)
        out[f"{prefix}s"] = len(values)
    out["occlusion.image_ms_p50"] = median(pooled["image_ms"]) if pooled["image_ms"] else 0.0
    return out
