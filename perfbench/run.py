"""Benchmark of the otlab pipeline through its real CLI stages.

    python3 perfbench/run.py --workload classify|scan|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. It builds the workload's inputs from the
seed (set-up, repeated and timed), then runs the workload's CLI stages in
this process, one after another, as many times as fit in ``--seconds``,
and checks every output. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A full record (host
facts, every named metric with its samples, artifact sha256s, checks) and,
for traced runs, the spans go to ``perfbench/out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import probes
from stats import median, summarize
from tracing import Patcher, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up repeats until both hold, so a cheap set-up still gets a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# End-to-end metrics as BENCHMARK.json names them. The two stage rates are
# per workload: stage1_per_s is train steps/s (classify), small-occluder
# map images/s (scan) or fine-tune steps/s (verify); stage2_per_s is
# augmented-training steps/s, large-occluder map images/s or evaluated
# pairs/s.
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("stage1_per_s", "1/s"),
              ("stage2_per_s", "1/s"), ("peak_rss_mb", "MB")]


class Ledger:
    """Stages and checks attempted, and which of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}".strip())
        return ok


def invoke(args: list[str]) -> tuple[int, str]:
    """Run one ``otlab`` command in this process; returns (exit code, output)."""
    import click
    from otlab.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            main.main(args=args, prog_name="otlab", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except click.ClickException as exc:
            buf.write(exc.format_message())
            code = exc.exit_code
        except Exception:   # a crash inside a stage is a failed stage, not a failed run
            traceback.print_exc(file=buf)
            code = 1
    return code, buf.getvalue()


def sha256_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ----------------------------------------------------------------- host

def _openblas_threads() -> int | None:
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_facts() -> dict:
    import numpy
    from otlab.cli import cmd_occlusion_map

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "openblas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workers": next(p.default for p in cmd_occlusion_map.params if p.name == "workers"),
        "git_commit": _git_commit(),
    }


# ----------------------------------------------------------------- passes

class Pass:
    def __init__(self, out: Path, traced: bool):
        self.out = out
        self.traced = traced
        self.stage_s: list[float] = []
        self.outputs: list[str] = []
        self.ok = True
        self.spans: list = []

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s)


def run_pass(work, ctx: dict, out: Path, ledger: Ledger, tracer=None) -> Pass:
    result = Pass(out, tracer is not None)
    for stage in work.stages(ctx, out):
        idx = tracer.begin(f"cli.{stage.args[0]}") if tracer else None
        t0 = time.perf_counter()
        code, output = invoke(stage.args)
        result.stage_s.append(time.perf_counter() - t0)
        if tracer:
            tracer.end(idx)
        result.outputs.append(output)
        result.ok &= ledger.record(f"{out.name} stage {stage.label}", code == 0,
                                   f"exit {code}: {output.strip()[-500:]}")
    return result


def traced_pass(work, ctx, out, ledger, run_id: str) -> Pass:
    tracer, patcher = Tracer(run_id), Patcher()
    try:
        probes.install(tracer, patcher)
        result = run_pass(work, ctx, out, ledger, tracer)
    finally:
        originals = list(patcher.saved)
        patcher.restore()
    ledger.record(f"{out.name} probes removed",
                  all(Patcher.lookup(owner, attr) is original
                      for owner, attr, original in originals))
    result.spans = tracer.spans
    return result


def check_pass(work, ctx, p: Pass, reference: dict[str, str] | None, ledger: Ledger) -> dict:
    """Output checks for one pass; returns its artifact sha256s."""
    from workloads import Check

    try:
        checks = work.checks(ctx, p.out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checks = [Check("checks ran", False, repr(exc))]
    for c in checks:
        ledger.record(f"{p.out.name} {c.name}", c.ok, c.detail)
    shas = sha256_tree(p.out)
    if reference is not None:
        for name in sorted(set(reference) | set(shas)):
            ledger.record(f"{p.out.name} {name} byte-identical to the first pass",
                          reference.get(name) == shas.get(name))
    return shas


# ----------------------------------------------------------------- main

def median0(values) -> float:
    return median(values) if values else 0.0


def set_up(work, base: Path, seed: int, ledger: Ledger, min_repeats: int, min_seconds: float):
    """Build the inputs at least ``min_repeats`` times and for at least
    ``min_seconds`` in total; returns (context, seconds, sha256s)."""
    times, shas, ctx = [], [], None
    while len(times) < min_repeats or sum(times) < min_seconds:
        i = len(times)
        root = base / f"setup{i}"
        root.mkdir()
        t0 = time.perf_counter()
        try:
            ctx = work.setup(root, seed, invoke)
        except (RuntimeError, OSError, ValueError) as exc:
            ledger.record(f"set-up {i}", False, repr(exc))
            return None, times, shas
        times.append(time.perf_counter() - t0)
        shas.append(sha256_tree(root))
        ledger.record(f"set-up {i}", True)
        if i:
            ledger.record(f"set-up {i} inputs byte-identical to set-up 0", shas[i] == shas[0])
    return ctx, times, shas


def measure(work, ctx, base: Path, seconds: float, trace: bool, ledger: Ledger,
            run_prefix: str) -> list[Pass]:
    """An untimed warm-up pass, then passes until the next would overrun
    ``seconds``; with ``trace`` every second timed pass is traced."""
    passes = [run_pass(work, ctx, base / "warmup", ledger)]
    timed: list[Pass] = []
    start = time.perf_counter()
    while True:
        out = base / f"pass{len(timed):03d}"
        if trace and len(timed) % 2 == 1:
            timed.append(traced_pass(work, ctx, out, ledger, f"{run_prefix}-{out.name}"))
        else:
            timed.append(run_pass(work, ctx, out, ledger))
        elapsed = time.perf_counter() - start
        if len(timed) >= (2 if trace else 1) and elapsed * (len(timed) + 1) / len(timed) > seconds:
            return passes + timed


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy  # noqa: F401  (imported before timing so set-up excludes it)
    import otlab.cli  # noqa: F401
    from workloads import WORKLOADS

    work = WORKLOADS[workload]
    base = HERE / "out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    ledger = Ledger()
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "host": host_facts()}

    ctx, setup_s, setup_shas = set_up(work, base, seed, ledger,
                                      *((1, 0.0) if trace else (SETUP_MIN_REPEATS,
                                                                SETUP_MIN_SECONDS)))
    passes = measure(work, ctx, base, seconds, trace, ledger,
                     f"{workload}-seed{seed}") if ctx is not None else []

    shas = None
    for p in passes:
        digest = check_pass(work, ctx, p, shas, ledger)
        shas = shas or digest

    good = [p for p in passes[1:] if p.ok]
    untraced = [p for p in good if not p.traced]
    stage_rates = [[n / dt for n, dt in zip(work.items(ctx, p.out), p.stage_s)]
                   for p in untraced]
    quality: dict = {}
    for p in passes:
        if p.ok:
            for key, value in work.quality(ctx, p.out, p.outputs).items():
                ledger.record(f"{p.out.name} {key} repeats exactly",
                              quality.setdefault(key, value) == value,
                              f"{value} vs {quality[key]}")

    walls = [p.wall_s for p in untraced]
    named: dict = {}
    for (name, unit), samples in zip(
            [("setup_s", "s"), ("wall_s", "s"), work.stage1, work.stage2],
            [setup_s, walls, [r[0] for r in stage_rates], [r[1] for r in stage_rates]]):
        named[name] = dict(summarize(samples), unit=unit)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    named["failed_frac"] = {"value": len(ledger.failures) / ledger.attempted, "unit": "ratio"}
    for key, value in quality.items():
        named[key] = {"value": value, "unit": "-" if key == "decidability" else "ratio"}

    if trace:
        per_pass, accounting = [], []
        for p in good:
            if p.traced:
                m, samples = probes.pass_metrics(p.spans)
                m["trace.unattributed_frac"] = m["cli.self_s"] / p.wall_s
                per_pass.append((m, samples))
                accounting.append({"pass": p.out.name, "traced_wall_s": p.wall_s,
                                   "self_sum_s": sum(self_times(p.spans)),
                                   "cli_self_s": m["cli.self_s"]})
        traced_walls = [a["traced_wall_s"] for a in accounting]
        layer = probes.combine(per_pass) if per_pass else {}
        layer["trace.overhead_frac"] = (median(traced_walls) / median(walls) - 1.0
                                        if traced_walls and walls else 0.0)
        metrics = {n: {"value": layer.get(n, 0.0), "unit": u} for n, u, _ in probes.PER_LAYER}
        record["trace_accounting"] = {"untraced_wall_s": walls, "traced": accounting}
        for a in accounting:
            print(f"{workload} {a['pass']}: span self times sum to {a['self_sum_s']:.4f} s "
                  f"(layers {a['self_sum_s'] - a['cli_self_s']:.4f} s + cli "
                  f"{a['cli_self_s']:.4f} s) of {a['traced_wall_s']:.4f} s traced wall")
        if walls:
            print(f"{workload} untraced wall median {median(walls):.4f} s; "
                  f"trace.overhead_frac {layer['trace.overhead_frac']:+.4f}")
        with open(base / "spans.json", "w") as fh:
            json.dump([s.to_dict() for p in passes for s in p.spans], fh)
    else:
        values = {"setup_s": median0(setup_s), "wall_s": median0(walls),
                  "stage1_per_s": median0([r[0] for r in stage_rates]),
                  "stage2_per_s": median0([r[1] for r in stage_rates]),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}

    record.update(named=named, setup_sha256=setup_shas[0] if setup_shas else {},
                  artifact_sha256=shas or {},
                  passes=[{"name": p.out.name, "traced": p.traced, "stage_s": p.stage_s}
                          for p in passes],
                  attempted=ledger.attempted, failures=ledger.failures, metrics=metrics)
    (base / "results.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for done in [p.out for p in passes] + sorted(base.glob("setup*")):
        shutil.rmtree(done, ignore_errors=True)

    for name, doc in named.items():
        if "n" not in doc:
            print(f"{workload} {name} = {doc['value']:.6g} {doc['unit']}")
        elif doc["n"]:
            tail = (f", p{doc['tail_pct']:g} {doc['tail']:.6g}"
                    if doc["tail"] is not None else "")
            print(f"{workload} {name} = {doc['p50']:.6g} {doc['unit']} "
                  f"(median of n={doc['n']}{tail})")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    return {"correct": not ledger.failures, "attempted": ledger.attempted,
            "failed": len(ledger.failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("classify", "scan", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "otlab" / "__init__.py").is_file():
        print(f"error: no otlab sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
