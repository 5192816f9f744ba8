"""Command-line pipelines.

The stages mirror the experiment sequence: train a classifier, probe it
with an occlusion map, continue training with guided occlusion
augmentation, fine-tune the embedding with a triplet objective, then
evaluate verification performance. Each stage consumes the previous
stage's checkpoint.

Every pipeline command takes --config/--seed/--out, validates its inputs
fully before writing anything, and is deterministic: rerunning with the
same config, inputs and seed reproduces every output file byte for byte.

Exit codes: 0 ok; 2 invalid config or input file; 3 numeric divergence
during training; 4 protocol failure (e.g. no correctly classified image
to build a map from).
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import evaluation, metric, occlusion
from .atomic import atomic_write
from .config import ExperimentConfig
from .data import save_pgm
from .engine import checkpoint as ckpt
from .engine.model import init_model
from .engine.train import train_accuracy, train_classifier
from .errors import ConfigError, DivergenceError, FormatError, ProtocolError
from .validation import as_rng

CHECKPOINT_NAME = "checkpoint.otl"
CLASSIFIER_LOG = ["step", "loss", "accuracy"]


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with atomic_write(path, newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, (int, str)) else _fmt(v)
                              for v in row) + "\n")


def _write_json(path: Path, doc: dict) -> None:
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _rng_state(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return json.loads(json.dumps(state, default=int))


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _exit_codes(command):
    """Run ``command``, mapping the pipeline's errors to the documented exit codes."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except (ConfigError, FormatError, FileNotFoundError) as exc:
            _fail(2, str(exc))
        except DivergenceError as exc:
            _fail(3, str(exc))
        except ProtocolError as exc:
            _fail(4, str(exc))
    return run


def _common(f):
    """The options and exit codes of every pipeline command."""
    f = _exit_codes(f)
    f = click.option("--config", "config_path", required=True,
                     type=click.Path(), help="Experiment config (JSON).")(f)
    f = click.option("--seed", type=int, default=None,
                     help="Run seed; overrides the config seed.")(f)
    f = click.option("--out", "out_dir", required=True, type=click.Path(),
                     help="Output directory (created if missing).")(f)
    return f


def _load_model(path) -> ckpt.Checkpoint:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"checkpoint not found: {p}")
    return ckpt.read_checkpoint(p)


def _occluder(cfg: ExperimentConfig) -> occlusion.OccluderSpec:
    if cfg.occluder is None:
        raise ConfigError('config needs an "occluder" object for this command')
    return cfg.occluder


def _save_training(out: Path, model, rng, cfg: ExperimentConfig, meta: dict,
                   log_columns: list[str], rows) -> None:
    """A training stage's checkpoint, tagged with ``meta`` and the seed, and its train_log.csv."""
    ckpt.save_checkpoint(model, out / CHECKPOINT_NAME, rng_state=_rng_state(rng),
                         training_meta={**meta, "seed": cfg.seed})
    _write_csv(out / "train_log.csv", log_columns, rows)


@click.group()
def main():
    """Occlusion-guided augmentation and triplet metric-learning pipelines."""


@main.command("train-classifier")
@_common
def cmd_train_classifier(config_path, seed, out_dir):
    """Train the classification model from scratch."""
    cfg = ExperimentConfig.load(config_path, seed)
    train = cfg.dataset_splits()[1]
    schedule = cfg.schedule
    rng = as_rng(cfg.seed)
    model = init_model(cfg.model_config(train), rng)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = train_classifier(model, train, schedule, rng)
    _save_training(out, model, rng, cfg, {"stage": "classifier", "steps": schedule.steps,
                                          "loss_mode": "softmax_ce"}, CLASSIFIER_LOG, rows)
    final_acc = train_accuracy(model, train)
    click.echo(f"trained {schedule.steps} steps; train accuracy {final_acc:.4f}")


@main.command("occlusion-map")
@_common
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker threads for the scans.")
@click.argument("checkpoint_path", type=click.Path())
def cmd_occlusion_map(config_path, seed, out_dir, workers, checkpoint_path):
    """Aggregate occlusion map of a trained model over validation images."""
    cfg = ExperimentConfig.load(config_path, seed)
    val = cfg.dataset_splits()[2]
    spec = _occluder(cfg)
    loaded = _load_model(checkpoint_path)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = as_rng(cfg.seed)
    occ_map, info = occlusion.dataset_occlusion_map(
        loaded.model, val.images, spec, rng, stride=cfg.stride, limit=cfg.map_images,
        workers=workers)
    mean_acc, std = evaluation.map_accuracy_stats(occ_map)
    occlusion.save_map_csv(occ_map, out / "map.csv")
    save_pgm(occ_map.grid, out / "map.pgm")
    _write_json(out / "map_stats.json", {
        "mean_accuracy": mean_acc,
        "std": std,
        "sample_count": occ_map.sample_count,
        "excluded": info["excluded"],
        "occluder": [spec.height, spec.width],
        "stride": cfg.stride,
    })
    click.echo(f"map over {occ_map.sample_count} images "
               f"({info['excluded']} excluded); "
               f"mean accuracy {mean_acc:.4f}, std {std:.4f}")


@main.command("train-augmented")
@_common
@click.argument("base_checkpoint", type=click.Path())
@click.option("--map", "map_path", type=click.Path(), default=None,
              help="Occlusion map CSV (required for placement mode P).")
def cmd_train_augmented(config_path, seed, out_dir, base_checkpoint, map_path):
    """Continue classification training on occlusion-augmented batches."""
    cfg = ExperimentConfig.load(config_path, seed)
    train = cfg.dataset_splits()[1]
    schedule, mode = cfg.schedule, cfg.placement_mode
    spec = _occluder(cfg)
    loaded = _load_model(base_checkpoint)
    h, w = train.image_shape()

    if mode == "P":
        occ_map = occlusion.load_map_csv(cfg.map_path(map_path))
        if occ_map.grid.shape != (h, w):
            raise ConfigError(f"map shape {occ_map.grid.shape} does not match "
                              f"image shape {(h, w)}")
        placement = occlusion.placement_distribution(occ_map, cfg.temperature)
    else:
        placement = "random"

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = as_rng(cfg.seed)
    model = loaded.model.copy()
    rows = train_classifier(model, train, schedule, rng,
                            augment=occlusion.augmenter(cfg.occluded_fraction, placement, spec))
    _save_training(out, model, rng, cfg, {"stage": f"augmented-{mode}", "steps": schedule.steps,
                                          "loss_mode": "softmax_ce"}, CLASSIFIER_LOG, rows)
    click.echo(f"augmented fine-tuning done ({mode} placement, {schedule.steps} steps)")


@main.command("finetune-triplet")
@_common
@click.argument("base_checkpoint", type=click.Path())
def cmd_finetune_triplet(config_path, seed, out_dir, base_checkpoint):
    """Fine-tune the embedding with the standard or batch triplet objective."""
    cfg = ExperimentConfig.load(config_path, seed)
    train = cfg.dataset_splits()[1]
    loss_cfg, schedule = cfg.loss, cfg.finetune
    loaded = _load_model(base_checkpoint)
    loaded.model.bottleneck_dim()  # must expose a bottleneck layer

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = as_rng(cfg.seed)
    model = loaded.model.copy()
    model, rows = metric.finetune(model, train, loss_cfg, schedule, rng)
    _save_training(out, model, rng, cfg,
                   {"stage": f"triplet-{loss_cfg.mode}", "steps": schedule.steps,
                    "loss_mode": f"triplet_{loss_cfg.mode}"}, metric.FINETUNE_LOG_COLUMNS,
                   [[r[c] for c in metric.FINETUNE_LOG_COLUMNS] for r in rows])
    updates = sum(1 for r in rows if np.isfinite(r["loss"]))
    click.echo(f"fine-tuned with {loss_cfg.mode} triplet loss: "
               f"{updates}/{schedule.steps} update steps")


@main.command("evaluate")
@_common
@click.argument("checkpoint_path", type=click.Path())
@click.option("--pairs", "pairs_path", type=click.Path(), default=None,
              help="Pairs CSV (id_a,id_b,is_match); overrides config eval.pairs.")
def cmd_evaluate(config_path, seed, out_dir, checkpoint_path, pairs_path):
    """Score verification pairs; write ROC and k-fold accuracy reports."""
    cfg = ExperimentConfig.load(config_path, seed)
    full = cfg.dataset_splits()[0]
    k = cfg.eval.k
    source = cfg.eval_pairs_path(pairs_path)
    loaded = _load_model(checkpoint_path)
    pairs = evaluation.load_pairs_csv(source)
    resolved = evaluation.resolve_pairs(pairs, full)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scored = evaluation.score_pairs(loaded.model, resolved)
    curve = evaluation.roc(scored)
    report = evaluation.kfold_accuracy(scored, k)
    pos = [p.score for p in scored if p.is_match]
    neg = [p.score for p in scored if not p.is_match]
    decid = metric.decidability(pos, neg)

    _write_csv(out / "roc.csv", ["threshold", "far", "tar"],
               [(t, f, a) for t, (f, a) in zip(curve.thresholds, curve.points)])
    doc = evaluation.kfold_report_dict(report, k=k, decid=decid,
                                       num_pairs=len(scored))
    evaluation.validate_kfold_report(doc)
    _write_json(out / "kfold.json", doc)
    click.echo(f"k-fold accuracy {report.mean:.4f} +- {report.std:.4f} "
               f"(k={k}); AUC {curve.auc:.4f}; decidability {decid:.4f}")


@main.command("report")
@click.option("--out", "out_dir", required=True, type=click.Path(),
              help="Directory holding artifacts from earlier stages.")
@_exit_codes
def cmd_report(out_dir):
    """Render a human-readable summary of the artifacts in --out."""
    out = Path(out_dir)
    if not out.is_dir():
        raise ConfigError(f"{out} is not a directory")
    lines = ["experiment artifacts", "=" * 40]
    try:
        path = out / "map_stats.json"
        if path.is_file():
            doc = json.loads(path.read_text())
            lines += [
                "occlusion map",
                f"  occluder          {doc['occluder'][0]}x{doc['occluder'][1]}",
                f"  images used       {doc['sample_count']} ({doc['excluded']} excluded)",
                f"  mean accuracy     {doc['mean_accuracy'] * 100:.2f}%",
                f"  cell std          {doc['std']:.4f}",
            ]
        path = out / "kfold.json"
        if path.is_file():
            doc = json.loads(path.read_text())
            lines += [
                "verification",
                f"  pairs             {doc.get('num_pairs', '?')}",
                f"  k-fold accuracy   {doc['mean_accuracy'] * 100:.2f}% +- "
                f"{doc['std'] * 100:.2f}% (k={doc['k']})",
            ]
            if "decidability" in doc:
                lines.append(f"  decidability      {doc['decidability']:.4f}")
        path = out / "train_log.csv"
        if path.is_file():
            body_rows = path.read_text(encoding="utf-8").strip().splitlines()
            lines += ["training log", f"  steps logged      {max(len(body_rows) - 1, 0)}"]
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        # not UTF-8 or not JSON, or a field the report reads is missing or mistyped
        raise FormatError(f"{path}: malformed artifact ({type(exc).__name__}: {exc})") from exc
    if len(lines) == 2:
        lines.append("(no known artifacts found)")

    text = "\n".join(lines) + "\n"
    with atomic_write(out / "report.txt") as fh:
        fh.write(text)
    click.echo(text, nl=False)


if __name__ == "__main__":
    main()
