"""The three benchmark workloads: inputs, CLI stages, and output checks.

Every input is generated from the workload seed: it fixes the synthetic
dataset, the run seed in each config, and the pairs sample. The program
only ever sees configs, a map CSV, a pairs CSV and checkpoints.

* ``classify`` trains from scratch, then continues with map-guided
  occlusion augmentation. No inference scan and no triplet work, so it is
  the bypass workload for scan and metric changes and the engine's
  training-path user at batch 32.
* ``scan`` runs ``occlusion-map`` at stride 1 with a 6x6 and a 13x13
  occluder: ~1024 tape-free forwards per image in chunks of 256, with
  very different flip rates at the two sizes.
* ``verify`` fine-tunes with the batch triplet loss on all 25,088 triplets
  of a 64-image pool (``online: false``; on a trained base online mining
  finds no violators and every step would be skipped), then scores pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from otlab.config import ExperimentConfig
from otlab.data import SyntheticSpec
from otlab.engine.checkpoint import read_checkpoint
from otlab.evaluation import make_verification_pairs, save_pairs_csv, validate_kfold_report
from otlab.occlusion import (
    OcclusionMap,
    load_map_csv,
    point_in_rect,
    save_map_csv,
    top_decile_centroid,
)

BASE_STEPS = 150          # trained base for scan and verify
CLASSIFY_STEPS = 60       # each of train-classifier and train-augmented
MAP_IMAGES = 4            # validation images per occlusion map
SMALL, LARGE = 6, 13      # occluder sides: 20% and 40% of a 32-pixel image
FINETUNE_STEPS = 10
EVAL_PAIRS = 2000
CKPT = "checkpoint.otl"
# Training learning rate. At the default 0.05 (momentum 0.9) training from
# scratch dies on some seeds (e.g. 1977669897: every ReLU dead, chance
# accuracy, constant embeddings, so evaluate has no decidability); 0.02 trains
# those seeds too and leaves the cost of a step unchanged.
TRAIN_LR = 0.02


@dataclass(frozen=True)
class Stage:
    label: str              # e.g. "train-classifier"
    args: list[str]         # argv for otlab.cli.main


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def _base_config(seed: int, steps: int) -> dict:
    return {"seed": seed, "dataset": {"synthetic": {"seed": seed}},
            "schedule": {"steps": steps, "batch_size": 32, "lr": TRAIN_LR}}


def _readable_checkpoint(path: Path) -> Check:
    try:
        read_checkpoint(path)
    except (OSError, ValueError) as exc:
        return Check(f"checkpoint reads back: {path.parent.name}", False, str(exc))
    return Check(f"checkpoint reads back: {path.parent.name}", True)


def _unit_map(path: Path) -> tuple[OcclusionMap | None, Check]:
    name = f"map loads with cells in [0, 1]: {path.parent.name}"
    try:
        occ = load_map_csv(path)
    except (OSError, ValueError) as exc:
        return None, Check(name, False, str(exc))
    ok = bool(np.all(np.isfinite(occ.grid)) and occ.grid.min() >= 0.0 and occ.grid.max() <= 1.0)
    return occ, Check(name, ok)


class Workload:
    name = ""
    stage1: tuple[str, str] = ("", "")    # (specific metric name, unit)
    stage2: tuple[str, str] = ("", "")

    def setup(self, root: Path, seed: int, cli) -> dict:
        """Write the inputs under ``root``; ``cli(args) -> (code, output)``."""
        raise NotImplementedError

    def stages(self, ctx: dict, out: Path) -> list[Stage]:
        raise NotImplementedError

    def items(self, ctx: dict, out: Path) -> list[int]:
        """Work done by each stage: steps, images or pairs."""
        raise NotImplementedError

    def checks(self, ctx: dict, out: Path) -> list[Check]:
        raise NotImplementedError

    def quality(self, ctx: dict, out: Path, outputs: list[str]) -> dict:
        return {}


def _train_base(root: Path, cfg_path: Path, cli) -> Path:
    code, output = cli(["train-classifier", "--config", str(cfg_path),
                        "--out", str(root / "base")])
    if code != 0:
        raise RuntimeError(f"set-up training failed (exit {code}): {output.strip()}")
    return root / "base" / CKPT


class Classify(Workload):
    name = "classify"
    stage1 = ("train_steps_per_s", "steps/s")
    stage2 = ("augment_steps_per_s", "steps/s")

    def setup(self, root, seed, cli):
        cfg = dict(_base_config(seed, CLASSIFY_STEPS),
                   occluder={"height": SMALL, "width": SMALL}, temperature=0.25,
                   placement_mode="P", occluded_fraction=0.5)
        cfg_path = _write_json(root / "config.json", cfg)
        _full, train, _val = ExperimentConfig.load(cfg_path).dataset_splits()
        # Ground-truth map: 1 on the planted cue, 0 elsewhere. Needs no model.
        spec = SyntheticSpec.from_config(cfg["dataset"]["synthetic"])
        top, left, h, w = spec.resolved_cue_region()
        grid = np.zeros(train.image_shape())
        grid[top:top + h, left:left + w] = 1.0
        save_map_csv(OcclusionMap(grid=grid, sample_count=1, occluder_shape=(0, 0)),
                     root / "truth_map.csv")
        return {"config": cfg_path, "map": root / "truth_map.csv"}

    def stages(self, ctx, out):
        cfg = str(ctx["config"])
        return [
            Stage("train-classifier", ["train-classifier", "--config", cfg,
                                       "--out", str(out / "classifier")]),
            Stage("train-augmented", ["train-augmented", "--config", cfg,
                                      "--out", str(out / "augmented"),
                                      str(out / "classifier" / CKPT),
                                      "--map", str(ctx["map"])]),
        ]

    def items(self, ctx, out):
        return [CLASSIFY_STEPS, CLASSIFY_STEPS]

    def checks(self, ctx, out):
        return [_readable_checkpoint(out / d / CKPT) for d in ("classifier", "augmented")]

    def quality(self, ctx, out, outputs):
        # "trained N steps; train accuracy 0.9870"
        return {"train_accuracy": float(outputs[0].split("train accuracy")[-1].split()[0])}


class Scan(Workload):
    name = "scan"
    stage1 = ("map_small_images_per_s", "images/s")
    stage2 = ("map_large_images_per_s", "images/s")

    def setup(self, root, seed, cli):
        paths = {}
        for size, side in (("small", SMALL), ("large", LARGE)):
            cfg = dict(_base_config(seed, BASE_STEPS), occluder={"height": side, "width": side},
                       stride=1, map_images=MAP_IMAGES)
            paths[size] = _write_json(root / f"config_{size}.json", cfg)
        cue = SyntheticSpec.from_config({"seed": seed}).resolved_cue_region()
        return {"config_small": paths["small"], "config_large": paths["large"],
                "base": _train_base(root, paths["small"], cli), "cue": cue}

    def stages(self, ctx, out):
        return [
            Stage(f"occlusion-map {size}", ["occlusion-map", "--config", str(ctx[f"config_{size}"]),
                                             "--out", str(out / f"map_{size}"), str(ctx["base"])])
            for size in ("small", "large")
        ]

    def items(self, ctx, out):
        return [json.loads((out / f"map_{size}" / "map_stats.json").read_text())["sample_count"]
                for size in ("small", "large")]

    def checks(self, ctx, out):
        checks = [_readable_checkpoint(ctx["base"])]
        _small, check = _unit_map(out / "map_small" / "map.csv")
        checks.append(check)
        large, check = _unit_map(out / "map_large" / "map.csv")
        checks.append(check)
        if large is not None:
            centroid = top_decile_centroid(large)
            checks.append(Check("large map flips some cell", bool(large.grid.max() > 0.0)))
            checks.append(Check("large map top-decile centroid inside the cue",
                                point_in_rect(centroid, ctx["cue"]),
                                f"centroid {centroid}, cue {ctx['cue']}"))
        return checks

    def quality(self, ctx, out, outputs):
        out_q = {}
        for size in ("small", "large"):
            stats = json.loads((out / f"map_{size}" / "map_stats.json").read_text())
            out_q[f"map_{size}_flip_frac"] = 1.0 - stats["mean_accuracy"]
        return out_q


class Verify(Workload):
    name = "verify"
    stage1 = ("finetune_steps_per_s", "steps/s")
    stage2 = ("eval_pairs_per_s", "pairs/s")

    def setup(self, root, seed, cli):
        cfg = dict(_base_config(seed, BASE_STEPS),
                   loss={"mode": "batch", "alpha": 0.5, "beta": 0.7, "online": False},
                   finetune={"steps": FINETUNE_STEPS, "lr": 0.005,
                             "pool_classes": 8, "pool_per_class": 8},
                   eval={"k": 10})
        cfg_path = _write_json(root / "config.json", cfg)
        full, _train, _val = ExperimentConfig.load(cfg_path).dataset_splits()
        pairs = make_verification_pairs(full, EVAL_PAIRS // 2, EVAL_PAIRS - EVAL_PAIRS // 2,
                                        np.random.default_rng(seed))
        save_pairs_csv(pairs, root / "pairs.csv")
        return {"config": cfg_path, "pairs": root / "pairs.csv",
                "base": _train_base(root, cfg_path, cli)}

    def stages(self, ctx, out):
        cfg = str(ctx["config"])
        return [
            Stage("finetune-triplet", ["finetune-triplet", "--config", cfg,
                                       "--out", str(out / "finetune"), str(ctx["base"])]),
            Stage("evaluate", ["evaluate", "--config", cfg, "--out", str(out / "evaluate"),
                               "--pairs", str(ctx["pairs"]), str(out / "finetune" / CKPT)]),
        ]

    def items(self, ctx, out):
        return [FINETUNE_STEPS, EVAL_PAIRS]

    def checks(self, ctx, out):
        checks = [_readable_checkpoint(ctx["base"]), _readable_checkpoint(out / "finetune" / CKPT)]
        try:
            doc = validate_kfold_report(json.loads((out / "evaluate" / "kfold.json").read_text()))
            checks.append(Check("kfold.json passes validate_kfold_report", True))
            checks.append(Check("decidability is finite",
                                math.isfinite(doc.get("decidability", math.nan))))
        except (OSError, ValueError) as exc:
            checks.append(Check("kfold.json passes validate_kfold_report", False, str(exc)))
        log = (out / "finetune" / "train_log.csv").read_text().splitlines()[1:]
        updates = sum(1 for row in log if math.isfinite(float(row.split(",")[1])))
        checks.append(Check("fine-tune log has an update step", updates >= 1,
                            f"{updates} update steps"))
        return checks

    def quality(self, ctx, out, outputs):
        doc = json.loads((out / "evaluate" / "kfold.json").read_text())
        return {"decidability": doc["decidability"], "kfold_accuracy": doc["mean_accuracy"]}


WORKLOADS = {w.name: w for w in (Classify(), Scan(), Verify())}
