"""Experiment configuration: one JSON document drives every CLI stage.

Dataset identity (synthetic spec seed, split seed) is separate from the
run seed passed via ``--seed``/``"seed"``: stages of one experiment share
the same dataset while varying training randomness.

Object sections are read into their dataclasses, which own each key's type,
default and range, by :func:`~otlab.validation.from_section`; a key that the
dataclass does not declare is refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .data import Dataset, SyntheticSpec, generate_synthetic, load_directory, split
from .engine.model import default_architecture
from .engine.train import Schedule
from .errors import ConfigError, FormatError
from .metric import FinetuneSchedule, LossConfig
from .occlusion import OccluderSpec
from .validation import as_number, from_section


def _int(section: dict, key: str, default, where: str = "") -> int:
    """``section[key]`` (or ``default``) as an int; ConfigError names the field."""
    return as_number(section.get(key, default), where + key, integer=True)


def _float(section: dict, key: str, default, where: str = "") -> float:
    """``section[key]`` (or ``default``) as a finite float; ConfigError names the field."""
    return as_number(section.get(key, default), where + key)


def _input_file(value, name: str) -> Path:
    """``value`` as the path of an existing file; ConfigError names ``name``."""
    if not isinstance(value, (str, Path)):
        raise ConfigError(f"{name} must be a file path, got {value!r}")
    if not Path(value).is_file():
        raise ConfigError(f"{name} {value} is not a file")
    return Path(value)


@dataclass
class ExperimentConfig:
    raw: dict
    seed: int

    @classmethod
    def load(cls, path, seed_override: int | None = None) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        seed = seed_override if seed_override is not None else raw.get("seed")
        if seed is None:
            raise ConfigError("a seed is required (config \"seed\" or --seed)")
        seed = as_number(seed, "seed", integer=True)
        if seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")
        return cls(raw=raw, seed=seed)

    def _section(self, key: str) -> dict:
        section = self.raw.get(key, {})
        if not isinstance(section, dict):
            raise ConfigError(f'"{key}" must be a JSON object, got {section!r}')
        return section

    # ------------------------------------------------------------ pieces

    def dataset_splits(self) -> tuple[Dataset, Dataset, Dataset]:
        """(full, train, val); deterministic from the dataset spec alone."""
        section = self.raw.get("dataset")
        if not isinstance(section, dict):
            raise ConfigError('config needs a "dataset" object '
                              '({"synthetic": {...}} or {"path": "..."})')
        val_fraction = _float(self.raw, "val_fraction", 0.1)
        if "synthetic" in section:
            spec = SyntheticSpec.from_config(section["synthetic"])
            try:
                full = generate_synthetic(spec)
            except ValueError as exc:
                raise ConfigError(f"invalid synthetic dataset spec: {exc}") from exc
            split_seed = _int(section, "split_seed", spec.seed, "dataset.")
        elif "path" in section:
            root = Path(section["path"])
            if not root.is_dir():
                raise ConfigError(f"dataset path {root} is not a directory")
            try:
                full = load_directory(root)
            except FormatError as exc:
                raise ConfigError(str(exc)) from exc
            split_seed = _int(section, "split_seed", 0, "dataset.")
        else:
            raise ConfigError('dataset must contain "synthetic" or "path"')
        try:
            train, val = split(full, val_fraction, split_seed)
        except ValueError as exc:
            raise ConfigError(f"cannot split dataset: {exc}") from exc
        return full, train, val

    def model_config(self, dataset: Dataset) -> dict:
        if "model" in self.raw and self.raw["model"] is not None:
            cfg = self.raw["model"]
            if not isinstance(cfg, dict) or "input" not in cfg or "layers" not in cfg:
                raise ConfigError('"model" must contain "input" and "layers"')
            return cfg
        h, w = dataset.image_shape()
        if h != w:
            raise ConfigError("default architecture expects square images; "
                              'provide an explicit "model" section')
        return default_architecture(h, dataset.class_count,
                                    bottleneck=_int(self.raw, "bottleneck", 32))

    def schedule(self) -> Schedule:
        return from_section(Schedule, self.raw.get("schedule", {}), "schedule")

    def occluder(self) -> OccluderSpec:
        if self.raw.get("occluder") is None:
            raise ConfigError('config needs an "occluder" object for this command')
        return from_section(OccluderSpec, self.raw["occluder"], "occluder")

    def temperature(self) -> float:
        t = _float(self.raw, "temperature", 0.4)
        if t <= 0:
            raise ConfigError("temperature must be positive")
        return t

    def stride(self) -> int:
        s = _int(self.raw, "stride", 1)
        if s < 1:
            raise ConfigError("stride must be at least 1")
        return s

    def map_images(self) -> int:
        n = _int(self.raw, "map_images", 1000)
        if n < 1:
            raise ConfigError("map_images must be at least 1")
        return n

    def placement_mode(self) -> str:
        mode = self.raw.get("placement_mode", "P")
        if mode not in ("P", "R"):
            raise ConfigError('placement_mode must be "P" (map-guided) or "R" (random)')
        return mode

    def occluded_fraction(self) -> float:
        f = _float(self.raw, "occluded_fraction", 0.5)
        if not 0.0 < f <= 1.0:
            raise ConfigError("occluded_fraction must lie in (0, 1]")
        return f

    def loss(self) -> LossConfig:
        return from_section(LossConfig, self.raw.get("loss", {}), "loss")

    def finetune_schedule(self) -> FinetuneSchedule:
        return from_section(FinetuneSchedule, self.raw.get("finetune", {}), "finetune")

    def eval_k(self) -> int:
        k = _int(self._section("eval"), "k", 10, "eval.")
        if k < 2:
            raise ConfigError("eval.k must be at least 2")
        return k

    def map_path(self, override=None) -> Path:
        """The map CSV of placement mode P: ``override`` (``--map``), else config "map"."""
        source = override if override is not None else self.raw.get("map")
        if source is None:
            raise ConfigError('placement mode P needs --map (or config "map")')
        return _input_file(source, "map")

    def eval_pairs_path(self, override=None) -> Path:
        if override is not None:
            return _input_file(override, "pairs")
        section = self._section("eval")
        if "pairs" not in section:
            raise ConfigError('config needs "eval.pairs" (or pass --pairs)')
        return _input_file(section["pairs"], "eval.pairs")
