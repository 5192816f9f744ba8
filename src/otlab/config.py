"""Experiment configuration: one JSON document drives every CLI stage.

Dataset identity (synthetic spec seed, split seed) is separate from the
run seed passed via ``--seed``/``"seed"``: stages of one experiment share
the same dataset while varying training randomness.

The document is read into :class:`ExperimentConfig`, whose fields are its
top-level keys, by one :func:`~otlab.validation.from_section` call; each
object in it is read into its own dataclass, which owns each key's type,
default and range. A key that no dataclass declares is refused at every
level, so a malformed config fails at load, before any stage runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .data import Dataset, SyntheticSpec, generate_synthetic, load_directory, split
from .engine.model import default_architecture, layer_from_config, plan_layers
from .engine.train import Schedule
from .errors import ConfigError
from .metric import FinetuneSchedule, LossConfig
from .occlusion import OccluderSpec
from .validation import at_least, from_section


def _input_file(path, name: str) -> Path:
    """``path`` if it names an existing file; ConfigError names ``name``."""
    if not Path(path).is_file():
        raise ConfigError(f"{name} {path} is not a file")
    return Path(path)


@dataclass(frozen=True)
class DatasetSection:
    """``dataset``: a synthetic spec or a ``<root>/<class>/<image>.pgm`` tree.
    ``split_seed`` defaults to the synthetic seed, or 0 for a directory."""

    synthetic: SyntheticSpec | None = None
    path: Path | None = None
    split_seed: int | None = None

    def __post_init__(self):
        if (self.synthetic is None) == (self.path is None):
            raise ValueError('needs exactly one of "synthetic" and "path"')
        if self.split_seed is not None:
            at_least(0, split_seed=self.split_seed)


@dataclass(frozen=True)
class EvalSection:
    """``eval``: folds of the k-fold accuracy and the pairs CSV."""

    k: int = 10
    pairs: Path | None = None

    def __post_init__(self):
        at_least(2, k=self.k)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSection
    seed: int | None = None
    val_fraction: float = 0.1
    model: dict | None = None       # None: the default architecture
    bottleneck: int = 32
    schedule: Schedule = field(default_factory=Schedule)
    occluder: OccluderSpec | None = None
    temperature: float = 0.4
    stride: int = 1
    map_images: int = 1000
    placement_mode: str = "P"
    occluded_fraction: float = 0.5
    map: Path | None = None
    loss: LossConfig = field(default_factory=LossConfig)
    finetune: FinetuneSchedule = field(default_factory=FinetuneSchedule)
    eval: EvalSection = field(default_factory=EvalSection)

    def __post_init__(self):
        if self.seed is None:
            raise ValueError('a seed is required (config "seed" or --seed)')
        at_least(0, seed=self.seed)
        at_least(1, bottleneck=self.bottleneck, stride=self.stride, map_images=self.map_images)
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie strictly between 0 and 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.placement_mode not in ("P", "R"):
            raise ValueError('placement_mode must be "P" (map-guided) or "R" (random)')
        if not 0.0 < self.occluded_fraction <= 1.0:
            raise ValueError("occluded_fraction must lie in (0, 1]")
        if self.model is not None:
            if not ("input" in self.model and isinstance(self.model.get("layers"), list)):
                raise ValueError('model must contain "input" and a "layers" list')
            unknown = set(self.model) - {"input", "layers"}
            if unknown:
                raise ValueError(f"unknown model fields: {sorted(unknown)}")
            plan_layers(self.model["input"],
                        [layer_from_config(layer) for layer in self.model["layers"]])

    @classmethod
    def load(cls, path, seed_override: int | None = None) -> "ExperimentConfig":
        """The config at ``path``; ``seed_override`` (``--seed``) replaces its seed."""
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
        if seed_override is not None:
            raw["seed"] = seed_override
        return from_section(cls, raw, "")

    def dataset_splits(self) -> tuple[Dataset, Dataset, Dataset]:
        """(full, train, val); deterministic from the dataset spec alone.

        The splits own their pixels (``data.split``), so a caller that keeps
        only a split lets the full dataset's array be freed."""
        section = self.dataset
        if section.synthetic is not None:
            full, split_seed = generate_synthetic(section.synthetic), section.synthetic.seed
        else:
            if not section.path.is_dir():
                raise ConfigError(f"dataset path {section.path} is not a directory")
            full, split_seed = load_directory(section.path), 0
        if section.split_seed is not None:
            split_seed = section.split_seed
        try:
            train, val = split(full, self.val_fraction, split_seed)
        except ValueError as exc:
            raise ConfigError(f"cannot split dataset: {exc}") from exc
        return full, train, val

    def model_config(self, dataset: Dataset) -> dict:
        if self.model is not None:
            return self.model
        h, w = dataset.image_shape()
        if h != w:
            raise ConfigError("default architecture expects square images; "
                              'provide an explicit "model" section')
        return default_architecture(h, dataset.class_count, bottleneck=self.bottleneck)

    def map_path(self, override=None) -> Path:
        """The map CSV of placement mode P: ``override`` (``--map``), else config "map"."""
        source = override if override is not None else self.map
        if source is None:
            raise ConfigError('placement mode P needs --map (or config "map")')
        return _input_file(source, "map")

    def eval_pairs_path(self, override=None) -> Path:
        if override is not None:
            return _input_file(override, "pairs")
        if self.eval.pairs is None:
            raise ConfigError('config needs "eval.pairs" (or pass --pairs)')
        return _input_file(self.eval.pairs, "eval.pairs")
