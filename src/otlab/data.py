"""Image ingestion and the synthetic labeled dataset.

The synthetic generator plants a per-class cue pattern inside a known
rectangle over a background shared by every class, so "which pixels carry
identity" has a ground truth that downstream sensitivity analysis can be
checked against.

PGM (binary P5, 8-bit) is the only image codec: bit-exact and dependency
free. Directory datasets follow ``<root>/<class_name>/<image>.pgm`` with
class names mapped to indices in sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import FormatError, StateError
from .validation import as_rng, check_rect, check_single_image


@dataclass(frozen=True)
class LabeledImage:
    pixels: np.ndarray          # (H, W) float64 in [0, 1]
    label: int
    id: str


@dataclass
class Dataset:
    images: list[LabeledImage]
    class_count: int
    split_tag: str = "train"
    _array_cache: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __len__(self):
        return len(self.images)

    def image_array(self) -> np.ndarray:
        """All pixels stacked to (N, H, W); cached."""
        if self._array_cache is None:
            self._array_cache = np.stack([im.pixels for im in self.images])
        return self._array_cache

    def label_array(self) -> np.ndarray:
        return np.array([im.label for im in self.images], dtype=np.int64)

    def ids(self) -> list[str]:
        return [im.id for im in self.images]

    def by_id(self) -> dict[str, LabeledImage]:
        return {im.id: im for im in self.images}

    def image_shape(self) -> tuple[int, int]:
        return self.images[0].pixels.shape if self.images else (0, 0)


# ------------------------------------------------------------------ PGM

def load_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM (P5, maxval 255) as float64 pixels in [0, 1]."""
    raw = Path(path).read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header")
        fields.append(raw[start:pos])
    pos += 1  # single whitespace byte separates maxval from payload

    if fields[0] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (magic {fields[0]!r}, expected P5)")
    try:
        width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    except ValueError as exc:
        raise FormatError(f"{path}: malformed PGM header") from exc
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval} (only 255)")
    payload = raw[pos:]
    if len(payload) != width * height:
        raise FormatError(f"{path}: payload has {len(payload)} bytes, "
                          f"expected {width * height}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return pixels.astype(np.float64) / 255.0


def save_pgm(pixels, path) -> None:
    """Write pixels in [0, 1] as a canonical binary PGM (values scaled by 255)."""
    pixels = check_single_image(pixels)
    levels = np.rint(np.clip(pixels, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = levels.shape
    with atomic_write(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(levels.tobytes())


def load_directory(root) -> Dataset:
    """Load ``<root>/<class_name>/<image>.pgm`` with sorted class names as labels."""
    root = Path(root)
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise FormatError(f"{root}: no class directories found")
    images = []
    for label, class_dir in enumerate(class_dirs):
        for pgm in sorted(class_dir.glob("*.pgm")):
            images.append(LabeledImage(pixels=load_pgm(pgm), label=label,
                                       id=f"{class_dir.name}/{pgm.stem}"))
    return Dataset(images=images, class_count=len(class_dirs))


# ------------------------------------------------------- synthetic data

@dataclass(frozen=True)
class SyntheticSpec:
    class_count: int = 10
    samples_per_class: int = 100
    image_size: int = 32
    cue_region: tuple[int, int, int, int] | None = None  # (top, left, h, w)
    cue_strength: float = 0.8
    background_noise_sigma: float = 0.05
    seed: int = 0

    def resolved_cue_region(self) -> tuple[int, int, int, int]:
        """Default cue: a centered block spanning ~3/8 of each dimension."""
        if self.cue_region is not None:
            return check_rect(self.cue_region, (self.image_size, self.image_size),
                              name="cue_region")
        side = max(int(round(self.image_size * 0.375)), 1)
        top = (self.image_size - side) // 2
        return (top, top, side, side)

    @classmethod
    def from_config(cls, cfg: dict) -> "SyntheticSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(cfg) - known
        if unknown:
            raise ValueError(f"unknown synthetic spec fields: {sorted(unknown)}")
        if "cue_region" in cfg and cfg["cue_region"] is not None:
            cfg = dict(cfg, cue_region=tuple(int(v) for v in cfg["cue_region"]))
        return cls(**cfg)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Render the synthetic dataset; bit-identical for a given spec.

    Per image: shared background texture, the class cue blended in at
    ``cue_strength`` contrast, then per-image Gaussian pixel noise, clipped
    to [0, 1]. Draw order (background, all class cues, then per-image noise)
    is fixed so determinism holds even when the cue is unused.
    """
    if spec.class_count < 1 or spec.samples_per_class < 2:
        raise ValueError("need at least one class and two samples per class")
    if not 0.0 <= spec.cue_strength <= 1.0:
        raise ValueError("cue_strength must lie in [0, 1]")
    if spec.background_noise_sigma < 0:
        raise ValueError("background_noise_sigma must be nonnegative")
    top, left, ch, cw = spec.resolved_cue_region()

    rng = as_rng(spec.seed)
    size = spec.image_size
    background = 0.35 + 0.3 * rng.random((size, size))
    cues = rng.random((spec.class_count, ch, cw))

    images = []
    for label in range(spec.class_count):
        base = background.copy()
        region = base[top:top + ch, left:left + cw]
        base[top:top + ch, left:left + cw] = (
            (1.0 - spec.cue_strength) * region + spec.cue_strength * cues[label]
        )
        for idx in range(spec.samples_per_class):
            noisy = base + rng.normal(0.0, spec.background_noise_sigma, size=(size, size)) \
                if spec.background_noise_sigma > 0 else base.copy()
            pixels = np.clip(noisy, 0.0, 1.0)
            images.append(LabeledImage(pixels=pixels, label=label,
                                       id=f"c{label:02d}/s{idx:03d}"))
    return Dataset(images=images, class_count=spec.class_count)


# ------------------------------------------------------------- splitting

def split(dataset: Dataset, val_fraction: float, seed) -> tuple[Dataset, Dataset]:
    """Stratified train/val split, deterministic per seed, disjoint ids."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie strictly between 0 and 1")
    rng = as_rng(seed)
    by_class: dict[int, list[int]] = {}
    for i, im in enumerate(dataset.images):
        by_class.setdefault(im.label, []).append(i)

    train_idx: list[int] = []
    val_idx: list[int] = []
    for label in sorted(by_class):
        members = by_class[label]
        if len(members) < 2:
            raise ValueError(f"class {label} has {len(members)} samples; "
                             "need at least 2 to split")
        n_val = int(round(val_fraction * len(members)))
        n_val = min(n_val, len(members) - 2)  # keep >= 2 train samples per class
        order = rng.permutation(len(members))
        val_idx += [members[j] for j in order[:n_val]]
        train_idx += [members[j] for j in order[n_val:]]

    train = Dataset(images=[dataset.images[i] for i in sorted(train_idx)],
                    class_count=dataset.class_count, split_tag="train")
    val = Dataset(images=[dataset.images[i] for i in sorted(val_idx)],
                  class_count=dataset.class_count, split_tag="val")
    return train, val


def batches(dataset: Dataset, batch_size: int, rng):
    """Yield (images, labels, ids) batches for one seeded-permutation epoch.

    The final short batch is kept. Passing the same Generator across epochs
    advances its state, so a multi-epoch run is reproducible from one seed.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if len(dataset) == 0:
        raise StateError("cannot iterate batches over an empty dataset")
    rng = as_rng(rng)
    order = rng.permutation(len(dataset))
    images = dataset.image_array()
    labels = dataset.label_array()
    ids = dataset.ids()
    for start in range(0, len(order), batch_size):
        chunk = order[start:start + batch_size]
        yield images[chunk], labels[chunk], [ids[i] for i in chunk]
