"""Image ingestion and the synthetic labeled dataset.

The synthetic generator plants a per-class cue pattern inside a known
rectangle over a background shared by every class, so "which pixels carry
identity" has a ground truth that downstream sensitivity analysis can be
checked against.

A :class:`Dataset` is its arrays, one row per image, and every stage reads
it by row: ``Dataset.take`` copies rows out (a split, half a validation
set) and ``Dataset.image`` views one row as a :class:`LabeledImage`.

PGM (binary P5, 8-bit) is the only image codec: bit-exact and dependency
free. Directory datasets follow ``<root>/<class_name>/<image>.pgm`` with
class names mapped to indices in sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import FormatError, StateError
from .validation import as_rng, at_least, check_rect, check_single_image, from_section


@dataclass(frozen=True)
class LabeledImage:
    pixels: np.ndarray          # (H, W) float64 in [0, 1]
    label: int
    id: str


@dataclass(frozen=True)
class Dataset:
    """A labeled image set: row ``i`` is image ``pixels[i]`` with class
    ``labels[i]`` and name ``ids[i]``."""

    pixels: np.ndarray          # (N, H, W) float64 in [0, 1]
    labels: np.ndarray          # (N,) int64
    ids: tuple[str, ...]
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "pixels", np.asarray(self.pixels, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "ids", tuple(self.ids))
        if self.pixels.ndim != 3:
            raise ValueError(f"pixels must have shape (N, H, W), got {self.pixels.shape}")
        n = len(self.pixels)
        if self.labels.shape != (n,) or len(self.ids) != n:
            raise ValueError(f"{n} images need {n} labels and {n} ids, got labels of "
                             f"shape {self.labels.shape} and {len(self.ids)} ids")

    def __len__(self):
        return len(self.ids)

    def image_shape(self) -> tuple[int, int]:
        return self.pixels.shape[1:]

    def take(self, rows) -> "Dataset":
        """The images at ``rows``, in that order, in a dataset that owns a copy
        of their pixels."""
        rows = np.asarray(rows, dtype=np.intp)
        return Dataset(pixels=self.pixels[rows], labels=self.labels[rows],
                       ids=[self.ids[i] for i in rows], class_count=self.class_count)

    def image(self, i: int) -> LabeledImage:
        """Image ``i``; its ``pixels`` is a view of this dataset's."""
        return LabeledImage(pixels=self.pixels[i], label=int(self.labels[i]), id=self.ids[i])


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
    if width < 1 or height < 1:
        raise FormatError(f"{path}: image size {width}x{height} is not positive")
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
    pixels, labels, ids, first = [], [], [], None
    for label, class_dir in enumerate(class_dirs):
        for pgm in sorted(class_dir.glob("*.pgm")):
            image = load_pgm(pgm)
            first = first or (pgm, image.shape)
            if image.shape != first[1]:
                raise FormatError(f"{pgm}: image shape {image.shape} differs from "
                                  f"{first[0]}'s {first[1]}")
            pixels.append(image)
            labels.append(label)
            ids.append(f"{class_dir.name}/{pgm.stem}")
    if not pixels:
        raise FormatError(f"{root}: no .pgm images in its class directories")
    return Dataset(pixels=np.stack(pixels), labels=labels, ids=ids,
                   class_count=len(class_dirs))


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

    def __post_init__(self):
        at_least(1, class_count=self.class_count, image_size=self.image_size)
        at_least(2, samples_per_class=self.samples_per_class)
        at_least(0, background_noise_sigma=self.background_noise_sigma, seed=self.seed)
        if not 0.0 <= self.cue_strength <= 1.0:
            raise ValueError("cue_strength must lie in [0, 1]")
        if self.cue_region is not None:
            check_rect(self.cue_region, (self.image_size, self.image_size), name="cue_region")

    def resolved_cue_region(self) -> tuple[int, int, int, int]:
        """Default cue: a centered block spanning ~3/8 of each dimension."""
        if self.cue_region is not None:
            return self.cue_region
        side = max(int(round(self.image_size * 0.375)), 1)
        top = (self.image_size - side) // 2
        return (top, top, side, side)

    @classmethod
    def from_config(cls, cfg: dict) -> "SyntheticSpec":
        return from_section(cls, cfg, "dataset.synthetic")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Render the synthetic dataset; bit-identical for a given spec.

    Per image: shared background texture, the class cue blended in at
    ``cue_strength`` contrast, then per-image Gaussian pixel noise, clipped
    to [0, 1]. Draw order (background, all class cues, then per-image noise,
    one draw per class covering its images in order) is fixed so determinism
    holds even when the cue is unused. Images are rendered straight into
    the dataset's (N, H, W) ``pixels``; image ``i`` has label
    ``i // samples_per_class`` and id ``c<label>/s<i % samples_per_class>``.
    """
    top, left, ch, cw = spec.resolved_cue_region()

    rng = as_rng(spec.seed)
    size, count = spec.image_size, spec.samples_per_class
    background = 0.35 + 0.3 * rng.random((size, size))
    cues = rng.random((spec.class_count, ch, cw))

    pixels = np.empty((spec.class_count * count, size, size))
    for label in range(spec.class_count):
        base = background.copy()
        region = base[top:top + ch, left:left + cw]
        base[top:top + ch, left:left + cw] = (
            (1.0 - spec.cue_strength) * region + spec.cue_strength * cues[label]
        )
        block = pixels[label * count:(label + 1) * count]
        if spec.background_noise_sigma > 0:
            np.add(base, rng.normal(0.0, spec.background_noise_sigma, size=block.shape), out=block)
        else:
            block[:] = base
        np.clip(block, 0.0, 1.0, out=block)
    return Dataset(pixels=pixels, labels=np.repeat(np.arange(spec.class_count), count),
                   ids=[f"c{i // count:02d}/s{i % count:03d}" for i in range(len(pixels))],
                   class_count=spec.class_count)


# ------------------------------------------------------------- splitting

def split(dataset: Dataset, val_fraction: float, seed) -> tuple[Dataset, Dataset]:
    """Stratified train/val split, deterministic per seed, disjoint ids.

    Each part keeps ``dataset``'s row order and is a ``Dataset.take``, so it
    owns a copy of its pixels and keeps no reference to ``dataset``'s.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie strictly between 0 and 1")
    rng = as_rng(seed)
    val = np.zeros(len(dataset), dtype=bool)
    for label in np.unique(dataset.labels):
        members = np.flatnonzero(dataset.labels == label)
        if len(members) < 2:
            raise ValueError(f"class {label} has {len(members)} samples; "
                             "need at least 2 to split")
        n_val = int(round(val_fraction * len(members)))
        n_val = min(n_val, len(members) - 2)  # keep >= 2 train samples per class
        order = rng.permutation(len(members))
        val[members[order[:n_val]]] = True
    return dataset.take(np.flatnonzero(~val)), dataset.take(np.flatnonzero(val))


def batches(dataset: Dataset, batch_size: int, rng):
    """Yield (images, labels, rows) batches for one seeded-permutation epoch.

    ``rows`` is the batch's slice of the permutation: the dataset rows of its
    (N, H, W) ``images`` and (N,) ``labels``. The final short batch is kept.
    Passing the same Generator across epochs advances its state, so a
    multi-epoch run is reproducible from one seed.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if len(dataset) == 0:
        raise StateError("cannot iterate batches over an empty dataset")
    order = as_rng(rng).permutation(len(dataset))
    for start in range(0, len(order), batch_size):
        rows = order[start:start + batch_size]
        yield dataset.pixels[rows], dataset.labels[rows], rows
