"""Occluder synthesis, occlusion maps, and guided augmentation.

The sensitivity probe works on classification error: slide an occluding
patch over every location of a correctly-classified image, mark the
locations whose occlusion flips the prediction (binary map), average the
binary maps over many images (aggregate map), and turn the aggregate into
an occluder placement distribution with a temperature softmax. Training
batches are then augmented with occluders sampled from that distribution,
or from a center-weighted normal for the unguided baseline scheme.

Patch anchoring: a patch of size (h, w) "centered" at (i, j) occupies rows
[i - floor(h/2), i + ceil(h/2) - 1] and columns likewise, clipped to the
image. For odd sizes this is the symmetric window; for even sizes the
extra cell falls on the low side.

Scans are incremental (the exact mode of Krypton, Nakandala et al., SIGMOD
2019). The spatial layers run once on the clean image. Per position, the
first row lo the patch changes and a bound s on how many rows it changes
(columns alike) are mapped through the layers: conv with kernel k and
padding p gives lo - (k - 1) + p and s + k - 1; relu keeps both; max-pool
with window w gives lo // w and (s + w - 2) // w + 1, the most pooled cells
s consecutive inputs can reach (inputs in the cropped tail reach none).
Each layer recomputes the window [lo, lo + s), clipped to its output and
moved inward at the far border, from its clean input with the previous
window spliced in, using the same kernels as a full forward; the last
window is spliced into the clean features and the dense head walks them in
the same ``INFERENCE_ROWS``-row blocks as a full forward. Each recomputed value thus
has the same inputs and kernel as in the full forward, and the logits are
bit-identical to it wherever the BLAS rounds a GEMM row independently of
the call's other rows (true for the default net; where it is not, the full
forward itself changes in the last bits with its batch size).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atomic import atomic_write
from .data import LabeledImage, save_pgm
from .engine.model import Conv, Model, Relu, apply_layer, forward, walk_blocks
from .errors import FormatError, ProtocolError
from .validation import as_number, as_rng, check_finite

NOISE_MODELS = ("none", "salt_pepper", "speckle", "gaussian", "random")

# level ranges used when a spec leaves the noise level unset
_DEFAULT_LEVEL_RANGES = {
    "salt_pepper": (0.05, 0.3),
    "speckle": (0.1, 0.5),
    "gaussian": (0.05, 0.2),
}

# temperatures paired with the small/medium/large default occluders
DEFAULT_TEMPERATURES = {"small": 0.25, "medium": 0.4, "large": 0.6}


@dataclass(frozen=True)
class OccluderSpec:
    height: int
    width: int
    intensity_range: tuple[float, float] = (0.0, 1.0)
    noise_model: str = "random"
    noise_level: float | None = None

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError("occluder must be at least 1x1")
        lo, hi = self.intensity_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError(f"intensity_range must satisfy 0 <= lo <= hi <= 1, got {self.intensity_range}")
        if self.noise_model not in NOISE_MODELS:
            raise ValueError(f"noise_model must be one of {NOISE_MODELS}, got {self.noise_model!r}")
        if self.noise_level is not None and self.noise_level < 0:
            raise ValueError("noise_level must be nonnegative")

    @classmethod
    def from_config(cls, cfg) -> "OccluderSpec":
        """A spec from its JSON-style dict; a spec is returned unchanged."""
        if isinstance(cfg, cls):
            return cfg
        if not isinstance(cfg, dict):
            raise ValueError(f"an occluder must be a spec or an object, got {cfg!r}")
        known = {"height", "width", "intensity_range", "noise_model", "noise_level"}
        unknown = set(cfg) - known
        if unknown:
            raise ValueError(f"unknown occluder fields: {sorted(unknown)}")
        cfg = dict(cfg)
        for key in ("height", "width"):
            if key in cfg:
                cfg[key] = as_number(cfg[key], f"occluder.{key}", integer=True)
        if "intensity_range" in cfg:
            cfg["intensity_range"] = tuple(float(v) for v in cfg["intensity_range"])
        return cls(**cfg)

    def to_config(self) -> dict:
        return {"height": self.height, "width": self.width,
                "intensity_range": list(self.intensity_range),
                "noise_model": self.noise_model, "noise_level": self.noise_level}


def default_occluders(image_size: int, **overrides) -> dict[str, OccluderSpec]:
    """Small/medium/large occluders scaled to 20% and 40% of the image side."""
    a = int(round(0.2 * image_size))
    b = int(round(0.4 * image_size))
    return {
        "small": OccluderSpec(height=a, width=a, **overrides),
        "medium": OccluderSpec(height=a, width=b, **overrides),
        "large": OccluderSpec(height=b, width=b, **overrides),
    }


@dataclass(frozen=True)
class BinaryOcclusionMap:
    grid: np.ndarray            # (H, W) values exactly 0.0 or 1.0
    image_id: str
    occluder_shape: tuple[int, int]


@dataclass(frozen=True)
class OcclusionMap:
    grid: np.ndarray            # (H, W) per-location classification error in [0, 1]
    sample_count: int
    occluder_shape: tuple[int, int]


@dataclass(frozen=True)
class PlacementDistribution:
    probs: np.ndarray           # (H, W), sums to 1
    temperature: float


# ------------------------------------------------------------- occluders

def make_occluder(spec: OccluderSpec, rng) -> np.ndarray:
    """Sample one occluding patch.

    Draw order is fixed: base intensity, then (for "random") the noise
    model, then the noise level if unset, then the noise field. Final
    values are clamped to [0, 1].
    """
    rng = as_rng(rng)
    lo, hi = spec.intensity_range
    base = rng.uniform(lo, hi)
    patch = np.full((spec.height, spec.width), base)

    model = spec.noise_model
    if model == "random":
        model = rng.choice(("salt_pepper", "speckle", "gaussian"))
    if model == "none":
        return patch

    level = spec.noise_level
    if level is None:
        level = rng.uniform(*_DEFAULT_LEVEL_RANGES[model])

    if model == "salt_pepper":
        u = rng.random(patch.shape)
        patch[u < level / 2.0] = 0.0
        patch[u >= 1.0 - level / 2.0] = 1.0
    elif model == "speckle":
        patch *= 1.0 + rng.normal(0.0, level, size=patch.shape)
    else:
        patch += rng.normal(0.0, level, size=patch.shape)
    return np.clip(patch, 0.0, 1.0)


def patch_bounds(center: tuple[int, int], shape: tuple[int, int],
                 bounds: tuple[int, int]) -> tuple[int, int, int, int]:
    """Clipped (row0, row1, col0, col1) footprint of a patch centered at (i, j)."""
    i, j = center
    h, w = shape
    r0, r1 = i - h // 2, i + (h + 1) // 2
    c0, c1 = j - w // 2, j + (w + 1) // 2
    return max(r0, 0), min(r1, bounds[0]), max(c0, 0), min(c1, bounds[1])


def apply_occluder(image: np.ndarray, patch: np.ndarray,
                   center: tuple[int, int]) -> np.ndarray:
    """Overlay a patch centered at (i, j); out-of-bounds parts are clipped."""
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    i, j = center
    if not (0 <= i < h and 0 <= j < w):
        raise ValueError(f"occluder center {center} outside {h}x{w} image")
    r0, r1, c0, c1 = patch_bounds(center, patch.shape, (h, w))
    out = image.copy()
    pr0 = r0 - (i - patch.shape[0] // 2)
    pc0 = c0 - (j - patch.shape[1] // 2)
    out[r0:r1, c0:c1] = patch[pr0:pr0 + (r1 - r0), pc0:pc0 + (c1 - c0)]
    return out


# ---------------------------------------------------------- binary maps

def _splice(base: np.ndarray, start: np.ndarray, size, values: np.ndarray,
            vstart: np.ndarray) -> np.ndarray:
    """Per-position crops of a clean (H, W, C) tensor with recomputed cells laid over.

    Position n gets ``base[start[n] + (0..size)]``; wherever the (n, A, B, C)
    ``values`` block, whose top-left cell sits at ``vstart[n]``, covers a cell
    of that crop, the block's cell replaces the clean one.
    """
    windows = sliding_window_view(base, tuple(size), axis=(0, 1))
    crop = np.ascontiguousarray(windows[start[:, 0], start[:, 1]].transpose(0, 2, 3, 1))
    offset = vstart - start
    vr = offset[:, :1] + np.arange(values.shape[1])
    vc = offset[:, 1:] + np.arange(values.shape[2])
    n, a, b = np.nonzero(((vr >= 0) & (vr < size[0]))[:, :, None]
                         & ((vc >= 0) & (vc < size[1]))[:, None, :])
    crop[n, vr[n, a], vc[n, b]] = values[n, a, b]
    return crop


def _scan_logits(model: Model, pixels: np.ndarray, patch: np.ndarray, stride: int) -> np.ndarray:
    """Logits of the occluded image at every scan position, in row-major order.

    Computed incrementally (see the module docstring); the positions of one
    inference block share each call of a spatial layer's kernel.
    """
    h, w = pixels.shape
    dims = np.array([h, w])
    positions = np.array([(i, j) for i in range(0, h, stride) for j in range(0, w, stride)])
    # the spatial layers (3-D outputs) precede the first dense layer
    split = sum(len(step.out_shape) == 3 for step in model.plan)

    # clean pass: the input of each spatial layer (conv inputs zero-padded)
    x = pixels[np.newaxis, :, :, np.newaxis]
    clean_inputs = []
    for step in model.plan[:split]:
        pad = step.spec.padding if isinstance(step.spec, Conv) else 0
        clean_inputs.append(np.pad(x[0], ((pad, pad), (pad, pad), (0, 0))))
        x = apply_layer(step, model.params, x)
    clean_features = x[0]

    def features(centers: np.ndarray) -> np.ndarray:
        # lo: first cell the patch changes; size: a bound on how many it changes
        origin = centers - np.array(patch.shape) // 2
        lo = np.clip(origin, 0, dims)
        size = np.minimum(patch.shape, dims)
        vstart = np.minimum(lo, dims - size)
        values = _splice(pixels[:, :, np.newaxis], vstart, size,
                         np.broadcast_to(patch[np.newaxis, :, :, np.newaxis],
                                         (len(centers),) + patch.shape + (1,)), origin)
        for step, base in zip(model.plan[:split], clean_inputs):
            layer = step.spec
            if isinstance(layer, Relu):
                values = apply_layer(step, model.params, values)
                continue
            out = np.array(step.out_shape[:2])
            if isinstance(layer, Conv):
                k, pad = np.array(layer.kernel), layer.padding
                lo = np.clip(lo - (k - 1) + pad, 0, out)
                size = np.minimum(size + k - 1, out)
                span, scale, shift = size + k - 1, 1, pad
            else:
                win = layer.window
                lo = np.minimum(lo // win, out)
                size = np.minimum((size + win - 2) // win + 1, out)
                span, scale, shift = size * win, win, 0
            first = np.minimum(lo, out - size)
            region = _splice(base, first * scale, span, values, vstart + shift)
            values = apply_layer(step, model.params, region, padding=0)
            vstart = first
        flat = _splice(clean_features, np.zeros_like(vstart), clean_features.shape[:2],
                       values, vstart)
        return flat.reshape(len(centers), -1)

    logits = walk_blocks(lambda rows: features(positions[rows]), len(positions),
                         model.plan[split:], model.params)
    return check_finite(logits, "logits")


def _scan_grid(model: Model, pixels: np.ndarray, label: int, patch: np.ndarray,
               stride: int) -> np.ndarray:
    """Error indicator for every scan location; stride blocks share a value."""
    h, w = pixels.shape
    predictions = np.argmax(_scan_logits(model, pixels, patch, stride), axis=1)
    flips = (predictions != label).astype(np.float64)
    rows, cols = -(-h // stride), -(-w // stride)
    blocks = np.repeat(np.repeat(flips.reshape(rows, cols), stride, 0), stride, 1)
    return blocks[:h, :w]


def binary_occlusion_map(model: Model, image: LabeledImage, spec: OccluderSpec,
                         rng, *, stride: int = 1, patch: np.ndarray | None = None
                         ) -> BinaryOcclusionMap:
    """Per-location misclassification indicator for one image.

    One fresh patch is sampled per image and reused at every location, so
    the map reflects position sensitivity, not per-position noise draws.
    The image must be classified correctly before occlusion.
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    pixels = image.pixels
    unoccluded = np.argmax(forward(model, pixels[np.newaxis, :, :, np.newaxis]), axis=1)[0]
    if unoccluded != image.label:
        raise ValueError(f"image {image.id!r} is misclassified without occlusion "
                         f"(predicted {unoccluded}, label {image.label}); "
                         "occlusion maps are defined on correctly classified images")
    if patch is None:
        patch = make_occluder(spec, rng)
    grid = _scan_grid(model, pixels, image.label, patch, stride)
    return BinaryOcclusionMap(grid=grid, image_id=image.id,
                              occluder_shape=(spec.height, spec.width))


def aggregate_map(maps: list[BinaryOcclusionMap]) -> OcclusionMap:
    """Cellwise mean of binary maps from a common occluder shape."""
    if not maps:
        raise ValueError("cannot aggregate an empty list of maps")
    shape = maps[0].grid.shape
    occ_shape = maps[0].occluder_shape
    for m in maps[1:]:
        if m.grid.shape != shape or m.occluder_shape != occ_shape:
            raise ValueError("all maps must share grid shape and occluder shape")
    grid = np.zeros(shape)
    for m in maps:
        grid += m.grid
    return OcclusionMap(grid=grid / len(maps), sample_count=len(maps),
                        occluder_shape=occ_shape)


def dataset_occlusion_map(model: Model, images: list[LabeledImage], spec: OccluderSpec,
                          rng, *, stride: int = 1, limit: int | None = None,
                          workers: int = 1) -> tuple[OcclusionMap, dict]:
    """Aggregate map over the correctly-classified subset of ``images``.

    Misclassified images are skipped (and counted); at most ``limit``
    correctly-classified images are used, in input order. Patches are
    pre-sampled sequentially so results do not depend on ``workers``.
    """
    if not images:
        raise ProtocolError("no images supplied for the occlusion map")
    rng = as_rng(rng)
    stack = np.stack([im.pixels for im in images])[:, :, :, np.newaxis]
    predictions = np.argmax(forward(model, stack), axis=1)

    selected = [im for im, p in zip(images, predictions) if p == im.label]
    excluded = len(images) - len(selected)
    if not selected:
        raise ProtocolError("no image is classified correctly; cannot build an occlusion map")
    if limit is not None:
        selected = selected[:limit]

    patches = [make_occluder(spec, rng) for _ in selected]

    def one(args):
        im, patch = args
        return _scan_grid(model, im.pixels, im.label, patch, stride)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            grids = list(pool.map(one, zip(selected, patches)))
    else:
        grids = [one(pair) for pair in zip(selected, patches)]

    binary = [BinaryOcclusionMap(grid=g, image_id=im.id,
                                 occluder_shape=(spec.height, spec.width))
              for g, im in zip(grids, selected)]
    info = {"used": len(selected), "excluded": excluded,
            "image_ids": [im.id for im in selected]}
    return aggregate_map(binary), info


# ------------------------------------------------- placement distribution

def placement_distribution(occ_map: OcclusionMap, temperature: float) -> PlacementDistribution:
    """Temperature softmax over map cells; low temperature sharpens onto
    high-error regions, high temperature approaches uniform."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    logits = occ_map.grid / temperature
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return PlacementDistribution(probs=e / e.sum(), temperature=float(temperature))


def sample_location(dist: PlacementDistribution, rng) -> tuple[int, int]:
    """Inverse-CDF draw over the row-major flattening of the grid."""
    i, j = sample_locations(dist, rng, 1)[0]
    return int(i), int(j)


def sample_locations(dist: PlacementDistribution, rng, n: int) -> np.ndarray:
    """(n, 2) array of inverse-CDF draws; one uniform variate per location."""
    rng = as_rng(rng)
    cdf = np.cumsum(dist.probs.ravel())
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    idx = np.minimum(idx, dist.probs.size - 1)
    return np.stack(np.divmod(idx, dist.probs.shape[1]), axis=1)


def _normal_location(shape: tuple[int, int], rng) -> tuple[int, int]:
    """Baseline placement: normal at the image center, std = size/4,
    truncated to bounds by rejection."""
    loc = []
    for n in shape:
        for _ in range(1000):
            v = int(np.rint(rng.normal((n - 1) / 2.0, n / 4.0)))
            if 0 <= v < n:
                loc.append(v)
                break
        else:
            loc.append((n - 1) // 2)
    return loc[0], loc[1]


def occlude_fraction(images: np.ndarray, fraction: float, placement,
                     spec: OccluderSpec, rng) -> np.ndarray:
    """Occlude the leading ceil(fraction * N) images of a batch.

    Training batches are already seeded permutations, so which images get
    occluded varies per batch with no extra randomness. fraction=1 reduces
    to :func:`augment_batch`; a lower fraction keeps clean images in every
    batch, preventing the model from forgetting unoccluded inputs.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    images = np.asarray(images, dtype=np.float64)
    k = int(np.ceil(fraction * len(images)))
    out = images.copy()
    out[:k] = augment_batch(images[:k], placement, spec, rng)
    return out


def augmenter(fraction: float, placement, spec: OccluderSpec):
    """The ``augment`` callable of ``train_classifier``: :func:`occlude_fraction`
    of each batch with the given placement and occluder."""
    def augment(images, rng):
        return occlude_fraction(images, fraction, placement, spec, rng)
    return augment


def augment_batch(images: np.ndarray, placement, spec: OccluderSpec, rng) -> np.ndarray:
    """Occlude every image in an (N, H, W) batch exactly once.

    ``placement`` is a :class:`PlacementDistribution` or the string
    ``"random"`` for the unguided baseline. Per image the draw order is:
    location, then patch.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise ValueError(f"expected (N, H, W) batch, got shape {images.shape}")
    rng = as_rng(rng)
    n, h, w = images.shape
    if isinstance(placement, PlacementDistribution):
        if placement.probs.shape != (h, w):
            raise ValueError(f"placement grid {placement.probs.shape} does not match "
                             f"image shape {(h, w)}")
    elif placement != "random":
        raise ValueError("placement must be a PlacementDistribution or 'random'")

    out = np.empty_like(images)
    for k in range(n):
        if isinstance(placement, PlacementDistribution):
            center = sample_location(placement, rng)
        else:
            center = _normal_location((h, w), rng)
        patch = make_occluder(spec, rng)
        out[k] = apply_occluder(images[k], patch, center)
    return out


# ----------------------------------------------------------- persistence

def save_map_csv(occ_map: OcclusionMap, path) -> None:
    """H rows of W comma-separated cells, 6 decimal places."""
    with atomic_write(path) as fh:
        np.savetxt(fh, occ_map.grid, fmt="%.6f", delimiter=",")


def load_map_csv(path, *, occluder_shape: tuple[int, int] = (0, 0),
                 sample_count: int = 1) -> OcclusionMap:
    try:
        grid = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: not a numeric CSV grid ({exc})") from exc
    bad = np.argwhere(~((grid >= 0.0) & (grid <= 1.0)))    # NaN fails both tests
    if grid.size == 0 or len(bad):
        where = "cell ({}, {}) is {}".format(*bad[0], grid[tuple(bad[0])]) if len(bad) else "no cells"
        raise FormatError(f"{path}: {where}; map cells must be finite and lie in [0, 1]")
    return OcclusionMap(grid=grid, sample_count=sample_count,
                        occluder_shape=occluder_shape)


def save_map_pgm(occ_map: OcclusionMap, path) -> None:
    """Grayscale rendering (cell * 255, rounded) for visual inspection."""
    save_pgm(occ_map.grid, path)


# ------------------------------------------------------------- analysis

def top_decile_centroid(occ_map: OcclusionMap) -> tuple[float, float]:
    """Unweighted centroid (row, col) of the top tenth of cells by value.

    The cutoff is the ceil(N/10)-th largest cell value; cells tied with the
    cutoff are all included.
    """
    grid = occ_map.grid
    k = max(1, int(np.ceil(grid.size / 10)))
    threshold = np.sort(grid.ravel())[::-1][k - 1]
    rows, cols = np.nonzero(grid >= threshold)
    return float(rows.mean()), float(cols.mean())


def point_in_rect(point: tuple[float, float], rect: tuple[int, int, int, int]) -> bool:
    top, left, h, w = rect
    return top <= point[0] <= top + h - 1 and left <= point[1] <= left + w - 1
