"""Occluder synthesis, occlusion maps, and guided augmentation.

The sensitivity probe works on classification error. One function does
each step. :func:`dataset_occlusion_map` slides an occluding patch over
every location of each correctly classified image, marks the locations
whose occlusion flips the prediction (a binary map per image, Zeiler &
Fergus, ECCV 2014), and averages those maps. :func:`placement_distribution`
turns the average into an occluder placement distribution with a
temperature softmax, and :func:`occlude_fraction` augments training
batches with occluders placed from it, or from a center-weighted normal
for the unguided baseline scheme.

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
window spliced in, using the same kernels as a full forward. All of this
is computed per axis, so each ``INFERENCE_ROWS``-row block of positions
splits into sub-blocks that are rectangles of scan rows by scan columns:
runs of whole rows where one fits, pieces of a row elsewhere, each small
enough that no conv's patch matrix outgrows the one it has in a
``SPATIAL_ROWS``-image sub-block of a full forward. Per rectangle, a splice
gathers the clean regions through one sliding-window view, indexed by the
rows' starts crossed with the columns', and lays the windows over them with
one slice assignment per pair of a run of rows and a run of columns that
share the window's offset inside its region. The last window is spliced
into the clean features and the dense head walks them in the same
``INFERENCE_ROWS``-row blocks as a full forward. Each recomputed value thus
has the same inputs and kernel as in the full forward, and the logits are
bit-identical to it wherever the BLAS rounds a GEMM row independently of
the call's other rows (true for the default net; where it is not, the full
forward itself changes in the last bits with its batch size).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import blas
from .atomic import atomic_write
from .data import LabeledImage
from .engine.model import (INFERENCE_ROWS, SPATIAL_ROWS, Conv, Model, Relu, apply_layer, forward,
                           spatial_depth, walk_blocks)
from .errors import FormatError, ProtocolError
from .validation import as_rng, at_least, check_outputs, from_section

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
        at_least(1, height=self.height, width=self.width)
        lo, hi = self.intensity_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError(f"intensity_range must satisfy 0 <= lo <= hi <= 1, got {self.intensity_range}")
        if self.noise_model not in NOISE_MODELS:
            raise ValueError(f"noise_model must be one of {NOISE_MODELS}, got {self.noise_model!r}")
        if self.noise_level is not None:
            at_least(0, noise_level=self.noise_level)

    @classmethod
    def from_config(cls, cfg) -> "OccluderSpec":
        """A spec from its JSON-style dict; a spec is returned unchanged."""
        return cfg if isinstance(cfg, cls) else from_section(cls, cfg, "occluder")


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
class OcclusionMap:
    grid: np.ndarray            # (H, W) per-location classification error in [0, 1]
    sample_count: int
    occluder_shape: tuple[int, int]


@dataclass(frozen=True)
class PlacementDistribution:
    probs: np.ndarray           # (H, W), sums to 1
    temperature: float

    @cached_property
    def cdf(self) -> np.ndarray:
        """Running sum of ``probs`` in row-major order, computed once per distribution."""
        return np.cumsum(self.probs.ravel())


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
        model = ("salt_pepper", "speckle", "gaussian")[rng.integers(3)]
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


def apply_occluder(image: np.ndarray, patch: np.ndarray,
                   center: tuple[int, int]) -> np.ndarray:
    """Overlay a patch centered at (i, j); out-of-bounds parts are clipped."""
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    i, j = center
    if not (0 <= i < h and 0 <= j < w):
        raise ValueError(f"occluder center {center} outside {h}x{w} image")
    top, left = i - patch.shape[0] // 2, j - patch.shape[1] // 2
    r0, r1 = max(top, 0), min(top + patch.shape[0], h)
    c0, c1 = max(left, 0), min(left + patch.shape[1], w)
    out = image.copy()
    out[r0:r1, c0:c1] = patch[r0 - top:r1 - top, c0 - left:c1 - left]
    return out


# -------------------------------------------------------- occlusion maps

def _regions(base: np.ndarray, height: int, width: int) -> np.ndarray:
    """The (H - height + 1, W - width + 1, height, width, channels) view of
    every ``height`` x ``width`` region of an (H, W, channels) tensor."""
    return sliding_window_view(base, (height, width), axis=(0, 1)).transpose(0, 1, 3, 4, 2)


def _splice(base: np.ndarray, values: np.ndarray, rows, cols,
            col_runs: list | None = None) -> np.ndarray:
    """Crops of a clean (H, W, channels) tensor over a grid of scan positions,
    with recomputed cells laid over.

    ``rows`` and ``cols`` are each ``(starts, size, vstarts)`` for one axis.
    Position (r, c) gets ``base[rows[0][r] + (0..rows[1]), cols[0][c] + (0..cols[1])]``,
    so the crops form an (R, C, rows[1], cols[1], channels) block. Wherever the
    position's ``values[r, c]`` window, whose top-left cell sits at
    ``(rows[2][r], cols[2][c])``, covers a cell of its crop, the window's cell
    replaces the clean one. Each run of rows sharing an offset ``vstarts -
    starts`` (see :func:`_offset_runs`), crossed with each such run of
    columns, is spliced with one slice assignment. A caller that splices over
    the same tensor or columns again may pass ``base`` as its :func:`_regions`
    view and the column runs as ``col_runs``, both computed once.
    """
    (row_starts, height, row_vstarts), (col_starts, width, col_vstarts) = rows, cols
    regions = base if base.ndim == 5 else _regions(base, height, width)
    crop = regions[row_starts[:, np.newaxis], col_starts[np.newaxis, :]]
    if col_runs is None:
        col_runs = _offset_runs(col_vstarts - col_starts, values.shape[3], width)
    for r, r_dst, r_src in _offset_runs(row_vstarts - row_starts, values.shape[2], height):
        for c, c_dst, c_src in col_runs:
            crop[r, c, r_dst, c_dst] = values[r, c, r_src, c_src]
    return crop


def _offset_runs(offset: np.ndarray, length: int, extent: int) -> list[tuple[slice, slice, slice]]:
    """Slices of one axis that share an ``offset``, with where they splice.

    Positions with equal offsets are cut into evenly spaced runs (a max-pool
    window alternates its offset between neighbours, so a run may step by
    more than one). Per run: its positions, the cells of an ``extent``-cell
    crop that a ``length``-cell window at that offset covers, and the window
    cells that land there. Runs whose window misses the crop are left out.
    """
    groups: dict[int, list[int]] = {}
    for i, o in enumerate(offset.tolist()):
        groups.setdefault(o, []).append(i)
    runs = []
    for o, idx in groups.items():
        a0, a1 = max(-o, 0), min(length, extent - o)
        p = 0
        while a0 < a1 and p < len(idx):
            step = idx[p + 1] - idx[p] if p + 1 < len(idx) else 1
            q = p + 1
            while q < len(idx) and idx[q] - idx[q - 1] == step:
                q += 1
            runs.append((slice(idx[p], idx[q - 1] + 1, step), slice(o + a0, o + a1), slice(a0, a1)))
            p = q
    return runs


def _axis_splices(steps, centers: np.ndarray, patch_len: int, dim: int, axis: int) -> list:
    """The ``(starts, size, vstarts)`` of every splice of a scan, on one axis.

    ``centers`` are the patch centers on that axis. The first splice lays the
    patch over the pixels, one follows per conv or max-pool step, and the last
    lays the final window over the clean features.
    """
    # lo: first cell the patch changes; size: a bound on how many it changes
    origin = centers - patch_len // 2
    lo = np.clip(origin, 0, dim)
    size = min(patch_len, dim)
    vstart = np.minimum(lo, dim - size)
    splices = [(vstart, size, origin)]
    for step in steps:
        layer = step.spec
        if isinstance(layer, Relu):
            continue
        dim = step.out_shape[axis]
        if isinstance(layer, Conv):
            k, pad = layer.kernel[axis], layer.padding
            lo = np.clip(lo - (k - 1) + pad, 0, dim)
            size = min(size + k - 1, dim)
            span, scale, shift = size + k - 1, 1, pad
        else:
            win = layer.window
            lo = np.minimum(lo // win, dim)
            size = min((size + win - 2) // win + 1, dim)
            span, scale, shift = size * win, win, 0
        first = np.minimum(lo, dim - size)
        splices.append((first * scale, span, vstart + shift))
        vstart = first
    splices.append((np.zeros_like(vstart), dim, vstart))
    return splices


def _grid_rectangles(rows: slice, count: int, width: int, most: int) -> list[tuple[slice, slice]]:
    """The (scan rows, scan columns) rectangles of at most ``most`` positions
    that tile, in order, the ``rows`` slice of ``count`` row-major positions on
    a grid ``width`` wide: runs of whole rows where one fits, and pieces of a
    row elsewhere."""
    start, stop, _ = rows.indices(count)
    rectangles = []
    while start < stop:
        r, c = divmod(start, width)
        whole = min(stop - start, most) // width
        if c == 0 and whole:
            rectangles.append((slice(r, r + whole), slice(0, width)))
            start += whole * width
        else:
            end = min(stop, (r + 1) * width, start + most)
            rectangles.append((slice(r, r + 1), slice(c, c + end - start)))
            start = end
    return rectangles


def _scan_logits(model: Model, pixels: np.ndarray, patch: np.ndarray, stride: int) -> np.ndarray:
    """Logits of the occluded image at every scan position, in row-major order.

    Computed incrementally (see the module docstring). Each ``INFERENCE_ROWS``
    block of positions walks its spatial windows in sub-blocks, rectangles of
    scan rows by scan columns whose positions share each call of a spatial
    layer's kernel. They are sized so that no conv's patch matrix outgrows the
    one it has in a ``SPATIAL_ROWS``-image sub-block of a full forward.
    """
    h, w = pixels.shape
    centers = (np.arange(0, h, stride), np.arange(0, w, stride))
    split = spatial_depth(model.plan)
    spatial = model.plan[:split]

    # clean pass: the clean tensor each splice lays windows over (conv inputs
    # zero-padded), and the steps that run on what the splice returns
    x = pixels[np.newaxis, :, :, np.newaxis]
    bases, groups = [x[0]], [[]]
    for step in spatial:
        if not isinstance(step.spec, Relu):
            pad = step.spec.padding if isinstance(step.spec, Conv) else 0
            bases.append(np.pad(x[0], ((pad, pad), (pad, pad), (0, 0))) if pad else x[0])
            groups.append([])
        groups[-1].append(step)
        x = apply_layer(step, model.params, x)
    bases.append(x[0])
    groups.append([])
    # per axis, every splice of the whole scan; a rectangle's are slices of them
    splices = [_axis_splices(spatial, centers[a], patch.shape[a], pixels.shape[a], a)
               for a in (0, 1)]
    stages = [(_regions(base, row[1], col[1]), steps, row, col)
              for base, steps, row, col in zip(bases, groups, *splices)]

    # positions per sub-block: a conv recomputes a window as large as its
    # splice less the kernel, with the patch matrix columns of a full forward
    most = INFERENCE_ROWS
    for _, steps, row, col in stages:
        if steps and isinstance(steps[0].spec, Conv):
            (kh, kw), out = steps[0].spec.kernel, steps[0].out_shape
            cells = (row[1] - kh + 1) * (col[1] - kw + 1)
            most = min(most, SPATIAL_ROWS * out[0] * out[1] // cells)
    count, width = len(centers[0]) * len(centers[1]), len(centers[1])
    whole_col_runs = []     # each splice's column runs, shared by whole-row rectangles

    def features(rows: slice, cols: slice) -> np.ndarray:
        grid = (rows.stop - rows.start, cols.stop - cols.start)
        whole = grid[1] == width
        values = np.broadcast_to(patch[:, :, np.newaxis], grid + patch.shape + (1,))
        for k, (regions, steps, row, col) in enumerate(stages):
            row, col = (row[0][rows], row[1], row[2][rows]), (col[0][cols], col[1], col[2][cols])
            if whole and k == len(whole_col_runs):
                whole_col_runs.append(_offset_runs(col[2] - col[0], values.shape[3], col[1]))
            values = _splice(regions, values, row, col, whole_col_runs[k] if whole else None)
            for step in steps:
                values = apply_layer(step, model.params, values.reshape(-1, *values.shape[2:]),
                                     padding=0)
                values = values.reshape(grid + values.shape[1:])
        return values.reshape(grid[0] * grid[1], -1)

    def block(rows: slice) -> np.ndarray:
        parts = [features(*rect) for rect in _grid_rectangles(rows, count, width, most)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    logits = walk_blocks(block, count, model.plan[split:], model.params)
    return check_outputs(logits, "logits")


def _scan_grid(model: Model, pixels: np.ndarray, label: int, patch: np.ndarray,
               stride: int) -> np.ndarray:
    """Error indicator for every scan location; stride blocks share a value."""
    h, w = pixels.shape
    predictions = np.argmax(_scan_logits(model, pixels, patch, stride), axis=1)
    flips = (predictions != label).astype(np.float64)
    rows, cols = -(-h // stride), -(-w // stride)
    blocks = np.repeat(np.repeat(flips.reshape(rows, cols), stride, 0), stride, 1)
    return blocks[:h, :w]


def dataset_occlusion_map(model: Model, images: list[LabeledImage], spec: OccluderSpec,
                          rng, *, stride: int = 1, limit: int | None = None,
                          workers: int = 1) -> tuple[OcclusionMap, dict]:
    """Mean of the binary maps of the correctly classified ``images``.

    Misclassified images are skipped (and counted); at most ``limit``
    correctly classified images are used, in input order. One patch is
    drawn per used image, in order, and reused at every location, so a map
    reflects position sensitivity, not per-position noise draws. Patches
    are drawn before any scan, so results do not depend on ``workers``; the
    map of one image drawn with ``rng`` uses ``make_occluder(spec, rng)``.
    With ``workers`` above 1 the BLAS runs one thread while the scans run
    (:mod:`otlab.blas`), and its previous thread count is restored after.
    """
    at_least(1, workers=workers, stride=stride)
    if limit is not None:
        at_least(1, limit=limit)
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
        # one BLAS thread per worker: more oversubscribe the cores
        with blas.pinned(1), ThreadPoolExecutor(max_workers=workers) as pool:
            grids = list(pool.map(one, zip(selected, patches)))
    else:
        grids = [one(pair) for pair in zip(selected, patches)]

    # every cell is 0.0 or 1.0, so the sum is exact
    occ_map = OcclusionMap(grid=sum(grids) / len(grids), sample_count=len(grids),
                           occluder_shape=(spec.height, spec.width))
    info = {"used": len(selected), "excluded": excluded,
            "image_ids": [im.id for im in selected]}
    return occ_map, info


# ------------------------------------------------- placement distribution

def placement_distribution(occ_map: OcclusionMap, temperature: float) -> PlacementDistribution:
    """Temperature softmax over map cells; low temperature sharpens onto
    high-error regions, high temperature approaches uniform."""
    if not temperature > 0:     # NaN included
        raise ValueError("temperature must be positive")
    logits = occ_map.grid / temperature
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return PlacementDistribution(probs=e / e.sum(), temperature=float(temperature))


def sample_locations(dist: PlacementDistribution, rng, n: int) -> np.ndarray:
    """(n, 2) array of inverse-CDF draws; one uniform variate per location."""
    rng = as_rng(rng)
    idx = np.searchsorted(dist.cdf, rng.random(n), side="right")
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
    """Occlude the leading ceil(fraction * N) images of an (N, H, W) batch once each.

    ``placement`` is a :class:`PlacementDistribution` or the string
    ``"random"`` for the unguided baseline. Per image the draw order is:
    location, then patch. Training batches are already seeded permutations,
    so which images get occluded varies per batch with no extra randomness;
    a fraction below 1 keeps clean images in every batch, preventing the
    model from forgetting unoccluded inputs.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise ValueError(f"expected (N, H, W) batch, got shape {images.shape}")
    rng = as_rng(rng)
    n, h, w = images.shape
    guided = isinstance(placement, PlacementDistribution)
    if guided:
        if placement.probs.shape != (h, w):
            raise ValueError(f"placement grid {placement.probs.shape} does not match "
                             f"image shape {(h, w)}")
    elif placement != "random":
        raise ValueError("placement must be a PlacementDistribution or 'random'")

    out = images.copy()
    for k in range(int(np.ceil(fraction * n))):
        center = sample_locations(placement, rng, 1)[0] if guided else _normal_location((h, w), rng)
        out[k] = apply_occluder(images[k], make_occluder(spec, rng), center)
    return out


def augmenter(fraction: float, placement, spec: OccluderSpec):
    """The ``augment`` callable of ``train_classifier``: :func:`occlude_fraction`
    of each batch with the given placement and occluder."""
    def augment(images, rng):
        return occlude_fraction(images, fraction, placement, spec, rng)
    return augment


# ----------------------------------------------------------- persistence

def save_map_csv(occ_map: OcclusionMap, path) -> None:
    """H rows of W comma-separated cells, 6 decimal places."""
    with atomic_write(path) as fh:
        np.savetxt(fh, occ_map.grid, fmt="%.6f", delimiter=",")


def load_map_csv(path) -> OcclusionMap:
    """The map saved at ``path``. A map CSV holds only the grid, so the map
    read from it does not know its occluder or sample count: they read
    ``(0, 0)`` and ``1``."""
    grid = np.empty((0, 0))
    # numpy warns on a file with no data line; "#" starts a comment for np.loadtxt
    if any(line.split(b"#", 1)[0].strip() for line in Path(path).read_bytes().splitlines()):
        try:
            grid = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise FormatError(f"{path}: not a numeric CSV grid ({exc})") from exc
    bad = np.argwhere(~((grid >= 0.0) & (grid <= 1.0)))    # NaN fails both tests
    if grid.size == 0 or len(bad):
        where = "cell ({}, {}) is {}".format(*bad[0], grid[tuple(bad[0])]) if len(bad) else "no cells"
        raise FormatError(f"{path}: {where}; map cells must be finite and lie in [0, 1]")
    return OcclusionMap(grid=grid, sample_count=1, occluder_shape=(0, 0))


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
