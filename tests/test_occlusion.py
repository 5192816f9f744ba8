import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from otlab import blas, occlusion
from otlab.data import Dataset, SyntheticSpec, generate_synthetic
from otlab.engine import Schedule, init_model, ops, predict, train_classifier
from otlab.engine.model import (INFERENCE_ROWS, SPATIAL_ROWS, Conv, Dense, Model,
                               default_architecture, forward)
from otlab.errors import ConfigError, FormatError, ProtocolError
from otlab.occlusion import (
    OccluderSpec,
    OcclusionMap,
    PlacementDistribution,
    _grid_rectangles,
    _scan_grid,
    _scan_logits,
    _splice,
    apply_occluder,
    dataset_occlusion_map,
    default_occluders,
    load_map_csv,
    make_occluder,
    occlude_fraction,
    placement_distribution,
    point_in_rect,
    sample_locations,
    save_map_csv,
    top_decile_centroid,
)

from oracles import (
    binary_map_loops,
    occlude_loops,
    scan_grid_full,
    scan_logits_full,
    splice_loops,
)


# -------------------------------------------------------------- occluders

def test_degenerate_intensity_range_gives_constant_patch(rng):
    spec = OccluderSpec(height=3, width=4, intensity_range=(0.0, 0.0), noise_model="none")
    np.testing.assert_array_equal(make_occluder(spec, rng), np.zeros((3, 4)))


def test_full_flip_salt_pepper_is_binary(rng):
    spec = OccluderSpec(height=20, width=20, noise_model="salt_pepper", noise_level=1.0)
    patch = make_occluder(spec, rng)
    assert set(np.unique(patch)) <= {0.0, 1.0}


def test_gaussian_noise_mean_matches_clamped_expectation():
    spec = OccluderSpec(height=100, width=1000, intensity_range=(0.5, 0.5),
                        noise_model="gaussian", noise_level=0.1)
    patch = make_occluder(spec, np.random.default_rng(0))
    # independent Monte-Carlo estimate of E[clip(0.5 + 0.1 Z, 0, 1)]
    z = np.random.default_rng(999).normal(size=100_000)
    expected = np.clip(0.5 + 0.1 * z, 0.0, 1.0).mean()
    assert patch.mean() == pytest.approx(expected, abs=0.02)


def test_patch_values_always_clamped(rng):
    spec = OccluderSpec(height=8, width=8, intensity_range=(0.9, 1.0),
                        noise_model="gaussian", noise_level=2.0)
    patch = make_occluder(spec, rng)
    assert patch.min() >= 0.0 and patch.max() <= 1.0


def test_same_rng_state_replays_patch():
    spec = OccluderSpec(height=5, width=5)   # noise_model "random"
    a = make_occluder(spec, np.random.default_rng(3))
    b = make_occluder(spec, np.random.default_rng(3))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("level", [-1.0, float("nan")])
def test_occluder_spec_rejects_negative_or_nan_noise_level(level):
    with pytest.raises(ValueError, match="noise_level must be at least 0"):
        OccluderSpec(2, 2, noise_model="gaussian", noise_level=level)


def test_default_occluders_scale_with_image():
    sizes = {k: (v.height, v.width) for k, v in default_occluders(32).items()}
    assert sizes == {"small": (6, 6), "medium": (6, 13), "large": (13, 13)}
    sizes100 = {k: (v.height, v.width) for k, v in default_occluders(100).items()}
    assert sizes100 == {"small": (20, 20), "medium": (20, 40), "large": (40, 40)}


# --------------------------------------------------------- apply_occluder

def test_interior_placement_replaces_exactly_patch_area(rng):
    image = np.ones((9, 9))
    patch = np.zeros((3, 3))
    out = apply_occluder(image, patch, (4, 4))
    assert (out == 0.0).sum() == 9
    assert np.array_equal(out[3:6, 3:6], patch)
    assert np.array_equal(image, np.ones((9, 9)))    # input untouched


def test_corner_placement_clips_to_quadrant():
    image = np.ones((4, 4))
    out = apply_occluder(image, np.zeros((2, 2)), (0, 0))
    assert (out == 0.0).sum() == 1
    assert out[0, 0] == 0.0


def test_even_patch_anchoring_rule():
    image = np.ones((4, 4))
    out = apply_occluder(image, np.zeros((2, 2)), (1, 1))
    zeroed = {tuple(p) for p in np.argwhere(out == 0.0)}
    assert zeroed == {(0, 0), (0, 1), (1, 0), (1, 1)}


@given(
    center=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
)
def test_apply_occluder_matches_loop_oracle(center, shape):
    rng = np.random.default_rng(hash((center, shape)) % 2**32)
    image = rng.random((7, 7))
    patch = rng.random(shape)
    np.testing.assert_array_equal(apply_occluder(image, patch, center),
                                  occlude_loops(image, patch, center))


def test_center_outside_image_rejected():
    with pytest.raises(ValueError, match="outside"):
        apply_occluder(np.ones((4, 4)), np.zeros((2, 2)), (4, 0))


# --------------------------------------------------------- one-image maps

def _constant_model(pixels_shape, always=0, classes=2):
    h, w = pixels_shape
    weight = np.zeros((h * w, classes))
    bias = np.zeros(classes)
    bias[always] = 1.0
    return Model((h, w, 1), [Dense(classes)],
                 {"dense1.weight": weight, "dense1.bias": bias})


def _dataset(pixels, labels):
    """A dataset of ``pixels`` (N, H, W) with ``labels``, its ids "0" to "N-1"."""
    return Dataset(pixels=pixels, labels=labels, ids=[str(k) for k in range(len(labels))],
                   class_count=int(np.max(labels)) + 1)


def _image_map(model, pixels, label, spec, rng, stride=1):
    """The map of one image: its binary map."""
    return dataset_occlusion_map(model, _dataset(pixels[None], [label]), spec, rng,
                                 stride=stride)[0]


def test_input_blind_model_gives_zero_map(rng):
    model = _constant_model((5, 5), always=1)
    result = _image_map(model, rng.random((5, 5)), 1, OccluderSpec(2, 2), rng)
    np.testing.assert_array_equal(result.grid, np.zeros((5, 5)))


def test_single_pixel_model_flags_covering_positions(rng):
    # prediction is 0 iff pixel (0,0) > 0.5; zero patch flips it
    weight = np.zeros((16, 2))
    weight[0, 0] = 1.0
    model = Model((4, 4, 1), [Dense(2)],
                  {"dense1.weight": weight, "dense1.bias": np.array([0.0, 0.5])})
    spec = OccluderSpec(2, 2, intensity_range=(0.0, 0.0), noise_model="none")
    result = _image_map(model, np.ones((4, 4)), 0, spec, rng)
    expected = np.zeros((4, 4))
    expected[0:2, 0:2] = 1.0     # the four centers whose footprint covers (0,0)
    np.testing.assert_array_equal(result.grid, expected)


def test_binary_map_matches_position_sweep_oracle():
    spec8 = SyntheticSpec(class_count=3, samples_per_class=10, image_size=8,
                          cue_region=(2, 2, 4, 4), background_noise_sigma=0.05, seed=2)
    ds = generate_synthetic(spec8)
    model = init_model({"input": [8, 8, 1],
                        "layers": [{"type": "conv", "kernel": [3, 3], "filters": 4, "padding": 1},
                                   {"type": "relu"},
                                   {"type": "dense", "units": 8},
                                   {"type": "dense", "units": 3}]},
                       np.random.default_rng(0))
    train_classifier(model, ds, Schedule(steps=60, lr=0.05, batch_size=10),
                     np.random.default_rng(0))
    row = next(i for i in range(len(ds)) if predict(model, ds.pixels[i:i + 1])[0] == ds.labels[i])
    pixels, label = ds.pixels[row], ds.labels[row]

    occ = OccluderSpec(3, 2, noise_model="random")
    patch = make_occluder(occ, np.random.default_rng(5))
    result = _image_map(model, pixels, label, occ, np.random.default_rng(5))   # draws that patch

    def predict_one(img):
        return predict(model, img[None, :, :, None])[0]

    expected = binary_map_loops(predict_one, pixels, label, patch)
    np.testing.assert_array_equal(result.grid, expected)
    assert set(np.unique(result.grid)) <= {0.0, 1.0}


def test_stride_fills_blocks_with_scanned_value(rng):
    weight = np.zeros((16, 2))
    weight[0, 0] = 1.0
    model = Model((4, 4, 1), [Dense(2)],
                  {"dense1.weight": weight, "dense1.bias": np.array([0.0, 0.5])})
    spec = OccluderSpec(2, 2, intensity_range=(0.0, 0.0), noise_model="none")
    coarse = _image_map(model, np.ones((4, 4)), 0, spec, rng, stride=2)
    fine = _image_map(model, np.ones((4, 4)), 0, spec, rng, stride=1)
    assert coarse.grid.shape == (4, 4)
    # scanned positions agree with the exact map; blocks repeat their value
    for i in (0, 2):
        for j in (0, 2):
            assert np.all(coarse.grid[i:i + 2, j:j + 2] == fine.grid[i, j])


# ------------------------------------------------------ incremental scan

@settings(max_examples=200)
@given(data=st.data(), broadcast=st.booleans())
def test_splice_matches_loop_oracle(data, broadcast):
    h, w, c = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8)), data.draw(st.integers(1, 3))
    size = (data.draw(st.integers(1, h)), data.draw(st.integers(1, w)))
    a, b = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))

    def axis(extent, dim, length):
        # a few offsets shared by runs of positions: negative, partly or wholly outside the crop
        n = data.draw(st.integers(1, 5))
        starts = data.draw(st.lists(st.integers(0, dim - extent), min_size=n, max_size=n))
        choices = data.draw(st.lists(st.integers(-length - 1, extent + 1), min_size=1, max_size=3))
        offsets = data.draw(st.lists(st.sampled_from(choices), min_size=n, max_size=n))
        return np.array(starts), np.array(starts) + np.array(offsets)

    (row_starts, row_vstarts), (col_starts, col_vstarts) = axis(size[0], h, a), axis(size[1], w, b)
    grid = (len(row_starts), len(col_starts))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    base = rng.random((h, w, c))
    values = (np.broadcast_to(rng.random((1, 1, a, b, c)), grid + (a, b, c)) if broadcast
              else rng.random(grid + (a, b, c)))
    spliced = _splice(base, values, (row_starts, size[0], row_vstarts),
                      (col_starts, size[1], col_vstarts))

    def per_position(rows, cols):
        return np.stack(np.meshgrid(rows, cols, indexing="ij"), axis=-1).reshape(-1, 2)

    expected = splice_loops(base, per_position(row_starts, col_starts), size,
                            values.reshape((-1, a, b, c)), per_position(row_vstarts, col_vstarts))
    np.testing.assert_array_equal(spliced.reshape(expected.shape), expected)


_spatial_layers = st.one_of(
    st.builds(lambda kh, kw, f, pad: {"type": "conv", "kernel": [kh, kw], "filters": f,
                                      "padding": pad},
              st.integers(1, 5), st.integers(1, 5), st.integers(1, 4), st.integers(0, 2)),
    st.just({"type": "relu"}),
    st.builds(lambda w: {"type": "maxpool", "window": w}, st.integers(2, 3)),
)


def _random_net(h, w, body, hidden, classes, seed):
    layers = list(body)
    for units, relu in hidden:
        layers.append({"type": "dense", "units": units})
        if relu:
            layers.append({"type": "relu"})
    layers.append({"type": "dense", "units": classes})
    try:
        model = init_model({"input": [h, w, 1], "layers": layers}, np.random.default_rng(seed))
    except ConfigError:
        return None
    rng = np.random.default_rng(seed + 1)
    for value in model.params.values():
        value += rng.normal(0.0, 0.1, value.shape)     # nonzero biases too
    return model


@settings(max_examples=150)
@given(h=st.integers(2, 11), w=st.integers(2, 11), body=st.lists(_spatial_layers, max_size=4),
       hidden=st.lists(st.tuples(st.integers(1, 6), st.booleans()), max_size=2),
       classes=st.integers(2, 4), ph=st.integers(1, 13), pw=st.integers(1, 13),
       stride=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_incremental_scan_matches_full_forward(h, w, body, hidden, classes, ph, pw,
                                               stride, seed):
    model = _random_net(h, w, body, hidden, classes, seed)
    assume(model is not None)
    rng = np.random.default_rng(seed + 2)
    pixels, patch = rng.random((h, w)), rng.random((ph, pw))

    def full(batch):
        return forward(model, batch)

    logits = _scan_logits(model, pixels, patch, stride)
    expected = scan_logits_full(full, pixels, patch, stride)
    label = int(np.argmax(expected[0]))
    np.testing.assert_array_equal(_scan_grid(model, pixels, label, patch, stride),
                                  scan_grid_full(full, pixels, label, patch, stride))
    # Bit equality is owed wherever the full forward itself gives one answer:
    # for some GEMM shapes the BLAS rounds a row differently depending on how
    # many rows share the call, and then only rounding-level agreement exists.
    if all(np.array_equal(expected, scan_logits_full(full, pixels, patch, stride, c))
           for c in (1, 7)):
        np.testing.assert_array_equal(logits, expected)
    else:
        np.testing.assert_allclose(logits, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("patch_shape", [(6, 6), (13, 13), (4, 5), (1, 1), (40, 3)])
def test_incremental_scan_is_bit_identical_on_default_net(patch_shape):
    model = init_model(default_architecture(16, 10), np.random.default_rng(3))
    rng = np.random.default_rng(4)
    pixels, patch = rng.random((16, 16)), rng.random(patch_shape)
    for stride in (1, 3):
        expected = scan_logits_full(lambda b: forward(model, b), pixels, patch, stride)
        np.testing.assert_array_equal(_scan_logits(model, pixels, patch, stride), expected)


@pytest.mark.parametrize("patch_shape", [(6, 6), (13, 13)])
def test_incremental_scan_is_bit_identical_across_inference_blocks(patch_shape):
    model = init_model(default_architecture(32, 10), np.random.default_rng(3))
    rng = np.random.default_rng(4)
    pixels, patch = rng.random((32, 32)), rng.random(patch_shape)
    expected = scan_logits_full(lambda b: forward(model, b), pixels, patch, 1)
    assert len(expected) == 4 * INFERENCE_ROWS
    np.testing.assert_array_equal(_scan_logits(model, pixels, patch, 1), expected)


@pytest.mark.parametrize("size, patch_shape, stride", [
    (30, (13, 13), 1), (20, (6, 7), 1), (36, (9, 4), 1), (28, (5, 5), 3), (52, (5, 5), 3),
])
def test_incremental_scan_is_bit_identical_where_blocks_split_scan_rows(size, patch_shape,
                                                                        stride):
    model = init_model(default_architecture(size, 10), np.random.default_rng(3))
    rng = np.random.default_rng(4)
    pixels, patch = rng.random((size, size)), rng.random(patch_shape)
    expected = scan_logits_full(lambda b: forward(model, b), pixels, patch, stride)
    np.testing.assert_array_equal(_scan_logits(model, pixels, patch, stride), expected)


# 64x64 at 26x26 walks one-row sub-blocks of 64 positions; at 40x40 a 30x30
# patch leaves room for 35 positions, so sub-blocks split the 40-position rows
@pytest.mark.parametrize("size, side", [(64, 26), (40, 30)])
def test_incremental_scan_is_bit_identical_in_sub_blocks_of_large_images(size, side):
    model = init_model(default_architecture(size, 10), np.random.default_rng(3))
    rng = np.random.default_rng(4)
    pixels, patch = rng.random((size, size)), rng.random((side, side))
    expected = scan_logits_full(lambda b: forward(model, b), pixels, patch, 1)
    np.testing.assert_array_equal(_scan_logits(model, pixels, patch, 1), expected)


@pytest.mark.parametrize("size, side, positions", [
    (32, 13, [64] * 16), (32, 6, [160, 96] * 4), (64, 26, [64] * 64),
])
def test_scan_sub_blocks_are_whole_rows_within_a_forward_sub_blocks_patch_matrix(
        monkeypatch, size, side, positions):
    model = init_model(default_architecture(size, 10), np.random.default_rng(3))
    # the patch-matrix rows each conv gets in a SPATIAL_ROWS-image forward sub-block
    budget = {id(model.params[step.params[0][0]]): SPATIAL_ROWS * math.prod(step.out_shape[:2])
              for step in model.plan if isinstance(step.spec, Conv)}
    conv1_rows, rectangles = [], []
    real_conv, real_rectangles = ops.conv2d_value, occlusion._grid_rectangles

    def conv(x, weight, bias, padding=0):
        out = real_conv(x, weight, bias, padding)
        assert math.prod(out.shape[:3]) <= budget[id(weight)]
        if weight.shape[2] == 1:
            conv1_rows.append(len(x))
        return out

    def grid_rectangles(*args):
        found = real_rectangles(*args)
        rectangles.extend(found)
        return found

    monkeypatch.setattr(ops, "conv2d_value", conv)
    monkeypatch.setattr(occlusion, "_grid_rectangles", grid_rectangles)
    _scan_logits(model, np.random.default_rng(5).random((size, size)), np.zeros((side, side)), 1)
    # the clean pass, then one call per sub-block
    assert conv1_rows == [1] + positions
    assert all(cols == slice(0, size) for _, cols in rectangles)


@settings(max_examples=200)
@given(count=st.integers(1, 600), width=st.integers(1, 40), most=st.integers(1, 300),
       data=st.data())
def test_grid_rectangles_tile_a_block_in_order(count, width, most, data):
    count = -(-count // width) * width
    start = data.draw(st.integers(0, count - 1))
    stop = data.draw(st.integers(start + 1, count))
    rectangles = _grid_rectangles(slice(start, stop), count, width, most)
    covered = [r * width + c for rows, cols in rectangles
               for r in range(rows.start, rows.stop) for c in range(cols.start, cols.stop)]
    assert covered == list(range(start, stop))
    for rows, cols in rectangles:
        size = (rows.stop - rows.start) * (cols.stop - cols.start)
        assert size <= most
        # whole rows where one fits, as many as fit while the block has more
        if cols.start == 0 and most >= width and (rows.start + 1) * width <= stop:
            assert cols.stop == width
        if cols == slice(0, width) and (rows.stop + 1) * width <= stop:
            assert size + width > most


def test_scan_recomputes_only_windows(monkeypatch):
    model = init_model(default_architecture(16, 10), np.random.default_rng(3))
    cells = []
    real = ops.conv2d_value

    def counting(x, *args):
        cells.append(x.shape[0] * x.shape[1] * x.shape[2])
        return real(x, *args)

    monkeypatch.setattr(ops, "conv2d_value", counting)
    monkeypatch.setattr(occlusion, "forward", None)     # no full forward per position
    _scan_grid(model, np.random.default_rng(5).random((16, 16)), 0, np.zeros((3, 3)), 1)
    # full forwards of the 256 positions would convolve padded 18x18 and 10x10 maps
    assert sum(cells) < 256 * (18 * 18 + 10 * 10) / 2


# -------------------------------------------------------------- aggregate

def _map_of_grids(monkeypatch, grids):
    """``dataset_occlusion_map`` over one correctly classified image per grid,
    with each image's scan replaced by its grid."""
    scans = iter(np.asarray(g, dtype=np.float64) for g in grids)
    monkeypatch.setattr(occlusion, "_scan_grid", lambda *args: next(scans))
    shape = np.shape(grids[0])
    occ_map, _ = dataset_occlusion_map(_constant_model(shape),
                                       _dataset(np.zeros((len(grids), *shape)), [0] * len(grids)),
                                       OccluderSpec(2, 2), 0)
    return occ_map


def test_aggregate_of_zero_maps_is_zero(monkeypatch):
    agg = _map_of_grids(monkeypatch, [np.zeros((3, 3)) for _ in range(4)])
    np.testing.assert_array_equal(agg.grid, np.zeros((3, 3)))
    assert agg.sample_count == 4


def test_aggregate_complementary_maps_is_half(monkeypatch):
    a = np.zeros((4, 4))
    a[::2] = 1.0
    agg = _map_of_grids(monkeypatch, [a, 1.0 - a])
    np.testing.assert_array_equal(agg.grid, np.full((4, 4), 0.5))


def test_aggregate_matches_second_pass_mean():
    # labels are the model's own predictions, so every image is used
    model = init_model(default_architecture(8, 3), np.random.default_rng(3))
    pixels = np.random.default_rng(4).random((5, 8, 8))
    labels = np.argmax(forward(model, pixels[..., np.newaxis]), axis=1)
    spec = OccluderSpec(3, 3)
    for stride in (1, 2):
        agg, info = dataset_occlusion_map(model, _dataset(pixels, labels), spec,
                                          np.random.default_rng(9), stride=stride)
        assert info["used"] == agg.sample_count == 5
        rng = np.random.default_rng(9)
        patches = [make_occluder(spec, rng) for _ in pixels]    # drawn in order
        expected = np.zeros((8, 8))
        for image, label, patch in zip(pixels, labels, patches):
            expected += _scan_grid(model, image, label, patch, stride)
        expected /= len(pixels)
        assert 0.0 < expected.mean() < 1.0
        np.testing.assert_array_equal(agg.grid, expected)


def test_dataset_map_excludes_misclassified(rng):
    model = _constant_model((4, 4), always=1)
    images = _dataset(rng.random((5, 4, 4)), [1, 0, 1, 0, 1])
    agg, info = dataset_occlusion_map(model, images, OccluderSpec(2, 2), rng)
    assert info["excluded"] == 2
    assert agg.sample_count == 3
    np.testing.assert_array_equal(agg.grid, np.zeros((4, 4)))


def test_dataset_map_all_misclassified_is_protocol_error(rng):
    model = _constant_model((4, 4), always=1)
    images = _dataset(rng.random((1, 4, 4)), [0])
    with pytest.raises(ProtocolError):
        dataset_occlusion_map(model, images, OccluderSpec(2, 2), rng)


@pytest.mark.parametrize("workers", [0, -3])
def test_dataset_map_rejects_workers_below_one(rng, workers):
    model = _constant_model((4, 4), always=0)
    images = _dataset(rng.random((1, 4, 4)), [0])
    with pytest.raises(ValueError, match="workers must be at least 1"):
        dataset_occlusion_map(model, images, OccluderSpec(2, 2), rng, workers=workers)


@pytest.mark.parametrize("option, value", [("limit", 0), ("limit", -1),
                                           ("stride", 0), ("stride", -1)])
def test_dataset_map_rejects_limit_or_stride_below_one(rng, option, value):
    model = _constant_model((4, 4), always=0)
    images = _dataset(rng.random((6, 4, 4)), [0] * 6)
    with pytest.raises(ValueError, match=f"{option} must be at least 1, got {value}"):
        dataset_occlusion_map(model, images, OccluderSpec(2, 2), rng, **{option: value})


def test_dataset_map_worker_count_does_not_change_result(rng):
    spec8 = SyntheticSpec(class_count=2, samples_per_class=4, image_size=6, seed=0)
    ds = generate_synthetic(spec8)
    model = _constant_model((6, 6), always=0, classes=2)
    images = ds.take(np.flatnonzero(ds.labels == 0))
    occ = OccluderSpec(2, 3)
    a, _ = dataset_occlusion_map(model, images, occ, np.random.default_rng(1), workers=1)
    b, _ = dataset_occlusion_map(model, images, occ, np.random.default_rng(1), workers=3)
    np.testing.assert_array_equal(a.grid, b.grid)


@pytest.mark.skipif(blas.threads() is None, reason="the BLAS thread count cannot be set here")
def test_multi_worker_map_runs_one_blas_thread_and_restores_the_count(monkeypatch, rng):
    model = init_model(default_architecture(8, 3), np.random.default_rng(3))
    pixels = rng.random((4, 8, 8))
    images = _dataset(pixels, predict(model, pixels[:, :, :, np.newaxis]))
    seen = []
    real = occlusion._scan_grid

    def scan(*args):
        seen.append(blas.threads())
        return real(*args)

    monkeypatch.setattr(occlusion, "_scan_grid", scan)
    with blas.pinned(2):
        dataset_occlusion_map(model, images, OccluderSpec(3, 3), 0, workers=1)
        assert seen == [2] * 4 and blas.threads() == 2
        dataset_occlusion_map(model, images, OccluderSpec(3, 3), 0, workers=2)
        assert seen[4:] == [1] * 4
        assert blas.threads() == 2


# ------------------------------------------------- placement distribution

def _omap(grid):
    g = np.asarray(grid, dtype=np.float64)
    return OcclusionMap(grid=g, sample_count=1, occluder_shape=(2, 2))


def test_constant_map_gives_uniform_distribution():
    dist = placement_distribution(_omap(np.full((4, 8), 0.3)), 0.5)
    np.testing.assert_allclose(dist.probs, 1.0 / 32, atol=1e-15)


def test_high_temperature_limit_is_uniform():
    grid = np.linspace(0, 1, 16).reshape(4, 4)
    dist = placement_distribution(_omap(grid), 1e6)
    ratio = dist.probs.max() / dist.probs.min()
    assert ratio < 1 + 1e-4


def test_two_cell_map_matches_direct_evaluation():
    dist = placement_distribution(_omap(np.array([[0.9, 0.1]])), 0.4)
    np.testing.assert_allclose(dist.probs.ravel(), [0.8808, 0.1192], atol=5e-5)
    # exact closed form
    e = np.exp([0.9 / 0.4, 0.1 / 0.4])
    np.testing.assert_allclose(dist.probs.ravel(), e / e.sum(), atol=1e-15)


def test_distribution_sums_to_one(rng):
    dist = placement_distribution(_omap(rng.random((8, 8))), 0.25)
    assert abs(dist.probs.sum() - 1.0) < 1e-12


@given(arrays(np.int64, (3, 4), elements=st.integers(0, 64)),
       st.floats(0.01, 10.0))
def test_placement_monotone_in_cell_value(counts, temperature):
    # map cells are averages of binary indicators: k/n with n the sample count
    grid = counts / 64.0
    dist = placement_distribution(_omap(grid), temperature)
    cells = grid.ravel()
    probs = dist.probs.ravel()
    for a in range(cells.size):
        for b in range(cells.size):
            if cells[a] > cells[b]:
                assert probs[a] > probs[b]


@given(st.floats(-5, 5))
def test_placement_invariant_to_constant_shift(shift):
    grid = np.linspace(0, 1, 12).reshape(3, 4)
    base = placement_distribution(_omap(grid), 0.4)
    shifted = placement_distribution(
        OcclusionMap(grid=grid + shift, sample_count=1, occluder_shape=(2, 2)), 0.4)
    assert np.max(np.abs(base.probs - shifted.probs)) < 1e-12


def test_nonpositive_temperature_rejected():
    for temperature in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="temperature"):
            placement_distribution(_omap(np.zeros((2, 2))), temperature)


# ---------------------------------------------------------------- sampling

def test_degenerate_distribution_always_returns_that_cell(rng):
    probs = np.zeros((3, 3))
    probs[1, 2] = 1.0
    dist = PlacementDistribution(probs=probs, temperature=1.0)
    np.testing.assert_array_equal(sample_locations(dist, rng, 20), np.tile([1, 2], (20, 1)))


def test_uniform_sampling_frequencies():
    dist = placement_distribution(_omap(np.zeros((2, 2))), 1.0)
    locs = sample_locations(dist, np.random.default_rng(0), 1_000_000)
    idx = locs[:, 0] * 2 + locs[:, 1]
    freqs = np.bincount(idx, minlength=4) / len(idx)
    np.testing.assert_allclose(freqs, 0.25, atol=0.002)


def test_two_cell_sampling_frequencies_match_softmax():
    dist = placement_distribution(_omap(np.array([[0.9, 0.1]])), 0.4)
    locs = sample_locations(dist, np.random.default_rng(1), 1_000_000)
    freq_first = np.mean((locs[:, 0] == 0) & (locs[:, 1] == 0))
    assert freq_first == pytest.approx(0.8808, abs=0.002)
    assert 1 - freq_first == pytest.approx(0.1192, abs=0.002)


# ------------------------------------------------------------ augmentation

def test_augment_with_deterministic_patch_and_center():
    probs = np.zeros((6, 6))
    probs[3, 3] = 1.0
    dist = PlacementDistribution(probs=probs, temperature=1.0)
    spec = OccluderSpec(2, 2, intensity_range=(0.0, 0.0), noise_model="none")
    images = np.ones((5, 6, 6))
    out = occlude_fraction(images, 1.0, dist, spec, np.random.default_rng(0))
    for k in range(5):
        assert (out[k] == 0.0).sum() == 4
        np.testing.assert_array_equal(out[k][2:4, 2:4], np.zeros((2, 2)))
    np.testing.assert_array_equal(images, np.ones((5, 6, 6)))


def test_augment_empty_batch():
    dist = PlacementDistribution(probs=np.full((4, 4), 1 / 16), temperature=1.0)
    out = occlude_fraction(np.empty((0, 4, 4)), 1.0, dist, OccluderSpec(2, 2), 0)
    assert out.shape == (0, 4, 4)


def test_augment_replays_bit_identically(rng):
    images = rng.random((8, 10, 10))
    spec = OccluderSpec(3, 3)
    a = occlude_fraction(images, 1.0, "random", spec, np.random.default_rng(7))
    b = occlude_fraction(images, 1.0, "random", spec, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_augment_shape_mismatch_rejected(rng):
    dist = PlacementDistribution(probs=np.full((4, 4), 1 / 16), temperature=1.0)
    with pytest.raises(ValueError, match="does not match"):
        occlude_fraction(rng.random((2, 5, 5)), 1.0, dist, OccluderSpec(2, 2), rng)


def test_augment_random_mode_occludes_every_image(rng):
    images = np.ones((20, 8, 8))
    spec = OccluderSpec(3, 3, intensity_range=(0.0, 0.0), noise_model="none")
    out = occlude_fraction(images, 1.0, "random", spec, rng)
    for k in range(20):
        assert (out[k] == 0.0).any()


# ------------------------------------------------------------- persistence

def test_map_csv_round_trip(tmp_path, rng):
    grid = np.round(rng.random((5, 7)), 6)
    occ_map = OcclusionMap(grid=grid, sample_count=3, occluder_shape=(2, 2))
    path = tmp_path / "map.csv"
    save_map_csv(occ_map, path)
    loaded = load_map_csv(path)
    np.testing.assert_allclose(loaded.grid, grid, atol=1e-6)
    first_line = path.read_text().splitlines()[0]
    assert len(first_line.split(",")) == 7
    assert all(len(v.split(".")[1]) == 6 for v in first_line.split(","))


@pytest.mark.parametrize("text, detail", [
    ("0.1,0.2\n0.4,0.3\nnan,0.3\n", "cell (2, 0) is nan"),
    ("0.1,inf\n0.2,0.3\n", "cell (0, 1) is inf"),
    ("0.1,1.5\n-0.2,0.3\n", "cell (0, 1) is 1.5"),
    ("0.1,x\n", "not a numeric CSV grid"),
    ("", "no cells"),
    ("\n\n", "no cells"),
    ("# a comment\n", "no cells"),
    ("# a comment\n\n# another\n", "no cells"),
])
def test_map_csv_rejects_unusable_cells(tmp_path, text, detail):
    path = tmp_path / "map.csv"
    path.write_text(text)
    with warnings.catch_warnings(), pytest.raises(FormatError) as info:
        warnings.simplefilter("error")
        load_map_csv(path)
    assert str(path) in str(info.value)
    assert detail in str(info.value)


# --------------------------------------------------------------- analysis

def test_top_decile_centroid_finds_hot_block():
    grid = np.zeros((10, 10))
    grid[5:9, 2:5] = 1.0      # 12 hot cells; top decile cutoff lands inside them
    centroid = top_decile_centroid(_omap(grid))
    assert centroid == (6.5, 3.0)
    assert point_in_rect(centroid, (5, 2, 4, 3))
    assert not point_in_rect(centroid, (0, 0, 3, 3))
