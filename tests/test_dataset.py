import hashlib
import re
import weakref

import numpy as np
import pytest

from otlab.data import (
    Dataset,
    SyntheticSpec,
    batches,
    generate_synthetic,
    load_directory,
    load_pgm,
    save_pgm,
    split,
)
from otlab.errors import FormatError, StateError


# -------------------------------------------------------------------- PGM

def _write_pgm(path, width, height, payload: bytes, header=None):
    head = header if header is not None else f"P5\n{width} {height}\n255\n".encode()
    path.write_bytes(head + payload)


def test_all_black_pgm_loads_as_zeros(tmp_path):
    p = tmp_path / "black.pgm"
    _write_pgm(p, 3, 2, bytes(6))
    np.testing.assert_array_equal(load_pgm(p), np.zeros((2, 3)))


def test_pgm_values_scale_by_255(tmp_path):
    p = tmp_path / "vals.pgm"
    _write_pgm(p, 2, 2, bytes([0, 128, 255, 64]))
    np.testing.assert_array_equal(load_pgm(p),
                                  np.array([[0.0, 128 / 255], [1.0, 64 / 255]]))


def test_pgm_round_trip_bytes(tmp_path, rng):
    p1 = tmp_path / "a.pgm"
    _write_pgm(p1, 5, 4, bytes(rng.integers(0, 256, size=20, dtype=np.uint8)))
    pixels = load_pgm(p1)
    p2 = tmp_path / "b.pgm"
    save_pgm(pixels, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_pgm_header_with_comment(tmp_path):
    p = tmp_path / "c.pgm"
    _write_pgm(p, 2, 1, bytes([7, 9]), header=b"P5\n# a comment\n2 1\n255\n")
    np.testing.assert_allclose(load_pgm(p), np.array([[7, 9]]) / 255.0)


@pytest.mark.parametrize("header,payload", [
    (b"P6\n2 2\n255\n", bytes(12)),           # wrong magic
    (b"P5\n2 2\n65535\n", bytes(8)),          # wrong maxval
    (b"P5\n2 2\n255\n", bytes(3)),            # truncated payload
    (b"P5\n2 2\n255\n", bytes(9)),            # trailing bytes
    (b"P5\n-1 -1\n255\n", b"A"),              # negative size
    (b"P5\n0 5\n255\n", b""),                 # zero width
])
def test_pgm_format_errors(tmp_path, header, payload):
    p = tmp_path / "bad.pgm"
    p.write_bytes(header + payload)
    with pytest.raises(FormatError):
        load_pgm(p)


def test_load_directory_refuses_mixed_image_shapes(tmp_path):
    for cls, side in (("a", 4), ("b", 5)):
        (tmp_path / cls).mkdir()
        save_pgm(np.zeros((side, side)), tmp_path / cls / "img0.pgm")
    with pytest.raises(FormatError, match=r"b/img0.pgm: image shape \(5, 5\) differs from "
                                          r".*a/img0.pgm's \(4, 4\)"):
        load_directory(tmp_path)


def test_load_directory_sorts_class_names(tmp_path):
    for cls, value in (("zebra", 30), ("ant", 10), ("mole", 20)):
        d = tmp_path / cls
        d.mkdir()
        save_pgm(np.full((2, 2), value / 255.0), d / "img0.pgm")
    ds = load_directory(tmp_path)
    assert ds.class_count == 3
    assert dict(zip(ds.labels.tolist(), ds.ids)) == {0: "ant/img0", 1: "mole/img0",
                                                     2: "zebra/img0"}


# -------------------------------------------------------------- synthetic

def test_synthetic_same_seed_bit_identical():
    spec = SyntheticSpec(class_count=3, samples_per_class=4, image_size=8, seed=11)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert a.ids == b.ids
    assert np.array_equal(a.labels, b.labels) and np.array_equal(a.pixels, b.pixels)


# sha256 over every image's id, label and pixels, then each split's ids, image
# array and labels: any change to the draws, their order or the layout fails this
SYNTHETIC_RENDER_SHA256 = {
    "default-seed3": "5f7d51d49b8879afaed3bf5ecb6cea64ef8b4a3eb8d1462b880cb9d110cdb90a",
    "noise-free": "60dea0543b630e80ca6c996e4e0850ddb14a486f5a99a36ed2c69c76d7805f39",
}


@pytest.mark.parametrize("case, spec", [
    ("default-seed3", SyntheticSpec(seed=3)),
    ("noise-free", SyntheticSpec(class_count=3, samples_per_class=10, image_size=9,
                                 background_noise_sigma=0.0, seed=7)),
])
def test_synthetic_render_is_pinned(case, spec):
    full = generate_synthetic(spec)
    train, val = split(full, 0.1, spec.seed)
    digest = hashlib.sha256()
    for image_id, label, pixels in zip(full.ids, full.labels, full.pixels):
        digest.update(f"{image_id},{label}".encode())
        digest.update(pixels.tobytes())
    for part in (full, train, val):
        digest.update(",".join(part.ids).encode())
        digest.update(part.pixels.tobytes())
        digest.update(part.labels.tobytes())
    assert digest.hexdigest() == SYNTHETIC_RENDER_SHA256[case]


def test_synthetic_zero_cue_strength_class_free():
    spec = SyntheticSpec(class_count=3, samples_per_class=3, image_size=8,
                         cue_strength=0.0, background_noise_sigma=0.0, seed=1)
    ds = generate_synthetic(spec)
    assert np.array_equal(ds.pixels, np.broadcast_to(ds.pixels[0], ds.pixels.shape))


def test_synthetic_cue_region_out_of_bounds_rejected():
    with pytest.raises(ValueError, match="cue_region"):
        SyntheticSpec(image_size=16, cue_region=(10, 10, 8, 8))


@pytest.mark.parametrize("fields, message", [
    ({"class_count": 0}, "class_count must be at least 1, got 0"),
    ({"image_size": -4}, "image_size must be at least 1, got -4"),
    ({"samples_per_class": 1}, "samples_per_class must be at least 2, got 1"),
    ({"background_noise_sigma": -0.1}, "background_noise_sigma must be at least 0, got -0.1"),
    ({"seed": -1}, "seed must be at least 0, got -1"),
    ({"cue_strength": 1.5}, "cue_strength must lie in [0, 1]"),
])
def test_synthetic_spec_checks_its_ranges(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SyntheticSpec(**fields)


def test_synthetic_pixels_stay_in_unit_interval():
    spec = SyntheticSpec(class_count=2, samples_per_class=5, image_size=8,
                         background_noise_sigma=0.5, seed=3)
    ds = generate_synthetic(spec)
    assert ds.pixels.min() >= 0.0 and ds.pixels.max() <= 1.0


def test_synthetic_classes_differ_inside_cue_only():
    spec = SyntheticSpec(class_count=2, samples_per_class=2, image_size=10,
                         cue_region=(2, 3, 4, 4), cue_strength=1.0,
                         background_noise_sigma=0.0, seed=5)
    ds = generate_synthetic(spec)
    a = ds.pixels[0]
    b = ds.pixels[2]   # other class
    diff = a != b
    assert diff[2:6, 3:7].any()
    outside = diff.copy()
    outside[2:6, 3:7] = False
    assert not outside.any()


def test_masking_cue_flips_predictions_more_than_elsewhere():
    # the planted region is the only class-bearing area: occluding it must
    # break a trained classifier strictly more often than occluding an
    # equal-area region disjoint from it
    from otlab.engine import Schedule, init_model, predict, train_classifier
    from otlab.occlusion import apply_occluder

    spec = SyntheticSpec(class_count=3, samples_per_class=20, image_size=10,
                         cue_region=(1, 1, 4, 4), background_noise_sigma=0.05, seed=4)
    ds = generate_synthetic(spec)
    train, val = split(ds, 0.2, seed=0)
    model = init_model({"input": [10, 10, 1],
                        "layers": [{"type": "conv", "kernel": [3, 3], "filters": 4,
                                    "padding": 1},
                                   {"type": "relu"},
                                   {"type": "maxpool", "window": 2},
                                   {"type": "dense", "units": 8},
                                   {"type": "dense", "units": 3}]},
                       np.random.default_rng(0))
    train_classifier(model, train, Schedule(steps=120, lr=0.05, batch_size=16),
                     np.random.default_rng(0))

    patch = np.full((4, 4), 0.5)
    cue_flips = far_flips = 0
    for pixels, label in zip(val.pixels, val.labels):
        if predict(model, pixels[None, :, :, None])[0] != label:
            continue
        on_cue = apply_occluder(pixels, patch, (2, 2))      # covers rows/cols 1..4
        far = apply_occluder(pixels, patch, (7, 7))         # covers rows/cols 5..8
        cue_flips += predict(model, on_cue[None, :, :, None])[0] != label
        far_flips += predict(model, far[None, :, :, None])[0] != label
    assert cue_flips > far_flips


# ------------------------------------------------------------------ split

def _dataset(per_class=10, classes=3, size=4, seed=0):
    return generate_synthetic(SyntheticSpec(class_count=classes,
                                            samples_per_class=per_class,
                                            image_size=size, seed=seed))


def test_split_fraction_per_class():
    train, val = split(_dataset(per_class=100), 0.1, seed=0)
    for c in range(3):
        assert (val.labels == c).sum() == 10
        assert (train.labels == c).sum() == 90


def test_split_is_a_partition():
    ds = _dataset()
    train, val = split(ds, 0.2, seed=4)
    train_ids = set(train.ids)
    val_ids = set(val.ids)
    assert train_ids & val_ids == set()
    assert train_ids | val_ids == set(ds.ids)


def test_split_seeds_change_partition_not_counts():
    ds = _dataset(per_class=20)
    t1, v1 = split(ds, 0.25, seed=1)
    t2, v2 = split(ds, 0.25, seed=2)
    assert set(v1.ids) != set(v2.ids)
    for c in range(3):
        assert (v1.labels == c).sum() == (v2.labels == c).sum() == 5


def test_split_rejects_tiny_classes():
    ds = Dataset(pixels=np.zeros((1, 2, 2)), labels=[0], ids=["only"], class_count=1)
    with pytest.raises(ValueError, match="at least 2"):
        split(ds, 0.5, seed=0)


def test_split_gives_an_empty_part_an_empty_pixel_array():
    # round(0.1 * 5) == 0, so no class gives the validation part an image
    full = generate_synthetic(SyntheticSpec(samples_per_class=5))
    train, val = split(full, 0.1, seed=0)
    assert (len(train), len(val)) == (50, 0)
    assert val.pixels.shape == (0, 32, 32) and val.image_shape() == (32, 32)
    np.testing.assert_array_equal(train.pixels, full.pixels)


def test_splits_own_their_pixels():
    full = _dataset(per_class=10)
    row_of = {image_id: row for row, image_id in enumerate(full.ids)}
    train, val = split(full, 0.3, seed=0)
    for part in (train, val):
        assert not np.shares_memory(part.pixels, full.pixels)
        for k, image_id in enumerate(part.ids):
            image = part.image(k)
            assert image.pixels.base is part.pixels and image.id == image_id
            assert image.pixels.tobytes() == full.pixels[row_of[image_id]].tobytes()
            assert image.label == full.labels[row_of[image_id]]
    full_array = weakref.ref(full.pixels)
    del full
    assert full_array() is None         # the splits pin none of the full render
    assert train.pixels.shape == (21, 4, 4)


@pytest.mark.parametrize("fields, message", [
    ({"labels": [0, 1]}, "3 images need 3 labels and 3 ids"),
    ({"ids": ["a", "b"]}, "3 images need 3 labels and 3 ids"),
    ({"labels": [[0], [1], [1]]}, r"labels of shape \(3, 1\)"),
    ({"pixels": np.zeros((3, 4))}, r"pixels must have shape \(N, H, W\), got \(3, 4\)"),
], ids=["short-labels", "short-ids", "2d-labels", "2d-pixels"])
def test_dataset_refuses_disagreeing_lengths_and_non_3d_pixels(fields, message):
    record = dict(pixels=np.zeros((3, 4, 4)), labels=[0, 1, 1], ids=["a", "b", "c"],
                  class_count=2)
    with pytest.raises(ValueError, match=message):
        Dataset(**{**record, **fields})


def test_take_copies_rows_in_order():
    full = _dataset(per_class=4)
    part = full.take([5, 0, 5])
    assert part.ids == (full.ids[5], full.ids[0], full.ids[5])
    np.testing.assert_array_equal(part.labels, full.labels[[5, 0, 5]])
    np.testing.assert_array_equal(part.pixels, full.pixels[[5, 0, 5]])
    assert not np.shares_memory(part.pixels, full.pixels)
    assert part.class_count == full.class_count


# ---------------------------------------------------------------- batches

def test_single_batch_is_permutation():
    ds = _dataset(per_class=5)
    (images, labels, rows), = list(batches(ds, batch_size=len(ds), rng=0))
    assert sorted(rows) == list(range(len(ds)))
    np.testing.assert_array_equal(images, ds.pixels[rows])
    np.testing.assert_array_equal(labels, ds.labels[rows])


def test_epoch_concatenation_is_bijection():
    ds = _dataset(per_class=7)
    seen = []
    for _, _, rows in batches(ds, batch_size=4, rng=9):
        seen += rows.tolist()
    assert sorted(seen) == list(range(len(ds)))
    assert seen != sorted(seen)          # actually shuffled for this seed


def test_batches_replay_identically():
    ds = _dataset()
    run1 = [rows.tolist() for _, _, rows in batches(ds, 8, np.random.default_rng(5))]
    run2 = [rows.tolist() for _, _, rows in batches(ds, 8, np.random.default_rng(5))]
    assert run1 == run2


def test_batches_keep_short_tail():
    ds = _dataset(per_class=5)   # 15 images
    sizes = [len(rows) for _, _, rows in batches(ds, 4, rng=0)]
    assert sizes == [4, 4, 4, 3]


def test_empty_dataset_rejected():
    with pytest.raises(StateError):
        next(batches(Dataset(pixels=np.zeros((0, 4, 4)), labels=[], ids=[], class_count=0),
                     4, rng=0))
