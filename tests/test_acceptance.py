"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The trend criteria (6, 7)
train small models end to end and take a few minutes each; everything is
seeded, so results are identical across runs.
"""

import json
import statistics
import time

import numpy as np
from click.testing import CliRunner

from otlab.cli import main as cli_main
from otlab.data import SyntheticSpec, generate_synthetic, split
from otlab.engine import (
    Schedule,
    init_model,
    default_architecture,
    predict,
    softmax_cross_entropy,
    softmax_cross_entropy_value,
    train_accuracy,
    train_classifier,
)
from otlab.engine import autodiff as ad
from otlab.engine import ops
from otlab.evaluation import (
    kfold_accuracy,
    make_verification_pairs,
    resolve_pairs,
    roc,
    score_pairs,
)
from otlab.metric import (
    FinetuneSchedule,
    LossConfig,
    TripletBatch,
    finetune,
    mine,
    triplet_loss,
)
from otlab.occlusion import (
    OccluderSpec,
    OcclusionMap,
    dataset_occlusion_map,
    default_occluders,
    make_occluder,
    occlude_fraction,
    placement_distribution,
    point_in_rect,
    sample_locations,
    top_decile_centroid,
)
from otlab.evaluation import map_accuracy_stats

from oracles import (
    binary_map_loops,
    finite_difference,
    kfold_loops,
    rel_error,
    roc_points_loops,
    violating_triplets_loops,
)


def report(number, name, ok, detail=""):
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# shared pipeline pieces for the trend criteria
# --------------------------------------------------------------------------

_BASE_CACHE: dict[int, tuple] = {}


def trained_base(seed):
    """Dataset splits plus a classifier trained from `seed`, cached per seed."""
    if seed not in _BASE_CACHE:
        spec = SyntheticSpec(seed=7)    # 10 classes x 100 images, cue 0.8
        dataset = generate_synthetic(spec)
        train, val = split(dataset, 0.1, spec.seed)
        rng = np.random.default_rng(seed)
        model = init_model(default_architecture(32, 10), rng)
        train_classifier(model, train, Schedule(steps=300), rng)
        _BASE_CACHE[seed] = (spec, train, val, model)
    return _BASE_CACHE[seed]


def random_unit_pool(rng, n=32, classes=4, dim=8):
    labels = rng.integers(0, classes, size=n)
    vectors = rng.normal(size=(n, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return vectors, labels


# --------------------------------------------------------------------------
# 1. gradient fidelity
# --------------------------------------------------------------------------

def test_criterion_1_gradient_fidelity():
    start = time.time()
    rng = np.random.default_rng(0)
    worst = {"conv": 0.0, "pool": 0.0, "dense": 0.0, "relu": 0.0,
             "softmax_ce": 0.0, "standard_triplet": 0.0, "batch_triplet": 0.0}
    instances = 20

    for _ in range(instances):
        # conv(+relu) layer: gradients w.r.t. input, weight, bias
        x_val = rng.random((2, 5, 5, 2))
        w_val = rng.normal(size=(3, 3, 2, 2), scale=0.5)
        b_val = rng.normal(size=2, scale=0.5)
        coeff = rng.normal(size=(2, 5, 5, 2))

        x, w, b = ad.Node(x_val), ad.Node(w_val), ad.Node(b_val)
        out = ops.conv2d(x, w, b, padding=1)
        loss = ad.sum_along(out * coeff)
        gx, gw, gb = ad.gradients(loss, [x, w, b])

        def conv_loss():
            return float((ops.conv2d_value(x_val, w_val, b_val, padding=1) * coeff).sum())

        for analytic, param in ((gx, x_val), (gw, w_val), (gb, b_val)):
            worst["conv"] = max(worst["conv"],
                                rel_error(analytic, finite_difference(conv_loss, param)))

        # max pool
        xp_val = rng.random((2, 6, 6, 2))
        cp = rng.normal(size=(2, 3, 3, 2))
        xp = ad.Node(xp_val)
        loss = ad.sum_along(ops.maxpool(xp, 2) * cp)
        (gxp,) = ad.gradients(loss, [xp])

        def pool_loss():
            return float((ops.maxpool_value(xp_val, 2) * cp).sum())

        worst["pool"] = max(worst["pool"],
                            rel_error(gxp, finite_difference(pool_loss, xp_val)))

        # dense
        xd_val = rng.normal(size=(4, 6))
        wd_val = rng.normal(size=(6, 3), scale=0.5)
        bd_val = rng.normal(size=3, scale=0.5)
        cd = rng.normal(size=(4, 3))
        xd, wd, bd = ad.Node(xd_val), ad.Node(wd_val), ad.Node(bd_val)
        loss = ad.sum_along(ops.dense(xd, wd, bd) * cd)
        gxd, gwd, gbd = ad.gradients(loss, [xd, wd, bd])

        def dense_loss():
            return float((ops.dense_value(xd_val, wd_val, bd_val) * cd).sum())

        for analytic, param in ((gxd, xd_val), (gwd, wd_val), (gbd, bd_val)):
            worst["dense"] = max(worst["dense"],
                                 rel_error(analytic, finite_difference(dense_loss, param)))

        # relu (inputs bounded away from the kink)
        xr_val = rng.normal(size=(5, 4))
        xr_val[np.abs(xr_val) < 1e-3] = 0.1
        cr = rng.normal(size=(5, 4))
        xr = ad.Node(xr_val)
        (gxr,) = ad.gradients(ad.sum_along(ad.relu(xr) * cr), [xr])

        def relu_loss():
            return float((np.maximum(xr_val, 0.0) * cr).sum())

        worst["relu"] = max(worst["relu"],
                            rel_error(gxr, finite_difference(relu_loss, xr_val)))

        # softmax cross-entropy
        logits_val = rng.normal(size=(4, 5), scale=2.0)
        labels = rng.integers(0, 5, size=4)
        node = ad.Node(logits_val)
        loss_node, _ = softmax_cross_entropy(node, labels)
        (gl,) = ad.gradients(loss_node, [node])

        def ce_loss():
            return softmax_cross_entropy_value(logits_val, labels)[0]

        worst["softmax_ce"] = max(worst["softmax_ce"],
                                  rel_error(gl, finite_difference(ce_loss, logits_val)))

        # triplet losses w.r.t. embedding coordinates
        vectors, labels = random_unit_pool(rng, n=16)
        points = ad.Node(vectors)
        batch = mine(ad.sq_distances(points), labels, LossConfig(alpha=0.5))
        if len(batch) < 2:
            continue
        ai, pi, ni = batch.index.T

        (g_std,) = ad.gradients(triplet_loss(batch, LossConfig(mode="standard", alpha=0.5)),
                                [points])

        def std_loss():
            d_ap = ((vectors[ai] - vectors[pi]) ** 2).sum(axis=1)
            d_an = ((vectors[ai] - vectors[ni]) ** 2).sum(axis=1)
            return float(np.maximum(0.0, d_ap - d_an + 0.5).sum())

        worst["standard_triplet"] = max(worst["standard_triplet"],
                                        rel_error(g_std, finite_difference(std_loss, vectors)))

        # the standard loss's walk consumed the batch's graph: mine the same triplets again
        batch = mine(ad.sq_distances(points), labels, LossConfig(alpha=0.5))
        assert np.array_equal(batch.index.T, [ai, pi, ni])
        (g_bat,) = ad.gradients(triplet_loss(batch, LossConfig(alpha=0.5, beta=0.7)),
                                [points])

        def bat_loss():
            d_ap = ((vectors[ai] - vectors[pi]) ** 2).sum(axis=1)
            d_an = ((vectors[ai] - vectors[ni]) ** 2).sum(axis=1)
            return float(0.3 * (d_ap.mean() - d_an.mean() + 0.5)
                         + 0.7 * (d_ap.var() + d_an.var()))

        worst["batch_triplet"] = max(worst["batch_triplet"],
                                     rel_error(g_bat, finite_difference(bat_loss, vectors)))

    elapsed = time.time() - start
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 60
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f", {elapsed:.1f}s"
    report(1, "gradient fidelity vs central finite differences", ok, detail)


# --------------------------------------------------------------------------
# 2. Eq.-level reductions of the batch objective
# --------------------------------------------------------------------------

def test_criterion_2_batch_loss_reductions():
    rng = np.random.default_rng(1)
    worst_mean = worst_var = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        vectors, labels, triplets = [], [], []
        for i in range(n):
            base = 3 * i
            vectors += [[0.0], [float(np.sqrt(rng.uniform(0, 2)))],
                        [float(np.sqrt(rng.uniform(0, 2)))]]
            labels += [2 * i, 2 * i, 2 * i + 1]
            triplets.append((base, base + 1, base + 2))
        batch = TripletBatch(ad.sq_distances(np.array(vectors)), np.array(labels), triplets)

        loss0 = float(triplet_loss(batch, LossConfig(alpha=0.5, beta=0.0)).value)
        worst_mean = max(worst_mean, abs(loss0 - (batch.mu_ap - batch.mu_an + 0.5)))
        loss1 = float(triplet_loss(batch, LossConfig(alpha=0.5, beta=1.0)).value)
        worst_var = max(worst_var, abs(loss1 - (batch.var_ap + batch.var_an)))

    ok = worst_mean <= 1e-12 and worst_var <= 1e-12
    report(2, "beta=0 mean-separation and beta=1 variance reductions", ok,
           f"max dev {worst_mean:.2e} / {worst_var:.2e} over 100 batches")


# --------------------------------------------------------------------------
# 3. oracle equivalence
# --------------------------------------------------------------------------

def test_criterion_3_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(2)

    # online triplet selection vs exhaustive enumeration
    mining_ok = True
    for n in (16, 32, 48, 64):
        vectors, labels = random_unit_pool(rng, n=n, classes=4)
        batch = mine(ad.sq_distances(vectors), labels, LossConfig(alpha=0.5))
        mining_ok &= (set(map(tuple, batch.index.tolist()))
                      == violating_triplets_loops(vectors, labels, 0.5))

    # k-fold protocol vs brute-force sweep
    kfold_ok = True
    for trial in range(3):
        m = int(rng.integers(60, 201))
        scores = np.round(rng.normal(size=m), 2)
        matches = rng.random(m) > 0.5
        matches[:2] = [True, False]
        rep = kfold_accuracy(scores, matches, k=10)
        accs, thresholds = kfold_loops(list(scores), list(matches), 10)
        kfold_ok &= np.allclose(rep["per_fold_accuracy"], accs, atol=1e-12)
        kfold_ok &= np.allclose(rep["per_fold_threshold"], thresholds, atol=1e-12)

        curve = roc(scores, matches)
        kfold_ok &= curve.points == roc_points_loops(list(scores), list(matches))

    # binary occlusion maps vs an independent position sweep on 8x8 images
    spec8 = SyntheticSpec(class_count=3, samples_per_class=10, image_size=8,
                          cue_region=(2, 2, 4, 4), background_noise_sigma=0.05, seed=2)
    ds8 = generate_synthetic(spec8)
    model8 = init_model({"input": [8, 8, 1],
                         "layers": [{"type": "conv", "kernel": [3, 3], "filters": 4,
                                     "padding": 1},
                                    {"type": "relu"},
                                    {"type": "dense", "units": 8},
                                    {"type": "dense", "units": 3}]},
                        np.random.default_rng(0))
    train_classifier(model8, ds8, Schedule(steps=60, lr=0.05, batch_size=10),
                     np.random.default_rng(0))
    maps_ok = True
    checked = 0
    for image in ds8.images:
        if checked == 4:
            break
        if predict(model8, image.pixels[None, :, :, None])[0] != image.label:
            continue
        checked += 1
        occ = OccluderSpec(3, 2)
        patch = make_occluder(occ, np.random.default_rng(checked))
        # the one-image map draws that same patch first
        result, _ = dataset_occlusion_map(model8, [image], occ, np.random.default_rng(checked))
        expected = binary_map_loops(
            lambda img: predict(model8, img[None, :, :, None])[0],
            image.pixels, image.label, patch)
        maps_ok &= np.array_equal(result.grid, expected)

    elapsed = time.time() - start
    ok = mining_ok and kfold_ok and maps_ok and checked == 4 and elapsed < 120
    report(3, "mining/k-fold/ROC/occlusion-map oracle equivalence", ok,
           f"mining={mining_ok} kfold+roc={kfold_ok} maps={maps_ok}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 4. sampling correctness
# --------------------------------------------------------------------------

def test_criterion_4_sampling_correctness():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 65, size=(16, 16))
    grid = counts / 64.0
    occ_map = OcclusionMap(grid=grid, sample_count=64, occluder_shape=(3, 3))
    dist = placement_distribution(occ_map, 0.4)

    locs = sample_locations(dist, np.random.default_rng(4), 1_000_000)
    idx = locs[:, 0] * 16 + locs[:, 1]
    freqs = np.bincount(idx, minlength=256) / 1_000_000
    tv = 0.5 * np.abs(freqs - dist.probs.ravel()).sum()

    cells = grid.ravel()
    probs = dist.probs.ravel()
    order = np.argsort(cells, kind="stable")
    monotone = True
    for a in range(256):
        for b in range(256):
            if cells[a] > cells[b] and not probs[a] > probs[b]:
                monotone = False

    ok = tv < 0.01 and monotone
    report(4, "empirical placement frequencies and exact monotonicity", ok,
           f"TV={tv:.5f} at 1e6 draws on 16x16")


# --------------------------------------------------------------------------
# 5. ground-truth map recovery
# --------------------------------------------------------------------------

def test_criterion_5_ground_truth_recovery():
    start = time.time()
    spec, train, val, model = trained_base(1)
    acc = train_accuracy(model, train)
    train_time = time.time() - start

    occ = default_occluders(32)["small"]
    occ_map, info = dataset_occlusion_map(model, val.images, occ,
                                          np.random.default_rng(11), limit=40)
    centroid = top_decile_centroid(occ_map)
    inside = point_in_rect(centroid, spec.resolved_cue_region())
    elapsed = time.time() - start

    ok = acc >= 0.95 and train_time < 300 and inside
    report(5, "classifier reaches 95% and map recovers the planted cue", ok,
           f"train acc {acc:.3f} in {train_time:.0f}s; centroid {centroid} "
           f"vs cue {spec.resolved_cue_region()}; total {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 6. guided-augmentation trend (Table-1 style)
# --------------------------------------------------------------------------

def test_criterion_6_augmentation_trend():
    # The cue is planted off-center so the guided scheme is genuinely
    # distinguishable from the center-weighted random baseline.
    start = time.time()
    occ_large = default_occluders(32)["large"]
    temperature = 0.6
    results = {"A": [], "P": [], "R": []}

    spec = SyntheticSpec(cue_region=(4, 4, 12, 12), seed=7)
    dataset = generate_synthetic(spec)
    train, val = split(dataset, 0.1, spec.seed)

    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        base = init_model(default_architecture(32, 10), rng)
        train_classifier(base, train, Schedule(steps=300), rng)

        half = len(val.images) // 2
        guide_map, _ = dataset_occlusion_map(base, val.images[:half], occ_large,
                                             np.random.default_rng(seed + 100), limit=50)
        placement = placement_distribution(guide_map, temperature)

        models = {"A": base}
        for tag, place in (("P", placement), ("R", "random")):
            tuned = base.copy()
            train_classifier(
                tuned, train, Schedule(steps=300), np.random.default_rng(seed),
                augment=lambda imgs, g, p=place: occlude_fraction(imgs, 0.5, p,
                                                                  occ_large, g))
            models[tag] = tuned

        for tag, model in models.items():
            test_map, _ = dataset_occlusion_map(model, val.images[half:], occ_large,
                                                np.random.default_rng(seed + 200),
                                                limit=50)
            results[tag].append(map_accuracy_stats(test_map))

    med = {tag: (statistics.median(a for a, _ in vals),
                 statistics.median(s for _, s in vals))
           for tag, vals in results.items()}
    elapsed = time.time() - start
    ok = (med["P"][0] > med["A"][0] and med["P"][1] < med["A"][1]
          and med["P"][0] >= med["R"][0] and elapsed < 1200)
    report(6, "guided occluders beat baseline and random placement", ok,
           f"median acc A={med['A'][0]:.4f} P={med['P'][0]:.4f} R={med['R'][0]:.4f}; "
           f"median std A={med['A'][1]:.4f} P={med['P'][1]:.4f}; {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 7. batch-vs-standard triplet trend (Fig. 4 / Table-2 style)
# --------------------------------------------------------------------------

def test_criterion_7_triplet_trend():
    start = time.time()
    schedule = FinetuneSchedule(steps=150, lr=0.005)
    results = {"standard": [], "batch": []}

    for seed in (1, 2, 3):
        spec, train, val, base = trained_base(seed)
        pairs = make_verification_pairs(val, 150, 150, np.random.default_rng(42))
        resolved = resolve_pairs(pairs, val)

        for mode, online in (("standard", True), ("batch", False)):
            model = base.copy()
            model, _rows = finetune(model, train,
                                    LossConfig(mode=mode, online=online, max_triplets=64),
                                    schedule, np.random.default_rng(seed))
            scores, matches = score_pairs(model, resolved)
            pos, neg = scores[matches], scores[~matches]
            var_sum = pos.var() + neg.var()
            decid = abs(pos.mean() - neg.mean()) / np.sqrt(var_sum / 2.0)
            kf = kfold_accuracy(scores, matches, 10)["mean_accuracy"]
            results[mode].append((var_sum, decid, kf))

    med = {mode: tuple(statistics.median(v[i] for v in vals) for i in range(3))
           for mode, vals in results.items()}
    elapsed = time.time() - start
    ok = (med["batch"][0] < med["standard"][0]
          and med["batch"][1] > med["standard"][1]
          and med["batch"][2] >= med["standard"][2]
          and elapsed < 1200)
    report(7, "batch triplet loss ends tighter, more decidable, at least as accurate", ok,
           f"median var batch={med['batch'][0]:.4f} std-loss={med['standard'][0]:.4f}; "
           f"decid {med['batch'][1]:.2f} vs {med['standard'][1]:.2f}; "
           f"kfold {med['batch'][2]:.4f} vs {med['standard'][2]:.4f}; {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 8. CLI determinism
# --------------------------------------------------------------------------

def test_criterion_8_cli_determinism(tmp_path):
    runner = CliRunner()
    cfg_doc = {
        "seed": 5,
        "dataset": {"synthetic": {"class_count": 4, "samples_per_class": 10,
                                  "image_size": 10, "cue_region": [3, 3, 4, 4],
                                  "cue_strength": 0.9, "background_noise_sigma": 0.03,
                                  "seed": 9}},
        "schedule": {"steps": 40, "lr": 0.05, "batch_size": 10},
        "occluder": {"height": 3, "width": 3},
        "temperature": 0.4,
        "map_images": 4,
        "loss": {"mode": "batch", "online": False, "max_triplets": 32},
        "finetune": {"steps": 5, "lr": 0.002, "pool_classes": 4, "pool_per_class": 4},
        "eval": {"k": 4},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(cfg_doc))

    from otlab.config import ExperimentConfig
    from otlab.evaluation import save_pairs_csv

    full, _, _ = ExperimentConfig.load(cfg).dataset_splits()
    pairs = tmp_path / "pairs.csv"
    save_pairs_csv(make_verification_pairs(full, 16, 16, np.random.default_rng(3)), pairs)

    def run_pipeline(root):
        root.mkdir()
        outs = {}

        def run(cmd, out, *extra):
            result = runner.invoke(
                cli_main, [cmd, "--config", str(cfg), "--out", str(root / out), *extra],
                catch_exceptions=False)
            assert result.exit_code == 0, result.output
            outs[out] = sorted((root / out).iterdir())

        run("train-classifier", "s1")
        run("occlusion-map", "s2", str(root / "s1" / "checkpoint.otl"))
        run("train-augmented", "s3", str(root / "s1" / "checkpoint.otl"),
            "--map", str(root / "s2" / "map.csv"))
        run("finetune-triplet", "s4", str(root / "s3" / "checkpoint.otl"))
        run("evaluate", "s5", str(root / "s4" / "checkpoint.otl"),
            "--pairs", str(pairs))
        result = runner.invoke(cli_main, ["report", "--out", str(root / "s5")],
                               catch_exceptions=False)
        assert result.exit_code == 0
        outs["s5"] = sorted((root / "s5").iterdir())
        return outs

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")

    mismatches = []
    for stage in first:
        names1 = [p.name for p in first[stage]]
        names2 = [p.name for p in second[stage]]
        if names1 != names2:
            mismatches.append(f"{stage}: file sets differ")
            continue
        for p1, p2 in zip(first[stage], second[stage]):
            if p1.read_bytes() != p2.read_bytes():
                mismatches.append(f"{stage}/{p1.name}")

    ok = not mismatches
    report(8, "every CLI command reruns byte-identically", ok,
           "all artifacts identical" if ok else f"differs: {mismatches}")
