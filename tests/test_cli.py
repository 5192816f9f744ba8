import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from otlab.atomic import atomic_write
from otlab.cli import _write_csv, main
from otlab.config import ExperimentConfig
from otlab.data import save_pgm
from otlab.engine import load_checkpoint, read_checkpoint, save_checkpoint
from otlab.engine.model import Dense, Model, default_architecture, init_model
from otlab.errors import ConfigError
from otlab.evaluation import make_verification_pairs, save_pairs_csv


@pytest.fixture
def runner():
    return CliRunner()


def base_config(**overrides):
    cfg = {
        "seed": 5,
        "dataset": {"synthetic": {"class_count": 4, "samples_per_class": 10,
                                  "image_size": 10, "cue_region": [3, 3, 4, 4],
                                  "cue_strength": 0.9, "background_noise_sigma": 0.03,
                                  "seed": 9}},
        "schedule": {"steps": 60, "lr": 0.05, "batch_size": 10},
        "occluder": {"height": 3, "width": 3},
        "temperature": 0.4,
        "map_images": 4,
        "loss": {"mode": "batch", "online": False, "max_triplets": 32},
        "finetune": {"steps": 5, "lr": 0.002, "pool_classes": 4, "pool_per_class": 4},
        "eval": {"k": 4},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(**overrides)))
    return path


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def test_full_pipeline(tmp_path, runner):
    cfg = write_config(tmp_path)
    stage1 = tmp_path / "s1"
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(stage1)])
    assert (stage1 / "checkpoint.otl").is_file()
    log = (stage1 / "train_log.csv").read_text().splitlines()
    assert log[0] == "step,loss,accuracy"
    assert len(log) == 61

    stage2 = tmp_path / "s2"
    run_ok(runner, ["occlusion-map", "--config", str(cfg), "--out", str(stage2),
                    str(stage1 / "checkpoint.otl")])
    stats = json.loads((stage2 / "map_stats.json").read_text())
    assert stats["occluder"] == [3, 3]
    assert 0.0 <= stats["mean_accuracy"] <= 1.0
    assert (stage2 / "map.pgm").is_file()
    rows = (stage2 / "map.csv").read_text().splitlines()
    assert len(rows) == 10 and len(rows[0].split(",")) == 10

    stage3 = tmp_path / "s3"
    run_ok(runner, ["train-augmented", "--config", str(cfg), "--out", str(stage3),
                    str(stage1 / "checkpoint.otl"), "--map", str(stage2 / "map.csv")])
    assert (stage3 / "checkpoint.otl").is_file()

    stage3r = tmp_path / "s3r"
    cfg_r = tmp_path / "config_r.json"
    cfg_r.write_text(json.dumps(base_config(placement_mode="R")))
    run_ok(runner, ["train-augmented", "--config", str(cfg_r), "--out", str(stage3r),
                    str(stage1 / "checkpoint.otl")])

    stage4 = tmp_path / "s4"
    run_ok(runner, ["finetune-triplet", "--config", str(cfg), "--out", str(stage4),
                    str(stage3 / "checkpoint.otl")])
    header = (stage4 / "train_log.csv").read_text().splitlines()[0]
    assert header == "step,loss,mu_ap,mu_an,var_ap,var_an,decidability,triplet_count"
    meta = read_checkpoint(stage4 / "checkpoint.otl").training_meta
    assert meta["loss_mode"] == "triplet_batch"

    pairs_path = tmp_path / "pairs.csv"
    config = ExperimentConfig.load(cfg)
    full, _, _ = config.dataset_splits()
    save_pairs_csv(make_verification_pairs(full, 20, 20, np.random.default_rng(3)),
                   pairs_path)
    stage5 = tmp_path / "s5"
    run_ok(runner, ["evaluate", "--config", str(cfg), "--out", str(stage5),
                    str(stage4 / "checkpoint.otl"), "--pairs", str(pairs_path)])
    report = json.loads((stage5 / "kfold.json").read_text())
    assert report["k"] == 4 and len(report["per_fold_accuracy"]) == 4
    assert "decidability" in report
    roc_lines = (stage5 / "roc.csv").read_text().splitlines()
    assert roc_lines[0] == "threshold,far,tar"

    result = run_ok(runner, ["report", "--out", str(stage5)])
    assert "verification" in result.output
    assert (stage5 / "report.txt").is_file()


def test_zero_steps_writes_initial_checkpoint(tmp_path, runner):
    cfg = write_config(tmp_path, schedule={"steps": 0})
    out = tmp_path / "out"
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(out)])
    log = (out / "train_log.csv").read_text().splitlines()
    assert log == ["step,loss,accuracy"]
    assert load_checkpoint(out / "checkpoint.otl").params


def test_same_seed_bit_identical_checkpoints(tmp_path, runner):
    cfg = write_config(tmp_path, schedule={"steps": 20, "lr": 0.05, "batch_size": 10})
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(out1)])
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(out2)])
    assert (out1 / "checkpoint.otl").read_bytes() == (out2 / "checkpoint.otl").read_bytes()
    assert (out1 / "train_log.csv").read_bytes() == (out2 / "train_log.csv").read_bytes()


def test_seed_flag_overrides_config(tmp_path, runner):
    cfg = write_config(tmp_path, schedule={"steps": 10, "lr": 0.05, "batch_size": 10})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(out1)])
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--seed", "99",
                    "--out", str(out2)])
    assert (out1 / "checkpoint.otl").read_bytes() != (out2 / "checkpoint.otl").read_bytes()


def test_invalid_config_exits_2_without_outputs(tmp_path, runner):
    cfg = tmp_path / "config.json"
    cfg.write_text("{not json")
    out = tmp_path / "out"
    result = runner.invoke(main, ["train-classifier", "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 2
    assert not out.exists()


def test_missing_seed_exits_2(tmp_path, runner):
    cfg_doc = base_config()
    del cfg_doc["seed"]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(cfg_doc))
    result = runner.invoke(main, ["train-classifier", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "seed" in result.output


@pytest.mark.parametrize("overrides, accessor, message", [
    ({"stride": "abc"}, "stride", "stride must be a number, got 'abc'"),
    ({"stride": None}, "stride", "stride must be a number, got None"),
    ({"stride": 1.5}, "stride", "stride must be an integer, got 1.5"),
    ({"stride": True}, "stride", "stride must be a number, got True"),
    ({"temperature": float("nan")}, "temperature", "temperature must be finite"),
    ({"schedule": {"lr": float("inf")}}, "schedule", "schedule.lr must be finite"),
    ({"schedule": [1]}, "schedule", '"schedule" must be a JSON object'),
    ({"finetune": {"steps": "5"}}, "finetune_schedule", "finetune.steps must be a number"),
    ({"loss": {"online": "false"}}, "loss", "loss.online must be true or false"),
    ({"loss": {"max_triplets": 2.5}}, "loss", "loss.max_triplets must be an integer"),
    ({"eval": {"k": 1e400}}, "eval_k", "eval.k must be finite"),
])
def test_config_scalars_are_type_checked(tmp_path, overrides, accessor, message):
    cfg = ExperimentConfig.load(write_config(tmp_path, **overrides))
    with pytest.raises(ConfigError, match=re.escape(message)):
        getattr(cfg, accessor)()


def test_integral_float_config_values_are_accepted(tmp_path):
    cfg = ExperimentConfig.load(write_config(tmp_path, stride=2.0, seed=7.0))
    assert cfg.stride() == 2 and isinstance(cfg.stride(), int) and cfg.seed == 7


@pytest.mark.parametrize("stride, message", [("abc", "stride must be a number"),
                                              (1.5, "stride must be an integer"),
                                              (float("inf"), "stride must be finite")])
def test_occlusion_map_bad_stride_exits_2(tmp_path, runner, stride, message):
    cfg = write_config(tmp_path, schedule={"steps": 0})
    stage1 = tmp_path / "s1"
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(stage1)])
    cfg = write_config(tmp_path, schedule={"steps": 0}, stride=stride)
    out = tmp_path / "s2"
    result = runner.invoke(main, ["occlusion-map", "--config", str(cfg), "--out", str(out),
                                  str(stage1 / "checkpoint.otl")])
    assert result.exit_code == 2
    assert message in result.output
    assert not out.exists()


def test_corrupt_checkpoint_exits_2_naming_field(tmp_path, runner):
    cfg = write_config(tmp_path, schedule={"steps": 0})
    stage1 = tmp_path / "s1"
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(stage1)])
    path = stage1 / "checkpoint.otl"
    raw = path.read_bytes()
    n = int.from_bytes(raw[4:8], "little")
    header = json.loads(raw[8:8 + n])
    header["tensors"]["dense1.bias"][1] = "0"
    new = json.dumps(header).encode()
    path.write_bytes(raw[:4] + len(new).to_bytes(4, "little") + new + raw[8 + n:])
    result = runner.invoke(main, ["occlusion-map", "--config", str(cfg),
                                  "--out", str(tmp_path / "s2"), str(path)])
    assert result.exit_code == 2
    assert "tensor 'dense1.bias' offset must be a nonnegative integer" in result.output


def test_checkpoint_with_a_misshapen_tensor_exits_2(tmp_path, runner):
    model = init_model(default_architecture(10, 4), 0)
    model.params["conv1.weight"] = np.zeros((2, 2, 1, 8))   # under a 3x3 conv layer
    path = tmp_path / "bad.otl"
    save_checkpoint(model, path)
    result = runner.invoke(main, ["occlusion-map", "--config", str(write_config(tmp_path)),
                                  "--out", str(tmp_path / "s2"), str(path)])
    assert result.exit_code == 2
    assert "parameter conv1.weight has shape (2, 2, 1, 8), expected (3, 3, 1, 8)" in result.output


def test_malformed_model_input_exits_2(tmp_path, runner):
    cfg = write_config(tmp_path, model={"input": ["a", 6, 1],
                                        "layers": [{"type": "dense", "units": 4}]})
    result = runner.invoke(main, ["train-classifier", "--config", str(cfg),
                                  "--out", str(tmp_path / "s1")])
    assert result.exit_code == 2
    assert "model input must be a number, got 'a'" in result.output


def test_zero_pool_window_exits_2(tmp_path, runner):
    cfg = write_config(tmp_path, model={"input": [10, 10, 1],
                                        "layers": [{"type": "maxpool", "window": 0},
                                                   {"type": "dense", "units": 4}]})
    result = runner.invoke(main, ["train-classifier", "--config", str(cfg),
                                  "--out", str(tmp_path / "s1")])
    assert result.exit_code == 2
    assert "maxpool window must be at least 1, got 0" in result.output


def test_missing_checkpoint_exits_2(tmp_path, runner):
    cfg = write_config(tmp_path)
    result = runner.invoke(main, ["occlusion-map", "--config", str(cfg),
                                  "--out", str(tmp_path / "out"),
                                  str(tmp_path / "nope.otl")])
    assert result.exit_code == 2


def test_train_augmented_p_mode_requires_map(tmp_path, runner):
    cfg = write_config(tmp_path)
    out = tmp_path / "s1"
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(out)])
    result = runner.invoke(main, ["train-augmented", "--config", str(cfg),
                                  "--out", str(tmp_path / "s3"),
                                  str(out / "checkpoint.otl")])
    assert result.exit_code == 2
    assert "map" in result.output


def test_train_augmented_non_finite_map_exits_2(tmp_path, runner):
    cfg = write_config(tmp_path)
    out = tmp_path / "s1"
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(out)])
    grid = np.full((10, 10), 0.5)
    grid[4, 7] = np.nan
    bad_map = tmp_path / "map.csv"
    np.savetxt(bad_map, grid, delimiter=",")
    result = runner.invoke(main, ["train-augmented", "--config", str(cfg),
                                  "--out", str(tmp_path / "s3"),
                                  str(out / "checkpoint.otl"), "--map", str(bad_map)])
    assert result.exit_code == 2
    assert "cell (4, 7) is nan" in result.output
    assert not (tmp_path / "s3").exists()


def test_diverging_finetune_exits_3_naming_parameter(tmp_path, runner):
    # from an untrained base every hinge is active, so the summed standard
    # loss has gradients large enough that lr * g overflows in update 1
    cfg = write_config(tmp_path, schedule={"steps": 0},
                       loss={"mode": "standard", "online": False},
                       finetune={"steps": 3, "lr": 1e308, "pool_classes": 4,
                                 "pool_per_class": 4})
    out = tmp_path / "s1"
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(out)])
    with np.errstate(all="ignore"):
        result = runner.invoke(main, ["finetune-triplet", "--config", str(cfg),
                                      "--out", str(tmp_path / "s4"),
                                      str(out / "checkpoint.otl")])
    assert result.exit_code == 3
    assert "non-finite parameter conv1.weight after the update at step 1" in result.output


def test_malformed_pairs_row_exits_2_with_line(tmp_path, runner):
    cfg = write_config(tmp_path)
    stage1 = tmp_path / "s1"
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(stage1)])
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("id_a,id_b,is_match\nc00/s000,c00/s001,1\nc00/s000,c01/s000,maybe\n")
    result = runner.invoke(main, ["evaluate", "--config", str(cfg),
                                  "--out", str(tmp_path / "s5"),
                                  str(stage1 / "checkpoint.otl"),
                                  "--pairs", str(pairs)])
    assert result.exit_code == 2
    assert "line 3" in result.output


def test_no_correct_classification_exits_4(tmp_path, runner):
    # a hand-built model that predicts the wrong class for every image
    data_root = tmp_path / "data"
    for cls, fill in (("a", 0.2), ("b", 0.8)):
        d = data_root / cls
        d.mkdir(parents=True)
        for k in range(4):
            save_pgm(np.full((4, 4), fill), d / f"img{k}.pgm")
    weight = np.zeros((16, 2))
    weight[:, 1] = -1.0     # low-intensity images -> class 1, high -> class 0
    model = Model((4, 4, 1), [Dense(2)],
                  {"dense1.weight": weight, "dense1.bias": np.array([-10.0, 0.0])})
    # class "a" (fill 0.2): logit1 = -3.2 > -10 -> predict 1 (wrong, label 0)
    # class "b" (fill 0.8): logit1 = -12.8 < -10 -> predict 0 (wrong, label 1)
    ckpt = tmp_path / "wrong.otl"
    save_checkpoint(model, ckpt)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "seed": 1,
        "dataset": {"path": str(data_root)},
        "val_fraction": 0.5,
        "occluder": {"height": 2, "width": 2},
    }))
    result = runner.invoke(main, ["occlusion-map", "--config", str(cfg),
                                  "--out", str(tmp_path / "out"), str(ckpt)])
    assert result.exit_code == 4


def test_report_on_empty_directory(tmp_path, runner):
    out = tmp_path / "empty"
    out.mkdir()
    result = run_ok(runner, ["report", "--out", str(out)])
    assert "no known artifacts" in result.output


@pytest.mark.parametrize("command, overrides, pairs_dir, message", [
    ("train-augmented", {"map": 5}, False, "map must be a file path, got 5"),
    ("evaluate", {"eval": {"k": 4, "pairs": 7}}, False, "eval.pairs must be a file path, got 7"),
    ("evaluate", {}, True, "is not a file"),
])
def test_bad_input_paths_exit_2(tmp_path, runner, command, overrides, pairs_dir, message):
    cfg = write_config(tmp_path, schedule={"steps": 0}, **overrides)
    stage1 = tmp_path / "s1"
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(stage1)])
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "s2"),
            str(stage1 / "checkpoint.otl")]
    if pairs_dir:
        args += ["--pairs", str(tmp_path)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert message in result.output
    assert not (tmp_path / "s2").exists()


@pytest.mark.parametrize("text, message", [
    ("{not json", "JSONDecodeError"),
    ('{"mean_accuracy": 0.5, "std": 0.1, "sample_count": 3, "excluded": 0}',
     "KeyError: 'occluder'"),
])
def test_report_on_malformed_map_stats_exits_2(tmp_path, runner, text, message):
    (tmp_path / "map_stats.json").write_text(text)
    result = runner.invoke(main, ["report", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert f"{tmp_path / 'map_stats.json'}: malformed artifact" in result.output
    assert message in result.output


def test_a_writer_that_fails_midway_leaves_the_previous_file(tmp_path):
    path = tmp_path / "train_log.csv"
    _write_csv(path, ["step", "loss"], [(1, 0.5)])
    before = path.read_bytes()

    def rows():
        yield (1, 0.25)
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        _write_csv(path, ["step", "loss"], rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["train_log.csv"]

    with pytest.raises(RuntimeError, match="interrupted"):
        with atomic_write(tmp_path / "new.json") as fh:
            fh.write("{")
            raise RuntimeError("interrupted")
    assert [p.name for p in tmp_path.iterdir()] == ["train_log.csv"]
