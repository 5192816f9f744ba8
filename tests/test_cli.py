import copy
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import otlab
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


@pytest.mark.parametrize("overrides, case, message", [
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
    ({"dataset": {"synthetic": {"cue_region": [2.7, 3, 4, 4]}}}, "dataset_splits",
     "dataset.synthetic.cue_region must be an integer, got 2.7"),
    ({"occluder": {"height": 3, "width": 3, "intensity_range": ["0.5", 1]}}, "occluder",
     "occluder.intensity_range must be a number, got '0.5'"),
    ({"loss": {"mode": "batch", "alhpa": 0.5}}, "loss", "unknown loss fields: ['alhpa']"),
    ({"occluder": {"height": 3, "width": 3, "size": 3}}, "occluder",
     "unknown occluder fields: ['size']"),
])
def test_config_scalars_are_type_checked(tmp_path, overrides, case, message):
    # ``case`` only names the test: the accessor that once read the key, before
    # the whole config was read at load
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.load(write_config(tmp_path, **overrides))


@pytest.mark.parametrize("command, overrides, message", [
    ("train-classifier", {"schedule": {"step": 2}}, "unknown schedule fields: ['step']"),
    ("train-classifier", {"schedule": {"lr": -1}},
     "invalid schedule: lr must be at least 0, got -1.0"),
    ("finetune-triplet", {"finetune": {"step": 2}}, "unknown finetune fields: ['step']"),
    ("finetune-triplet", {"finetune": {"lr": -0.1}},
     "invalid finetune: lr must be at least 0, got -0.1"),
    ("finetune-triplet", {"finetune": {"pool_classes": 0}},
     "pool_classes must be at least 1, got 0"),
    ("finetune-triplet", {"finetune": {"pool_per_class": 0}},
     "pool_per_class must be at least 1, got 0"),
    ("train-classifier", {"model": {"input": [10, 10, 1], "layers": [{"type": "dense"}]}},
     "dense needs 'units'"),
    ("train-classifier", {"model": {"input": [10, 10, 1], "layers": 5}},
     'model must contain "input" and a "layers" list'),
])
def test_bad_config_sections_exit_2_before_any_output(tmp_path, runner, command,
                                                         overrides, message):
    out = tmp_path / "out"
    args = [command, "--config", str(write_config(tmp_path, **overrides)), "--out", str(out)]
    if command == "finetune-triplet":
        args.append(str(_dense_net_checkpoint(tmp_path, np.full((100, 3), 0.01), np.zeros(3))))
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists()


# each --config command, with the positional arguments it needs
COMMANDS = {"train-classifier": [], "occlusion-map": ["m.otl"], "train-augmented": ["m.otl"],
            "finetune-triplet": ["m.otl"], "evaluate": ["m.otl"]}


def _fails_at_load(runner, tmp_path, doc, needle):
    """Every --config command exits 2 on config ``doc``, naming ``needle``, with no --out."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for command, extra in COMMANDS.items():
        result = runner.invoke(main, [command, "--config", str(path), "--out", str(out),
                                      *(str(tmp_path / arg) for arg in extra)])
        assert result.exit_code == 2, (command, doc, result.output)
        assert needle in result.output, (command, result.output)
        assert not out.exists()


SYNTHETIC = base_config()["dataset"]["synthetic"]


@pytest.mark.parametrize("overrides, message", [
    ({"schedul": {"steps": 2}}, "unknown config fields: ['schedul']"),
    ({"eval": {"kk": 3}}, "unknown eval fields: ['kk']"),
    ({"dataset": {"synthetic": SYNTHETIC, "split_sed": 3}},
     "unknown dataset fields: ['split_sed']"),
    ({"dataset": {"synthetic": SYNTHETIC, "path": "data"}},
     'invalid dataset: needs exactly one of "synthetic" and "path"'),
    ({"dataset": {"path": 5}}, "dataset.path must be a file path, got 5"),
    ({"dataset": {"synthetic": dict(SYNTHETIC, image_size=-4)}},
     "invalid dataset.synthetic: image_size must be at least 1, got -4"),
    ({"dataset": {"synthetic": SYNTHETIC, "split_seed": -1}},
     "invalid dataset: split_seed must be at least 0, got -1"),
    ({"model": {"input": [10, 10, 1],
                "layers": [{"type": "conv", "kernel": [3, 3], "filters": "x"}]}},
     "conv filters must be a number, got 'x'"),
    ({"model": {"input": [4, 4, 1], "layers": [{"type": "conv", "kernel": [5, 5], "filters": 2},
                                               {"type": "dense", "units": 4}]}},
     "layer 0: kernel (5, 5) too large for input (4, 4, 1)"),
    ({"model": {"input": [10, 10, 1], "layers": [{"type": "dense", "units": 4},
                                                 {"type": "dense", "units": 4}],
                "layres": []}},
     "unknown model fields: ['layres']"),
])
def test_config_errors_fail_every_command_before_any_output(tmp_path, runner, overrides,
                                                            message):
    _fails_at_load(runner, tmp_path, base_config(**overrides), message)


def _config_fields(cls, prefix=()):
    """(key path, annotation) of every field of ``cls`` and of the sections it nests."""
    for name, hint in typing.get_type_hints(cls).items():
        yield (*prefix, name), hint
        for inner in (hint, *typing.get_args(hint)):
            if dataclasses.is_dataclass(inner):
                yield from _config_fields(inner, (*prefix, name))


FIELDS = dict(_config_fields(ExperimentConfig))
SECTIONS = [()] + [path for path, hint in FIELDS.items()
                   if any(dataclasses.is_dataclass(a) for a in (hint, *typing.get_args(hint)))]
# one out-of-range value per field that has a range, on top of base_config
OUT_OF_RANGE = {
    "seed": -1, "val_fraction": 1.0, "bottleneck": 0, "temperature": 0.0, "stride": 0,
    "map_images": 0, "placement_mode": "Q", "occluded_fraction": 0.0,
    "dataset.split_seed": -1, "dataset.synthetic.class_count": 0,
    "dataset.synthetic.samples_per_class": 1, "dataset.synthetic.image_size": 0,
    "dataset.synthetic.cue_region": [8, 8, 4, 4], "dataset.synthetic.cue_strength": 1.5,
    "dataset.synthetic.background_noise_sigma": -0.1, "dataset.synthetic.seed": -1,
    "schedule.steps": -1, "schedule.lr": -0.5, "schedule.batch_size": 0,
    "occluder.height": 0, "occluder.width": 0, "occluder.intensity_range": [0.9, 0.1],
    "occluder.noise_model": "fog", "occluder.noise_level": -1.0,
    "loss.mode": "pairs", "loss.alpha": -1.0, "loss.beta": 1.5, "loss.max_triplets": 0,
    "finetune.steps": -1, "finetune.lr": -0.5, "finetune.pool_classes": 0,
    "finetune.pool_per_class": 0, "eval.k": 1,
}
_ANY = st.one_of(st.text(max_size=3), st.booleans(), st.integers(-3, 3),
                 st.floats(allow_nan=False, allow_infinity=False, width=16),
                 st.lists(st.integers(0, 3), max_size=5),
                 st.dictionaries(st.just("a"), st.just(1)), st.none())


def _wrong_type(hint):
    """Values that a field annotated ``hint`` must refuse, whatever their range."""
    args = typing.get_args(hint)
    optional = type(None) in args
    hint = next((a for a in args if a is not type(None)), hint) if optional else hint
    if hint is int:
        ok = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and v == int(v)
    elif hint is float:
        ok = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    elif typing.get_origin(hint) is tuple:
        ok = lambda v: isinstance(v, list) and len(v) == len(typing.get_args(hint))
    else:
        kind = {bool: bool, str: str, Path: str}.get(hint, dict)   # dict and sections
        ok = lambda v: isinstance(v, kind)
    wrong = _ANY.filter(lambda v: not ok(v) and not (optional and v is None))
    return wrong | st.just(float("nan")) if hint in (int, float) else wrong


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@st.composite
def _broken_config(draw):
    """base_config with one key broken: (doc, text the error must contain)."""
    doc = copy.deepcopy(base_config())
    kind = draw(st.sampled_from(["unknown", "type", "range"]))
    if kind == "unknown":
        section = draw(st.sampled_from(SECTIONS))
        names = sorted({p[-1] for p in FIELDS})
        key = draw(st.sampled_from(names).map(lambda k: k + "_").filter(lambda k: k not in names))
        _set(doc, (*section, key), 1)
        return doc, repr(key)
    if kind == "type":
        path = draw(st.sampled_from(sorted(FIELDS)))
        _set(doc, path, draw(_wrong_type(FIELDS[path])))
        return doc, ".".join(path)
    dotted = draw(st.sampled_from(sorted(OUT_OF_RANGE)))
    _set(doc, tuple(dotted.split(".")), OUT_OF_RANGE[dotted])
    return doc, dotted.split(".")[-1]


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_broken_config())
def test_a_broken_key_anywhere_fails_every_command_at_load(tmp_path, runner, case):
    doc, needle = case
    _fails_at_load(runner, tmp_path, doc, needle)


def test_integral_float_config_values_are_accepted(tmp_path):
    cfg = ExperimentConfig.load(write_config(tmp_path, stride=2.0, seed=7.0))
    assert cfg.stride == 2 and isinstance(cfg.stride, int) and cfg.seed == 7


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


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_occlusion_map_workers_below_one_exits_2(tmp_path, runner, workers):
    cfg = write_config(tmp_path, schedule={"steps": 0})
    out = tmp_path / "s2"
    result = runner.invoke(main, ["occlusion-map", "--config", str(cfg), "--out", str(out),
                                  "--workers", workers, str(tmp_path / "checkpoint.otl")])
    assert result.exit_code == 2
    assert "--workers" in result.output
    assert not out.exists()


def test_non_utf8_config_exits_2_naming_file(tmp_path, runner):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b'{"seed": 5, "note": "\xff"}')
    result = runner.invoke(main, ["train-classifier", "--config", str(cfg),
                                  "--out", str(tmp_path / "s1")])
    assert result.exit_code == 2
    assert f"{cfg}: not UTF-8 text" in result.output
    assert not (tmp_path / "s1").exists()


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


def test_checkpoint_with_trailing_bytes_exits_2(tmp_path, runner):
    path = tmp_path / "model.otl"
    save_checkpoint(init_model(default_architecture(10, 4), 0), path)
    path.write_bytes(path.read_bytes() + bytes(8))
    result = runner.invoke(main, ["occlusion-map", "--config", str(write_config(tmp_path)),
                                  "--out", str(tmp_path / "s2"), str(path)])
    assert result.exit_code == 2
    assert "8 trailing bytes after the last tensor" in result.output
    assert not (tmp_path / "s2").exists()


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


@pytest.mark.parametrize("command, synthetic, message", [
    pytest.param(command, {"image_size": 12},
                 "model input [10, 10, 1] does not match the dataset's images [12, 12, 1]",
                 id=f"{command}-image")
    for command in ("occlusion-map", "train-augmented", "finetune-triplet", "evaluate")
] + [pytest.param("train-augmented", {"class_count": 5},
                  "model has 4 outputs, fewer than the dataset's 5 classes",
                  id="train-augmented-classes")])
def test_a_checkpoint_that_does_not_fit_the_data_exits_2_before_any_output(
        tmp_path, runner, command, synthetic, message):
    ckpt = tmp_path / "model.otl"
    save_checkpoint(init_model(default_architecture(10, 4), 0), ckpt)
    cfg = write_config(tmp_path, placement_mode="R",
                       dataset={"synthetic": dict(SYNTHETIC, **synthetic)})
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("id_a,id_b,is_match\nc00/s000,c00/s001,1\n")
    out = tmp_path / "out"
    args = [command, "--config", str(cfg), "--out", str(out), str(ckpt)]
    result = runner.invoke(main, args + (["--pairs", str(pairs)] if command == "evaluate" else []))
    assert result.exit_code == 2, result.output
    assert f"{ckpt}: {message}" in result.output
    assert not out.exists()


def test_finetune_on_one_class_exits_4_before_any_output(tmp_path, runner):
    ckpt = tmp_path / "model.otl"
    save_checkpoint(init_model(default_architecture(10, 4), 0), ckpt)
    cfg = write_config(tmp_path, dataset={"synthetic": dict(SYNTHETIC, class_count=1)})
    out = tmp_path / "s4"
    result = runner.invoke(main, ["finetune-triplet", "--config", str(cfg), "--out", str(out),
                                  str(ckpt)])
    assert result.exit_code == 4, result.output
    assert "fine-tuning needs at least two classes with two samples each" in result.output
    assert isinstance(result.exception, SystemExit)     # refused, not a traceback
    assert not out.exists()


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


def test_non_utf8_pairs_csv_exits_2_naming_file(tmp_path, runner):
    cfg = write_config(tmp_path, schedule={"steps": 0})
    stage1 = tmp_path / "s1"
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(stage1)])
    pairs = tmp_path / "pairs.csv"
    pairs.write_bytes(b"id_a,id_b,is_match\nc00/s000,c00/s\xff01,1\n")
    result = runner.invoke(main, ["evaluate", "--config", str(cfg),
                                  "--out", str(tmp_path / "s5"),
                                  str(stage1 / "checkpoint.otl"),
                                  "--pairs", str(pairs)])
    assert result.exit_code == 2
    assert f"{pairs}: not UTF-8 text" in result.output
    assert not (tmp_path / "s5").exists()


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


@pytest.mark.parametrize("bad_name, bad_bytes, message", [
    ("odd.pgm", b"P5\n5 5\n255\n" + bytes(25), "image shape (5, 5) differs from"),
    ("neg.pgm", b"P5\n-1 -1\n255\nA", "image size -1x-1 is not positive"),
])
def test_bad_image_in_a_dataset_directory_exits_2(tmp_path, runner, bad_name, bad_bytes,
                                                  message):
    data_root = tmp_path / "data"
    for cls in ("a", "b"):
        (data_root / cls).mkdir(parents=True)
        for k in range(3):
            save_pgm(np.full((4, 4), 0.5), data_root / cls / f"img{k}.pgm")
    (data_root / "b" / bad_name).write_bytes(bad_bytes)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 1, "dataset": {"path": str(data_root)}}))
    out = tmp_path / "s1"
    result = runner.invoke(main, ["train-classifier", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"{data_root / 'b' / bad_name}: {message}" in result.output
    assert not out.exists()


def test_evaluate_with_one_matching_pair_exits_4(tmp_path, runner):
    # ROC and k-fold accept a single match; decidability needs two of each kind
    cfg = write_config(tmp_path, schedule={"steps": 0})
    stage1 = tmp_path / "s1"
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(stage1)])
    pairs = tmp_path / "pairs.csv"
    rows = ["c00/s000,c00/s001,1"] + [f"c00/s{i:03d},c01/s{i:03d},0" for i in range(10)] \
        + [f"c02/s{i:03d},c03/s{i:03d},0" for i in range(10)]
    pairs.write_text("id_a,id_b,is_match\n" + "\n".join(rows) + "\n")
    out = tmp_path / "s5"
    result = runner.invoke(main, ["evaluate", "--config", str(cfg), "--out", str(out),
                                  str(stage1 / "checkpoint.otl"), "--pairs", str(pairs)])
    assert result.exit_code == 4, result.output
    assert ("decidability needs at least two scores of each kind, "
            "got 1 matching and 20 non-matching") in result.output
    assert not (out / "roc.csv").exists() and not (out / "kfold.json").exists()


def _dense_net_checkpoint(tmp_path, weight, bias):
    """A Dense(3)/Dense(4) net on 10x10 inputs, saved; returns the checkpoint path."""
    model = Model((10, 10, 1), [Dense(3), Dense(4)],
                  {"dense1.weight": weight, "dense1.bias": bias,
                   "dense2.weight": np.zeros((3, 4)), "dense2.bias": np.zeros(4)})
    ckpt = tmp_path / "dense.otl"
    save_checkpoint(model, ckpt)
    return ckpt


def _evaluate_dense_net(tmp_path, runner, weight, bias):
    """``evaluate`` on 6 + 6 pairs with a Dense(3)/Dense(4) net on 10x10 inputs."""
    cfg = write_config(tmp_path)
    ckpt = _dense_net_checkpoint(tmp_path, weight, bias)
    full, _, _ = ExperimentConfig.load(cfg).dataset_splits()
    pairs = tmp_path / "pairs.csv"
    save_pairs_csv(make_verification_pairs(full, 6, 6, np.random.default_rng(0)), pairs)
    out = tmp_path / "s5"
    result = runner.invoke(main, ["evaluate", "--config", str(cfg), "--out", str(out),
                                  str(ckpt), "--pairs", str(pairs)])
    return result, out


def test_evaluate_with_constant_scores_exits_4(tmp_path, runner):
    # zero weights and a nonzero bias embed every image alike: all scores are 1
    result, _ = _evaluate_dense_net(tmp_path, runner, np.zeros((100, 3)), np.ones(3))
    assert result.exit_code == 4, result.output
    assert ("decidability undefined: both score distributions are constant "
            "(6 matching and 6 non-matching scores)") in result.output


def test_evaluate_with_a_dead_checkpoint_exits_4_naming_images(tmp_path, runner):
    # zero weights and zero biases: every bottleneck vector is zero
    result, out = _evaluate_dense_net(tmp_path, runner, np.zeros((100, 3)), np.zeros(3))
    assert result.exit_code == 4, result.output
    assert re.search(r"zero bottleneck feature vector for image\(s\) \['[^']+'(, '[^']+')*\]; "
                     "cannot normalize", result.output), result.output
    assert not (out / "kfold.json").exists()


def test_finetune_on_a_dead_checkpoint_exits_4_naming_images(tmp_path, runner):
    # zero weights and zero biases: every bottleneck vector of the first pool is zero
    cfg = write_config(tmp_path)
    ckpt = _dense_net_checkpoint(tmp_path, np.zeros((100, 3)), np.zeros(3))
    out = tmp_path / "s4"
    result = runner.invoke(main, ["finetune-triplet", "--config", str(cfg), "--out", str(out),
                                  str(ckpt)])
    assert result.exit_code == 4, result.output
    assert re.search(r"zero bottleneck feature vector for image\(s\) \['[^']+'(, '[^']+')*\]; "
                     "cannot normalize at fine-tune step 1", result.output), result.output
    assert not (out / "checkpoint.otl").exists()


def test_evaluate_with_an_overflowing_checkpoint_exits_3(tmp_path, runner):
    result, out = _evaluate_dense_net(tmp_path, runner, np.full((100, 3), 1.5e308), np.zeros(3))
    assert result.exit_code == 3, result.output
    assert "features contains NaN or Inf values" in result.output
    assert not (out / "kfold.json").exists()


def test_report_on_non_utf8_train_log_exits_2(tmp_path, runner):
    log = tmp_path / "train_log.csv"
    log.write_bytes(b"step,loss,accuracy\n1,0.5,\xff\n")
    result = runner.invoke(main, ["report", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert f"{log}: malformed artifact (UnicodeDecodeError" in result.output
    assert not (tmp_path / "report.txt").exists()


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
    stage1 = tmp_path / "s1"
    cfg = write_config(tmp_path, schedule={"steps": 0})
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(stage1)])
    cfg = write_config(tmp_path, schedule={"steps": 0}, **overrides)
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


# bytes of roc.csv and kfold.json from a small fixed evaluate run: any change to
# the scores, the threshold sweep or the artifact formatting fails this
EVALUATE_ROC_SHA256 = "b0a3b5b2be875c1b60fa9fd412cbf2d61c93c6f616477cdee1d3ed246685dd3c"
EVALUATE_KFOLD_SHA256 = "c75e420a94060b01c1575432fb162ec809b71c25b225dc398460ba0bea86766a"


def test_evaluate_artifacts_are_pinned(tmp_path, runner):
    # a weak cue and shuffled pairs keep accuracy and AUC well inside (0, 1)
    synthetic = dict(base_config()["dataset"]["synthetic"], cue_strength=0.5,
                     background_noise_sigma=0.1)
    cfg = write_config(tmp_path, dataset={"synthetic": synthetic},
                       schedule={"steps": 20, "lr": 0.05, "batch_size": 10})
    stage1 = tmp_path / "s1"
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(stage1)])
    full, _, _ = ExperimentConfig.load(cfg).dataset_splits()
    rng = np.random.default_rng(3)
    pairs = make_verification_pairs(full, 40, 40, rng)
    save_pairs_csv([pairs[i] for i in rng.permutation(len(pairs))], tmp_path / "pairs.csv")
    out = tmp_path / "s5"
    result = run_ok(runner, ["evaluate", "--config", str(cfg), "--out", str(out),
                             str(stage1 / "checkpoint.otl"),
                             "--pairs", str(tmp_path / "pairs.csv")])
    assert "k-fold accuracy 0.5750 +- 0.0829 (k=4); AUC 0.7262" in result.output
    assert hashlib.sha256((out / "roc.csv").read_bytes()).hexdigest() == EVALUATE_ROC_SHA256
    assert hashlib.sha256((out / "kfold.json").read_bytes()).hexdigest() == EVALUATE_KFOLD_SHA256


# bytes of occlusion-map's map.csv at stride 1 with a 6x6 and a 13x13 occluder, and
# of the placement-P train-augmented checkpoint built on the 6x6 map, from a small
# trained net on 18x18 images (conv2's 9x9 output loses a row and column to the
# pool's crop): any change to the scan, the training step or the formats fails this
MAP_CSV_SHA256 = {6: "afa22b2957fac6304c2611b21767e567aaa27b24279a690fffedb8e1a11b2edd",
                  13: "c70f91f05474cdf2eb18529fb36b86b622976241f1d3516422a9be55c6d98a8b"}
AUGMENTED_P_SHA256 = "e7ce157d1d906a84f057377e59292a0ecb4c62ad57911cbbffed4d27acd9e23c"


def test_map_and_augmented_checkpoint_are_pinned(tmp_path, runner):
    synthetic = dict(SYNTHETIC, image_size=18, cue_region=[6, 6, 6, 6])
    cfg = write_config(tmp_path, dataset={"synthetic": synthetic}, map_images=4,
                       schedule={"steps": 40, "lr": 0.05, "batch_size": 10})
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(tmp_path / "s1")])
    base = str(tmp_path / "s1" / "checkpoint.otl")
    for side in (6, 13):
        cfg_side = tmp_path / f"config{side}.json"
        cfg_side.write_text(json.dumps(dict(json.loads(cfg.read_text()),
                                            occluder={"height": side, "width": side},
                                            schedule={"steps": 20, "lr": 0.05,
                                                      "batch_size": 10})))
        out = tmp_path / f"map{side}"
        run_ok(runner, ["occlusion-map", "--config", str(cfg_side), "--out", str(out), base])
        digest = hashlib.sha256((out / "map.csv").read_bytes()).hexdigest()
        assert digest == MAP_CSV_SHA256[side], side
    out = tmp_path / "s3"
    run_ok(runner, ["train-augmented", "--config", str(tmp_path / "config6.json"),
                    "--out", str(out), base, "--map", str(tmp_path / "map6" / "map.csv")])
    digest = hashlib.sha256((out / "checkpoint.otl").read_bytes()).hexdigest()
    assert digest == AUGMENTED_P_SHA256


def test_occlusion_map_bytes_do_not_depend_on_blas_threads_or_workers(tmp_path, runner):
    # each run is a fresh process, so OPENBLAS_NUM_THREADS sets the BLAS's pool
    synthetic = dict(SYNTHETIC, image_size=18, cue_region=[6, 6, 6, 6])
    cfg = write_config(tmp_path, dataset={"synthetic": synthetic}, occluder={"height": 6, "width": 6},
                       schedule={"steps": 40, "lr": 0.05, "batch_size": 10})
    run_ok(runner, ["train-classifier", "--config", str(cfg), "--out", str(tmp_path / "s1")])
    source = str(Path(otlab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    outputs = {}
    for threads in ("1", "2"):
        for workers in ("1", "2"):
            out = tmp_path / f"map-{threads}-{workers}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
            done = subprocess.run(
                [sys.executable, "-m", "otlab.cli", "occlusion-map", "--config", str(cfg),
                 "--out", str(out), "--workers", workers, str(tmp_path / "s1" / "checkpoint.otl")],
                env=env, capture_output=True, text=True, timeout=120, check=False)
            assert done.returncode == 0, done.stderr
            outputs[threads, workers] = [(out / name).read_bytes()
                                         for name in ("map.csv", "map.pgm", "map_stats.json")]
    assert all(files == outputs["1", "1"] for files in outputs.values())
