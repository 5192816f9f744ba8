"""The config reader (``validation.from_section``) and the classes it serves."""

import dataclasses
import json
import re
import typing
from pathlib import Path

import pytest

from otlab.config import DatasetSection, EvalSection, ExperimentConfig
from otlab.data import SyntheticSpec
from otlab.engine.model import LAYER_TYPES
from otlab.engine.train import Schedule
from otlab.errors import ConfigError
from otlab.metric import FinetuneSchedule, LossConfig
from otlab.occlusion import OccluderSpec
from otlab.validation import field_reader, from_section

README = Path(__file__).resolve().parents[1] / "README.md"


@dataclasses.dataclass(frozen=True)
class Sample:
    count: int
    rate: float = 0.5
    flag: bool = True
    name: str = "a"
    box: tuple[int, float] = (1, 2.0)
    cap: int | None = None

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be nonnegative")


def test_from_section_reads_every_field_kind():
    got = from_section(Sample, {"count": 2.0, "rate": 1, "flag": False, "name": "b",
                                "box": [3, 4], "cap": 5}, "s")
    assert got == Sample(2, 1.0, False, "b", (3, 4.0), 5)
    assert type(got.count) is int and type(got.rate) is float
    assert all(type(v) is t for v, t in zip(got.box, (int, float)))
    assert from_section(Sample, {"count": 0, "cap": None}, "s").cap is None


def test_absent_fields_take_the_dataclass_defaults():
    assert from_section(Sample, {"count": 1}, "s") == Sample(1)


@pytest.mark.parametrize("section, message", [
    ([1], '"s" must be a JSON object, got [1]'),
    (None, '"s" must be a JSON object, got None'),
    ({"count": 1, "cont": 2, "rte": 1}, "unknown s fields: ['cont', 'rte']"),
    ({"rate": 1.0}, "s needs 'count'"),
    ({"count": True}, "s.count must be a number, got True"),
    ({"count": 1.5}, "s.count must be an integer, got 1.5"),
    ({"count": 1, "rate": float("nan")}, "s.rate must be finite"),
    ({"count": 1, "flag": "false"}, "s.flag must be true or false, got 'false'"),
    ({"count": 1, "flag": 1}, "s.flag must be true or false, got 1"),
    ({"count": 1, "name": 3}, "s.name must be a string, got 3"),
    ({"count": 1, "box": [1]}, "s.box must be a list of 2 values, got [1]"),
    ({"count": 1, "box": "ab"}, "s.box must be a list of 2 values, got 'ab'"),
    ({"count": 1, "box": [1, "2"]}, "s.box must be a number, got '2'"),
    ({"count": 1, "box": [2.7, 1]}, "s.box must be an integer, got 2.7"),
    ({"count": 1, "cap": 2.5}, "s.cap must be an integer, got 2.5"),
    ({"count": -1}, "invalid s: count must be nonnegative"),
])
def test_from_section_refuses_malformed_sections(section, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        from_section(Sample, section, "s")


@dataclasses.dataclass(frozen=True)
class Outer:
    inner: Sample
    file: Path | None = None
    extra: dict | None = None


def test_from_section_reads_nested_sections_objects_and_paths():
    got = from_section(Outer, {"inner": {"count": 1}, "file": "a/b", "extra": {"x": [1]}}, "o")
    assert got == Outer(Sample(1), Path("a/b"), {"x": [1]})


@pytest.mark.parametrize("section, message", [
    ({"inner": {"count": 1, "cnt": 2}}, "unknown o.inner fields: ['cnt']"),
    ({"inner": {"count": "x"}}, "o.inner.count must be a number, got 'x'"),
    ({"inner": {"count": -1}}, "invalid o.inner: count must be nonnegative"),
    ({"inner": [1]}, '"o.inner" must be a JSON object, got [1]'),
    ({"inner": {"count": 1}, "file": 5}, "o.file must be a file path, got 5"),
    ({"inner": {"count": 1}, "extra": [1]}, "o.extra must be a JSON object, got [1]"),
])
def test_from_section_names_nested_fields_by_their_path(section, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        from_section(Outer, section, "o")


def test_the_whole_config_names_its_keys_bare():
    with pytest.raises(ConfigError, match=re.escape("unknown config fields: ['schedul']")):
        from_section(ExperimentConfig, {"schedul": {}}, "")
    with pytest.raises(ConfigError, match=re.escape("schedule.lr must be a number")):
        from_section(ExperimentConfig, {"dataset": {"path": "d"}, "schedule": {"lr": "x"}}, "")


def test_from_section_joins_names_with_sep():
    with pytest.raises(ConfigError, match=re.escape("conv count must be a number")):
        from_section(Sample, {"count": "x"}, "conv", sep=" ")


def _served(cls, seen):
    """``cls`` and every dataclass its field annotations reach, into ``seen``."""
    if dataclasses.is_dataclass(cls) and cls not in seen:
        seen.append(cls)
        for hint in typing.get_type_hints(cls).values():
            for inner in (hint, *typing.get_args(hint)):
                _served(inner, seen)
    return seen


@pytest.mark.parametrize("cls", [*LAYER_TYPES.values(), *_served(ExperimentConfig, [])],
                         ids=lambda cls: cls.__name__)
def test_every_served_field_has_a_readable_annotation(cls):
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if f.init:
            assert field_reader(hints[f.name]) is not None, f"{cls.__name__}.{f.name}"


def test_the_config_serves_every_section_class():
    assert {Schedule, FinetuneSchedule, LossConfig, OccluderSpec, SyntheticSpec,
            DatasetSection, EvalSection} <= set(_served(ExperimentConfig, []))


@pytest.mark.parametrize("hint", [list[int], tuple[int, ...], tuple[int, list], int | str])
def test_unsupported_annotations_have_no_reader(hint):
    assert field_reader(hint) is None


@pytest.mark.parametrize("hint", [dict, Sample, Sample | None, Path])
def test_object_path_and_dataclass_annotations_have_readers(hint):
    assert field_reader(hint) is not None


def test_readme_full_config_loads_through_every_accessor(tmp_path, monkeypatch):
    block = re.search(r"A full config.*?```json\n(.*?)```", README.read_text(), re.DOTALL)
    doc = json.loads(block.group(1))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    (tmp_path / doc["eval"]["pairs"]).write_text("")
    cfg = ExperimentConfig.load(path)
    _full, train, _val = cfg.dataset_splits()
    assert cfg.model_config(train)["input"] == [32, 32, 1]
    assert cfg.schedule == Schedule(**doc["schedule"])
    assert cfg.occluder == OccluderSpec(**dict(doc["occluder"], intensity_range=(0.0, 1.0)))
    assert cfg.loss == LossConfig(**doc["loss"])
    assert cfg.finetune == FinetuneSchedule(**doc["finetune"])
    assert (cfg.temperature, cfg.stride, cfg.map_images, cfg.placement_mode,
            cfg.occluded_fraction, cfg.eval.k) == (0.6, 1, 1000, "P", 0.5, 10)
    assert cfg.eval_pairs_path() == Path(doc["eval"]["pairs"])
    assert cfg.map_path(str(path)) == path
