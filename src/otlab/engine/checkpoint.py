"""Checkpoint persistence.

File layout:

    bytes 0..3   magic b"OTL1"
    bytes 4..7   header length, little-endian uint32
    header       UTF-8 JSON: format_version, model_config,
                 tensors: name -> [shape, byte offset, byte length],
                 rng_state, training_meta
    blob         raw little-endian float64 tensor data, offsets relative
                 to the end of the header; the tensors tile it exactly
                 (no gap, overlap or trailing byte)

The JSON header is serialized with sorted keys and no whitespace, and
tensors are laid out in sorted-name order, so identical models produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..atomic import atomic_write
from ..errors import ConfigError, CorruptionError, FormatError
from .model import Model, layer_from_config

MAGIC = b"OTL1"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    """Everything needed to resume or inspect a training stage."""

    model: Model
    rng_state: dict | None = None
    training_meta: dict = field(default_factory=dict)
    format_version: int = FORMAT_VERSION


def save_checkpoint(model: Model, path, *, rng_state: dict | None = None,
                    training_meta: dict | None = None) -> None:
    names = sorted(model.params)
    offset = 0
    tensors = {}
    blobs = []
    for name in names:
        data = np.ascontiguousarray(model.params[name], dtype="<f8").tobytes()
        tensors[name] = [list(model.params[name].shape), offset, len(data)]
        blobs.append(data)
        offset += len(data)

    header = {
        "format_version": FORMAT_VERSION,
        "model_config": model.to_config(),
        "tensors": tensors,
        "rng_state": rng_state,
        "training_meta": training_meta or {},
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header_bytes).to_bytes(4, "little"))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def read_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise FormatError(f"{path}: not a checkpoint file (bad magic bytes)")
    header_len = int.from_bytes(raw[4:8], "little")
    if len(raw) < 8 + header_len:
        raise CorruptionError(f"{path}: truncated header")
    try:
        header = json.loads(raw[8:8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptionError(f"{path}: unreadable header ({exc})") from exc

    if not isinstance(header, dict):
        raise CorruptionError(f"{path}: header is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: format version {version} is not supported "
                          f"(this build reads version {FORMAT_VERSION})")

    blob = raw[8 + header_len:]
    params = {}
    try:
        tensor_table = header["tensors"].items()
        config = header["model_config"]
        layer_configs = list(config["layers"])
        input_spec = config["input"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise CorruptionError(f"{path}: header is missing required fields") from exc
    spans = []
    for name, entry in tensor_table:
        shape, off, length = _tensor_entry(path, name, entry)
        spans.append((off, length, name))
        if off + length > len(blob):
            raise CorruptionError(f"{path}: tensor {name!r} extends past end of file")
        if length != 8 * math.prod(shape):     # Python ints: np.prod wraps at 2**63
            raise CorruptionError(f"{path}: tensor {name!r} has {length} bytes, expected "
                                  f"{8 * math.prod(shape)} for shape {shape}")
        arr = np.frombuffer(blob[off:off + length], dtype="<f8").astype(np.float64)
        if not np.isfinite(arr).all():
            raise CorruptionError(f"{path}: tensor {name!r} holds a non-finite value")
        params[name] = arr.reshape(shape)
    end = 0     # the tensors must tile the blob: no gap, no overlap, no trailing byte
    for off, length, name in sorted(spans):
        if off != end:
            problem = ("overlaps the tensor before it" if off < end
                       else f"leaves {off - end} unused bytes before it")
            raise CorruptionError(f"{path}: tensor {name!r} at byte {off} {problem}")
        end = off + length
    if end != len(blob):
        raise CorruptionError(f"{path}: {len(blob) - end} trailing bytes after the last tensor")

    layers = []
    for i, cfg in enumerate(layer_configs):
        try:
            layers.append(layer_from_config(cfg))
        except ConfigError as exc:
            raise CorruptionError(f"{path}: model_config layer {i}: {exc}") from exc
    try:
        model = Model(input_spec, layers, params)
    except (ValueError, TypeError) as exc:
        raise CorruptionError(f"{path}: model_config does not match the tensors ({exc})") from exc
    return Checkpoint(model=model, rng_state=header.get("rng_state"),
                      training_meta=header.get("training_meta") or {},
                      format_version=version)


def _tensor_entry(path, name, entry) -> tuple[list[int], int, int]:
    """Validated [shape, byte offset, byte length] of one tensor-table entry."""
    def count(v):
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

    if not (isinstance(entry, list) and len(entry) == 3):
        raise CorruptionError(f"{path}: tensor {name!r} entry must be "
                              f"[shape, offset, length], got {entry!r}")
    shape, off, length = entry
    if not (isinstance(shape, list) and all(count(v) for v in shape)):
        raise CorruptionError(f"{path}: tensor {name!r} shape must be a list of "
                              f"nonnegative integers, got {shape!r}")
    for field, value in (("offset", off), ("length", length)):
        if not count(value):
            raise CorruptionError(f"{path}: tensor {name!r} {field} must be a "
                                  f"nonnegative integer, got {value!r}")
    return shape, off, length


def load_checkpoint(path) -> Model:
    return read_checkpoint(path).model
