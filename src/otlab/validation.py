"""Input validation helpers.

All public entry points funnel array inputs through these checks so that
shape/dtype/range mistakes fail loudly at the boundary instead of deep
inside a training loop. :func:`from_section` reads the JSON config, and each
object in it, into its dataclass by that class's own fields.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import types
import typing
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergenceError


def as_rng(seed) -> np.random.Generator:
    """Return a Generator; accepts a seed, a Generator, or None (fresh entropy)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_number(value, name: str, *, integer: bool = False) -> int | float:
    """A configuration scalar as a finite float, or as an int with ``integer``.

    Booleans, non-numbers, non-finite values and, with ``integer``,
    fractional values raise :class:`ConfigError` naming ``name``; integral
    floats such as 2.0 count as integers.
    """
    if (isinstance(value, (bool, np.bool_))
            or not isinstance(value, (int, float, np.integer, np.floating))):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if integer:
        if value != int(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _instance(kind, what: str):
    def read(value, name):
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return value
    return read


_SCALARS = {int: lambda value, name: as_number(value, name, integer=True), float: as_number,
            bool: _instance(bool, "true or false"), str: _instance(str, "a string")}


def _tuple(value, name: str, kinds: tuple) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != len(kinds):
        raise ConfigError(f"{name} must be a list of {len(kinds)} values, got {value!r}")
    return tuple(_SCALARS[kind](v, name) for kind, v in zip(kinds, value))


_LEAVES = {**_SCALARS, dict: _instance(dict, "a JSON object"),
           Path: lambda value, name: Path(_instance(str, "a file path")(value, name))}


def field_reader(hint):
    """``read(value, name)`` for a field annotated ``hint``: int, float, bool, str,
    ``dict`` (any JSON object), ``Path`` (a string), a dataclass (read by
    :func:`from_section`), a fixed-length tuple of scalars, or any of these
    ``| None``; None for anything else."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is types.UnionType and len(args) == 2 and type(None) in args:
        inner = field_reader(next(a for a in args if a is not type(None)))
        return inner and (lambda value, name: None if value is None else inner(value, name))
    if typing.get_origin(hint) is tuple and args and all(a in _SCALARS for a in args):
        return lambda value, name: _tuple(value, name, args)
    if dataclasses.is_dataclass(hint) and isinstance(hint, type):
        return lambda value, name: from_section(hint, value, name)
    return _LEAVES.get(hint)


@functools.cache
def _readers(cls) -> tuple:
    """(field, reader) for each init field of dataclass ``cls``; a string annotation
    is evaluated in ``cls``'s module, as ``typing.get_type_hints`` would, but faster."""
    names = vars(sys.modules[cls.__module__])
    return tuple((f, field_reader(eval(f.type, names) if isinstance(f.type, str) else f.type))
                 for f in dataclasses.fields(cls) if f.init)


def from_section(cls, section, where: str, *, sep: str = "."):
    """Dataclass ``cls`` from the JSON object ``section``: each key must be a
    field and is read by its annotation, and an absent field takes its default.
    Malformed input and a ValueError from ``cls``'s own checks raise
    ConfigError naming ``where`` (a field as ``where + sep + key``). ``where``
    "" is the whole config: its fields are named by their bare keys."""
    label = where or "config"
    if not isinstance(section, dict):
        raise ConfigError(f'"{label}" must be a JSON object, got {section!r}')
    readers = _readers(cls)
    unknown = set(section) - {f.name for f, _ in readers}
    if unknown:
        raise ConfigError(f"unknown {label} fields: {sorted(unknown)}")
    values = {}
    for f, read in readers:
        if f.name in section:
            values[f.name] = read(section[f.name], f"{where}{sep}{f.name}" if where else f.name)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{label} needs {f.name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {label}: {exc}") from exc


def at_least(least, prefix: str = "", **values) -> None:
    """Raise ValueError naming the first of ``values`` that is below ``least``
    or is NaN."""
    for key, value in values.items():
        if not value >= least:
            raise ValueError(f"{prefix}{key} must be at least {least}, got {value}")


def check_finite(x: np.ndarray, name: str = "array") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains NaN or Inf values")
    return x


def check_outputs(x: np.ndarray, name: str) -> np.ndarray:
    """``x`` if finite; a network output that overflowed raises DivergenceError."""
    if not np.all(np.isfinite(x)):
        raise DivergenceError(f"{name} contains NaN or Inf values: the model's "
                              "parameters overflow on this input")
    return x


def check_image_batch(x, *, name: str = "X") -> np.ndarray:
    """Coerce to a float64 batch of shape (N, H, W, C).

    Accepts (N, H, W) grayscale input and adds the channel axis. Values must
    be finite; pixel range is not clipped here (occluded pixels stay in [0, 1]
    by construction, but callers may pass arbitrary real-valued features).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        x = x[..., np.newaxis]
    if x.ndim != 4:
        raise ValueError(f"{name} must have shape (N, H, W) or (N, H, W, C), got {x.shape}")
    return check_finite(x, name)


def check_single_image(x, *, name: str = "image") -> np.ndarray:
    """Coerce to a float64 (H, W) grayscale image."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{name} must be a 2-D grayscale array, got shape {x.shape}")
    return check_finite(x, name)


def check_labels(y, n_classes: int | None = None, *, name: str = "y") -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        rounded = np.rint(np.asarray(y, dtype=np.float64)).astype(np.int64)
        if not np.array_equal(rounded, np.asarray(y, dtype=np.float64)):
            raise ValueError(f"{name} must contain integer class indices")
        y = rounded
    y = y.astype(np.int64)
    if y.size and y.min() < 0:
        raise ValueError(f"{name} contains negative class indices")
    if n_classes is not None and y.size and y.max() >= n_classes:
        raise ValueError(f"{name} contains label {y.max()} but only {n_classes} classes exist")
    return y


def check_rect(rect, bounds: tuple[int, int], *, name: str = "rect") -> tuple[int, int, int, int]:
    """Validate a (top, left, height, width) rectangle against (H, W) bounds."""
    top, left, height, width = (int(v) for v in rect)
    if height < 1 or width < 1:
        raise ValueError(f"{name} must have positive size, got {rect}")
    if top < 0 or left < 0 or top + height > bounds[0] or left + width > bounds[1]:
        raise ValueError(f"{name} {rect} exceeds bounds {bounds}")
    return top, left, height, width
