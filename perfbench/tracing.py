"""In-memory spans, self time, and reversible attribute patches.

The benchmark traces the program from the outside: it replaces the
attributes callers look up (module functions, class methods, VJP closures
on returned graph nodes) with wrappers that open and close spans. Spans
live in memory for the whole run and are written out when it ends.
Everything here assumes one thread, as the benchmark runs the program
with ``--workers 1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None          # index of the enclosing span in Tracer.spans
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run, "attrs": self.attrs}


class Tracer:
    """Records nested spans; ``begin``/``end`` must pair up like brackets."""

    def __init__(self, run: str = "", clock=time.perf_counter):
        self.run = run
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, **attrs) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), None, parent, self.run, attrs))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int, **attrs) -> None:
        top = self._open.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed while "
                               f"{self.spans[top].name!r} is open")
        span = self.spans[idx]
        span.end = self.clock()
        span.attrs.update(attrs)

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` inside a span; ``attrs(args, kwargs, result)`` adds attributes."""
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx, error=True)
                raise
            self.end(idx, **(attrs(args, kwargs, result) if attrs else {}))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, fn, name: str):
        """A generator function whose every ``next`` is its own span."""
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = self.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    self.end(idx)
                    return
                except BaseException:
                    self.end(idx, error=True)
                    raise
                self.end(idx)
                yield item
        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.duration - covered)
    return out


class Patcher:
    """Sets attributes and remembers the originals so they can be restored."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    @staticmethod
    def lookup(owner, attr: str):
        """The stored attribute itself (a class's function, not a bound method)."""
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, self.lookup(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)
