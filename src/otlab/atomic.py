"""Artifact files that are written whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path``; a clean exit renames it over ``path``.

    If the body raises, the temporary file is removed and ``path`` keeps its
    previous content (or stays absent), so no reader sees half a file.
    ``mode`` and ``kwargs`` go to :func:`open`.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
