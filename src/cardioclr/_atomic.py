"""Whole-file writes that a crash cannot leave half done."""

from __future__ import annotations

import os
import threading
from pathlib import Path


def write_atomic(path, data: bytes) -> None:
    """Write `data` to `path` via a temp file in the same directory and
    `os.replace`: readers see the old bytes or the new, never a prefix."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
