"""Whole-file and whole-directory writes that a crash cannot leave half
done."""

from __future__ import annotations

import os
import shutil
import threading
from pathlib import Path


def _tmp_sibling(path: Path, suffix: str) -> Path:
    return path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.{suffix}")


def write_atomic(path, data: bytes) -> None:
    """Write `data` to `path` via a temp file in the same directory and
    `os.replace`: readers see the old bytes or the new, never a prefix."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_sibling(path, "tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def replace_dir_atomic(path, fill) -> None:
    """Make directory `path` hold just what `fill(tmp)` writes into a temp
    sibling `tmp`, renamed into place once complete; an old `path` is moved
    aside first and removed after. On error `tmp` is removed and the old
    directory stays, so readers never see a mix of old and new files."""
    path = Path(path)
    tmp, old = _tmp_sibling(path, "tmp"), _tmp_sibling(path, "old")
    try:
        tmp.mkdir(parents=True)
        fill(tmp)
        if path.exists():
            os.rename(path, old)
        os.rename(tmp, path)
    except BaseException:
        if old.exists() and not path.exists():
            os.rename(old, path)
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)
