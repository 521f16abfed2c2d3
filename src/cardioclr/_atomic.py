"""Whole-file and whole-directory writes that a crash cannot leave half
done."""

from __future__ import annotations

import os
import shutil
import threading
from contextlib import contextmanager
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


@contextmanager
def replace_dir_atomic(path):
    """Make directory `path` hold just what the `with` block writes into the
    temp sibling it yields, renamed into place once the block exits cleanly;
    an old `path` is moved aside first and removed after. On error the temp
    directory is removed and the old directory stays, so readers never see a
    mix of old and new files. Several may be open at once: each replaces its
    directory only when its own block exits."""
    path = Path(path)
    tmp, old = _tmp_sibling(path, "tmp"), _tmp_sibling(path, "old")
    try:
        tmp.mkdir(parents=True)
        yield tmp
        if path.exists():
            os.rename(path, old)
        os.rename(tmp, path)
    except BaseException:
        if old.exists() and not path.exists():
            os.rename(old, path)
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)
