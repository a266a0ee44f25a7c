"""Whole-file writes: an artefact on disk is either complete or absent."""

from __future__ import annotations

import contextlib
import os


def write_then_replace(path: str, chunks) -> int:
    """Write ``chunks`` (bytes) to ``path`` + ".tmp", move it over ``path``; return its size.

    A write that fails leaves ``path`` as it was, or absent, and removes the
    temporary file.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            size = fh.tell()
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return size
