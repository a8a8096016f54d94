"""Output files that appear whole or not at all."""

from __future__ import annotations

import contextlib
import os


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``<path>.tmp-<pid>``, then rename it to ``path``.

    Lines are written as given (no newline translation).  On any
    exception the temporary file is removed, so a failed write leaves
    neither a partial ``path`` nor the temporary name behind.
    """
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
