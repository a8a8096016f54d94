"""Output files that appear whole or not at all: ``write_atomic`` writes
every output file, and ``write_rows`` every CSV table but the traces, with
CRLF line ends (a trace formats its own lines, which end with LF)."""

from __future__ import annotations

import contextlib
import csv
import io
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


def write_rows(path, header: list[str], rows) -> None:
    """Write a CSV table, ``header`` first, through ``write_atomic``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue())
