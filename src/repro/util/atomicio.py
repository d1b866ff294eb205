"""Crash-safe file writes: fsync'd temp file + atomic rename.

Every on-disk artefact this repo produces (miss-curve store entries,
checkpoints, exported results, verify cases) is a single file that
readers expect to be either complete or absent.  A
plain ``open(...).write(...)`` breaks that contract twice over: a
killed process can leave a truncated file at the final path, and even a
completed ``write`` can be lost or torn by a power cut because nothing
forced the data out of the page cache.

:func:`write_atomic_text` / :func:`write_atomic_bytes` close both
holes: the payload goes to a temp file in the destination directory,
is ``fsync``'d, then ``os.replace``'d over the final name (atomic on
POSIX and Windows for same-directory renames), and finally the
directory entry itself is ``fsync``'d where the platform allows it.
Concurrent writers are safe by construction — each writes its own temp
file and the last rename wins whole, never interleaved.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

PathLike = Union[str, os.PathLike]


def _fsync_directory(directory: Path) -> None:
    """Flush the directory entry so the rename itself survives a crash.

    Best-effort: directories cannot be opened for fsync on some
    platforms (notably Windows), and a store that merely loses the
    *latest* entry on power cut is still correct — the write just
    reverts to a miss.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_atomic_bytes(
    path: PathLike, payload: bytes, *, fsync: bool = True
) -> Path:
    """Atomically replace ``path`` with ``payload``; returns the path.

    The temp file lives in the destination directory (``os.replace``
    must not cross filesystems) and is unlinked on any failure, so an
    interrupted write leaves the previous version of ``path``
    untouched and no partial file at the final name.
    """
    path = Path(path)
    directory = path.parent
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(directory), prefix=f".tmp-{path.name}-"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if fsync:
        _fsync_directory(directory)
    return path


def write_atomic_text(
    path: PathLike,
    text: str,
    *,
    encoding: str = "utf-8",
    fsync: bool = True,
) -> Path:
    """Atomically replace ``path`` with ``text`` (see module docstring)."""
    return write_atomic_bytes(path, text.encode(encoding), fsync=fsync)
