"""Durable writes: the one module that knows how bytes reach disk.

:class:`AppendLog` is an append-only log (the sweep journal, the service
WAL) whose every append is fsynced before it returns.
:func:`atomic_write` replaces a whole file (cache entries, device
configs, WAL compaction, coordinator state, the service port file) so
readers see the old bytes or the new, never a mixture.
:func:`read_jsonl` is the lenient read side of both logs.  Nothing here
imports from ``repro``.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import IO, Any, Callable, Dict, List, Optional, Union

PathLike = Union[str, Path]


def read_jsonl(
    path: Path,
    label: str,
    hint: str,
    accept: Callable[[Dict[str, Any]], bool],
) -> List[Dict[str, Any]]:
    """Every parseable, accepted record of an append-only JSONL log.

    Shared by the sweep journal and the service WAL.  The file is read
    in binary and each line decoded leniently: a crash mid-append can
    tear the final line anywhere — including inside a multi-byte UTF-8
    sequence, which would make text-mode iteration itself raise.
    Unparseable lines are skipped with a ``RuntimeWarning`` naming
    ``label`` and ``hint`` (a torn *tail* is expected after a kill;
    garbage mid-file is still worth hearing about), never fatal: a log
    of work done must survive the crash's own debris.  Records that are
    not dicts or that ``accept`` rejects (wrong version, wrong shape)
    are dropped silently.
    """
    records: List[Dict[str, Any]] = []
    try:
        with open(path, "rb") as handle:
            raw_lines = handle.read().split(b"\n")
    except OSError:
        return records
    for index, raw in enumerate(raw_lines):
        line = raw.decode("utf-8", errors="replace").strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            position = (
                "truncated final line"
                if index >= len(raw_lines) - 2
                else f"corrupt line {index + 1}"
            )
            warnings.warn(
                f"{label}: skipping {position} ({hint})",
                RuntimeWarning,
                stacklevel=3,
            )
            continue
        if isinstance(record, dict) and accept(record):
            records.append(record)
    return records


class AppendLog:
    """An append-only file; every append is fsynced before it returns.

    A crash mid-append can leave a torn final line.  It was never
    acknowledged (acknowledgement follows the fsync of the whole line),
    so the first append through a new handle cuts it back to the last
    newline: the next record starts a line of its own instead of being
    glued onto the fragment and lost with it.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[bytes]] = None
        #: Appends made durable through this handle.
        self.fsyncs = 0

    def _open(self) -> IO[bytes]:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(self.path, "a+b")
        if handle.tell() > 0:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.seek(0)
                handle.truncate(handle.read().rfind(b"\n") + 1)
        self._handle = handle
        return handle

    def append(self, line: bytes) -> None:
        """Write ``line`` (newline included) and fsync it.

        An fsync the filesystem refuses is tolerated: the bytes are
        written and flushed either way.
        """
        handle = self._handle or self._open()
        handle.write(line)
        handle.flush()
        try:
            os.fsync(handle.fileno())
        except OSError:
            pass
        self.fsyncs += 1

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def atomic_write(path: PathLike, data: bytes) -> None:
    """Replace ``path`` with ``data``: temp file, fsync, ``os.replace``.

    On any failure the temp file is removed and the target untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
