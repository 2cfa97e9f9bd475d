"""The sweep checkpoint journal: append-only JSONL of finished cells.

Every completed grid cell is appended — digest, measurement, execution
report — as one JSON line, flushed and fsynced, so a crash or Ctrl-C
loses at most the cell in flight.  ``repro sweep --resume <run-id>``
reloads the journal and skips every cell whose digest it already holds;
the digests pin the *content* of a cell (benchmark, device, day,
compiler, samples, seeds), so a resumed run with a changed spec simply
resumes nothing rather than serving stale results.

Journals live under ``<cache-dir>/journals/<run-id>.jsonl``.  A partial
trailing line (torn write from a kill) is tolerated on load: lines that
fail to parse are skipped, never fatal.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
from pathlib import Path
from typing import IO, Any, Callable, Dict, List, Optional, Union

from repro.cache.keys import digest

#: Journal line format version; bump on incompatible record changes.
JOURNAL_VERSION = 1


def task_digest(task) -> str:
    """Stable digest of one grid cell's full identity.

    Covers everything that determines the cell's result — benchmark,
    device, day, compiler, sample count, success flag, both seeds — so
    two cells share a digest only if they are interchangeable.  The
    ``contracts`` field only joins the digest when a mode is enabled,
    so journals written before the contracts layer existed still
    resume contract-off sweeps; the ``mapper`` field likewise only
    joins when a non-default (non-exact) mapper is selected.  The
    ``opt`` field is *not* dropped: every digest since the pass manager
    landed hashes it, ``"opt": None`` included, so digests from before
    that field existed differ — and today's journals depend on it
    staying in (see :mod:`repro.compiler.options`).
    """
    payload = dataclasses.asdict(task)
    if not payload.get("contracts"):
        payload.pop("contracts", None)
    if not payload.get("mapper"):
        payload.pop("mapper", None)
    return digest("sweep-cell", payload)


def run_digest(*parts: Any) -> str:
    """A short stable run id derived from a sweep's specification."""
    return digest("sweep-run", list(parts))[:12]


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


class SweepJournal:
    """Append-only JSONL checkpoint log for one sweep run."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = None

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Completed cells on disk: digest -> record (last write wins).

        Corrupt lines — a torn trailing write, stray garbage — are
        skipped with a warning; resume never raises on journal damage.
        """
        return {record["task"]: record for record in self.records()}

    def records(self) -> List[Dict[str, Any]]:
        """Every parseable record, in append order (duplicates kept).

        :func:`load` collapses to last-write-wins per digest for resume;
        this keeps the raw sequence, which is what rebuilding a run's
        task metrics after the fact
        (``repro.obs.sweep_metrics_from_journal_records``) wants.
        """
        return read_jsonl(
            self.path,
            f"sweep journal {self.path}",
            "torn write from an interrupted run?",
            lambda record: (
                record.get("v") == JOURNAL_VERSION
                and isinstance(record.get("task"), str)
            ),
        )

    def reset(self) -> None:
        """Drop any previous journal contents (fresh, non-resumed run)."""
        self.close()
        try:
            self.path.unlink()
        except OSError:
            pass

    def record(
        self,
        cell_digest: str,
        measurement: Dict[str, Any],
        report: Dict[str, Any],
    ) -> None:
        """Append one completed cell; flushed and fsynced immediately."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        line = json.dumps(
            {
                "v": JOURNAL_VERSION,
                "task": cell_digest,
                "measurement": measurement,
                "report": report,
            },
            separators=(",", ":"),
        )
        self._handle.write(line + "\n")
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except OSError:
            pass

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
