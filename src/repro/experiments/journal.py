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
fail to parse are skipped, never fatal.  The next append cuts such a
fragment off first (see :class:`repro.durable.AppendLog`), so a resumed
run's first record lands on a line of its own.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List

from repro.cache.keys import digest
from repro.durable import AppendLog, read_jsonl

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


class SweepJournal(AppendLog):
    """Append-only JSONL checkpoint log for one sweep run."""

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
        line = json.dumps(
            {
                "v": JOURNAL_VERSION,
                "task": cell_digest,
                "measurement": measurement,
                "report": report,
            },
            separators=(",", ":"),
        )
        self.append(line.encode("utf-8") + b"\n")
