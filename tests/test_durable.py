"""Durable writes: :mod:`repro.durable` and the two logs built on it.

The unit half covers :class:`~repro.durable.AppendLog` (exact bytes,
lazy ``mkdir -p``, torn-tail repair) and :func:`~repro.durable.atomic_write`
(replace, temp-file cleanup on failure).  The replay half records a
real two-level sweep journal and a scripted service WAL (grouped
multi-record appends included), truncates a copy at every byte offset —
every point a crash could have stopped the writer — and checks what a
restart recovers:

* every record whose JSON text is wholly inside the prefix is
  recovered, and nothing else is;
* WAL job states only move forward as the prefix grows;
* one more append after the truncation is recovered too, next to
  every record recovered before it: a final record missing only its
  newline gets one, and only a torn fragment is cut.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.compiler import OptimizationLevel
from repro.durable import AppendLog, atomic_write, read_jsonl
from repro.experiments.journal import SweepJournal
from repro.experiments.parallel import run_sweep
from repro.service.wal import (
    JobWAL,
    finished_record,
    running_record,
    submitted_record,
)


class TestAppendLog:
    def test_lazy_open_creates_parents_and_writes_exact_bytes(self, tmp_path):
        log = AppendLog(tmp_path / "a" / "b" / "log.jsonl")
        assert not (tmp_path / "a").exists()  # nothing until the first append
        with log:
            log.append(b"one\n")
            log.append(b"two\n")
        assert log.path.read_bytes() == b"one\ntwo\n"
        assert log.fsyncs == 2

    def test_intact_file_is_appended_to(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(b"old\n")
        with AppendLog(path) as log:
            log.append(b"new\n")
        assert path.read_bytes() == b"old\nnew\n"

    @pytest.mark.parametrize(
        "existing, kept",
        [(b'{"a":1}\n{"b"', b'{"a":1}\n'), (b'{"b"', b"")],
        ids=["after-last-newline", "no-newline-at-all"],
    )
    def test_torn_tail_cut_before_first_append(self, tmp_path, existing, kept):
        path = tmp_path / "log"
        path.write_bytes(existing)
        with AppendLog(path) as log:
            log.append(b'{"c":3}\n')
        assert path.read_bytes() == kept + b'{"c":3}\n'

    @pytest.mark.parametrize(
        "existing",
        [b'{"a":1}\n{"b":2}', b'{"b":2}', b'{"a":1}\n{"b":2} '],
        ids=["after-last-newline", "only-line", "trailing-space"],
    )
    def test_complete_record_missing_newline_is_kept(self, tmp_path, existing):
        path = tmp_path / "log"
        path.write_bytes(existing)
        before = read_jsonl(path, "log", "", lambda r: True)
        with AppendLog(path) as log:
            log.append(b'{"c":3}\n')
        assert path.read_bytes() == existing + b'\n{"c":3}\n'
        assert read_jsonl(path, "log", "", lambda r: True) == before + [{"c": 3}]

    def test_json_tail_that_is_not_an_object_is_cut(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(b'{"a":1}\n12')
        with AppendLog(path) as log:
            log.append(b'{"c":3}\n')
        assert path.read_bytes() == b'{"a":1}\n{"c":3}\n'


class TestSweepJournalTornTail:
    def test_record_after_torn_tail_is_not_lost(self, tmp_path):
        """A resumed run's first record must not be glued to the fragment."""
        path = tmp_path / "run.jsonl"
        journal = SweepJournal(path)
        journal.record("a", {"benchmark": "BV4"}, {"attempts": 1})
        journal.close()
        with open(path, "ab") as handle:
            handle.write(b'{"v":1,"task":"b","measu')  # killed mid-append
        resumed = SweepJournal(path)
        resumed.record("c", {"benchmark": "HS2"}, {"attempts": 1})
        resumed.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fragment is gone, no warning
            assert list(SweepJournal(path).load()) == ["a", "c"]


class TestAtomicWrite:
    def test_replaces_and_leaves_only_the_target(self, tmp_path):
        path = tmp_path / "sub" / "state.json"
        atomic_write(path, b"first")
        atomic_write(path, b"second")
        assert path.read_bytes() == b"second"
        assert os.listdir(path.parent) == ["state.json"]

    def test_failed_replace_removes_temp_and_keeps_target(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "state.json"
        path.write_bytes(b"old")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, b"new")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["state.json"]


# ----------------------------------------------------------------------
# Exhaustive crash-point replay
# ----------------------------------------------------------------------
def _json_ends(data: bytes):
    """Offset just past each record's JSON text (its newline excluded)."""
    ends, start = [], 0
    for line in data.split(b"\n")[:-1]:
        ends.append(start + len(line))
        start += len(line) + 1
    return ends


def _quietly(read):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the torn tail
        return read()


def _strictly(read):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # repaired: no fragment left
        return read()


@pytest.fixture(scope="module")
def sweep_journal_bytes(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    report = run_sweep(
        "tenerife", [OptimizationLevel.N, OptimizationLevel.OPT_1QCN],
        benchmarks=["BV4", "HS2"], fault_samples=20,
        cache_dir=str(root / "cache"),
    )
    data = open(report.journal_path, "rb").read()
    assert data.count(b"\n") == 4
    return data


def _job(job_id, coalesced_with=None):
    return {
        "id": job_id, "kind": "compile", "tenant": "default",
        "params": {"benchmark": "HS2", "device": "tenerife"},
        "coalesce_key": None, "deadline_s": None,
        "submitted_at": 1.0, "coalesced_with": coalesced_with,
    }


@pytest.fixture(scope="module")
def wal_bytes(tmp_path_factory):
    wal = JobWAL(tmp_path_factory.mktemp("wal") / "wal.jsonl")
    for n in (1, 2, 3):
        wal.submitted(_job(f"job-00000{n}"))
    wal.running("job-000001")
    wal.finished("job-000001", "done")
    wal.running("job-000002")
    wal.submitted(_job("job-000004"))
    wal.finished("job-000002", "failed", {"type": "ValueError"})
    wal.running("job-000003")
    wal.running("job-000004")
    wal.finished("job-000004", "done")
    # An in-loop answer: three records, one append.
    wal.write(
        submitted_record(_job("job-000005")),
        running_record("job-000005"),
        finished_record("job-000005", "done"),
    )
    # A primary and its coalesced duplicate settle in one append.
    wal.submitted(_job("job-000006"))
    wal.submitted(_job("job-000007", coalesced_with="job-000006"))
    wal.running("job-000006")
    wal.write(
        finished_record("job-000006", "failed", {"type": "ValueError"}),
        finished_record("job-000007", "failed", {"type": "ValueError"}),
    )
    wal.close()
    data = wal.path.read_bytes()
    assert data.count(b"\n") == wal.fsyncs + 3  # groups of three and two
    return data


RANK = {"queued": 0, "running": 1, "done": 2, "failed": 2}


class TestCrashPointReplay:
    def test_sweep_journal_every_offset(self, tmp_path, sweep_journal_bytes):
        data = sweep_journal_bytes
        ends = _json_ends(data)
        tasks = [json.loads(line)["task"] for line in data.splitlines()]
        path = tmp_path / "run.jsonl"
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            recovered = _quietly(lambda: list(SweepJournal(path).load()))
            assert recovered == [
                t for t, end in zip(tasks, ends) if end <= cut
            ], cut
            journal = SweepJournal(path)
            journal.record("extra", {}, {})
            journal.close()
            assert _strictly(
                lambda: list(SweepJournal(path).load())
            ) == recovered + ["extra"], cut

    def test_wal_every_offset(self, tmp_path, wal_bytes):
        data = wal_bytes
        ends = _json_ends(data)
        lines = [json.loads(line) for line in data.splitlines()]
        path = tmp_path / "wal.jsonl"
        previous = {}
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            raw = _quietly(lambda: read_jsonl(path, "wal", "", lambda r: True))
            assert raw == [r for r, end in zip(lines, ends) if end <= cut], cut
            states = {
                job.id: job.status
                for job in _quietly(lambda: JobWAL(path).replay())
            }
            for job_id, status in previous.items():
                assert RANK[states[job_id]] >= RANK[status], (cut, job_id)
            previous = states
            wal = JobWAL(path)
            wal.submitted(_job("job-000099"))
            wal.close()
            replayed = _strictly(lambda: JobWAL(path).replay())
            assert [(job.id, job.status) for job in replayed] == (
                list(states.items()) + [("job-000099", "queued")]
            ), cut
        assert previous == {
            "job-000001": "done", "job-000002": "failed",
            "job-000003": "running", "job-000004": "done",
            "job-000005": "done", "job-000006": "failed",
            "job-000007": "failed",
        }
