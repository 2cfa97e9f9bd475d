"""Tests for the sweep fault-tolerance layer.

Covers the retry policy, structured task failures, worker-crash
isolation, per-task timeouts, checkpoint/resume, calibration input
hardening, cache quarantine, and solver degradation — the behaviors
ISSUE 2 adds on top of the parallel engine.
"""

import json
import math
from dataclasses import replace

import pytest

from repro.cache import open_cache
from repro.compiler import OptimizationLevel, TriQCompiler
from repro.devices import Topology, ibmq5_tenerife
from repro.devices.calibration import Calibration, CalibrationError
from repro.devices.config import (
    device_from_dict,
    device_to_dict,
    load_device,
    save_device,
)
from repro.devices.device import Device
from repro.devices.gatesets import GATESET_BY_FAMILY, VendorFamily
from repro.experiments.faults import (
    FAULT_INJECT_ENV,
    InjectedFault,
    RetryPolicy,
    maybe_inject_fault,
)
from repro.experiments.journal import SweepJournal, run_digest, task_digest
from repro.experiments.parallel import SweepTask, run_sweep
from repro.ir import Circuit
from repro.programs import Benchmark

from tests.helpers import make_device

LEVELS = [OptimizationLevel.N, OptimizationLevel.OPT_1QCN]


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delay_grows_exponentially(self):
        policy = RetryPolicy(backoff_s=1.0, backoff_factor=2.0, jitter=0.0)
        assert policy.delay(1) == pytest.approx(1.0)
        assert policy.delay(2) == pytest.approx(2.0)
        assert policy.delay(3) == pytest.approx(4.0)

    def test_delay_capped(self):
        policy = RetryPolicy(
            backoff_s=1.0, backoff_factor=10.0, max_backoff_s=5.0, jitter=0.0
        )
        assert policy.delay(10) == pytest.approx(5.0)

    def test_jitter_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_s=1.0, backoff_factor=1.0, jitter=0.25)
        first = policy.delay(1, token="cell-a")
        again = policy.delay(1, token="cell-a")
        other = policy.delay(1, token="cell-b")
        assert first == again  # hash-based, not RNG: reruns reproduce
        assert first != other
        assert 1.0 <= first <= 1.25


# ----------------------------------------------------------------------
# Fault injection hooks
# ----------------------------------------------------------------------
class TestInjection:
    def test_noop_without_env(self, monkeypatch):
        monkeypatch.delenv(FAULT_INJECT_ENV, raising=False)
        maybe_inject_fault("BV4", 1)  # must not raise

    def test_error_mode_raises_for_target_only(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "error:BV4")
        maybe_inject_fault("Toffoli", 1)  # different benchmark: no-op
        with pytest.raises(InjectedFault):
            maybe_inject_fault("BV4", 1)

    def test_max_attempt_gates_the_fault(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "error:BV4:1")
        with pytest.raises(InjectedFault):
            maybe_inject_fault("BV4", 1)
        maybe_inject_fault("BV4", 2)  # past max_attempt: healed


# ----------------------------------------------------------------------
# Serial-path failures and retries
# ----------------------------------------------------------------------
class TestSerialFailures:
    @pytest.mark.parametrize("mode", ["serial", "process-pool", "distributed"])
    def test_error_becomes_structured_failure(self, monkeypatch, tmp_path, mode):
        monkeypatch.setenv(FAULT_INJECT_ENV, "error:BV4")
        if mode == "distributed":
            # The in-process coordinator with worker threads: the error
            # travels over /v1/fail, elapsed time included.
            from tests.test_distributed import _distributed

            _, report, _, _ = _distributed(open_cache(tmp_path), "error-run")
        else:
            report = run_sweep(
                ibmq5_tenerife(),
                [OptimizationLevel.N],
                benchmarks=["BV4", "Toffoli"],
                with_success=False,
                backoff_s=0.01,
                workers=2 if mode == "process-pool" else 1,
            )
        assert report.mode == mode
        assert [m.benchmark for m in report.measurements] == ["Toffoli"]
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.benchmark == "BV4"
        assert failure.kind == "error"
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 1
        assert "InjectedFault" in failure.traceback
        assert "BV4" in failure.describe()
        assert failure.elapsed_s > 0

    def test_retry_heals_transient_error(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "error:BV4:1")
        report = run_sweep(
            ibmq5_tenerife(),
            [OptimizationLevel.N],
            benchmarks=["BV4"],
            with_success=False,
            retries=1,
            backoff_s=0.01,
        )
        assert not report.failures
        assert report.tasks[0].attempts == 2

    def test_retry_exhaustion_reports_attempts(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "error:BV4")
        report = run_sweep(
            ibmq5_tenerife(),
            [OptimizationLevel.N],
            benchmarks=["BV4"],
            with_success=False,
            retries=2,
            backoff_s=0.01,
        )
        assert len(report.failures) == 1
        assert report.failures[0].attempts == 3


# ----------------------------------------------------------------------
# Serial fallback is explained, never silent
# ----------------------------------------------------------------------
class TestFallbackReason:
    def test_workers_one_reason(self):
        report = run_sweep(
            ibmq5_tenerife(),
            [OptimizationLevel.N],
            benchmarks=["BV4"],
            with_success=False,
        )
        assert report.fallback_reason == "workers=1 requested"

    def test_adhoc_benchmark_reason_names_the_benchmark(self):
        adhoc = Benchmark(
            name="adhoc-ghz3",
            factory=lambda: (
                Circuit(3, name="adhoc-ghz3").h(0).cx(0, 1).cx(1, 2)
                .measure_all(),
                "000",
            ),
            interaction_shape="chain",
        )
        report = run_sweep(
            ibmq5_tenerife(),
            LEVELS,
            benchmarks=[adhoc],
            workers=4,
            with_success=False,
        )
        assert report.mode == "serial"
        assert "adhoc-ghz3" in report.fallback_reason
        assert "pickle" in report.fallback_reason

    def test_adhoc_device_reason_names_the_device(self):
        device = make_device(Topology.line(5), VendorFamily.IBM)
        report = run_sweep(
            device,
            LEVELS,
            benchmarks=["BV4", "Toffoli"],
            workers=4,
            with_success=False,
        )
        assert report.mode == "serial"
        assert "test device" in report.fallback_reason


# ----------------------------------------------------------------------
# Pool-mode crash isolation and timeouts
# ----------------------------------------------------------------------
class TestPoolFaults:
    def test_worker_crash_poisons_only_its_task(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "crash:BV4")
        report = run_sweep(
            ibmq5_tenerife(),
            [OptimizationLevel.N],
            benchmarks=["BV4", "Toffoli", "Fredkin"],
            workers=2,
            with_success=False,
            backoff_s=0.01,
        )
        assert report.mode == "process-pool"
        assert sorted(m.benchmark for m in report.measurements) == [
            "Fredkin",
            "Toffoli",
        ]
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.benchmark == "BV4"
        assert failure.kind == "crash"
        assert "73" in failure.message  # the injected exit code

    def test_worker_crash_retried_to_success(self, monkeypatch):
        # Baseline first: injection must NOT be active while the serial
        # reference run executes in this very process.
        monkeypatch.delenv(FAULT_INJECT_ENV, raising=False)
        clean = run_sweep(
            ibmq5_tenerife(),
            [OptimizationLevel.N],
            benchmarks=["BV4", "Toffoli"],
            with_success=False,
        )
        monkeypatch.setenv(FAULT_INJECT_ENV, "crash:BV4:1")
        report = run_sweep(
            ibmq5_tenerife(),
            [OptimizationLevel.N],
            benchmarks=["BV4", "Toffoli"],
            workers=2,
            with_success=False,
            retries=1,
            backoff_s=0.01,
        )
        assert not report.failures
        by_name = {m.benchmark: m for m in report.measurements}
        clean_by_name = {m.benchmark: m for m in clean.measurements}
        # The retried cell is byte-identical to a first-try run.
        for name in ("BV4", "Toffoli"):
            got = replace(by_name[name], compile_time_s=0.0)
            want = replace(clean_by_name[name], compile_time_s=0.0)
            assert got == want

    def test_hung_task_times_out(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "hang:BV4")
        report = run_sweep(
            ibmq5_tenerife(),
            [OptimizationLevel.N],
            benchmarks=["BV4", "Toffoli"],
            workers=2,
            with_success=False,
            task_timeout_s=1.5,
            backoff_s=0.01,
        )
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.benchmark == "BV4"
        assert failure.kind == "timeout"
        assert [m.benchmark for m in report.measurements] == ["Toffoli"]

    def test_hung_task_heals_on_retry(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "hang:BV4:1")
        report = run_sweep(
            ibmq5_tenerife(),
            [OptimizationLevel.N],
            benchmarks=["BV4", "Toffoli"],
            workers=2,
            with_success=False,
            task_timeout_s=1.5,
            retries=1,
            backoff_s=0.01,
        )
        assert not report.failures
        assert sorted(m.benchmark for m in report.measurements) == [
            "BV4",
            "Toffoli",
        ]


# ----------------------------------------------------------------------
# Checkpoint journal and resume
# ----------------------------------------------------------------------
class TestJournal:
    def test_record_load_roundtrip(self, tmp_path):
        journal = SweepJournal(tmp_path / "run.jsonl")
        journal.record("abc", {"benchmark": "BV4"}, {"attempts": 1})
        journal.record("def", {"benchmark": "Toffoli"}, {"attempts": 2})
        journal.close()
        completed = journal.load()
        assert set(completed) == {"abc", "def"}
        assert completed["abc"]["measurement"] == {"benchmark": "BV4"}

    def test_corrupt_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = SweepJournal(path)
        journal.record("abc", {"benchmark": "BV4"}, {"attempts": 1})
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "task": "torn')  # killed mid-write
        assert set(journal.load()) == {"abc"}

    def test_torn_final_line_warns_and_loads_rest(self, tmp_path):
        """A kill mid-append loses only the torn record, with a warning."""
        path = tmp_path / "run.jsonl"
        journal = SweepJournal(path)
        journal.record("abc", {"benchmark": "BV4"}, {"attempts": 1})
        journal.record("def", {"benchmark": "HS2"}, {"attempts": 1})
        journal.close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])  # tear the final record mid-json
        with pytest.warns(RuntimeWarning, match="torn write"):
            completed = SweepJournal(path).load()
        assert set(completed) == {"abc"}

    def test_torn_multibyte_utf8_tolerated(self, tmp_path):
        """A tear inside a multi-byte sequence must not raise on decode."""
        path = tmp_path / "run.jsonl"
        journal = SweepJournal(path)
        journal.record("abc", {"benchmark": "BV4"}, {"attempts": 1})
        journal.close()
        with open(path, "ab") as handle:
            # First byte of a two-byte UTF-8 sequence, then nothing.
            handle.write(b'{"v": 1, "task": "caf\xc3')
        with pytest.warns(RuntimeWarning):
            completed = SweepJournal(path).load()
        assert set(completed) == {"abc"}

    def test_corrupt_middle_line_warns_with_position(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = SweepJournal(path)
        journal.record("abc", {"benchmark": "BV4"}, {"attempts": 1})
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        journal2 = SweepJournal(path)
        journal2.record("def", {"benchmark": "HS2"}, {"attempts": 1})
        journal2.record("ghi", {"benchmark": "QFT5"}, {"attempts": 1})
        journal2.close()
        with pytest.warns(RuntimeWarning, match="corrupt line 2"):
            completed = SweepJournal(path).load()
        assert set(completed) == {"abc", "def", "ghi"}

    def test_version_mismatch_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps({"v": 999, "task": "abc", "measurement": {}}) + "\n"
        )
        assert SweepJournal(path).load() == {}

    def test_task_digest_pins_cell_content(self):
        task = SweepTask(
            benchmark="BV4",
            device="ibmq5 tenerife",
            day=0,
            compiler="TriQ-N",
            fault_samples=100,
            with_success=False,
            compile_seed=0,
            mc_seed=1234,
        )
        assert task_digest(task) == task_digest(task)
        changed = replace(task, mc_seed=99)
        assert task_digest(task) != task_digest(changed)

    def test_run_digest_is_short_and_stable(self):
        a = run_digest("tenerife", [0], ["TriQ-N"])
        b = run_digest("tenerife", [0], ["TriQ-N"])
        assert a == b
        assert len(a) == 12
        assert a != run_digest("tenerife", [1], ["TriQ-N"])


class TestResume:
    def test_resume_replays_only_finished_cells(self, tmp_path, monkeypatch):
        device = ibmq5_tenerife()
        kwargs = dict(
            benchmarks=["BV4", "Toffoli", "Fredkin"],
            with_success=False,
            cache=open_cache(tmp_path / "cache"),
        )
        monkeypatch.setenv(FAULT_INJECT_ENV, "crash:BV4")
        first = run_sweep(
            device, [OptimizationLevel.N], workers=2, backoff_s=0.01, **kwargs
        )
        assert first.run_id
        assert len(first.failures) == 1
        journal_path = tmp_path / "cache" / "journals" / (
            first.run_id + ".jsonl"
        )
        assert journal_path.exists()

        monkeypatch.delenv(FAULT_INJECT_ENV)
        second = run_sweep(
            device, [OptimizationLevel.N], resume=True, **kwargs
        )
        assert second.run_id == first.run_id
        assert not second.failures
        assert second.resumed == 2  # Toffoli and Fredkin replayed
        resumed_flags = {
            t.benchmark: t.resumed for t in second.tasks
        }
        assert resumed_flags == {
            "BV4": False,  # the crashed cell is the only one recomputed
            "Toffoli": True,
            "Fredkin": True,
        }
        clean = run_sweep(device, [OptimizationLevel.N], **kwargs)

        # cache_hit legitimately differs (the crashed cell compiled
        # cold during resume, warm in the later clean run); everything
        # the paper plots must be identical.
        def comparable(measurements):
            return [
                replace(m, compile_time_s=0.0, cache_hit=None)
                for m in measurements
            ]

        assert comparable(second.measurements) == comparable(
            clean.measurements
        )

    def test_fresh_run_resets_journal(self, tmp_path):
        device = ibmq5_tenerife()
        kwargs = dict(
            benchmarks=["BV4"],
            with_success=False,
            cache=open_cache(tmp_path / "cache"),
        )
        run_sweep(device, [OptimizationLevel.N], **kwargs)
        report = run_sweep(device, [OptimizationLevel.N], **kwargs)
        assert report.resumed == 0  # resume=False recomputes everything


# ----------------------------------------------------------------------
# Calibration input hardening
# ----------------------------------------------------------------------
def _line3_calibration(**overrides):
    topology = Topology.line(3)
    data = dict(
        two_qubit_error={e: 0.05 for e in topology.edges()},
        single_qubit_error={q: 0.002 for q in range(3)},
        readout_error={q: 0.03 for q in range(3)},
    )
    data.update(overrides)
    return Calibration(**data)


class TestCalibrationValidation:
    def test_valid_calibration_passes_and_chains(self):
        calibration = _line3_calibration()
        assert calibration.validate() is calibration

    def test_nan_rate_rejected_with_location(self):
        calibration = _line3_calibration(
            two_qubit_error={
                frozenset((0, 1)): float("nan"),
                frozenset((1, 2)): 0.05,
            }
        )
        with pytest.raises(CalibrationError, match=r"edge \(0, 1\)"):
            calibration.validate()

    def test_negative_rate_rejected(self):
        calibration = _line3_calibration(
            readout_error={0: 0.03, 1: -0.2, 2: 0.03}
        )
        with pytest.raises(CalibrationError, match="qubit 1.*negative"):
            calibration.validate()

    def test_rate_above_one_rejected(self):
        calibration = _line3_calibration(
            single_qubit_error={0: 0.002, 1: 0.002, 2: 1.5}
        )
        with pytest.raises(CalibrationError, match=r"\[0, 1\]"):
            calibration.validate()

    def test_all_problems_reported_at_once(self):
        calibration = _line3_calibration(
            single_qubit_error={0: float("inf"), 1: -1.0, 2: 0.002}
        )
        with pytest.raises(CalibrationError) as excinfo:
            calibration.validate()
        message = str(excinfo.value)
        assert "qubit 0" in message and "qubit 1" in message

    def test_device_config_rejects_bad_rates(self):
        data = device_to_dict(make_device(Topology.line(3)))
        data["calibration"]["readout_error"][1] = math.nan
        with pytest.raises(CalibrationError, match="readout error on qubit 1"):
            device_from_dict(data)

    def test_save_load_roundtrip_is_atomic_write(self, tmp_path):
        device = make_device(Topology.line(3))
        path = tmp_path / "dev.json"
        save_device(device, str(path))
        loaded = load_device(str(path))
        assert loaded.name == device.name
        # No temp droppings left behind by the atomic write.
        assert [p.name for p in tmp_path.iterdir()] == ["dev.json"]


class _FlakyFeed:
    """A calibration feed that corrupts specific days."""

    def __init__(self, calibration, bad_days):
        self._calibration = calibration
        self._bad_days = set(bad_days)

    def snapshot(self, day=0):
        calibration = replace(self._calibration, day=day)
        if day in self._bad_days:
            broken = dict(calibration.readout_error)
            broken[0] = float("nan")
            calibration = replace(calibration, readout_error=broken)
        return calibration


def _flaky_device(bad_days):
    topology = Topology.line(5)
    return Device(
        name="flaky device",
        gate_set=GATESET_BY_FAMILY[VendorFamily.IBM],
        topology=topology,
        calibration_model=_FlakyFeed(_line5_calibration(topology), bad_days),
        coherence_time_us=100.0,
    )


def _line5_calibration(topology):
    return Calibration(
        two_qubit_error={e: 0.05 for e in topology.edges()},
        single_qubit_error={q: 0.002 for q in range(5)},
        readout_error={q: 0.03 for q in range(5)},
    )


class TestBadDays:
    def test_bad_day_raises_by_default(self):
        with pytest.raises(CalibrationError, match="day 1"):
            run_sweep(
                _flaky_device(bad_days=[1]),
                [OptimizationLevel.N],
                benchmarks=["BV4"],
                days=[0, 1],
                with_success=False,
            )

    def test_skip_bad_days_records_and_continues(self):
        report = run_sweep(
            _flaky_device(bad_days=[1]),
            [OptimizationLevel.N],
            benchmarks=["BV4"],
            days=[0, 1, 2],
            skip_bad_days=True,
            with_success=False,
        )
        assert [day for day, _ in report.skipped_days] == [1]
        assert "readout error on qubit 0" in report.skipped_days[0][1]
        assert [m.day for m in report.measurements] == [0, 2]

    def test_multi_day_grid_orders_day_innermost(self):
        report = run_sweep(
            ibmq5_tenerife(),
            [OptimizationLevel.N],
            benchmarks=["BV4"],
            days=[0, 1],
            with_success=False,
        )
        assert [(m.benchmark, m.day) for m in report.measurements] == [
            ("BV4", 0),
            ("BV4", 1),
        ]


# ----------------------------------------------------------------------
# Cache quarantine
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_corrupt_entry_moved_to_quarantine(self, tmp_path):
        cache = open_cache(tmp_path / "cache")
        cache.put("cell", {"value": 41})
        entry = next((tmp_path / "cache").rglob("*.pkl"))
        entry.write_bytes(b"not a pickle")
        assert cache.get("cell") is None
        assert not entry.exists()
        quarantined = list(cache.quarantine_dir.iterdir())
        assert [p.name for p in quarantined] == [entry.name]
        # The slot is reusable after quarantine.
        cache.put("cell", {"value": 42})
        assert cache.get("cell") == {"value": 42}


# ----------------------------------------------------------------------
# Solver degradation is recorded, not hidden
# ----------------------------------------------------------------------
class TestDegradation:
    def test_smt_failure_degrades_to_default_mapping(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr("repro.compiler.pipeline.smt_mapping", boom)
        device = ibmq5_tenerife()
        circuit = Circuit(3, name="ghz").h(0).cx(0, 1).cx(1, 2).measure_all()
        program = TriQCompiler(
            device, level=OptimizationLevel.OPT_1QCN
        ).compile(circuit)
        assert program.initial_mapping.degraded
        assert program.initial_mapping.placement == (0, 1, 2)

    def test_degraded_flag_survives_cache_roundtrip(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr("repro.compiler.pipeline.smt_mapping", boom)
        device = ibmq5_tenerife()
        circuit = Circuit(3, name="ghz").h(0).cx(0, 1).cx(1, 2).measure_all()
        program = TriQCompiler(
            device, level=OptimizationLevel.OPT_1QCN
        ).compile(circuit)
        payload = program.to_payload()
        restored = type(program).from_payload(payload, device)
        assert restored.initial_mapping.degraded

    def test_old_payload_without_flag_defaults_clean(self):
        device = ibmq5_tenerife()
        circuit = Circuit(2, name="bell").h(0).cx(0, 1).measure_all()
        program = TriQCompiler(
            device, level=OptimizationLevel.N
        ).compile(circuit)
        payload = program.to_payload()
        del payload["degraded"]  # entries written before the flag
        restored = type(program).from_payload(payload, device)
        assert restored.initial_mapping.degraded is False

    def test_measurement_carries_degraded_flag(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr("repro.compiler.pipeline.smt_mapping", boom)
        report = run_sweep(
            ibmq5_tenerife(),
            [OptimizationLevel.OPT_1QCN],
            benchmarks=["BV4"],
            with_success=False,
        )
        assert report.measurements[0].degraded is True
