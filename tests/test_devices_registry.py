"""One immutable device per (machine, day).

The seven study machines are built once per process, a :class:`Device`
is a frozen value, each calibration day is drawn once per machine, and
each device view computes its cache fingerprint once.  The headline
test proves that no code path writes to a shared machine.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
import threading

import pytest

from repro import api
from repro.cache import keys
from repro.devices import all_devices, device_by_name, ibmq5_tenerife
from repro.devices.calibration import SNAPSHOT_MEMO_DAYS, CalibrationModel
from repro.devices.device import check_day

LEVELS = ("N", "1QOpt", "1QOptC", "1QOptCN")


def _state(device):
    """Everything a device exposes, copied deep, plus a fresh digest."""
    calibration = device.calibration()
    return {
        "name": device.name,
        "gate_set": device.gate_set,
        "edges": sorted(tuple(sorted(e)) for e in device.topology.edges()),
        "directed": device.topology.directed,
        "coherence_time_us": device.coherence_time_us,
        "gate_time_us": device.gate_time_us,
        "day": device.day,
        "two_qubit_error": copy.deepcopy(calibration.two_qubit_error),
        "single_qubit_error": copy.deepcopy(calibration.single_qubit_error),
        "readout_error": copy.deepcopy(calibration.readout_error),
        # device_digest recomputes; .fingerprint would return the memo.
        "fingerprint": keys.device_digest(device),
    }


def _snapshot_all(days):
    return {
        (device.name, day): _state(device_by_name(device.name, day))
        for device in all_devices()
        for day in days
    }


def test_no_code_writes_to_a_shared_device(tmp_path):
    days = (0, 1)
    before = _snapshot_all(days)
    for device in all_devices():
        for level in LEVELS:
            api.compile("BV4", device=device.name, level=level, day=1)
            api.run(
                "BV4", device=device.name, level=level, fault_samples=5,
                cache_dir=tmp_path / "cache",
            )
    api.sweep(
        "tenerife", list(LEVELS), ["BV4", "HS2"], days=list(days),
        fault_samples=5, workers=1, cache_dir=tmp_path / "sweep",
    )
    assert _snapshot_all(days) == before
    for name in before:
        assert device_by_name(*name).calibration() is device_by_name(
            *name
        ).calibration()
        assert device_by_name(*name).fingerprint == before[name][
            "fingerprint"
        ]


class TestFrozenDevice:
    def test_fields_cannot_be_assigned(self):
        device = ibmq5_tenerife()
        with pytest.raises(dataclasses.FrozenInstanceError):
            device.day = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            device.coherence_time_us = 1.0

    def test_on_day_is_a_view_of_the_same_machine(self):
        base = ibmq5_tenerife()
        view = base.on_day(4)
        assert view.day == 4 and base.day == 0
        assert view.calibration_model is base.calibration_model
        assert view.calibration() is base.calibration(4)
        assert base.on_day(0) is base and base.on_day(None) is base

    def test_fingerprint_is_the_key_digest_of_its_day(self):
        view = device_by_name("melbourne", 2)
        assert view.fingerprint == keys.device_digest(view)
        assert keys.device_fingerprint(ibmq5_tenerife(), 3) == (
            ibmq5_tenerife(3).fingerprint
        )
        assert view.fingerprint != device_by_name("melbourne", 3).fingerprint


class TestBuiltOncePerProcess:
    def test_lookups_share_one_machine(self):
        machine = ibmq5_tenerife()
        assert ibmq5_tenerife() is machine
        assert device_by_name("tenerife") is machine
        assert all_devices(5)[0].calibration_model is (
            machine.calibration_model
        )

    def test_lookups_build_no_calibration_model(self, monkeypatch):
        all_devices()  # the registry may be cold in a fresh process
        built = []
        original = CalibrationModel.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(CalibrationModel, "__post_init__", counting)
        for day in range(5):
            all_devices(day)
            device_by_name("aspen3", day)
        assert built == []

    def test_partial_name_and_error_text_unchanged(self):
        assert device_by_name("Aspen 1").name == "Rigetti Aspen1"
        with pytest.raises(KeyError, match="unknown device 'nope'; known"):
            device_by_name("nope")


class TestFingerprintsOncePerView:
    def _count(self, monkeypatch):
        calls = []
        original = keys.device_digest

        def counting(device):
            calls.append((device.name, device.day))
            return original(device)

        monkeypatch.setattr(keys, "device_digest", counting)
        return calls

    def test_cold_cache_compile_fingerprints_the_device_once(
        self, monkeypatch, tmp_path
    ):
        calls = self._count(monkeypatch)
        result = api.compile(
            "BV4", device="tenerife", day=9, cache_dir=tmp_path
        )
        assert result.cache_hit is False
        assert calls == [("IBM Q5 Tenerife", 9)]

    def test_serial_sweep_fingerprints_each_day_once(
        self, monkeypatch, tmp_path
    ):
        calls = self._count(monkeypatch)
        api.sweep(
            "tenerife", list(LEVELS), ["BV4", "HS2"], days=[11, 12],
            fault_samples=5, workers=1, cache_dir=tmp_path,
        )
        # One device view per cell at most (16 cells), and the cells on
        # the sweep's own day share the plan's view.
        assert 0 < len(calls) <= 16


class TestSnapshotMemo:
    def _model(self):
        return CalibrationModel(
            edges=[frozenset((0, 1))],
            num_qubits=2,
            mean_two_qubit_error=0.05,
            mean_single_qubit_error=0.002,
            mean_readout_error=0.03,
            seed=3,
        )

    def test_each_day_drawn_once(self):
        model = self._model()
        assert model.snapshot(4) is model.snapshot(4)
        assert model.snapshot(4) is not model.snapshot(5)

    def test_memo_is_bounded_and_redraws_equal(self):
        model = self._model()
        first = model.snapshot(0)
        for day in range(SNAPSHOT_MEMO_DAYS + 10):
            model.snapshot(day)
        assert len(model._snapshots) == SNAPSHOT_MEMO_DAYS
        redrawn = model.snapshot(0)
        assert redrawn is not first and redrawn == first


def test_threads_share_machines_without_divergence():
    """Executor threads racing on one machine's memo and fingerprints
    may draw a day twice, but every reader sees equal data and the memo
    stays within its bound."""
    model = TestSnapshotMemo()._model()
    tenerife = ibmq5_tenerife().calibration_model
    days = list(range(SNAPSHOT_MEMO_DAYS + 40))
    expected = {
        day: (
            model._draw(day),
            tenerife._draw(day),
            keys.device_digest(ibmq5_tenerife(day)),
        )
        for day in days
    }
    errors = []

    def reader(offset):
        try:
            for i in range(len(days)):
                day = days[(offset + i) % len(days)]
                view = device_by_name("tenerife", day)
                got = (
                    model.snapshot(day), view.calibration(), view.fingerprint
                )
                assert got == expected[day], day
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=reader, args=(17 * n,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(model._snapshots) <= SNAPSHOT_MEMO_DAYS
    assert len(tenerife._snapshots) <= SNAPSHOT_MEMO_DAYS


class TestDayValidation:
    @pytest.mark.parametrize("bad", (True, False, "x", 2.5, -1))
    def test_check_day_names_day_and_value(self, bad):
        with pytest.raises(ValueError, match=f"day .*{bad!r}"):
            check_day(bad)

    def test_good_days_pass(self):
        assert check_day(0) == 0 and check_day(119) == 119

    @pytest.mark.parametrize("bad", (True, "x", 2.5, -1))
    def test_every_entry_point_fails_the_same_way(self, bad):
        message = f"day must be a non-negative integer, got {bad!r}"
        calls = (
            lambda: device_by_name("tenerife", bad),
            lambda: ibmq5_tenerife().on_day(bad),
            lambda: ibmq5_tenerife().calibration(bad),
            lambda: api.compile("BV4", device="tenerife", day=bad),
            lambda: api.compile_cache_key("BV4", device="tenerife", day=bad),
            lambda: api.run("BV4", device="tenerife", day=bad),
            lambda: api.sweep("tenerife", "N", ["BV4"], day=bad),
            lambda: api.sweep("tenerife", "N", ["BV4"], days=[0, bad]),
        )
        for call in calls:
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == message
