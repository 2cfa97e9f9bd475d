"""Tests for the persistent compile cache (keys, store, integration)."""

import pickle

import pytest

from repro.cache import (
    CACHE_SCHEMA_VERSION,
    CompileCache,
    NullCache,
    cache_context,
    circuit_fingerprint,
    compile_key,
    device_fingerprint,
    digest,
    get_active_cache,
    open_cache,
    reliability_key,
    success_key,
)
from repro.compiler import OptimizationLevel, TriQCompiler
from repro.devices import ibmq5_tenerife
from repro.experiments.runner import compile_with_cache
from repro.ir import Circuit
from repro.programs import bernstein_vazirani


@pytest.fixture
def cache(tmp_path):
    return CompileCache(tmp_path / "cache")


class TestKeys:
    def test_digest_is_stable(self):
        assert digest("a", 1, [2.5]) == digest("a", 1, [2.5])

    def test_digest_orders_mappings(self):
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})

    def test_digest_rejects_objects(self):
        with pytest.raises(TypeError):
            digest(object())

    def test_encoding_is_pinned(self):
        # Exact scalars render inline; subclasses (np.float64, IntEnum,
        # namedtuple) keep the recursive path's text.
        import collections
        import enum

        import numpy as np

        class E(enum.IntEnum):
            A = 1

        pair = collections.namedtuple("pair", "x y")
        value = [None, True, 0, -1, 1.5, -0.0, "q", np.float64(0.25), E.A,
                 pair(1, 2.0), (1, (2, [3, {4: 5}])), {"b": {1, 2}}]
        assert digest(value) == (
            "bc492a8c130216768199b2be40a109aacc3b808f190a3151e62ae4504b0a861e"
        )

    def test_circuit_fingerprint_ignores_name(self):
        a = Circuit(2, name="one").h(0).cx(0, 1)
        b = Circuit(2, name="two").h(0).cx(0, 1)
        assert circuit_fingerprint(a) == circuit_fingerprint(b)

    def test_circuit_fingerprint_sees_structure(self):
        a = Circuit(2).h(0).cx(0, 1)
        b = Circuit(2).h(0).cx(1, 0)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_circuit_fingerprint_memo_follows_append(self, monkeypatch):
        import repro.cache.keys as keys

        computed = []
        real = keys.circuit_fingerprint
        monkeypatch.setattr(
            keys, "circuit_fingerprint",
            lambda circuit: computed.append(circuit) or real(circuit),
        )
        circuit = Circuit(2).h(0)
        device = ibmq5_tenerife()
        first = compile_key(circuit, device, "x")
        assert success_key(circuit, device, "00").startswith("sr-")
        assert circuit.fingerprint == real(circuit)
        assert computed == [circuit]
        circuit.cx(0, 1)
        assert compile_key(circuit, device, "x") != first
        assert circuit.fingerprint == real(circuit)
        assert computed == [circuit, circuit]
        # The memo never travels: pickles and copies hold only structure.
        assert "_fingerprint" not in pickle.loads(pickle.dumps(circuit)).__dict__
        assert pickle.dumps(circuit) == pickle.dumps(
            Circuit(2, instructions=circuit.instructions)
        )

    def test_sweep_hashes_each_circuit_once(self, monkeypatch, tmp_path):
        import repro.cache.keys as keys
        from repro import api

        seen = []
        real = keys.circuit_fingerprint
        monkeypatch.setattr(
            keys, "circuit_fingerprint",
            lambda circuit: seen.append(circuit) or real(circuit),
        )
        api.sweep(
            "tenerife", ["N", "1QOptCN"], benchmarks=["BV4", "HS2"],
            days=[0, 5], workers=1, fault_samples=4, cache_dir=tmp_path,
        )
        assert seen
        assert len({id(circuit) for circuit in seen}) == len(seen)

    def test_device_fingerprint_changes_with_day(self):
        device = ibmq5_tenerife()
        assert device_fingerprint(device, 0) != device_fingerprint(device, 1)

    def test_compile_key_varies_by_level(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        device = ibmq5_tenerife()
        keys = {
            compile_key(circuit, device, level.value)
            for level in OptimizationLevel
        }
        assert len(keys) == len(list(OptimizationLevel))

    def test_compile_key_varies_by_options(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        device = ibmq5_tenerife()
        assert compile_key(
            circuit, device, "x", options={"seed": 0}
        ) != compile_key(circuit, device, "x", options={"seed": 1})

    def test_key_namespaces_are_distinct(self):
        device = ibmq5_tenerife()
        circuit = Circuit(2).h(0).measure_all()
        assert compile_key(circuit, device, "x").startswith("cp-")
        assert reliability_key(device, True).startswith("rm-")
        assert success_key(circuit, device, "00").startswith("sr-")


class TestStore:
    def test_roundtrip(self, cache):
        cache.put("cp-abc", {"value": [1, 2, 3]})
        assert cache.get("cp-abc") == {"value": [1, 2, 3]}
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_miss(self, cache):
        assert cache.get("cp-missing") is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_len_counts_entries(self, cache):
        assert len(cache) == 0
        cache.put("cp-a", 1)
        cache.put("cp-b", 2)
        assert len(cache) == 2

    def test_corrupted_entry_recovers(self, cache):
        cache.put("cp-bad", {"ok": True})
        path = cache._path("cp-bad")
        path.write_bytes(b"not a pickle")
        assert cache.get("cp-bad") is None
        assert cache.stats.recovered == 1
        assert not path.exists()
        # The slot is usable again.
        cache.put("cp-bad", {"ok": True})
        assert cache.get("cp-bad") == {"ok": True}

    def test_schema_version_mismatch_recovers(self, cache):
        cache.put("cp-old", {"ok": True})
        path = cache._path("cp-old")
        with open(path, "wb") as handle:
            pickle.dump(
                (CACHE_SCHEMA_VERSION + 1, "cp-old", {"ok": True}), handle
            )
        assert cache.get("cp-old") is None
        assert cache.stats.recovered == 1

    def test_key_mismatch_recovers(self, cache):
        cache.put("cp-one", {"ok": True})
        path = cache._path("cp-one")
        other = cache._path("cp-onX")
        other.parent.mkdir(parents=True, exist_ok=True)
        path.rename(other)
        assert cache.get("cp-onX") is None
        assert cache.stats.recovered == 1

    def test_null_cache_noops(self):
        null = NullCache()
        null.put("cp-a", 1)
        assert null.get("cp-a") is None
        assert not null.enabled

    def test_open_cache_disabled(self, tmp_path):
        assert isinstance(open_cache(tmp_path, enabled=False), NullCache)
        assert isinstance(open_cache(tmp_path), CompileCache)


class TestActive:
    def test_context_restores_previous(self, cache):
        assert get_active_cache() is None
        with cache_context(cache):
            assert get_active_cache() is cache
            with cache_context(None):
                assert get_active_cache() is None
            assert get_active_cache() is cache
        assert get_active_cache() is None


class TestCompileIntegration:
    def test_cold_miss_then_warm_hit(self, cache):
        circuit, _ = bernstein_vazirani(4)
        device = ibmq5_tenerife()
        cold, hit_cold = compile_with_cache(
            circuit, device, OptimizationLevel.OPT_1QCN, cache=cache
        )
        warm, hit_warm = compile_with_cache(
            circuit, device, OptimizationLevel.OPT_1QCN, cache=cache
        )
        assert hit_cold is False and hit_warm is True
        assert warm.executable() == cold.executable()
        assert warm.two_qubit_gate_count() == cold.two_qubit_gate_count()
        assert warm.one_qubit_pulse_count() == cold.one_qubit_pulse_count()
        assert warm.num_swaps == cold.num_swaps
        assert warm.final_placement == cold.final_placement
        # The stored compile time is replayed, keeping warm runs
        # byte-identical regardless of machine load.
        assert warm.compile_time_s == cold.compile_time_s

    def test_no_cache_reports_none(self):
        circuit, _ = bernstein_vazirani(4)
        program, hit = compile_with_cache(
            circuit, ibmq5_tenerife(), OptimizationLevel.N
        )
        assert hit is None
        assert program.two_qubit_gate_count() >= 0

    def test_day_change_misses(self, cache):
        circuit, _ = bernstein_vazirani(4)
        device = ibmq5_tenerife()
        compile_with_cache(
            circuit, device, OptimizationLevel.N, day=0, cache=cache
        )
        _, hit = compile_with_cache(
            circuit, device, OptimizationLevel.N, day=1, cache=cache
        )
        assert hit is False

    def test_reliability_memoized_across_compilers(self, cache):
        circuit, _ = bernstein_vazirani(4)
        device = ibmq5_tenerife()
        with cache_context(cache):
            TriQCompiler(device).compile(circuit)
            before = cache.stats.hits
            TriQCompiler(device).compile(circuit)
        assert cache.stats.hits > before
