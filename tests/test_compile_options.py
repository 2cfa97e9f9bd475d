"""CompileOptions: one validated value, and the key bytes it produces.

The back-compat pins are literal hex digests, not digests recomputed
with the same encoder: a drift in any key part — the compile-cache
options dict, the sweep task fields, the run-id spec — fails here even
if every encoder agrees with itself.  :class:`TestLiteralPins` drives
only boundaries that predate :class:`CompileOptions` (the public API
keywords, the knob-free engine calls), so the same pins pass against
the code before and after the knobs were folded into one value.  The
classes below it check the value itself and import it per test, so the
module still collects against the older code.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import api
from repro.compiler import OptimizationLevel
from repro.contracts.mode import ContractMode
from repro.devices import device_by_name
from repro.experiments.journal import SweepJournal
from repro.experiments.plan import build_sweep_plan
from repro.experiments.runner import artifact_key
from repro.programs import benchmark_by_name

LEVEL = OptimizationLevel.OPT_1QCN
LEVELS = [OptimizationLevel.N, LEVEL]
SWEEP_BENCHMARKS = ["BV4", "HS2"]

#: api.compile_cache_key(BV4, tenerife, day 0) at 1QOptCN, per knobs.
ARTIFACT_KEYS = {
    "default": (
        {},
        "cp-6dae4d4e314384f6973abe4f04f55c064542511b5f0b3ea6983473dc0b3342bd",
    ),
    "portfolio": (
        {"mapper": "portfolio"},
        "cp-219daf596885aff6e5d00932289b75e72dcb74ec31c429c9a2cec438d58bb40f",
    ),
    "opt-full": (
        {"opt": "full"},
        "cp-07448c018503623759cd4fd3f290bd8895f66a6bbe6fabc904b8d107ab64b64e",
    ),
    "warn": (
        {"contracts": "warn"},
        "cp-e7d9024a2a6c3878cfdd660e0709a6f5189af7e5a8be75066c70c0dc0b95c38e",
    ),
}

#: The Qiskit baseline with compile seed 0.
QISKIT_KEY = (
    "cp-d8bc99d43f9bc44217e0f8d89b797a69cf0785e4159423d8fce41ef0f2339641"
)

#: A sweep of tenerife x [N, 1QOptCN] x [BV4, HS2] on day 0, per knobs:
#: (run id, every task digest in plan order).
PLANS = {
    "default": (
        {},
        "f1c2f767264b",
        [
            "df65b529b223b3ad2adf477167afca50b049be61d585b5f4ce11b42d24e62bec",
            "7b66a9e70f482f286b2c53d3d75fc4b7c93f7ec84a4e29cabe91ee95f4afb171",
            "ef382463c8e6beb9462876d159cf3384f546e345beda0ea2577db7ba904f6382",
            "c1d73a5f74de14c2a54358cf826345569af5ceb38e96a9f0db6834d9123484f1",
        ],
    ),
    "all-knobs": (
        {"mapper": "portfolio", "opt": "full", "contracts": "warn"},
        "d52c3ba4b459",
        [
            "67080063fcc5a01653df143872f444e4509b4226e3db98cc5beded0974e8903a",
            "27286503db7022553379c672fe2e1ef997e943f5cd27ba94b8e56be92ff6b8d2",
            "bc31769a10b0a90350ca6a4c8a2757bcdf583a63223df0e93385d6096e831b91",
            "2ada3c868f9294a240299c5a9ae4976c4e4436d1471e3b5595597a7b52cf8473",
        ],
    ),
}


@pytest.fixture(scope="module")
def tenerife():
    return device_by_name("tenerife", day=0)


@pytest.fixture(scope="module")
def bv4():
    return benchmark_by_name("BV4").build()[0]


class TestLiteralPins:
    @pytest.mark.parametrize("case", sorted(ARTIFACT_KEYS))
    def test_artifact_key(self, case):
        knobs, expected = ARTIFACT_KEYS[case]
        assert api.compile_cache_key(
            "BV4", device="tenerife", level=LEVEL, day=0, **knobs
        ) == expected

    def test_default_engine_artifact_key(self, tenerife, bv4):
        assert artifact_key(bv4, tenerife, LEVEL, day=0) == (
            ARTIFACT_KEYS["default"][1]
        )

    def test_artifact_key_qiskit(self, tenerife, bv4):
        assert artifact_key(bv4, tenerife, "Qiskit", day=0, seed=0) == (
            QISKIT_KEY
        )

    def test_default_sweep_plan(self, tenerife):
        _, run_id, digests = PLANS["default"]
        plan = build_sweep_plan(
            tenerife, LEVELS, benchmarks=SWEEP_BENCHMARKS, day=0
        )
        assert plan.run_id == run_id
        assert plan.digests == digests

    @pytest.mark.parametrize("case", sorted(PLANS))
    def test_sweep_run_id_and_journal_digests(self, case, tmp_path):
        knobs, run_id, digests = PLANS[case]
        result = api.sweep(
            "tenerife", LEVELS, benchmarks=SWEEP_BENCHMARKS, day=0,
            cache_dir=tmp_path, **knobs,
        )
        assert not result.failures
        assert result.run_id == run_id
        records = SweepJournal(result.journal_path).records()
        assert sorted(r["task"] for r in records) == sorted(digests)


class TestPlanOptions:
    @pytest.mark.parametrize("case", sorted(PLANS))
    def test_options_reproduce_the_pins(self, case, tenerife):
        from repro.compiler import CompileOptions

        knobs, run_id, digests = PLANS[case]
        options = CompileOptions(**knobs)
        plan = build_sweep_plan(
            tenerife, LEVELS, benchmarks=SWEEP_BENCHMARKS, day=0,
            options=options,
        )
        assert (plan.run_id, plan.digests) == (run_id, digests)
        assert plan.options == options

    @pytest.mark.parametrize("case", sorted(ARTIFACT_KEYS))
    def test_engine_artifact_key(self, case, tenerife, bv4):
        from repro.compiler import CompileOptions

        knobs, expected = ARTIFACT_KEYS[case]
        assert artifact_key(
            bv4, tenerife, LEVEL, day=0, options=CompileOptions(**knobs)
        ) == expected

    def test_baseline_key_ignores_mapper_and_opt(self, tenerife, bv4):
        from repro.compiler import CompileOptions

        options = CompileOptions(mapper="heuristic", opt="basic")
        assert artifact_key(
            bv4, tenerife, "Qiskit", day=0, seed=0, options=options
        ) == QISKIT_KEY

    def test_warm_start_joins_no_key(self, tenerife, bv4):
        from repro.compiler import CompileOptions

        cold = CompileOptions(warm_start=False)
        assert artifact_key(bv4, tenerife, LEVEL, day=0, options=cold) == (
            ARTIFACT_KEYS["default"][1]
        )
        plan = build_sweep_plan(
            tenerife, LEVELS, benchmarks=SWEEP_BENCHMARKS, day=0,
            options=cold,
        )
        _, run_id, digests = PLANS["default"]
        assert (plan.run_id, plan.digests) == (run_id, digests)

    def test_unset_opt_still_joins_the_digest(self, tenerife):
        """The documented quirk: ``"opt": None`` is hashed into every
        task digest (``contracts``/``mapper`` are dropped when unset)."""
        from repro.cache.keys import digest
        from repro.experiments.journal import task_digest

        plan = build_sweep_plan(
            tenerife, [LEVEL], benchmarks=["BV4"], day=0
        )
        task = plan.tasks[0]
        fields = dataclasses.asdict(task)
        del fields["contracts"], fields["mapper"]
        assert task_digest(task) == digest("sweep-cell", fields)
        assert "opt" in fields and fields["opt"] is None


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("contracts", "loud"),
            ("mapper", "bogus"),
            ("mapper", "z3"),
            ("opt", "turbo"),
            ("opt", "max"),
        ],
    )
    def test_invalid_knob_fails_at_construction(self, field, value):
        from repro.compiler import CompileOptions

        with pytest.raises(ValueError, match=f"bad '{field}'.*{value}"):
            CompileOptions(**{field: value})
        with pytest.raises(ValueError, match=f"bad '{field}'"):
            CompileOptions.from_params({field: value})

    def test_contracts_coerced(self):
        from repro.compiler import CompileOptions

        assert CompileOptions(contracts=None).contracts is ContractMode.OFF
        assert CompileOptions(contracts="WARN").contracts is ContractMode.WARN
        assert (
            CompileOptions(contracts=ContractMode.STRICT).contracts
            is ContractMode.STRICT
        )

    def test_defaults_are_the_paper_pipeline(self):
        from repro.compiler import DEFAULT_OPTIONS, CompileOptions

        assert DEFAULT_OPTIONS == CompileOptions()
        assert DEFAULT_OPTIONS.cache_key_options(triq=False, seed=3) == {
            "seed": 3
        }
        assert DEFAULT_OPTIONS.task_fields() == {
            "contracts": None, "mapper": None, "opt": None,
        }
        assert DEFAULT_OPTIONS.run_spec_suffix() == []


class TestParams:
    def test_from_params_ignores_other_keys_and_nones(self):
        from repro.compiler import CompileOptions

        options = CompileOptions.from_params(
            {"device": "tenerife", "mapper": "portfolio", "opt": None}
        )
        assert options == CompileOptions(mapper="portfolio")

    def test_params_round_trip(self):
        from repro.compiler import CompileOptions

        options = CompileOptions(
            contracts="strict", mapper="heuristic", opt="basic"
        )
        assert CompileOptions.from_params(options.as_params()) == options
        assert "warm_start" not in options.as_params()

    def test_task_fields_round_trip(self, tenerife):
        from repro.compiler import CompileOptions

        options = CompileOptions(mapper="portfolio", contracts="warn")
        plan = build_sweep_plan(
            tenerife, [LEVEL], benchmarks=["BV4"], day=0, options=options
        )
        task = plan.tasks[0]
        assert CompileOptions.from_task(task) == options
        assert CompileOptions.from_task(task, warm_start=False) == (
            dataclasses.replace(options, warm_start=False)
        )
