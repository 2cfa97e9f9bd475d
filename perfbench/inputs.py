"""Seeded inputs of the four workloads.

Each builder is a pure function of the seed (and the smoke flag): the
program under test only ever sees the generated inputs.  The seed
orders the work and jitters arrival times; it never changes which inputs
a run holds or how much work they are, so the figures of runs with
different seeds are comparable and the output-quality figures repeat
exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

LEVELS = ("N", "1QOpt", "1QOptC", "1QOptCN")
NARROW = ("tenerife", "agave", "umd")
WIDE = ("melbourne", "rueschlikon", "aspen1", "aspen3")


@dataclass(frozen=True)
class Cell:
    """One compile/run input: everything the API call is given."""

    benchmark: str
    device: str
    level: str
    day: int = 0
    mapper: str = "exact"
    opt: str = "none"
    contracts: Optional[str] = None
    #: Compile from the benchmark's Scaffold source instead of the
    #: builtin circuit (service requests only).
    scaffold: bool = False

    def label(self) -> str:
        parts = [self.benchmark, self.device, self.level, f"d{self.day}"]
        if self.mapper != "exact":
            parts.append(self.mapper)
        if self.opt != "none":
            parts.append(f"opt-{self.opt}")
        if self.contracts:
            parts.append(self.contracts)
        if self.scaffold:
            parts.append("scaffold")
        return "/".join(parts)


# ----------------------------------------------------------------------
# compile_grid: the paper grid, every fitting pair at the four levels,
# plus the portfolio-mapper and full-optimization presets at 1QOptCN on
# the 14/16-qubit devices.  The seed orders each pass.


def grid_cells(smoke: bool = False) -> List[Cell]:
    from repro.devices import device_by_name
    from repro.experiments.runner import fits
    from repro.programs import standard_suite

    suite = standard_suite()
    devices = NARROW[:2] + WIDE[:1] if smoke else NARROW + WIDE
    if smoke:
        suite = [b for b in suite if b.name in ("BV4", "HS2")]
    cells = []
    for bench in suite:
        circuit, _ = bench.build()
        for name in devices:
            device = device_by_name(name)
            if not fits(circuit, device):
                continue
            levels = ("N", "1QOptCN") if smoke else LEVELS
            cells.extend(Cell(bench.name, name, level) for level in levels)
            if device.num_qubits >= 14:
                cells.append(Cell(bench.name, name, "1QOptCN",
                                  mapper="portfolio"))
                cells.append(Cell(bench.name, name, "1QOptCN", opt="full"))
    return cells


def shuffled(cells: List[Cell], rng: random.Random) -> List[Cell]:
    order = list(cells)
    rng.shuffle(order)
    return order


# ----------------------------------------------------------------------
# run_wide: Monte-Carlo runs on the 14/16-qubit devices.  The cell list
# (benchmark, device, level, calibration day) is fixed and cost-balanced
# across the devices, and cheap enough (40-150 ms per run) that a run
# holds 200+ operations; the seed draws the order of every pass.

RUN_FAULT_SAMPLES = 4
_RUN_WIDE = (
    ("Toffoli", "melbourne", "N", 5),
    ("Peres", "melbourne", "1QOptCN", 12),
    ("HS4", "melbourne", "N", 19),
    ("Fredkin", "melbourne", "N", 26),
    ("BV4", "melbourne", "1QOptCN", 33),
    ("Or", "melbourne", "1QOptCN", 40),
    ("BV4", "rueschlikon", "1QOptCN", 47),
    ("HS2", "rueschlikon", "1QOptCN", 54),
    ("HS4", "rueschlikon", "1QOptCN", 61),
    ("HS2", "rueschlikon", "N", 68),
    ("HS2", "aspen1", "1QOptCN", 75),
    ("HS4", "aspen1", "1QOptCN", 82),
    ("HS2", "aspen3", "1QOptCN", 89),
    ("BV4", "aspen3", "1QOptCN", 96),
    ("HS4", "aspen3", "1QOptCN", 103),
)


def run_cells(smoke: bool = False) -> List[Cell]:
    rows = _RUN_WIDE[:3] if smoke else _RUN_WIDE
    return [Cell(b, d, lv, day=day) for b, d, lv, day in rows]


# ----------------------------------------------------------------------
# sweep_days: one sweep per narrow device over the four levels and a
# fixed list of calibration days, each into a fresh cache and journal.
# The days are fixed (spread over the 120-day calibration window) so the
# outputs, and so the quality figures, are the same for every seed; the
# seed draws only the order of the sweeps in each pass.

SWEEP_DAYS = {
    "tenerife": (7, 38, 71, 104),
    "agave": (15, 49, 82, 113),
    "umd": (23, 56, 90, 117),
}


@dataclass(frozen=True)
class SweepCall:
    device: str
    days: Tuple[int, ...]
    benchmarks: Optional[Tuple[str, ...]] = None


def sweep_calls(smoke: bool = False) -> List[SweepCall]:
    if smoke:
        return [SweepCall(device, days[:1], ("BV4", "HS2"))
                for device, days in SWEEP_DAYS.items()]
    return [SweepCall(device, days) for device, days in SWEEP_DAYS.items()]


# ----------------------------------------------------------------------
# service_mixed: a closed loop of HTTP submissions over a fixed list.
# Requests come in blocks of 25 slots with a fixed mix; the seed orders
# the slots within each block.  The keys and their number are fixed, so
# every seed sends the same work.

#: Requests per second of run length: near the daemon's closed-loop
#: throughput for this mix over ``workers()`` connections on the 2-core
#: reference machine (80 to 103 req/s), so a run's fixed list takes
#: about the requested seconds there.
SERVICE_REQUESTS_PER_S = 80.0
#: Fault samples of a service run request: few enough that a run costs
#: about what a cold compile does, so no single request kind sets p95.
SERVICE_FAULT_SAMPLES = 20
#: One block of request slots: (kind, hot, count).
#: * 21 of 26 requests (81%) are hot keys: the workload is read-heavy on
#:   the cache (memory hits), beside cold keys (miss -> compile -> disk
#:   put + WAL append).  With hot keys well over half the requests, the
#:   median latency lies inside the hot-hit cluster, not on its edge
#:   with the cold compiles, where a small shift of either moves it far;
#: * narrow-device ``run`` requests (one hot, one cold), so the
#:   simulator is on the path;
#: * Scaffold-source compiles (a quarter of the slots), so the Scaffold
#:   front end is on the path beside suite-benchmark compiles;
#: * strict contracts on 2 of 5 hot suite keys, 1 of 2 hot Scaffold
#:   keys and half of the cold compiles (``cold_cell``);
#: * one cold suite compile per block sent twice in a row (``is_pair``),
#:   so the second, sent on the other connection while the first is
#:   still compiling, coalesces onto it.
BLOCK = (
    ("run", True, 1), ("run", False, 1),
    ("scaffold", True, 5), ("scaffold", False, 1),
    ("compile", True, 15), ("compile", False, 2),
)
SERVICE_BENCHMARKS = ("BV4", "HS2", "HS4", "Toffoli", "Fredkin", "Or",
                      "Peres", "QFT", "Adder")
#: Distinct calibration days cold keys cycle through (a stride coprime
#: with it visits each once).
_COLD_DAYS = 119
_DAY_STRIDE = 37

#: Keys submitted again and again; the warm-up fills the daemon's
#: memory cache with them, so they are cache hits while timed.
HOT = {
    "compile": (
        Cell("BV4", "tenerife", "1QOptCN"),
        Cell("HS4", "agave", "1QOptC"),
        Cell("QFT", "umd", "1QOpt"),
        Cell("Toffoli", "tenerife", "N", contracts="strict"),
        Cell("Adder", "agave", "1QOptCN", contracts="strict"),
    ),
    "scaffold": (
        Cell("Fredkin", "umd", "1QOptCN", scaffold=True),
        Cell("Peres", "tenerife", "1QOptC", contracts="strict",
             scaffold=True),
    ),
    "run": (
        Cell("HS2", "tenerife", "1QOptCN"),
        Cell("Or", "umd", "N"),
    ),
}


@dataclass(frozen=True)
class Request:
    kind: str  # "compile" | "run"
    cell: Cell
    #: The mix class: a BLOCK kind and "hot" or "cold".
    group: str


def request_body(kind: str, cell: Cell) -> Dict[str, object]:
    from repro.programs.scaffold_sources import SCAFFOLD_SUITE

    body: Dict[str, object] = {
        "device": cell.device, "level": cell.level, "day": cell.day,
    }
    if cell.scaffold:
        source, defines, _ = SCAFFOLD_SUITE[cell.benchmark]
        body["scaffold"] = source
        if defines:
            body["defines"] = dict(defines)
    else:
        body["benchmark"] = cell.benchmark
    if cell.contracts:
        body["contracts"] = cell.contracts
    if kind == "run":
        body["fault_samples"] = SERVICE_FAULT_SAMPLES
    return body


def cold_cell(kind: str, index: int) -> Cell:
    """The ``index``-th cold key of a kind: a fresh day every time.

    Half of cold suite compiles and half of cold Scaffold compiles run
    under strict contracts.
    """
    combos = [(b, d, lv) for b in SERVICE_BENCHMARKS for d in NARROW
              for lv in LEVELS]
    offset = {"compile": 0, "scaffold": 40, "run": 80}[kind]
    benchmark, device, level = combos[(index + offset) % len(combos)]
    strict = kind != "run" and index % 2 == 1
    return Cell(
        benchmark, device, level,
        day=1 + (offset + index * _DAY_STRIDE) % _COLD_DAYS,
        contracts="strict" if strict else None,
        scaffold=kind == "scaffold",
    )


def is_pair(kind: str, index: int) -> bool:
    """Cold keys sent twice in a row, so one coalesces onto the other."""
    return kind == "compile" and index % 2 == 0


def service_schedule(seed: int, seconds: float) -> List[Request]:
    rng = random.Random(f"service_mixed:{seed}")
    slots_per_block = sum(count for _, _, count in BLOCK)
    blocks = max(1, round(SERVICE_REQUESTS_PER_S * seconds / slots_per_block))
    hot_seen = {kind: 0 for kind in HOT}
    cold_seen = {kind: 0 for kind in HOT}
    requests: List[Request] = []
    for _ in range(blocks):
        block = [(kind, hot) for kind, hot, count in BLOCK
                 for _ in range(count)]
        rng.shuffle(block)
        for kind, hot in block:
            wire = "run" if kind == "run" else "compile"
            if hot:
                keys = HOT[kind]
                cell = keys[hot_seen[kind] % len(keys)]
                hot_seen[kind] += 1
                requests.append(Request(wire, cell, f"{kind}-hot"))
                continue
            index = cold_seen[kind]
            cold_seen[kind] += 1
            copies = 2 if is_pair(kind, index) else 1
            requests.extend(
                Request(wire, cold_cell(kind, index), f"{kind}-cold")
                for _ in range(copies)
            )
    return requests
