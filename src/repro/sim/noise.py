"""Calibration-driven noise: Pauli fault injection and readout confusion.

Each physical gate is modelled as its ideal unitary followed, with the
calibrated error probability, by a uniformly random non-identity Pauli
on the gate's qubits (depolarizing noise).  Virtual-Z rotations carry no
error.  Readout errors flip each measured bit independently with the
qubit's calibrated readout error rate; they are folded in analytically
by :mod:`repro.sim.success` rather than sampled.

Sampling replays one RNG stream three ways.  The legacy per-location
loop (:meth:`NoiseModel.sample_faults`) is the oracle.  The per-row
sampler (:meth:`NoiseModel.sample_faulty`) draws one ``rng.random(n)``
row per attempt and one ``rng.integers(k)`` per hit.  The block sampler
(:meth:`NoiseModel.sample_faulty_block`) draws every faulty
configuration of an estimate from one block of raw PCG64 words
(``bit_generator.random_raw``): it turns a word into the double
``Generator.random`` makes of it (``(w >> 11) * 2**-53``), scans only
the words below the largest error rate for hits, and replays
``Generator.integers(k)`` as NumPy's 32-bit Lemire draw, halves of one
word buffered between calls as PCG64's ``has_uint32`` does.  It then
winds the generator back to the first unused word, so the stream and
the generator state match the per-row loop's exactly.  That replay
leans on NumPy internals, so the first block call runs a one-off
self-check against the real ``Generator``
(:func:`_block_sampler_bit_identical`); a mismatch, or any bit
generator but PCG64, drops every call to the per-row loop.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.devices.calibration import Calibration
from repro.devices.device import Device
from repro.ir.circuit import Circuit
from repro.ir.gates import VIRTUAL_Z_GATES, gate_spec
from repro.ir.instruction import Instruction

_PAULIS_1Q = ("x", "y", "z")
#: The 15 non-identity two-qubit Pauli combinations, as (name_a, name_b)
#: with None meaning identity on that qubit.
_PAULIS_2Q = [
    (a, b)
    for a, b in itertools.product((None, "x", "y", "z"), repeat=2)
    if not (a is None and b is None)
]


#: One sampled fault configuration: ``(location, choice)`` pairs in
#: ascending location order, where ``location`` indexes
#: :attr:`NoiseModel.locations` and ``choice`` the location's candidate
#: Paulis (``_PAULIS_1Q`` or ``_PAULIS_2Q`` order).
FaultConfig = Tuple[Tuple[int, int], ...]

Injection = Tuple[int, Instruction]


@lru_cache(maxsize=4096)
def _candidate_paulis(
    qubits: Tuple[int, ...]
) -> Tuple[Tuple[Instruction, ...], ...]:
    """Every Pauli fault a gate on ``qubits`` can suffer, by choice index.

    Keyed on the gate's qubits alone, so the cache is bounded by the
    device couplings a process compiles for.
    """
    if len(qubits) == 1:
        return tuple((Instruction(name, qubits),) for name in _PAULIS_1Q)
    return tuple(
        tuple(
            Instruction(name, (qubit,))
            for name, qubit in zip(pair, qubits)
            if name is not None
        )
        for pair in _PAULIS_2Q
    )


@dataclass(frozen=True)
class PauliFault:
    """A sampled error: Pauli instructions injected after a gate."""

    position: int
    paulis: Tuple[Instruction, ...]


@dataclass(frozen=True)
class _NoisyLocation:
    position: int
    qubits: Tuple[int, ...]
    error_probability: float


def fault_config_key(faults: Sequence["PauliFault"]) -> tuple:
    """Hashable identity of one sampled fault configuration.

    Two configurations with equal keys inject the identical Pauli
    instructions at the identical positions, so the (deterministic)
    simulator produces bit-identical states for them — the batched
    Monte-Carlo paths use this to simulate each distinct configuration
    only once.
    """
    return tuple(
        (fault.position, tuple(str(p) for p in fault.paulis))
        for fault in faults
    )


def instruction_error_probability(
    inst: Instruction, calibration: Calibration
) -> float:
    """Error probability of one hardware instruction.

    * virtual-Z gates and pseudo-ops: 0,
    * one-pulse 1Q gates (``u2``, ``rx``, ``ry``, ``rxy``, ``h``, ``x``,
      ``y``): the qubit's 1Q error rate,
    * two-pulse 1Q gates (``u3``): two shots at the 1Q error rate,
    * 2Q gates: the edge's calibrated error rate,
    * ``swap``: three 2Q gates' worth.
    """
    name = inst.name
    if not inst.is_unitary or name in VIRTUAL_Z_GATES:
        return 0.0
    spec = gate_spec(name)
    if spec.num_qubits == 1:
        rate = calibration.qubit_error(inst.qubits[0])
        if name == "u3":
            return 1.0 - (1.0 - rate) ** 2
        return rate
    if name == "swap":
        edge = calibration.edge_error(*inst.qubits)
        return 1.0 - (1.0 - edge) ** 3
    if spec.num_qubits == 2:
        return calibration.edge_error(*inst.qubits)
    # 3Q composite gates should be decomposed before simulation; treat
    # them conservatively as three 2Q gates on the first two qubits.
    edge = calibration.average_two_qubit_error()
    return 1.0 - (1.0 - edge) ** 3


class NoiseModel:
    """Fault locations and rates for one circuit on one device."""

    def __init__(
        self,
        locations: Sequence[_NoisyLocation],
        readout_error: Dict[int, float],
    ) -> None:
        self.locations = list(locations)
        self.readout_error = dict(readout_error)
        self._probabilities = np.array(
            [loc.error_probability for loc in self.locations], dtype=float
        )
        self._candidates = [
            _candidate_paulis(loc.qubits) for loc in self.locations
        ]
        self._num_choices = [len(c) for c in self._candidates]

    @classmethod
    def from_device(
        cls,
        device: Device,
        circuit: Circuit,
        day: Optional[int] = None,
    ) -> "NoiseModel":
        """Attach calibrated error rates to a hardware circuit's gates."""
        calibration = device.calibration(day)
        locations = []
        for idx, inst in enumerate(circuit):
            prob = instruction_error_probability(inst, calibration)
            if prob > 0.0:
                locations.append(_NoisyLocation(idx, inst.qubits, prob))
        readout = {
            q: calibration.readout_error[q] for q in range(device.num_qubits)
        }
        return cls(locations, readout)

    # ------------------------------------------------------------------
    def no_fault_probability(self) -> float:
        """Probability that an entire run executes without any gate fault."""
        prob = 1.0
        for loc in self.locations:
            prob *= 1.0 - loc.error_probability
        return prob

    def total_locations(self) -> int:
        return len(self.locations)

    def sample_configuration(self, rng: np.random.Generator) -> FaultConfig:
        """One run's fault configuration (possibly empty).

        Consumes the RNG stream exactly as :meth:`sample_faults`: one
        ``rng.random(n)`` row over all locations, then one
        ``rng.integers(k)`` per hit in ascending location order.
        ``draw < p`` is the legacy loop's ``not draw >= p``, so both
        return the same faults.
        """
        return self._choose(self._hits(rng), rng)

    def sample_faulty(
        self, rng: np.random.Generator, max_attempts: int = 10_000
    ) -> Tuple[FaultConfig, int]:
        """A configuration conditioned on having >= 1 fault, and the
        number of ``rng.random(n)`` rows drawn to find it.

        The stream-for-stream twin of
        :meth:`sample_faulty_configuration`, fallback included.
        """
        for attempt in range(1, max_attempts + 1):
            hits = self._hits(rng)
            if hits:
                return self._choose(hits, rng), attempt
        # np.argmax, like max(), picks the first most likely location.
        worst = int(np.argmax(self._probabilities))
        return self._choose([worst], rng), max_attempts

    def sample_faulty_block(
        self,
        rng: np.random.Generator,
        count: int,
        max_attempts: int = 10_000,
    ) -> Tuple[List[FaultConfig], int]:
        """``count`` :meth:`sample_faulty` draws in one call: the
        configurations and their total attempts, from the identical
        stream, leaving ``rng`` in the identical state.

        Replays the stream from raw words when this NumPy passed
        :func:`_block_sampler_bit_identical`; otherwise, for a bit
        generator other than PCG64, or with no locations, runs the
        per-row loop.
        """
        if (
            not self.locations
            or type(rng.bit_generator) is not np.random.PCG64
            or not _block_sampler_bit_identical()
        ):
            return self._sample_faulty_rows(rng, count, max_attempts)
        return _replay_faulty_block(
            rng.bit_generator, self._probabilities, self._num_choices,
            count, max_attempts,
        )

    def _sample_faulty_rows(
        self, rng: np.random.Generator, count: int, max_attempts: int
    ) -> Tuple[List[FaultConfig], int]:
        """The per-row loop :meth:`sample_faulty_block` replays."""
        configs: List[FaultConfig] = []
        attempts = 0
        for _ in range(count):
            config, tries = self.sample_faulty(rng, max_attempts)
            configs.append(config)
            attempts += tries
        return configs, attempts

    def _hits(self, rng: np.random.Generator) -> List[int]:
        """The faulting locations of one ``rng.random(n)`` row."""
        draws = rng.random(self._probabilities.size)
        return (draws < self._probabilities).nonzero()[0].tolist()

    def _choose(
        self, hits: List[int], rng: np.random.Generator
    ) -> FaultConfig:
        """One ``rng.integers(k)`` Pauli choice per hit, in order."""
        return tuple(
            (loc, int(rng.integers(self._num_choices[loc]))) for loc in hits
        )

    # -- The legacy per-location sampler, kept for the ``_reference_*``
    # estimators of the differential suite.
    def sample_faults(self, rng: np.random.Generator) -> List[PauliFault]:
        """One run's fault configuration (possibly empty)."""
        faults: List[PauliFault] = []
        draws = rng.random(len(self.locations))
        for loc, draw in zip(self.locations, draws):
            if draw >= loc.error_probability:
                continue
            faults.append(self._random_fault(loc, rng))
        return faults

    def sample_faulty_configuration(
        self, rng: np.random.Generator, max_attempts: int = 10_000
    ) -> List[PauliFault]:
        """A fault configuration conditioned on having >= 1 fault.

        Rejection sampling; used to estimate the error-run contribution
        to success rate without wasting samples on clean runs.
        """
        for _ in range(max_attempts):
            faults = self.sample_faults(rng)
            if faults:
                return faults
        # Extremely clean circuit: force the single most likely fault.
        worst = max(self.locations, key=lambda loc: loc.error_probability)
        return [self._random_fault(worst, rng)]

    def _random_fault(
        self, loc: _NoisyLocation, rng: np.random.Generator
    ) -> PauliFault:
        if len(loc.qubits) == 1:
            name = _PAULIS_1Q[rng.integers(len(_PAULIS_1Q))]
            return PauliFault(
                loc.position, (Instruction(name, loc.qubits),)
            )
        pair = _PAULIS_2Q[rng.integers(len(_PAULIS_2Q))]
        paulis = tuple(
            Instruction(name, (qubit,))
            for name, qubit in zip(pair, loc.qubits)
            if name is not None
        )
        return PauliFault(loc.position, paulis)

    def faults_as_injections(
        self, faults: Sequence[PauliFault]
    ) -> List[Tuple[int, Instruction]]:
        """Flatten faults into (position, instruction) pairs for the
        simulator."""
        injections = []
        for fault in faults:
            for pauli in fault.paulis:
                injections.append((fault.position, pauli))
        return injections


#: ``Generator.random``'s scale from a word's top 53 bits to [0, 1).
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
_LOW32 = 0xFFFFFFFF
#: Largest block of raw words read at once (8 MB), unless one sample
#: alone needs more.
_MAX_BLOCK_WORDS = 1 << 20

#: Lazily computed result of the block sampler's self-check (None
#: until the first block call).  False drops every block call to the
#: per-row loop for the life of the process.
_BLOCK_SAMPLER_VERIFIED: Optional[bool] = None


def _replay_faulty_block(
    bit_generator: np.random.PCG64,
    probabilities: np.ndarray,
    num_choices: Sequence[int],
    count: int,
    max_attempts: int,
) -> Tuple[List[FaultConfig], int]:
    """:meth:`NoiseModel.sample_faulty_block`'s raw-word replay.

    Words are read in blocks sized from the expected attempts per
    sample, at most :data:`_MAX_BLOCK_WORDS` at a time; a sample that
    runs past its block is redrawn from its first word on a block at
    least twice its unused part.
    """
    replay = _RawReplay(bit_generator, probabilities, num_choices,
                        max_attempts)
    p_fault = 1.0 - float(np.prod(1.0 - probabilities))
    rows = max_attempts if p_fault <= 0.0 else min(max_attempts, 1 / p_fault)
    words_per_sample = len(probabilities) * rows + 2
    configs: List[FaultConfig] = []
    attempts = 0
    while len(configs) < count:
        sample = replay.sample()
        if sample is None:
            estimate = int(words_per_sample * 1.1 * (count - len(configs)))
            replay.refill(
                max(min(estimate, _MAX_BLOCK_WORDS), replay.unused() + 64)
            )
            continue
        configs.append(sample[0])
        attempts += sample[1]
    replay.finish()
    return configs, attempts


class _RawReplay:
    """A PCG64 ``Generator``'s faulty-configuration draws, replayed from
    blocks of its raw words.

    A word is a hit for location ``c`` of the ``random(n)`` row it
    falls in when its double is below ``rates[c]``, so only the words
    below the largest rate (the candidates) are ever compared.  Each
    Pauli choice replays ``Generator.integers(k)``: NumPy's 32-bit
    Lemire draw, which takes the buffered high half of the last word
    when there is one (PCG64's ``has_uint32``) and else the low half of
    a fresh word, and redraws while the product's low 32 bits fall
    below ``(2**32 - k) % k``.
    """

    def __init__(
        self,
        bit_generator: np.random.PCG64,
        probabilities: np.ndarray,
        num_choices: Sequence[int],
        max_attempts: int,
    ) -> None:
        self.bit_generator = bit_generator
        self.rates = probabilities.tolist()
        self.top = max(self.rates)
        self.worst = int(np.argmax(probabilities))
        self.num_choices = num_choices
        self.max_attempts = max_attempts
        state = bit_generator.state
        self.has32 = bool(state["has_uint32"])
        self.buf32 = int(state["uinteger"])
        self.base = self.pos = 0  # stream indices of words[0], next unused
        self.words = np.empty(0, dtype=np.uint64)
        self.cand: List[int] = []  # stream indices of the candidates
        self.cand_u: List[float] = []  # and their doubles

    def unused(self) -> int:
        return self.base + self.words.size - self.pos

    def refill(self, size: int) -> None:
        """Read ``size`` fresh words after the unused ones; drop the
        consumed ones."""
        fresh = self.bit_generator.random_raw(size)
        self.words = np.concatenate((self.words[self.pos - self.base:], fresh))
        self.base = self.pos
        doubles = (self.words >> np.uint64(11)) * _DOUBLE_SCALE
        hot = np.flatnonzero(doubles < self.top)
        self.cand = (hot + self.base).tolist()
        self.cand_u = doubles[hot].tolist()

    def sample(self) -> Optional[Tuple[FaultConfig, int]]:
        """The next faulty configuration and its attempts, or None (and
        nothing consumed) when it needs words past the block."""
        rates, cand, cand_u = self.rates, self.cand, self.cand_u
        width = len(rates)
        start = pos = self.pos
        end = self.base + self.words.size
        limit = start + self.max_attempts * width
        stop = min(limit, end)
        i = bisect_left(cand, start)
        hits: List[int] = []
        row_end = limit
        while i < len(cand) and cand[i] < stop:
            c = (cand[i] - start) % width
            if cand_u[i] < rates[c]:
                row_start = cand[i] - c
                row_end = row_start + width
                hits.append(c)
                i += 1
                while i < len(cand) and cand[i] < row_end:
                    c = cand[i] - row_start
                    if cand_u[i] < rates[c]:
                        hits.append(c)
                    i += 1
                break
            i += 1
        if row_end > end:
            return None
        if hits:
            tries = (row_end - start) // width
        else:
            hits, tries = [self.worst], self.max_attempts
        pos, has32, buf32 = row_end, self.has32, self.buf32
        config = []
        for loc in hits:
            k = self.num_choices[loc]
            threshold = (0x100000000 - k) % k
            while True:
                if has32:
                    has32, draw = False, buf32
                elif pos < end:
                    word = int(self.words[pos - self.base])
                    pos += 1
                    has32, buf32, draw = True, word >> 32, word & _LOW32
                else:
                    return None
                m = draw * k
                if m & _LOW32 >= threshold:
                    break
            config.append((loc, m >> 32))
        self.pos, self.has32, self.buf32 = pos, has32, buf32
        return tuple(config), tries

    def finish(self) -> None:
        """Wind the generator back to the first unused word and restore
        the half word the last ``integers()`` call left buffered."""
        self.bit_generator.advance(-self.unused())
        state = self.bit_generator.state
        state["has_uint32"], state["uinteger"] = int(self.has32), self.buf32
        self.bit_generator.state = state


def _block_sampler_bit_identical() -> bool:
    """One-off self-check: does the raw-word replay match ``Generator``?

    Draws faulty configurations from two fixed models (mixed 1Q and 2Q
    locations; one so clean that every sample takes the
    ``max_attempts`` fallback) with the block replay and with the
    per-row loop on a twin generator, and compares the configurations,
    attempt counts and final generator states.  Cached for the life of
    the process; costs about a millisecond once.
    """
    global _BLOCK_SAMPLER_VERIFIED
    if _BLOCK_SAMPLER_VERIFIED is None:
        ok = True
        for rates, max_attempts in (
            ((0.02, 0.3, 0.004, 0.11, 0.05, 0.2, 0.001), 10_000),
            ((1e-9, 2e-9), 3),
        ):
            model = NoiseModel(
                [
                    _NoisyLocation(i, (i, i + 1) if i % 2 else (i,), rate)
                    for i, rate in enumerate(rates)
                ],
                {},
            )
            block_rng = np.random.default_rng(191)
            row_rng = np.random.default_rng(191)
            # An odd integers() call leaves half a word buffered.
            block_rng.integers(3)
            row_rng.integers(3)
            got = _replay_faulty_block(
                block_rng.bit_generator, model._probabilities,
                model._num_choices, 40, max_attempts,
            )
            want = model._sample_faulty_rows(row_rng, 40, max_attempts)
            if (
                got != want
                or block_rng.bit_generator.state
                != row_rng.bit_generator.state
            ):
                ok = False
        _BLOCK_SAMPLER_VERIFIED = ok
    return _BLOCK_SAMPLER_VERIFIED


class DistinctConfigs:
    """The distinct fault configurations one estimator call samples.

    :meth:`add` numbers configurations in first-seen order;
    ``injections[i]`` holds configuration ``i``'s ``(position,
    instruction)`` pairs, with every qubit mapped through
    ``qubit_index`` (identity when None).  The candidate Paulis come
    from the per-qubits cache, so no fault is ever remapped one
    instruction at a time.
    """

    def __init__(
        self, model: NoiseModel, qubit_index: Optional[Dict[int, int]] = None
    ) -> None:
        self._positions = [loc.position for loc in model.locations]
        self._candidates = (
            model._candidates
            if qubit_index is None
            else [
                _candidate_paulis(tuple(qubit_index[q] for q in loc.qubits))
                for loc in model.locations
            ]
        )
        self._ids: Dict[FaultConfig, int] = {}
        self.injections: List[List[Injection]] = []

    def __len__(self) -> int:
        return len(self.injections)

    def add(self, config: FaultConfig) -> int:
        """The index of ``config``, registering it when first seen."""
        index = self._ids.get(config)
        if index is None:
            index = self._ids[config] = len(self.injections)
            self.injections.append([
                (self._positions[location], pauli)
                for location, choice in config
                for pauli in self._candidates[location][choice]
            ])
        return index
