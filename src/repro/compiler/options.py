"""One compile configuration: the post-paper knobs as one value.

:class:`CompileOptions` carries pass contracts, the mapper backend, the
pass-manager preset and mapper warm-starting beside the Table 1 level.
It validates on construction, so a bad knob fails once, where the value
is built, and it produces the three key parts a knob can touch: the
compile-cache options dict, the ``SweepTask`` knob fields and the
run-id suffix.  Each leaves a knob at its default out, so keys, digests
and run ids from before the knob existed stay reachable; ``warm_start``
joins none (a warm hint never changes a placement).

Quirk: :func:`repro.experiments.journal.task_digest` drops unset
``contracts``/``mapper`` fields but has always hashed ``"opt": None``.
Journals depend on those bytes; keep them.

A new knob is a field here, its check in ``__post_init__`` and, if it
changes output, an entry in each key part.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.compiler.passes import validate_preset
from repro.contracts.mode import ContractMode
from repro.smt import MAPPER_METHODS

#: Literal settings every TriQ compile key has always hashed (including
#: the retired ``peephole``/``commute`` booleans); changing them needs a
#: ``repro.cache.keys.CACHE_SCHEMA_VERSION`` bump.
_TRIQ_OPTIONS = {
    "router": "basic",
    "peephole": False,
    "commute": False,
    "node_limit": 200_000,
    "time_limit_s": 30.0,
}

#: A ``SweepTask`` knob field: the knob's value, None at its default.
TaskKnob = Optional[str]


def _validate_mapper(mapper: str) -> str:
    if mapper not in MAPPER_METHODS:
        raise ValueError(
            f"unknown mapper {mapper!r}; choose from {MAPPER_METHODS}"
        )
    return mapper


def _validated(name: str, check: Callable[[Any], Any], value: Any) -> Any:
    """``check(value)``, with a ValueError re-raised naming the field."""
    try:
        return check(value)
    except ValueError as exc:
        raise ValueError(f"bad {name!r}: {exc}") from None


@dataclass(frozen=True)
class CompileOptions:
    """The post-paper compile knobs, validated once.

    ``contracts`` is coerced to a :class:`ContractMode` (None is off);
    ``mapper`` is one of :data:`repro.smt.MAPPER_METHODS`; ``opt`` one
    of the pass-manager presets; ``warm_start`` seeds the mapping
    solver's bound from placements cached on other calibration days.
    """

    contracts: Union[ContractMode, str, None] = ContractMode.OFF
    mapper: str = "exact"
    opt: str = "none"
    warm_start: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "contracts",
            _validated("contracts", ContractMode.coerce, self.contracts),
        )
        _validated("mapper", _validate_mapper, self.mapper)
        _validated("opt", validate_preset, self.opt)
        object.__setattr__(self, "warm_start", bool(self.warm_start))

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "CompileOptions":
        """Options from a request body, reproducer or argparse ``vars``;
        other keys are ignored, missing or None knobs default."""
        return cls(**{
            f.name: params[f.name]
            for f in fields(cls)
            if params.get(f.name) is not None
        })

    @classmethod
    def from_task(cls, task, warm_start: bool = True) -> "CompileOptions":
        """The options a sweep task was planned with (inverse of
        :meth:`task_fields`); ``warm_start`` is the executor's own."""
        return cls(
            contracts=task.contracts,
            mapper=task.mapper or "exact",
            opt=task.opt or "none",
            warm_start=warm_start,
        )

    def as_params(self) -> Dict[str, Any]:
        """The knobs that shape output, as ``repro.api`` keywords / JSON
        (``warm_start`` is an execution setting, not a request field)."""
        return {
            "contracts": self.contracts.value,
            "mapper": self.mapper,
            "opt": self.opt,
        }

    def cache_key_options(self, triq: bool, seed: int = 0) -> Dict[str, Any]:
        """The options dict of a compile-artifact key (the vendor
        baselines hash their seed and ignore ``mapper``/``opt``)."""
        options: Dict[str, Any] = (
            dict(_TRIQ_OPTIONS) if triq else {"seed": seed}
        )
        if self.contracts.enabled:
            options["contracts"] = self.contracts.value
        if triq and self.mapper != "exact":
            options["mapper"] = self.mapper
        if triq and self.opt != "none":
            options["opt"] = self.opt
        return options

    def task_fields(self) -> Dict[str, TaskKnob]:
        """The knob fields of a :class:`~repro.experiments.plan.SweepTask`."""
        return {
            "contracts": (
                self.contracts.value if self.contracts.enabled else None
            ),
            "mapper": self.mapper if self.mapper != "exact" else None,
            "opt": self.opt if self.opt != "none" else None,
        }

    def run_spec_suffix(self) -> List[str]:
        """The knob tail of a sweep's run-id specification."""
        suffix = []
        if self.contracts.enabled:
            suffix.append(self.contracts.value)
        if self.mapper != "exact":
            suffix.append(f"mapper={self.mapper}")
        if self.opt != "none":
            suffix.append(f"opt={self.opt}")
        return suffix


#: The paper's pipeline: contracts off, exact mapper, no pass manager.
DEFAULT_OPTIONS = CompileOptions()
