"""Configuration for the ``repro serve`` daemon.

Tenants are named rate/priority classes: every job submission carries a
``tenant`` field (default ``"default"``), and the queue schedules
strictly by class priority (lower number first) while holding each
class to its token-bucket rate.  Classes come from a JSON file
(``repro serve --tenants tenants.json``)::

    {
        "interactive": {"priority": 0},
        "batch": {"priority": 20, "rate_per_s": 2, "burst": 4}
    }

Unknown tenant names fall back to the ``"default"`` class when one is
configured, else to a fresh unlimited class at the default priority —
the daemon never rejects a job for naming a new tenant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.cache.memory import DEFAULT_MEMORY_ENTRIES

#: Tenant used when a submission names none.
DEFAULT_TENANT = "default"


@dataclass
class TenantClass:
    """One tenant's scheduling class."""

    name: str
    #: Strict scheduling priority; lower runs first.
    priority: int = 10
    #: Sustained job-start rate (jobs/second); 0 means unlimited.
    rate_per_s: float = 0.0
    #: Token-bucket burst: starts allowed above the sustained rate.
    burst: int = 8
    #: Queue depth at which further submissions get 429.
    max_queued: int = 1024


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs to boot."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (pair with ``port_file``).
    port: int = 8756
    #: Concurrent jobs.  Compile and run jobs execute in a pool of this
    #: many worker processes, started on the first job; a sweep job
    #: holds one of the slots on a thread while its cells run on the
    #: sweep engine's own pool.
    workers: int = 2
    cache_dir: Optional[Union[str, Path]] = None
    cache_enabled: bool = True
    #: Capacity of the in-process warm LRU front.
    memory_entries: int = DEFAULT_MEMORY_ENTRIES
    #: How long SIGTERM waits for queued + running jobs before exiting.
    drain_grace_s: float = 30.0
    #: Enable /admin/pause and /admin/resume.
    admin: bool = False
    #: Write the bound port number here once listening.
    port_file: Optional[Union[str, Path]] = None
    #: How long a ``wait: true`` submission blocks before degrading to
    #: 202 + job id.
    default_wait_timeout_s: float = 300.0
    #: Write-ahead job journal: every accepted job is journaled
    #: (fsync-first) before its HTTP acknowledgement, and a restarted
    #: daemon replays the log — queued jobs re-enqueue, interrupted
    #: running jobs re-execute (idempotent via their content-addressed
    #: cache keys), finished jobs stay visible.  Off (``--no-wal``)
    #: restores the pre-WAL pure-in-memory daemon byte for byte.
    wal_enabled: bool = True
    #: WAL file path; None derives ``<cache-root>/service/wal.jsonl``
    #: (the WAL is disabled when the cache is disabled and no explicit
    #: path is given — there is nowhere durable to put it).
    wal_path: Optional[Union[str, Path]] = None
    tenants: Dict[str, TenantClass] = field(default_factory=dict)


def load_tenants(path: Union[str, Path]) -> Dict[str, TenantClass]:
    """Tenant classes from a JSON file of ``{name: {field: value}}``."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: tenant file must be a JSON object")
    tenants: Dict[str, TenantClass] = {}
    for name, spec in raw.items():
        if not isinstance(spec, dict):
            raise ValueError(f"{path}: tenant {name!r} must map to an object")
        unknown = set(spec) - {"priority", "rate_per_s", "burst", "max_queued"}
        if unknown:
            raise ValueError(
                f"{path}: tenant {name!r} has unknown fields "
                f"{sorted(unknown)}"
            )
        tenants[name] = TenantClass(name=name, **spec)
    return tenants
