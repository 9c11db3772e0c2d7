"""Fault tolerance for the parallel engines.

Three cooperating pieces (see ``docs/robustness.md``):

:mod:`repro.resilience.faults`
    Deterministic, seed-driven fault injection (worker crash, straggler
    delay, simulated OOM), armed via the ``REPRO_FAULTS`` environment
    variable or the ``--inject-fault`` CLI flag so chaos runs are
    reproducible.
:mod:`repro.resilience.supervise`
    The supervision policy (timeouts, respawn cap) and shared process
    helpers; mid-sweep detection and block-granular respawn live with
    the counter protocol in :mod:`repro.parallel.blockwave`.
:mod:`repro.resilience.degrade`
    Up-front memory estimates and the degradation ladder
    (``dp3d`` -> ``wavefront`` -> ``hirschberg``, and ``pruned``/
    ``banded``/``blocks`` -> ``hirschberg``) that replaces a raw
    ``MemoryError`` with a structured fallback.

Beside them, :class:`~repro.resilience.retry.BackoffPolicy` is the
bounded retry schedule the router's failover path uses.

Every recovery path preserves bit-identical output with the serial
engine: a respawned worker replays its blocks from its last published
readiness counter over planes that survive its death in the shared
buffers, so the replay is idempotent.
"""

from __future__ import annotations

from repro.resilience.errors import (
    EXIT_BAD_FAULT_SPEC,
    EXIT_DEGRADED,
    EXIT_WORKER_FAILURE,
    DegradationWarning,
    DegradedRun,
    FailureRecord,
    FaultSpecError,
    ProtocolError,
    WorkerFailure,
)
from repro.resilience.retry import BackoffPolicy

__all__ = [
    "BackoffPolicy",
    "DegradationWarning",
    "DegradedRun",
    "FailureRecord",
    "FaultSpecError",
    "ProtocolError",
    "WorkerFailure",
    "EXIT_WORKER_FAILURE",
    "EXIT_DEGRADED",
    "EXIT_BAD_FAULT_SPEC",
]
