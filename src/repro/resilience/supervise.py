"""Supervision policy and process helpers for the parallel workers.

Inside a sweep of :class:`~repro.parallel.executor.WavefrontPool` — the
one process executor — workers wait on each other's readiness counters,
and the dispatcher's :class:`~repro.parallel.blockwave.CounterSupervisor`
respawns dead or wedged workers at block granularity.

:class:`SupervisionPolicy` carries the timeouts and the respawn cap; a
worker that exhausts ``max_respawns`` turns into a
:class:`~repro.resilience.errors.WorkerFailure` carrying the full
failure log. :func:`reap` and :func:`parent_alive` are process helpers
shared with the batch scheduler's job workers (:mod:`repro.batch.jobs`),
which also take their respawn cap from the policy.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from dataclasses import dataclass

#: Environment knob scaling the dispatcher-side timeouts (seconds).
ENV_TIMEOUT = "REPRO_SUPERVISE_TIMEOUT"

#: Exit code a worker uses when its dispatcher vanished (or a counter
#: wait outlasted ``worker_timeout``): shared state can no longer be
#: trusted.
EXIT_NO_VERDICT = 111


@dataclass(frozen=True)
class SupervisionPolicy:
    """Timeouts and limits for one supervised engine run."""

    #: Dispatcher wait per attempt before scanning for casualties; also
    #: the failure-detection latency.
    barrier_timeout: float = 2.0
    #: An *alive* worker silent this long is treated as wedged and killed.
    straggler_grace: float = 6.0
    #: Worker-side wait; only fires if the dispatcher is gone.
    worker_timeout: float = 300.0
    #: Respawns allowed per worker before the run fails hard.
    max_respawns: int = 3

    @staticmethod
    def from_env(environ=None) -> "SupervisionPolicy":
        env = environ if environ is not None else os.environ
        raw = env.get(ENV_TIMEOUT, "").strip()
        if not raw:
            return SupervisionPolicy()
        t = max(0.05, float(raw))
        return SupervisionPolicy(barrier_timeout=t, straggler_grace=3 * t)


def parent_alive() -> bool:
    parent = mp.parent_process()
    return parent is None or parent.is_alive()


def reap(procs) -> None:
    """Terminate and join every live process, escalating to kill."""
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=5)
        if proc.is_alive():  # pragma: no cover
            proc.kill()
            proc.join(timeout=5)
