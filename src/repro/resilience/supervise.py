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
import sys
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
        """The default policy, with ``barrier_timeout`` (floored at
        0.05 s) and a 3x ``straggler_grace`` taken from
        ``REPRO_SUPERVISE_TIMEOUT`` when it is set.

        A non-numeric value falls back to the default with a warning on
        stderr rather than raising: every ``WavefrontPool`` reads the
        policy, so a typo'd environment would otherwise crash the
        alignment.
        """
        env = environ if environ is not None else os.environ
        raw = env.get(ENV_TIMEOUT, "").strip()
        if not raw:
            return SupervisionPolicy()
        try:
            t = max(0.05, float(raw))
        except ValueError:
            print(
                f"# warning: ignoring non-numeric {ENV_TIMEOUT}={raw!r}; "
                "using the default supervision policy",
                file=sys.stderr,
                flush=True,
            )
            return SupervisionPolicy()
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
