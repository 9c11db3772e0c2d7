"""Supervision policy and the pool's job-start waits.

:class:`~repro.parallel.executor.WavefrontPool` — the one process
executor — synchronises in two ways. Inside a sweep, workers wait on
each other's readiness counters and the dispatcher's
:class:`~repro.parallel.blockwave.CounterSupervisor` respawns dead or
wedged workers at block granularity. Between jobs, workers idle at a
job-start barrier; this module supervises that rendezvous:

* idle **workers** wait at the barrier with :func:`worker_idle_wait`,
  tolerating broken/reset cycles and exiting once orphaned;
* the **dispatcher** meets them through :meth:`Supervisor.wait_job_start`,
  which finds a worker lost while idle at submit time, respawns it and
  re-meets.

:class:`SupervisionPolicy` carries the timeouts and the respawn cap both
layers use. A worker that exhausts ``max_respawns`` turns into a
:class:`WorkerFailure` carrying the full failure log.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.obs import hooks as _obs
from repro.resilience.errors import FailureRecord, WorkerFailure

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


def worker_idle_wait(barrier, policy: SupervisionPolicy) -> None:
    """Pool workers waiting for the next job. Tolerates broken/reset
    cycles (the dispatcher heals the barrier when it next submits) and
    exits if orphaned; this is the one wait allowed to outlast
    ``worker_timeout``, because an idle pool is legitimately idle."""
    while True:
        try:
            barrier.wait(timeout=policy.worker_timeout)
            return
        except threading.BrokenBarrierError:
            time.sleep(0.05)
        if not parent_alive():
            os._exit(0)


class Supervisor:
    """Dispatcher-side job-start waits with detection and recovery.

    Parameters
    ----------
    engine:
        Name used in failure records and obs metrics.
    barrier:
        The pool's job-start barrier (all workers including the
        dispatcher).
    procs:
        Live child processes keyed by worker id; respawns replace
        entries in place.
    respawn:
        ``respawn(worker_id) -> Process`` — must start a replacement
        idle worker with fault injection disarmed.
    """

    def __init__(
        self,
        engine: str,
        *,
        barrier,
        procs: dict[int, mp.Process],
        respawn: Callable[[int], mp.Process],
        policy: SupervisionPolicy | None = None,
    ):
        self.engine = engine
        self.barrier = barrier
        self.procs = procs
        self.respawn = respawn
        self.policy = policy or SupervisionPolicy.from_env()
        self.failures: list[FailureRecord] = []
        self._respawns: dict[int, int] = {}

    def wait_job_start(self) -> None:
        """Dispatch-side wait at the pool's job-start barrier.

        A worker dead while idle is found here, at submit time. Idle
        workers tolerate broken/reset cycles (:func:`worker_idle_wait`),
        so recovery is just: respawn the dead, reset, re-meet. With no
        identified casualty past the grace period every child is
        recycled — idle workers carry no progress information, so this
        is the only sound move, and it is rare (it means a child wedged
        *between* jobs)."""
        t0 = time.perf_counter()
        while True:
            try:
                self.barrier.wait(timeout=self.policy.barrier_timeout)
                return
            except threading.BrokenBarrierError:
                waited = time.perf_counter() - t0
                casualties = [
                    (w, p)
                    for w, p in self.procs.items()
                    if not p.is_alive()
                ]
                if not casualties and waited >= self.policy.straggler_grace:
                    reap(self.procs.values())
                    casualties = list(self.procs.items())
                for w, proc in casualties:
                    count = self._respawns.get(w, 0) + 1
                    self._respawns[w] = count
                    record = FailureRecord(
                        engine=self.engine,
                        worker=w,
                        plane=None,
                        reason="worker lost while idle",
                        exitcode=proc.exitcode,
                        respawned=count <= self.policy.max_respawns,
                    )
                    self.failures.append(record)
                    _obs.record_failure(self.engine, w, None, record.reason)
                    if count > self.policy.max_respawns:
                        self.barrier.abort()
                        reap(self.procs.values())
                        raise WorkerFailure(
                            f"{self.engine} worker {w} failed {count} times "
                            f"(max_respawns={self.policy.max_respawns})",
                            self.failures,
                        )
                    self.procs[w] = self.respawn(w)
                    _obs.record_recovery(self.engine, w, None)
                self.barrier.reset()
                if casualties:
                    t0 = time.perf_counter()
