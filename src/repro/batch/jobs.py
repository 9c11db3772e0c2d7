"""Job-level parallelism: whole alignment requests over forked processes.

:class:`JobWorkers` keeps ``workers`` long-lived forked processes, each
behind its own duplex pipe. :meth:`JobWorkers.run` hands jobs out one at
a time per worker, in the order given (the scheduler passes them
cheapest first), and calls back with each result as it lands — so a
batch of many small cubes keeps every core busy on whole requests
instead of splitting one cube's planes across processes.

Failure handling is bounded and never waits unsupervised:

* a worker that dies (``os._exit``, SIGKILL, OOM) is seen at once
  through its process sentinel; it is reaped and respawned with fault
  injection disarmed, and the job it held reruns **once** — a job that
  kills its worker twice raises :class:`WorkerFailure`, as does a
  worker slot that dies more than :data:`MAX_RESPAWNS` times in one run;
* a job that raises sends its exception back, and :meth:`run` re-raises
  it with the type the same call raises in the parent; workers still
  busy with other jobs are killed (they respawn on the next run);
* :meth:`close` terminates every worker within a few seconds even with
  a job in flight; a :meth:`run` blocked on that job in another thread
  raises ``RuntimeError``. The next :meth:`run` respawns the workers.

Workers fork from the calling process, inheriting the job function, the
imported engines and the armed fault registry; nothing but the job
payloads and their results crosses the pipes. Fork rather than spawn: a
spawned worker would re-import NumPy and the package (~0.3 s each on a
2-core VM) before its first job, which a server pays at start-up. A
worker resets the parent's signal handlers, and the trace sink
re-creates its lock in a forked child, so neither can be left held by
another of the parent's threads. This is deliberately not
``multiprocessing.Pool``, which hangs forever when a worker dies
mid-task.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import wait as _wait
from typing import Any, Callable, Sequence

from repro.obs import hooks as _obs
from repro.obs import trace as _trace
from repro.resilience import faults as _faults
from repro.resilience.errors import FailureRecord, WorkerFailure
from repro.resilience.supervise import SupervisionPolicy, parent_alive, reap

#: Engine label for fault specs (``worker_crash@batch``), failure
#: records and the obs failure/respawn counters.
ENGINE = "batch"

#: Respawns allowed per worker slot in one :meth:`JobWorkers.run` (the
#: block executor's supervision default).
MAX_RESPAWNS = SupervisionPolicy.max_respawns

#: How often an idle worker checks that its parent is still alive, and
#: how often a blocked :meth:`JobWorkers.run` checks for :meth:`close`.
_POLL_S = 1.0

#: Grace an idle worker gets to exit cleanly at :meth:`JobWorkers.close`
#: before it is terminated.
_CLOSE_GRACE_S = 1.0


def _job_worker(
    worker_id: int,
    conn,
    fn: Callable[[Any], Any],
    stale: list,
    faults_armed: bool,
) -> None:
    """Worker main loop: receive a job, run ``fn`` on it, send the result.

    The reply is ``(job, True, (result, seconds))`` or
    ``(job, False, exception)``; ``None`` from the parent means shut down.
    """
    # Signal handlers and the wakeup fd are the parent's (a server's
    # event loop, a benchmark's SIGTERM hook): a worker must die on
    # SIGTERM and leave Ctrl-C to the parent.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        signal.set_wakeup_fd(-1)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    # Parent-side pipe ends came along with the fork; holding them would
    # keep a worker from seeing EOF when the parent dies.
    for c in stale:
        c.close()
    if not faults_armed:
        _faults.disarm_all()
    while True:
        while not conn.poll(_POLL_S):
            if not parent_alive():
                return
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        job_id, payload = msg
        t0 = time.perf_counter()
        try:
            reply = (job_id, True, (fn(payload), time.perf_counter() - t0))
        except Exception as exc:
            reply = (job_id, False, exc)
        if _obs.active():
            _trace.flush()
        if _faults.enabled and _faults.fire(
            "worker_crash", engine=ENGINE, worker=worker_id
        ):
            os._exit(13)  # the finished job's result is lost with us
        try:
            conn.send(reply)
        except Exception as exc:  # an unpicklable result or exception
            conn.send((job_id, False, RuntimeError(
                f"{ENGINE} job {job_id}: result could not be sent back: "
                f"{exc!r}"
            )))


class _Slot:
    """One live worker: its process and the parent's end of its pipe."""

    __slots__ = ("proc", "conn")

    def __init__(self, proc: mp.Process, conn) -> None:
        self.proc = proc
        self.conn = conn


class JobWorkers:
    """A set of forked processes that each run whole jobs.

    Parameters
    ----------
    fn:
        ``fn(payload) -> result``, run in the workers. It is inherited
        through ``fork``, so it need not be picklable; payloads, results
        and exceptions must be.
    workers:
        Process count.

    Workers are spawned by :meth:`ensure` (and by :meth:`run`, which
    calls it) and live until :meth:`close`.
    """

    def __init__(self, fn: Callable[[Any], Any], workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._fn = fn
        self.workers = int(workers)
        self._ctx = mp.get_context("fork")
        self._slots: dict[int, _Slot] = {}
        #: Guards pipe writes and slot changes against :meth:`close`
        #: running on another thread.
        self._lock = threading.Lock()
        #: Bumped by :meth:`close`; a run that sees it move stops.
        self._generation = 0
        #: Failures seen by the latest :meth:`run`.
        self.failures: list[FailureRecord] = []

    def pids(self) -> list[int]:
        """Process ids of the live workers, by worker id."""
        return [self._slots[w].proc.pid for w in sorted(self._slots)]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, worker_id: int, faults_armed: bool) -> _Slot:
        parent_end, child_end = self._ctx.Pipe()
        stale = [s.conn for s in self._slots.values()] + [parent_end]
        # Flush buffered trace lines so the fork doesn't duplicate them.
        _trace.flush()
        proc = self._ctx.Process(
            target=_job_worker,
            args=(worker_id, child_end, self._fn, stale, faults_armed),
            daemon=True,
            name=f"repro-{ENGINE}-{worker_id}",
        )
        proc.start()
        child_end.close()
        return _Slot(proc, parent_end)

    def ensure(self) -> float:
        """Spawn any missing workers; returns the seconds it took."""
        t0 = time.perf_counter()
        with self._lock:
            missing = [
                w for w in range(1, self.workers + 1) if w not in self._slots
            ]
            for w in missing:
                self._slots[w] = self._spawn(w, faults_armed=True)
        return time.perf_counter() - t0 if missing else 0.0

    def _drop(self, worker_ids) -> None:
        """Kill and forget the given workers (lock held by the caller)."""
        slots = [self._slots.pop(w) for w in worker_ids if w in self._slots]
        reap([s.proc for s in slots])
        for s in slots:
            s.conn.close()

    def close(self) -> None:
        """Stop every worker, in bounded time even with a job in flight.

        Idle workers get a shutdown message and ``_CLOSE_GRACE_S`` to
        exit; the rest are terminated (then killed). Idempotent; a later
        :meth:`run` spawns fresh workers.
        """
        with self._lock:
            self._generation += 1
            slots = list(self._slots.values())
            self._slots.clear()
            for s in slots:
                try:
                    s.conn.send(None)
                except OSError:
                    pass
            deadline = time.monotonic() + _CLOSE_GRACE_S
            for s in slots:
                s.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            reap([s.proc for s in slots])
            for s in slots:
                s.conn.close()

    # ------------------------------------------------------------------
    # Running jobs
    # ------------------------------------------------------------------

    def run(
        self,
        payloads: Sequence[Any],
        on_done: Callable[[int, Any, float], None],
    ) -> int:
        """Run every payload; ``on_done(index, result, seconds)`` fires in
        the calling thread as each job completes (completion order).

        Returns the number of worker respawns the run needed. Raises the
        first exception a job raised, :class:`WorkerFailure` past the
        respawn bounds, or ``RuntimeError`` if :meth:`close` ran
        meanwhile.
        """
        self.ensure()
        self.failures = []
        generation = self._generation
        queue = deque(range(len(payloads)))
        reruns: set[int] = set()
        respawns: dict[int, int] = {}
        busy: dict[int, int] = {}  # worker id -> job index
        clean = False
        try:
            while queue or busy:
                self._dispatch(payloads, queue, busy, generation)
                ready = self._wait_ready(busy, generation)
                for w in ready:
                    msg = self._receive(w, generation)
                    if msg is None:
                        self._lost(
                            w, busy.pop(w), queue, reruns, respawns,
                            generation,
                        )
                        continue
                    job, ok, value = msg
                    del busy[w]
                    if not ok:
                        raise value
                    on_done(job, *value)
            clean = True
        finally:
            if not clean and busy:
                # Results still computing belong to no one now; the
                # workers holding them respawn on the next run.
                with self._lock:
                    if self._generation == generation:
                        self._drop(list(busy))
        return sum(respawns.values())

    def _check_open(self, generation: int) -> None:
        if self._generation != generation:
            raise RuntimeError(f"{ENGINE} job workers were closed mid-batch")

    def _dispatch(self, payloads, queue, busy, generation) -> None:
        """Hand the next queued jobs to idle workers."""
        with self._lock:
            self._check_open(generation)
            for w, slot in self._slots.items():
                if not queue:
                    return
                if w in busy:
                    continue
                job = queue.popleft()
                try:
                    slot.conn.send((job, payloads[job]))
                except OSError:
                    # Died while idle: the job never started. Leave the
                    # worker "busy" so the sentinel path respawns it and
                    # requeues the job without spending its rerun.
                    queue.appendleft(job)
                    busy[w] = -1
                    continue
                busy[w] = job

    def _wait_ready(self, busy, generation) -> list[int]:
        """Busy workers with a reply to read or a dead process."""
        while True:
            self._check_open(generation)
            handles = {}
            try:
                for w in busy:
                    slot = self._slots[w]
                    handles[slot.conn] = w
                    handles[slot.proc.sentinel] = w
                ready = _wait(list(handles), timeout=_POLL_S)
            except (OSError, ValueError, KeyError):
                self._check_open(generation)
                raise
            if ready:
                return sorted({handles[h] for h in ready})

    def _receive(self, w: int, generation: int):
        """Worker ``w``'s reply, or None when it died without one."""
        try:
            conn = self._slots[w].conn
            if conn.poll():
                return conn.recv()
        except (KeyError, OSError, EOFError):
            self._check_open(generation)
        return None

    def _lost(self, w, job, queue, reruns, respawns, generation) -> None:
        """Worker ``w`` died holding ``job`` (-1: none): respawn it and
        requeue the job, within the bounds."""
        with self._lock:
            self._check_open(generation)
            slot = self._slots[w]
            slot.proc.join(timeout=5)
            count = respawns.get(w, 0) + 1
            respawns[w] = count
            rerun = job >= 0 and job in reruns
            record = FailureRecord(
                engine=ENGINE,
                worker=w,
                plane=None,
                reason=(
                    f"job worker died running job {job}"
                    if job >= 0 else "job worker died while idle"
                ),
                exitcode=slot.proc.exitcode,
                respawned=not rerun and count <= MAX_RESPAWNS,
            )
            self.failures.append(record)
            _obs.record_failure(ENGINE, w, None, record.reason)
            self._drop([w])
            if rerun:
                raise WorkerFailure(
                    f"{ENGINE} job {job} lost its worker twice", self.failures
                )
            if count > MAX_RESPAWNS:
                raise WorkerFailure(
                    f"{ENGINE} worker {w} failed {count} times "
                    f"(max_respawns={MAX_RESPAWNS})",
                    self.failures,
                )
            self._slots[w] = self._spawn(w, faults_armed=False)
            _obs.record_recovery(ENGINE, w, None)
            if job >= 0:
                reruns.add(job)
                queue.appendleft(job)
