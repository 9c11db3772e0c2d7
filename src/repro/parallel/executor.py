"""The block-tiled multiprocess wavefront executor.

:class:`WavefrontPool` is the one process executor of
:mod:`repro.parallel`; the ``blocks`` method (:mod:`repro.parallel.blocks`)
is a thin wrapper around it. Every ``score3``/``align3`` call is one
job with its own workers, so nothing lives between calls and nothing
needs closing.

Per call
--------
The call sizes the job — one worker per row slab
(:func:`~repro.parallel.partition.row_slabs`) and a band depth from
:func:`~repro.parallel.partition.band_depth` unless ``band=`` fixes it —
and allocates the job-sized ``W``-deep rotating plane window, the move
cube and a control block (one progress counter and one valid-cell tally
per worker) as anonymous shared mappings. The profile matrices and, for
a pruned job, the tube's ``klo``/``khi`` intervals and per-plane
live-row windows stay ordinary arrays. Then the dispatcher forks the
workers, which inherit all of it. Each worker streams the block-tiled
sweep of its slab (plane bands, counter synchronisation —
:mod:`repro.parallel.blockwave`), adds its tally to the control block
and publishes completion; the dispatcher is worker 0, owning the bottom
slab. Before the call returns, every worker is joined, or reaped when
the call fails. With a tube, bands that fall entirely outside it are
skipped rather than scheduled.

Supervision (default on) makes a call survive worker failure: every
counter wait has a timeout, and the dispatcher responds to a stall by
respawning dead (or wedged) workers resuming at their published counter
— block-granular replay
(:class:`~repro.parallel.blockwave.CounterSupervisor`). A replacement is
forked from the same dispatcher, so it inherits the very inputs its
predecessor read, and the window arithmetic keeps the planes it needs
intact: replay needs no checkpoint and the output stays bit-identical
to the serial engine. See ``docs/robustness.md``.

Determinism: every cell is computed exactly once by the same kernel
call the serial engine makes, so scores, rows and valid-cell counts are
bit-identical to :func:`repro.core.wavefront.wavefront_sweep` — with or
without a tube, with or without mid-sweep recovery (after a recovery the
cell count is a lower bound: a dead incarnation's tally is lost).
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.dp3d import NEG
from repro.obs import hooks as _obs
from repro.obs import trace as _trace
from repro.core.scoring import ScoringScheme
from repro.core.traceback import traceback_moves
from repro.core.tube import PruningTube
from repro.core.types import Alignment3, moves_to_columns
from repro.core.wavefront import _tube_row_ranges
from repro.core.workspace import PlaneWorkspace
from repro.parallel.blockwave import (
    ENGINE,
    BlockProgress,
    CounterSupervisor,
    sweep_blocks,
    worker_counter_wait,
)
from repro.parallel.partition import (
    band_depth,
    plane_bands,
    plane_window,
    row_slabs,
)
from repro.resilience import faults as _faults
from repro.resilience.errors import FailureRecord
from repro.resilience.supervise import SupervisionPolicy, reap
from repro.util.validation import check_positive, check_sequences


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in mp.get_all_start_methods()


def _shared(shape: tuple[int, ...], dtype: Any) -> np.ndarray:
    """A zero-filled array over an anonymous shared mapping: forked
    workers write into the pages the dispatcher reads. The mapping is
    released with the last array that views it."""
    dtype = np.dtype(dtype)
    buf = mmap.mmap(-1, int(np.prod(shape)) * dtype.itemsize)
    return np.frombuffer(buf, dtype=dtype).reshape(shape)


@dataclass
class _Job:
    """One call's staged inputs and shared outputs. Every worker — first
    spawn and respawned replacement alike — is forked from the
    dispatcher holding it, so all of them read the same arrays."""

    dims: tuple[int, int, int]
    slabs: list[tuple[int, int]]
    bands: list[tuple[int, int]]
    planes: list[np.ndarray]
    profiles: tuple[np.ndarray, np.ndarray, np.ndarray]
    g2: float
    moves: np.ndarray | None
    tube: PruningTube | None
    row_lo: np.ndarray | None
    row_hi: np.ndarray | None
    progress: BlockProgress
    tallies: np.ndarray

    @property
    def dmax(self) -> int:
        return sum(self.dims)

    def sweep(
        self,
        w: int,
        wait: Callable[[int, int], None],
        start_plane: int = 0,
        record: bool = True,
    ) -> int:
        """Stream worker ``w``'s slab; returns its valid-cell count."""
        return sweep_blocks(
            w,
            len(self.slabs),
            self.slabs[w],
            self.bands,
            self.dims,
            self.planes,
            *self.profiles,
            self.g2,
            self.moves,
            PlaneWorkspace(self.dims),
            self.progress,
            wait,
            tube=self.tube,
            row_lo_by_d=self.row_lo,
            row_hi_by_d=self.row_hi,
            start_plane=start_plane,
            record=record,
        )


def _worker(
    job: _Job,
    w: int,
    policy: SupervisionPolicy | None,
    resume: int | None,
) -> None:
    """Forked worker body: stream slab ``w``, add the tally, publish
    completion.

    A respawned replacement arrives with ``resume`` set: it re-enters
    the sweep at its predecessor's published counter with fault
    injection disarmed (a replayed block must not re-trigger the crash
    that killed its predecessor) and skips the per-worker obs record
    (its tallies would not cover the job).
    """
    if resume is not None:
        _faults.disarm_all()
    job.tallies[w] += job.sweep(
        w,
        lambda v, target: worker_counter_wait(job.progress, v, target, policy),
        start_plane=resume or 0,
        record=resume is None,
    )
    if _obs.active():
        _trace.flush()
    # Completion is one past the last plane, published after the tally
    # so the dispatcher never reads a partial count.
    job.progress.publish(w, job.dmax + 1)


class WavefrontPool:
    """The block-tiled wavefront executor; each call forks its workers.

    Parameters
    ----------
    workers:
        Total workers including the dispatching process (so ``workers=2``
        forks one child). A call uses one worker per row slab — at most
        ``n1 + 1`` — and runs serially when that is one worker, or when
        the platform lacks ``fork``.
    supervise:
        When True (default) every counter wait has a timeout and dead or
        wedged workers are respawned resuming at their published counter;
        ``policy`` tunes the timeouts. When False a call waits patiently
        forever — kept for overhead measurement.
    band:
        Plane-band depth (planes streamed between synchronisations).
        Default: :func:`~repro.parallel.partition.band_depth` per call.

    Calls are independent: each one allocates its buffers, forks,
    sweeps and joins its workers before it returns::

        pool = WavefrontPool(workers=2)
        for job in jobs:
            aln = pool.align3(*job, scheme)
    """

    def __init__(
        self,
        workers: int = 2,
        supervise: bool = True,
        policy: SupervisionPolicy | None = None,
        band: int | None = None,
    ):
        check_positive("workers", workers)
        if band is not None:
            check_positive("band", band)
        self.workers = workers
        self.band = band
        self.policy = (
            (policy or SupervisionPolicy.from_env()) if supervise else None
        )
        self._failures: list[FailureRecord] = []

    def _run(
        self,
        sa: str,
        sb: str,
        sc: str,
        scheme: ScoringScheme,
        score_only: bool,
        tube: PruningTube | None,
    ) -> tuple[float, np.ndarray | None, dict[str, Any]]:
        """Run one job; returns (score, move cube, meta)."""
        check_sequences((sa, sb, sc), count=3)
        if scheme.is_affine:
            raise ValueError("WavefrontPool implements the linear gap model")
        n1, n2, n3 = len(sa), len(sb), len(sc)
        if tube is not None and tube.shape != (n1 + 1, n2 + 1, n3 + 1):
            raise ValueError(f"tube shape {tube.shape} does not match cube")
        slabs = row_slabs(n1, self.workers)
        meta: dict[str, Any] = {
            "engine": "pool",
            "workers": self.workers,
            "serial_fallback": len(slabs) == 1 or not fork_available(),
            "supervised": self.policy is not None,
        }
        if meta["serial_fallback"]:
            from repro.core.wavefront import wavefront_sweep

            res = wavefront_sweep(
                sa, sb, sc, scheme, score_only=score_only, tube=tube
            )
            meta.update(
                recoveries=0, active_workers=1, cells=res.cells_computed
            )
            return res.score, res.move_cube, meta

        dims = (n1, n2, n3)
        dmax = n1 + n2 + n3
        active = len(slabs)
        depth = band_depth(dmax, active) if self.band is None else self.band
        window = min(plane_window(depth), dmax + 4)
        planes = _shared((window, n1 + 2, n2 + 2), np.float64)
        planes.fill(NEG)
        # Control block: one progress counter per worker, then one
        # valid-cell tally per worker.
        ctrl = _shared((2 * active,), np.float64)
        progress = BlockProgress(ctrl, active)
        progress.reset()
        row_lo = row_hi = moves = None
        if tube is not None:
            row_lo, row_hi = _tube_row_ranges(tube, dmax)
        if not score_only:
            moves = _shared((n1 + 1, n2 + 1, n3 + 1), np.int8)
        job = _Job(
            dims=dims,
            slabs=slabs,
            bands=plane_bands(dmax, depth),
            planes=list(planes),
            profiles=scheme.profile_matrices(sa, sb, sc),
            g2=2.0 * scheme.gap,
            moves=moves,
            tube=tube,
            row_lo=row_lo,
            row_hi=row_hi,
            progress=progress,
            tallies=ctrl[active:],
        )
        policy = self.policy
        ctx = mp.get_context("fork")

        def spawn(w: int, resume: int | None) -> mp.Process:
            # Flush buffered trace lines so the fork doesn't duplicate them.
            _trace.flush()
            proc = ctx.Process(
                target=_worker, args=(job, w, policy, resume), daemon=True
            )
            proc.start()
            return proc

        observing = _obs.active()
        t_sweep = time.perf_counter() if observing else 0.0
        procs = {w: spawn(w, None) for w in range(1, active)}
        supervisor: CounterSupervisor | None = None
        if policy is not None:
            supervisor = CounterSupervisor(
                progress, procs, respawn=spawn, policy=policy, final=dmax + 1
            )
            wait = supervisor.wait_for
        else:

            def wait(w: int, target: int) -> None:
                delay = 0.00005
                while progress.done(w) < target:
                    time.sleep(delay)
                    delay = min(delay * 2, 0.002)

        finished = False
        try:
            cells = job.sweep(0, wait)
            if supervisor is not None:
                supervisor.wait_all()
            else:
                for w in procs:
                    wait(w, dmax + 1)
            finished = True
        finally:
            if supervisor is not None:
                self._failures.extend(supervisor.failures)
            if finished:
                for proc in procs.values():
                    proc.join(timeout=5)
            reap(procs.values())

        cells += int(job.tallies.sum())
        score = float(planes[dmax % window][n1 + 1, n2 + 1])
        if observing:
            _obs.record_sweep(
                ENGINE,
                cells=cells,
                seconds=time.perf_counter() - t_sweep,
                peak_plane_bytes=planes.nbytes,
                move_cube_bytes=0 if job.moves is None else job.moves.nbytes,
            )
        meta.update(
            recoveries=0 if supervisor is None else len(supervisor.failures),
            active_workers=active,
            band=depth,
            window=window,
            cells=cells,
        )
        return score, job.moves, meta

    @property
    def failures(self) -> list:
        """Failure records of every call's supervision (empty when clean)."""
        return list(self._failures)

    def score3(
        self,
        sa: str,
        sb: str,
        sc: str,
        scheme: ScoringScheme,
        tube: PruningTube | None = None,
    ) -> float:
        """Optimal SP score (score-only sweep)."""
        score, _moves, _meta = self._run(sa, sb, sc, scheme, True, tube)
        return score

    def align3(
        self,
        sa: str,
        sb: str,
        sc: str,
        scheme: ScoringScheme,
        tube: PruningTube | None = None,
    ) -> Alignment3:
        """Optimal alignment with traceback.

        ``tube`` restricts the sweep to a
        :class:`~repro.core.tube.PruningTube` keep-region; ``meta["cells"]``
        counts the valid cells computed.
        """
        score, move_cube, meta = self._run(sa, sb, sc, scheme, False, tube)
        return traced_alignment(sa, sb, sc, score, move_cube, meta, tube)


def traced_alignment(
    sa: str,
    sb: str,
    sc: str,
    score: float,
    move_cube: np.ndarray | None,
    meta: dict[str, Any],
    tube: PruningTube | None,
) -> Alignment3:
    """Trace a finished sweep's move cube back into an alignment."""
    if tube is not None and score <= NEG / 2:
        raise RuntimeError(
            "terminal cell unreachable (over-aggressive pruning tube?)"
        )
    assert move_cube is not None
    moves = traceback_moves(move_cube)
    cols = moves_to_columns(moves, sa, sb, sc)
    rows = tuple("".join(col[r] for col in cols) for r in range(3))
    return Alignment3(rows=rows, score=score, meta=meta)  # type: ignore[arg-type]
