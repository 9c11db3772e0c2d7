"""Batch scheduler: many alignment requests, one set of workers.

A serving stack does not treat each request as a cold start. This
scheduler accepts a whole batch of :class:`AlignmentRequest`\\ s and
serves it in stages, cheapest first:

1. **Exact dedup** — requests are grouped by their content digest
   (:func:`repro.cache.request_key`, keyed on the *resolved* method's
   equivalence class, so ``auto`` and ``wavefront`` requests for the
   same triple form one group); each distinct request is looked up in
   the :class:`~repro.cache.ResultCache` once (one probe, so a cold
   request counts one miss), and duplicates share the answer.
2. **Permutation reuse** — remaining groups are probed by the
   order-insensitive secondary key. A hit (from the cache, or from
   another group of this batch) is mapped onto the request's sequence
   order by permuting rows: score-identical by the symmetry of SP
   scoring, though tie-breaking means the rows may legitimately differ
   from a cold compute (marked ``meta["permuted_from"]``).
3. **Job-level compute** — true misses run cheapest cube first (ties
   in request order), each on the engine ``auto`` resolved to once, up
   front. With two or more misses and ``workers >= 2`` every *whole*
   request goes to a set of long-lived forked job processes
   (:class:`~repro.batch.jobs.JobWorkers`), one job at a time per
   worker; a lone miss, or ``workers=1``, runs in the calling process
   with no IPC. Results are cached under both keys for the next batch
   and emitted as each job completes.

The job workers outlive ``run()``: a :class:`BatchScheduler` spawns them
on its first fanned-out batch and reuses them until :meth:`close`.
Metrics land in :mod:`repro.obs` — cache hit/miss counters, a
per-request latency histogram, the batch dedup ratio and, recorded by
this process from each result's ``meta``, every computed job's engine,
cells and wall time — and render via ``repro report`` / ``--metrics``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Sequence,
)

from repro.cache import (
    ResultCache,
    derive_for_order,
    method_key_class,
    permutation_key,
    permute_rows,
    request_key,
)
from repro.cache.key import MODES, canonical_order, scheme_fingerprint
from repro.core.api import (
    AVAILABLE_METHODS,
    align3,
    resolve_scheme,
    select_method,
)
from repro.core.scoring import ScoringScheme
from repro.core.types import Alignment3
from repro.obs import hooks as _obs
from repro.obs import trace as _trace
from repro.util.validation import check_sequences

if TYPE_CHECKING:  # pragma: no cover - multiprocessing loads on first fan-out
    from repro.batch.jobs import JobWorkers

#: Namespace prefix for order-insensitive secondary cache entries, kept
#: disjoint from exact digests so a permutation-derived alignment can
#: never masquerade as a bit-identical exact hit.
PERM_PREFIX = "p:"

#: Legacy constants of the removed within-cube pool path (the methods it
#: split over a long-lived worker pool, and the largest cube it gave
#: one). Kept importable for callers that still read them; they steer
#: nothing in the scheduler, and no worker pool outlives a call.
POOL_METHODS = ("wavefront",)
DEFAULT_MAX_POOL_CELLS = 2_000_000


@dataclass(frozen=True)
class AlignmentRequest:
    """One alignment request inside a batch.

    ``scheme=None`` resolves per request from the guessed alphabet
    (:func:`repro.core.api.resolve_scheme`); ``rid`` is an optional
    caller-supplied identifier echoed back on the result.
    ``constraints`` is an optional anchor chain (``(i, j, k, length)``
    tuples, see :mod:`repro.anchor`) forwarded to
    ``align3(constraints=...)``; it is normalised at admission and
    folded into the cache key.
    """

    seqs: tuple[str, str, str]
    scheme: ScoringScheme | None = None
    mode: str = "global"
    method: str = "auto"
    rid: str | None = None
    constraints: tuple[tuple[int, int, int, int], ...] | None = None


@dataclass
class RequestResult:
    """How one request was served."""

    index: int
    rid: str | None
    alignment: Alignment3
    key: str
    #: ``memory_hit``/``disk_hit`` (cache), ``dedup`` (identical request
    #: in this batch), ``permutation`` (row-permuted equivalent), or
    #: ``computed`` (cold).
    source: str
    latency_s: float

    @property
    def cache_hit(self) -> bool:
        return self.source in ("memory_hit", "disk_hit")


@dataclass
class BatchStats:
    """Aggregate accounting for one ``run()``."""

    requests: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    dedup_hits: int = 0
    permutation_hits: int = 0
    computed: int = 0
    #: Computes that ran on the job workers (the rest ran inline).
    pool_jobs: int = 0
    #: Seconds spent spawning job workers in this run (0 when reused).
    pool_setup_s: float = 0.0
    #: Job workers respawned after dying mid-batch.
    job_respawns: int = 0
    wall_s: float = 0.0

    @property
    def cache_hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def dedup_ratio(self) -> float:
        """Fraction of requests served without a fresh O(n^3) compute."""
        if not self.requests:
            return 0.0
        return (self.requests - self.computed) / self.requests

    def snapshot(self) -> dict[str, float]:
        return {
            "requests": self.requests,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "dedup_hits": self.dedup_hits,
            "permutation_hits": self.permutation_hits,
            "computed": self.computed,
            "dedup_ratio": self.dedup_ratio,
            "pool_jobs": self.pool_jobs,
            "pool_setup_s": self.pool_setup_s,
            "job_respawns": self.job_respawns,
            "wall_s": self.wall_s,
        }


@dataclass
class BatchReport:
    """Results (in request order) plus the batch's accounting."""

    results: list[RequestResult]
    stats: BatchStats = field(default_factory=BatchStats)

    def alignments(self) -> list[Alignment3]:
        return [r.alignment for r in self.results]


class _Resolved(NamedTuple):
    """A request's engine (``"chain"`` for constrained/anchored ones),
    its cache-key method component, and the ``auto`` selection record."""

    engine: str
    key_method: str
    selection: dict | None = None


class _Job(NamedTuple):
    """One compute, fully resolved in the scheduler's process; picklable,
    so it runs the same inline or on a job worker."""

    seqs: tuple[str, str, str]
    scheme: ScoringScheme
    mode: str
    method: str
    requested: str
    constraints: tuple[tuple[int, int, int, int], ...] | None
    selection: dict | None
    hint: float | None
    workers: int


def _cells(seqs: Sequence[str]) -> int:
    n1, n2, n3 = (len(s) for s in seqs)
    return (n1 + 1) * (n2 + 1) * (n3 + 1)


def _compute(job: _Job) -> Alignment3:
    """Run one job on the engine it was resolved to. ``auto`` is never
    re-resolved here: the scheduler's ``selection`` becomes
    ``meta["auto"]``, as ``align3(method="auto")`` would record it."""
    if job.mode == "local":
        from repro.core.local import align3_local

        aln = align3_local(*job.seqs, job.scheme)
    elif job.mode == "semiglobal":
        from repro.core.semiglobal import align3_semiglobal

        aln = align3_semiglobal(*job.seqs, job.scheme)
    elif job.method == "chain":
        aln = align3(
            *job.seqs,
            job.scheme,
            method=job.requested,
            workers=job.workers,
            constraints=job.constraints,
            cells_per_s_hint=job.hint,
        )
    else:
        aln = align3(
            *job.seqs, job.scheme, method=job.method, workers=job.workers
        )
        if job.selection is not None:
            aln.meta["auto"] = job.selection
    aln.meta.setdefault("mode", job.mode)
    aln.meta.setdefault("scheme", job.scheme.name)
    return aln


class BatchScheduler:
    """Serve batches of alignment requests over shared workers and a cache.

    Parameters
    ----------
    cache:
        Result cache shared across batches; None disables caching (the
        in-batch dedup stages still apply).
    workers:
        Job worker processes a batch's computes fan out over (1 = run
        every compute inline, no forking). Also the worker count an
        explicit ``method="blocks"`` request runs with.
    cells_per_s_hint:
        Observed plain-sweep throughput for admission-informed method
        selection: a number, or a zero-arg callable read once per batch
        (the serve tier binds the admission controller's live EWMA).

    Use as a context manager, or call :meth:`close` to stop the job
    workers::

        with BatchScheduler(cache=ResultCache()) as sched:
            report = sched.run(requests)
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        workers: int = 2,
        cells_per_s_hint: "float | Callable[[], float | None] | None" = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.cache = cache
        self.workers = int(workers)
        self.cells_per_s_hint = cells_per_s_hint
        self._jobs: JobWorkers | None = None  # spawned on first fan-out

    def _hint(self) -> float | None:
        hint = self.cells_per_s_hint
        if callable(hint):
            hint = hint()
        return float(hint) if hint else None

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop the job workers (idempotent; bounded even with a job in
        flight). A later :meth:`run` spawns fresh ones."""
        jobs, self._jobs = self._jobs, None
        if jobs is not None:
            jobs.close()

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request normalisation and single-request execution
    # ------------------------------------------------------------------

    @staticmethod
    def _normalise(req: "AlignmentRequest | Sequence[str]") -> AlignmentRequest:
        if not isinstance(req, AlignmentRequest):
            seqs = tuple(req)
            if len(seqs) != 3:
                raise ValueError(
                    f"a request needs exactly three sequences, got {len(seqs)}"
                )
            req = AlignmentRequest(seqs=seqs)  # type: ignore[arg-type]
        check_sequences(req.seqs, count=3)
        if req.mode not in MODES:
            raise ValueError(f"unknown mode {req.mode!r}; available: {MODES}")
        if req.method not in AVAILABLE_METHODS:
            raise ValueError(
                f"unknown method {req.method!r}; available: {AVAILABLE_METHODS}"
            )
        if req.mode != "global" and req.method != "auto":
            raise ValueError(
                f"mode {req.mode!r} has a single engine; use method='auto'"
            )
        if req.constraints:
            if req.mode != "global":
                raise ValueError(
                    "constrained alignment supports mode='global' only"
                )
            from repro.anchor import normalize_constraints

            dims = tuple(len(s) for s in req.seqs)
            req = replace(
                req, constraints=normalize_constraints(req.constraints, dims)
            )
        elif req.constraints is not None:
            req = replace(req, constraints=None)
        return req

    def _resolve(
        self, req: AlignmentRequest, scheme: ScoringScheme,
        hint: float | None,
    ) -> _Resolved:
        """How a request will run: its engine, its cache-key method
        component and, for ``auto``, the cost model's ``selection``.

        Mirrors ``align3``'s resolution order: the key must be derived
        from the method that will actually run, not the request string —
        keying on the raw string stored the same bit-identical alignment
        under ``auto`` and its resolved engine twice. Non-global modes
        have a single engine each, so their raw ``auto`` keys are already
        canonical.

        Chain-mode requests (constraints, or ``method="anchored"``)
        resolve to the sentinel engine ``"chain"``, dispatched through
        ``align3``, which owns the per-sub-cube selection. Constrained
        results are engine-independent (every segment engine is exact),
        so they key as ``"exact"`` plus the constraint digest; anchored
        results key as their own class.
        """
        if req.mode != "global":
            return _Resolved(req.method, req.method)
        if req.constraints:
            return _Resolved("chain", "exact")
        if req.method == "anchored":
            return _Resolved("chain", "anchored")
        method, selection = req.method, None
        if method == "auto":
            if scheme.is_affine:
                method = "affine"
            else:
                method, selection = select_method(
                    *req.seqs, scheme, cells_per_s=hint
                )
        return _Resolved(method, method_key_class(method), selection)

    def _resolve_all(
        self, reqs: list[AlignmentRequest], schemes: list[ScoringScheme],
        hint: float | None,
    ) -> list[_Resolved]:
        """Resolve every request, running the ``auto`` cost model once
        per distinct triple and scheme (duplicates share the answer)."""
        memo: dict[tuple, _Resolved] = {}
        out = []
        for req, scheme in zip(reqs, schemes):
            if req.mode != "global" or req.method != "auto":
                out.append(self._resolve(req, scheme, hint))
                continue
            mk = (req.seqs, scheme_fingerprint(scheme), req.constraints)
            if mk not in memo:
                memo[mk] = self._resolve(req, scheme, hint)
            out.append(memo[mk])
        return out

    def _job(
        self, req: AlignmentRequest, scheme: ScoringScheme, res: _Resolved,
        hint: float | None,
    ) -> _Job:
        return _Job(
            seqs=req.seqs,
            scheme=scheme,
            mode=req.mode,
            method=res.engine,
            requested=req.method,
            constraints=req.constraints,
            selection=res.selection,
            hint=hint,
            workers=self.workers,
        )

    def _job_workers(self) -> JobWorkers | None:
        """The live job workers, created on first use; None where the
        platform cannot fork."""
        from repro.batch.jobs import JobWorkers
        from repro.parallel.executor import fork_available

        if self._jobs is None and fork_available():
            self._jobs = JobWorkers(_compute, self.workers)
        return self._jobs

    # ------------------------------------------------------------------
    # The batch pipeline
    # ------------------------------------------------------------------

    def run(
        self,
        requests: Iterable["AlignmentRequest | Sequence[str]"],
        on_result: "Callable[[RequestResult], None] | None" = None,
    ) -> BatchReport:
        """Serve ``requests``; results come back in request order.

        ``on_result`` is invoked with each :class:`RequestResult` the
        moment it is served (cache hits first, then computes as each job
        completes) — completion order, not request order;
        ``RequestResult.index`` maps back.
        """
        t_batch = time.perf_counter()
        reqs = [self._normalise(r) for r in requests]
        schemes = [resolve_scheme(r.seqs, r.scheme) for r in reqs]
        hint = self._hint()
        resolved = self._resolve_all(reqs, schemes, hint)
        stats = BatchStats(requests=len(reqs))
        results: list[RequestResult | None] = [None] * len(reqs)

        with _trace.span("batch", requests=len(reqs)):
            self._run_stages(
                reqs, schemes, resolved, hint, results, stats,
                emit=on_result,
            )

        stats.wall_s = time.perf_counter() - t_batch
        final = [r for r in results if r is not None]
        assert len(final) == len(reqs), "every request must be served"
        for r in final:
            _obs.record_request(
                seconds=r.latency_s,
                cache_hit=r.cache_hit,
                deduped=r.source in ("dedup", "permutation"),
            )
        _obs.record_batch(
            requests=stats.requests,
            cache_hits=stats.cache_hits,
            deduped=stats.dedup_hits + stats.permutation_hits,
            computed=stats.computed,
            seconds=stats.wall_s,
            pool_jobs=stats.pool_jobs,
        )
        return BatchReport(results=final, stats=stats)

    def run_stream(
        self,
        requests: Iterable["AlignmentRequest | Sequence[str]"],
        on_result: "Callable[[RequestResult], None]",
    ) -> BatchReport:
        """Like :meth:`run`, but built for arbitrarily long batches: each
        result goes to ``on_result`` as it completes and its alignment is
        then **released** (set to None), so peak memory does not grow with
        the batch's alignments. The returned report still carries full
        stats and per-request accounting (index, rid, key, source,
        latency) — just no alignment rows.
        """

        def emit_and_release(res: RequestResult) -> None:
            on_result(res)
            res.alignment = None  # type: ignore[assignment]

        return self.run(requests, on_result=emit_and_release)

    def _run_stages(
        self,
        reqs: list[AlignmentRequest],
        schemes: list[ScoringScheme],
        resolved: list[_Resolved],
        hint: float | None,
        results: list[RequestResult | None],
        stats: BatchStats,
        emit: "Callable[[RequestResult], None] | None" = None,
    ) -> None:
        # Stage 1: group identical requests; probe the cache once each.
        # Keys carry the resolved method's equivalence class, so an
        # ``auto`` request and the ``wavefront`` it resolves to are one
        # group here instead of two computes.
        groups: dict[str, list[int]] = {}
        for i, (req, scheme) in enumerate(zip(reqs, schemes)):
            key = request_key(
                req.seqs, scheme, req.mode, resolved[i].key_method,
                constraints=req.constraints,
            )
            groups.setdefault(key, []).append(i)

        pending: list[tuple[str, list[int]]] = []
        for key, idxs in groups.items():
            t0 = time.perf_counter()
            hit = None
            source = "memory_hit"
            if self.cache is not None:
                pre_disk = self.cache.stats.disk_hits
                hit = self.cache.get(key)
                if self.cache.stats.disk_hits > pre_disk:
                    source = "disk_hit"
            dt = time.perf_counter() - t0
            if hit is not None:
                self._fill(
                    results, reqs, idxs, key, hit, source, dt, stats,
                    emit=emit,
                )
            else:
                pending.append((key, idxs))

        # Stage 2: permutation reuse — from the cache, then within the
        # batch (one compute per canonical triple).
        perm_groups: dict[str, list[tuple[str, list[int]]]] = {}
        to_compute: list[tuple[str, list[int]]] = []
        for key, idxs in pending:
            req, scheme = reqs[idxs[0]], schemes[idxs[0]]
            if resolved[idxs[0]].engine == "chain":
                # Constrained/anchored requests skip permutation reuse:
                # anchor coordinates are order-sensitive, and discovery's
                # chain tie-breaks under a permuted sort order may pick a
                # different co-optimal chain — score equality would not
                # be guaranteed.
                to_compute.append((key, idxs))
                continue
            pkey = PERM_PREFIX + permutation_key(
                req.seqs, scheme, req.mode, resolved[idxs[0]].key_method
            )
            t0 = time.perf_counter()
            canon = (
                self.cache.get(pkey, record=False)
                if self.cache is not None
                else None
            )
            dt = time.perf_counter() - t0
            if canon is not None:
                derived = derive_for_order(canon, req.seqs)
                self._fill(
                    results, reqs, idxs, key, derived, "permutation", dt,
                    stats, emit=emit,
                )
                continue
            bucket = perm_groups.setdefault(pkey, [])
            if bucket:
                bucket.append((key, idxs))  # follower: derived after compute
            else:
                bucket.append((key, idxs))
                to_compute.append((key, idxs))

        # Stage 3: two or more computes go out whole to the job workers,
        # cheapest cube first (ties in request order); a lone one, or
        # workers=1, runs right here with no IPC, in request order.
        jobs = [
            self._job(
                reqs[idxs[0]], schemes[idxs[0]], resolved[idxs[0]], hint
            )
            for _key, idxs in to_compute
        ]

        def done(j: int, aln: Alignment3, dt: float, on_worker: bool) -> None:
            key, idxs = to_compute[j]
            stats.pool_jobs += on_worker
            _obs.record_job(
                engine=aln.meta.get("engine", jobs[j].method),
                cells=aln.meta.get("cells", _cells(jobs[j].seqs)),
                seconds=dt,
                on_worker=on_worker,
            )
            self._finish_compute(
                results, reqs, schemes, resolved, perm_groups, key, idxs,
                aln, dt, stats, emit=emit,
            )

        # An explicit ``blocks`` request forks its own pool, which a
        # (daemonic) job worker may not do: it stays in this process.
        fan = [j for j, job in enumerate(jobs) if job.requested != "blocks"]
        fanned: set[int] = set()
        workers = (
            self._job_workers()
            if self.workers >= 2 and len(fan) >= 2 else None
        )
        if workers is not None:
            fan.sort(key=lambda j: (_cells(jobs[j].seqs), j))
            stats.pool_setup_s = workers.ensure()
            stats.job_respawns = workers.run(
                [jobs[j] for j in fan],
                lambda i, aln, dt: done(fan[i], aln, dt, True),
            )
            fanned = set(fan)
        for j, job in enumerate(jobs):
            if j not in fanned:
                t0 = time.perf_counter()
                aln = _compute(job)
                done(j, aln, time.perf_counter() - t0, False)

    # ------------------------------------------------------------------
    # Result fan-out
    # ------------------------------------------------------------------

    def _finish_compute(
        self,
        results: list[RequestResult | None],
        reqs: list[AlignmentRequest],
        schemes: list[ScoringScheme],
        resolved: list[_Resolved],
        perm_groups: dict[str, list[tuple[str, list[int]]]],
        key: str,
        idxs: list[int],
        aln: Alignment3,
        dt: float,
        stats: BatchStats,
        emit: "Callable[[RequestResult], None] | None" = None,
    ) -> None:
        req, scheme = reqs[idxs[0]], schemes[idxs[0]]
        stats.computed += 1
        if resolved[idxs[0]].engine == "chain":
            # No permutation key for chain-mode results (see stage 2).
            if self.cache is not None:
                self.cache.put(key, aln)
            self._fill(
                results, reqs, idxs, key, aln, "computed", dt, stats,
                emit=emit,
            )
            return
        canonical, perm = canonical_order(req.seqs)
        pkey = PERM_PREFIX + permutation_key(
            req.seqs, scheme, req.mode, resolved[idxs[0]].key_method
        )
        if self.cache is not None:
            self.cache.put(key, aln)
            self.cache.put(pkey, permute_rows(aln, perm))
        self._fill(
            results, reqs, idxs, key, aln, "computed", dt, stats, emit=emit
        )
        # Permutation-equivalent followers discovered in stage 2.
        for fkey, fidxs in perm_groups.get(pkey, []):
            if fkey == key:
                continue
            freq = reqs[fidxs[0]]
            derived = derive_for_order(permute_rows(aln, perm), freq.seqs)
            self._fill(
                results, reqs, fidxs, fkey, derived, "permutation", dt,
                stats, emit=emit,
            )

    def _fill(
        self,
        results: list[RequestResult | None],
        reqs: list[AlignmentRequest],
        idxs: list[int],
        key: str,
        aln: Alignment3,
        source: str,
        dt: float,
        stats: BatchStats,
        emit: "Callable[[RequestResult], None] | None" = None,
    ) -> None:
        for rank, i in enumerate(idxs):
            # Each requester gets its own object; a shared one would let
            # one caller's meta edits leak into another's result.
            own = Alignment3(
                rows=aln.rows, score=aln.score, meta=dict(aln.meta)
            )
            src = source if rank == 0 else "dedup"
            own.meta["batch"] = {"source": src, "key": key}
            if rank == 0:
                if source == "memory_hit":
                    stats.memory_hits += 1
                elif source == "disk_hit":
                    stats.disk_hits += 1
                elif source == "permutation":
                    stats.permutation_hits += 1
            else:
                stats.dedup_hits += 1
            res = RequestResult(
                index=i,
                rid=reqs[i].rid,
                alignment=own,
                key=key,
                source=src,
                latency_s=dt,
            )
            results[i] = res
            if emit is not None:
                emit(res)


def run_batch(
    requests: Iterable["AlignmentRequest | Sequence[str]"],
    cache: ResultCache | None = None,
    workers: int = 2,
) -> BatchReport:
    """One-shot convenience: build a scheduler, run one batch, close it.

    Prefer a long-lived :class:`BatchScheduler` when serving repeatedly —
    this helper still gets the dedup and caching but pays the job-worker
    spawn per call.
    """
    with BatchScheduler(cache=cache, workers=workers) as sched:
        return sched.run(requests)
