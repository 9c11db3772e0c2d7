"""Span tracing around the program's public calls, from outside the program.

:func:`install` replaces module and class attributes of ``repro`` with
wrappers that time each call into a layer and keep a span in memory:
``(id, parent id, name, start, end, request id, attrs)``. Nothing under
``src/`` changes; the wrappers sit where the callers look the functions
up (``repro.batch.scheduler.align3`` as well as ``repro.core.api.align3``,
and so on), so every call between layers passes through one.

Parents come from a per-thread stack, so a span's children are the
wrapped calls it made on its own thread. A request id is attached where a
call names its triple (``select_method``, ``align3``, ``request_key``,
``WavefrontPool.align3``); other spans inherit their parent's. The
wrappers record only in the process that installed them: forked pool and
``blocks`` workers run the same code but are seen only through the
engine span that waits for them.

:func:`layer_metrics` turns the spans into the per-layer metrics. A
layer's self time is its spans' durations minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import time
from typing import Any, Callable

#: Bytes each computed cell touches in the plane kernel, from operand
#: sizes: seven float64 predecessor reads, three float64 substitution
#: reads and one float64 write (plus one int8 move when tracing back).
#: A computed figure, not a measured one.
KERNEL_BYTES_PER_CELL = 11 * 8
KERNEL = "core.wavefront.kernel"

#: Self-time buckets: one per layer, with the plane kernel split out of
#: ``core.wavefront`` (which keeps the sweep loop and the traceback).
LAYERS = (
    "batch", "cache", "core.api", "core.bounds", "core.band",
    "core.hirschberg", "core.wavefront", KERNEL, "parallel", "anchor",
)


class SpanStore:
    """In-memory spans of one process and the wrappers that record them."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- per-thread context ------------------------------------------------

    def _stack(self) -> list[tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def rids(self) -> dict:
        """Map of ``(a, b, c)`` -> request id for the current thread."""
        rids = getattr(self._local, "rids", None)
        if rids is None:
            rids = self._local.rids = {}
        return rids

    # -- wrappers ----------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        rid_of: Callable | None = None,
        attrs: Callable | None = None,
        name_of: Callable | None = None,
    ) -> Callable:
        store = self
        getpid = os.getpid
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getpid() != store.pid:
                return fn(*args, **kwargs)
            stack = store._stack()
            parent, rid = stack[-1] if stack else (None, None)
            if rid_of is not None:
                rid = store.rids().get(rid_of(args), rid)
            sid = next(store._ids)
            stack.append((sid, rid))
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                store.spans.append((
                    sid, parent,
                    name_of(args, kwargs) if name_of else name,
                    t0, t1, rid,
                    attrs(args, kwargs, out)
                    if attrs is not None and out is not None else None,
                ))

        return traced

    def wrap_kernel(self, fn: Callable) -> Callable:
        """Leaner wrapper for the plane kernel (a leaf, called per plane)."""
        store = self
        getpid = os.getpid
        clock = time.perf_counter

        @functools.wraps(fn)
        def kernel(*args, **kwargs):
            if getpid() != store.pid:
                return fn(*args, **kwargs)
            stack = store._stack()
            parent, rid = stack[-1] if stack else (None, None)
            t0 = clock()
            cells = fn(*args, **kwargs)
            t1 = clock()
            store.spans.append((
                next(store._ids), parent, KERNEL, t0, t1, rid,
                (cells, kwargs.get("move_cube") is not None),
            ))
            return cells

        return kernel

    def wrap_batch_run(self, fn: Callable) -> Callable:
        """``BatchScheduler.run``: records the request ids it carried and
        publishes them so the engine spans below can name their request."""
        store = self

        def attrs(args, kwargs, report):
            stats = report.stats
            return {
                "rids": [getattr(r, "rid", None) for r in args[1]],
                "requests": stats.requests,
                "computed": stats.computed,
            }

        inner = self.wrap("batch.run", fn, attrs=attrs)

        @functools.wraps(fn)
        def run(sched, requests, *args, **kwargs):
            requests = list(requests)
            store.rids().update(
                (tuple(r.seqs), r.rid)
                for r in requests if getattr(r, "rid", None) is not None
            )
            return inner(sched, requests, *args, **kwargs)

        return run


def _seqs3(offset: int) -> Callable:
    return lambda args: tuple(args[offset:offset + 3])


def install(store: SpanStore) -> None:
    """Wrap every public call between the measured layers."""
    import repro.anchor.discover as discover
    import repro.anchor.solve as solve
    import repro.batch.scheduler as scheduler
    import repro.cache as cache
    import repro.cache.store as cache_store
    import repro.core.api as api
    import repro.core.band as band
    import repro.core.bounds as bounds
    import repro.core.hirschberg as hirschberg
    import repro.core.wavefront as wavefront
    import repro.parallel.blocks as blocks
    import repro.parallel.blockwave as blockwave
    import repro.parallel.executor as executor

    def patch(attr: str, wrapper: Callable, *owners: Any) -> None:
        for owner in owners:
            setattr(owner, attr, wrapper)

    BatchScheduler = scheduler.BatchScheduler
    ResultCache = cache_store.ResultCache
    WavefrontPool = executor.WavefrontPool
    patch("run", store.wrap_batch_run(BatchScheduler.run), BatchScheduler)
    # attrs are taken only from a returned value, so only hits carry one.
    patch("get", store.wrap(
        "cache.get", ResultCache.get, attrs=lambda a, k, out: {"hit": True},
    ), ResultCache)
    patch("put", store.wrap("cache.put", ResultCache.put), ResultCache)
    patch("request_key", store.wrap(
        "cache.key", cache.request_key, rid_of=lambda args: tuple(args[0]),
    ), cache, scheduler)
    patch("select_method", store.wrap(
        "core.api.select", api.select_method, rid_of=_seqs3(0),
        attrs=lambda a, k, out: {"method": out[0]},
    ), api, scheduler)
    patch("align3", store.wrap(
        "core.api.align3", api.align3, rid_of=_seqs3(0),
        attrs=lambda a, k, out: {"degraded": "degraded_from" in out.meta},
    ), api, scheduler)
    patch("carrillo_lipman_tube", store.wrap(
        "core.bounds.tube", bounds.carrillo_lipman_tube,
        attrs=lambda a, k, out: {"kept_fraction": out[1].kept_fraction},
    ), bounds)
    patch("align3_banded", store.wrap(
        "core.band.align", band.align3_banded), band)
    patch("align3_hirschberg", store.wrap(
        "core.hirschberg.align", hirschberg.align3_hirschberg), hirschberg)
    patch("align3_wavefront", store.wrap(
        "core.wavefront.align", wavefront.align3_wavefront,
    ), wavefront, hirschberg, band)
    patch("wavefront_sweep", store.wrap(
        "core.wavefront.sweep", wavefront.wavefront_sweep,
        name_of=lambda a, k: (
            "core.wavefront.pruned_sweep"
            if k.get("tube") is not None or k.get("mask") is not None
            else "core.wavefront.sweep"
        ),
    ), wavefront)
    patch("compute_plane_rows", store.wrap_kernel(
        wavefront.compute_plane_rows), wavefront, blockwave)
    patch("__init__", store.wrap(
        "parallel.pool_init", WavefrontPool.__init__), WavefrontPool)
    patch("align3", store.wrap(
        "parallel.pool_align", WavefrontPool.align3, rid_of=_seqs3(1),
    ), WavefrontPool)
    patch("align3_blocks", store.wrap(
        "parallel.blocks", blocks.align3_blocks), blocks)
    patch("discover_anchors", store.wrap(
        "anchor.discover", discover.discover_anchors), discover, solve)
    patch("align3_chain", store.wrap(
        "anchor.chain", solve.align3_chain,
        attrs=lambda a, k, out: {
            "segments": out.meta.get("anchor", {}).get("segments", 0),
        },
    ), solve)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_of(name: str) -> str:
    return name if name == KERNEL else name.rsplit(".", 1)[0]


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its child spans.

    Children run on their parent's thread, inside its interval and one
    after another, so the covered time is the sum of their durations.
    """
    covered: dict[int, float] = {}
    for sid, parent, _name, t0, t1, _rid, _attrs in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
    return {
        sid: (t1 - t0) - covered.get(sid, 0.0)
        for sid, _p, _n, t0, t1, _r, _a in spans
    }


def in_window(spans: list[tuple], t0: float, t1: float) -> list[tuple]:
    return [s for s in spans if s[3] >= t0 and s[4] <= t1]


def layer_metrics(spans: list[tuple], all_spans: list[tuple]) -> dict:
    """Per-layer metrics from the spans of the timed section.

    ``all_spans`` also holds the set-up spans; only the pool set-up time
    is taken from them.
    """
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def durs(name: str) -> list[float]:
        return [s[4] - s[3] for s in by_name.get(name, [])]

    selfs = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = layer_of(s[2])
        if layer in layer_self:
            layer_self[layer] += selfs[s[0]]

    m: dict[str, float] = {}
    runs = by_name.get("batch.run", [])
    run_ids = {s[0] for s in runs}
    requests = sum(s[6]["requests"] for s in runs if s[6])
    computed = sum(s[6]["computed"] for s in runs if s[6])
    m["batch.self_ms.total"] = layer_self["batch"] * 1e3
    m["batch.pool_jobs"] = len(by_name.get("parallel.pool_align", []))
    m["batch.direct_jobs"] = sum(
        1 for s in by_name.get("core.api.align3", []) if s[1] in run_ids
    )
    m["batch.dedup_ratio"] = (requests - computed) / requests if requests else 0.0

    gets = by_name.get("cache.get", [])
    m["cache.get_us.p50"] = percentile(durs("cache.get"), 0.5) * 1e6
    m["cache.put_us.p50"] = percentile(durs("cache.put"), 0.5) * 1e6
    m["cache.key_us.p50"] = percentile(durs("cache.key"), 0.5) * 1e6
    m["cache.hit_rate"] = (
        sum(1 for s in gets if s[6]) / len(gets) if gets else 0.0
    )

    selects = by_name.get("core.api.select", [])
    m["core.api.select_us.p50"] = percentile(durs("core.api.select"), 0.5) * 1e6
    for method in ("wavefront", "pruned", "banded", "hirschberg"):
        m[f"core.api.resolved.{method}"] = sum(
            1 for s in selects if s[6] and s[6]["method"] == method
        )
    m["core.api.degraded"] = sum(
        1 for s in by_name.get("core.api.align3", [])
        if s[6] and s[6]["degraded"]
    )

    tubes = by_name.get("core.bounds.tube", [])
    m["core.bounds.tube_ms.total"] = sum(durs("core.bounds.tube")) * 1e3
    m["core.bounds.kept_fraction.mean"] = (
        sum(s[6]["kept_fraction"] for s in tubes if s[6]) / len(tubes)
        if tubes else 0.0
    )
    m["core.band.ms.total"] = sum(durs("core.band.align")) * 1e3
    m["core.hirschberg.ms.total"] = sum(durs("core.hirschberg.align")) * 1e3
    m["core.hirschberg.calls"] = len(by_name.get("core.hirschberg.align", []))
    m["core.wavefront.sweep_ms.total"] = sum(durs("core.wavefront.sweep")) * 1e3
    m["core.wavefront.pruned_sweep_ms.total"] = (
        sum(durs("core.wavefront.pruned_sweep")) * 1e3
    )

    kernels = by_name.get(KERNEL, [])
    k_time = sum(s[4] - s[3] for s in kernels)
    k_cells = sum(s[6][0] for s in kernels)
    m["core.wavefront.kernel_calls"] = len(kernels)
    m["core.wavefront.kernel_cells"] = k_cells
    m["core.wavefront.kernel_us_per_call.p50"] = (
        percentile([s[4] - s[3] for s in kernels], 0.5) * 1e6
    )
    m["core.wavefront.kernel_cells_per_s"] = k_cells / k_time if k_time else 0.0
    m["core.wavefront.kernel_bytes_computed"] = sum(
        s[6][0] * (KERNEL_BYTES_PER_CELL + (1 if s[6][1] else 0))
        for s in kernels
    )

    m["parallel.pool_setup_s"] = sum(
        s[4] - s[3] for s in all_spans if s[2] == "parallel.pool_init"
    )
    m["parallel.pool_align_ms.p50"] = (
        percentile(durs("parallel.pool_align"), 0.5) * 1e3
    )
    m["parallel.blocks_ms.total"] = sum(durs("parallel.blocks")) * 1e3

    m["anchor.discover_ms.total"] = sum(durs("anchor.discover")) * 1e3
    m["anchor.chain_ms.total"] = sum(durs("anchor.chain")) * 1e3
    m["anchor.segments"] = sum(
        s[6]["segments"] for s in by_name.get("anchor.chain", []) if s[6]
    )
    m["core.wavefront.kernel_ms.total"] = layer_self[KERNEL] * 1e3
    for layer in LAYERS:
        if layer not in ("batch", KERNEL):
            m[f"{layer}.self_ms.total"] = layer_self[layer] * 1e3
    return m


def top_level_ms(spans: list[tuple]) -> float:
    """Total duration of the spans that have no traced parent."""
    return sum(s[4] - s[3] for s in spans if s[1] is None) * 1e3
