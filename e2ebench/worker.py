"""Child process that hosts the program for one benchmark workload.

``run.py`` starts this file as a fresh interpreter so that set-up time
and peak memory belong to the process doing the work and not to the
benchmark's own generator and checks. It speaks JSON lines:
the first stdin line is the spec (generated inputs and settings); every
stdout line starting with ``E2E`` is a message back. Modes:

``batch_distinct`` / ``large_triples``
    Set up (imports, scheduler and worker pool, warm-up on triples
    outside the timed set), report ``ready``, wait for ``go``, run the
    given number of passes over the fixed set, report the results, then
    wait for SIGTERM, release the pool and exit.
``serve``
    Host ``AlignServer`` with the default ``ServeConfig`` on an
    ephemeral port until SIGTERM, then report the spans. Used only by
    traced runs: untraced runs start ``python -m repro serve`` instead.

With ``"trace": true`` in the spec the layer wrappers of
:mod:`tracing` are installed before anything else runs.
"""

from __future__ import annotations

import json
import pathlib
import resource
import signal
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def emit(obj: dict) -> None:
    sys.stdout.write("E2E " + json.dumps(obj) + "\n")
    sys.stdout.flush()


def _terminate(_signum, _frame):
    raise SystemExit(0)


def _passes(count: int, one_pass) -> list[dict]:
    passes = []
    for _ in range(count):
        t0 = time.perf_counter()
        out = one_pass()
        out.update(t0=t0, t1=time.perf_counter())
        passes.append(out)
    return passes


def _result(aln) -> list:
    return [aln.score, list(aln.rows)]


def batch_worker(spec: dict, store) -> None:
    from repro.batch.scheduler import (
        DEFAULT_MAX_POOL_CELLS,
        POOL_METHODS,
        AlignmentRequest,
        BatchScheduler,
    )
    from repro.cache import ResultCache
    from repro.core.api import resolve_scheme, select_method
    from workloads import pool_warmup

    requests = [
        AlignmentRequest(seqs=tuple(r["seqs"]), rid=r["rid"])
        for r in spec["requests"]
    ]
    # Size the pool to every cube the timed batch will send to it.
    longest = 12
    for req in requests:
        dims = [len(s) for s in req.seqs]
        method, _ = select_method(*req.seqs, resolve_scheme(req.seqs))
        if (
            method in POOL_METHODS
            and dims[0] * dims[1] * dims[2] <= DEFAULT_MAX_POOL_CELLS
        ):
            longest = max(longest, *dims)
    sched = BatchScheduler(cache=ResultCache(), workers=2)
    try:
        sched.run(pool_warmup(longest, spec["seed"]))
        if not _handshake():
            return

        def one_pass() -> dict:
            # Every request of the batch is due when the batch starts, so
            # its latency is the time until its result is handed back.
            sched.cache = ResultCache()
            t0 = time.perf_counter()
            latency = [0.0] * len(requests)

            def on_result(res) -> None:
                latency[res.index] = time.perf_counter() - t0

            try:
                report = sched.run(requests, on_result=on_result)
            except Exception as exc:  # reported as failed requests
                print(f"# batch failed: {exc!r}", file=sys.stderr)
                return {"results": [None] * len(requests), "latency_s": []}
            return {
                "results": [_result(r.alignment) for r in report.results],
                "latency_s": latency,
            }

        _report(spec, store, _passes(spec["passes"], one_pass))
        _wait_for_sigterm()
    finally:
        sched.close()


def large_worker(spec: dict, store) -> None:
    import repro.core.api as api

    warm = [tuple(t) for t in spec["warmup"]]
    for seqs in warm:
        api.align3(*seqs)
    api.align3(*warm[0], method="hirschberg")
    api.align3(*warm[0], method="blocks", workers=2)
    api.align3(*warm[1], method="anchored")
    if not _handshake():
        return
    requests = spec["requests"]
    for r in requests:
        store.rids()[tuple(r["seqs"])] = r["rid"]

    def one_pass() -> dict:
        results, latency = [], []
        for r in requests:
            t0 = time.perf_counter()
            try:
                aln = api.align3(
                    *r["seqs"], method=r["method"], workers=r["workers"]
                )
                results.append(_result(aln))
            except Exception as exc:  # reported as a failed request
                results.append(None)
                print(f"# {r['rid']} failed: {exc!r}", file=sys.stderr)
            latency.append(time.perf_counter() - t0)
        return {"results": results, "latency_s": latency}

    passes = _passes(spec["passes"], one_pass)
    extra = {}
    if spec.get("speedup"):
        extra["blocks_speedup_vs_serial"] = blocks_speedup(
            [r for r in requests if r["method"] == "blocks"][0]["seqs"]
        )
    _report(spec, store, passes, extra)
    _wait_for_sigterm()


def blocks_speedup(seqs) -> float:
    """Serial score-only sweep time over ``score3_blocks(workers=2)`` time
    on one triple (best of two, interleaved)."""
    from repro.core.api import resolve_scheme
    from repro.core.wavefront import wavefront_sweep
    from repro.parallel.blocks import score3_blocks

    scheme = resolve_scheme(seqs)
    serial = blocks = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        s1 = wavefront_sweep(*seqs, scheme, score_only=True).score
        t1 = time.perf_counter()
        s2 = score3_blocks(*seqs, scheme, workers=2)
        t2 = time.perf_counter()
        if s1 != s2:
            raise AssertionError(f"blocks score {s2} != serial score {s1}")
        serial, blocks = min(serial, t1 - t0), min(blocks, t2 - t1)
    return serial / blocks


def serve_host(spec: dict, store) -> None:
    from repro.serve.app import AlignServer
    from repro.serve.config import ServeConfig
    from repro.serve.httpd import run_blocking

    run_blocking(lambda: AlignServer(ServeConfig(port=0)))
    emit({"event": "spans", "spans": store.spans})


def _handshake() -> bool:
    emit({"event": "ready"})
    return sys.stdin.readline().strip() == "go"


def _report(spec: dict, store, passes: list[dict], extra=None) -> None:
    emit({
        "event": "result",
        "passes": passes,
        "children_maxrss_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss,
        "spans": store.spans if spec["trace"] else [],
        **(extra or {}),
    })


def _wait_for_sigterm() -> None:
    while True:
        signal.pause()


def main() -> int:
    from tracing import SpanStore, install

    mode = sys.argv[1]
    if mode != "serve":
        signal.signal(signal.SIGTERM, _terminate)
    spec = json.loads(sys.stdin.readline())
    store = SpanStore()
    if spec["trace"]:
        install(store)
    {"batch_distinct": batch_worker, "large_triples": large_worker,
     "serve": serve_host}[mode](spec, store)
    return 0


if __name__ == "__main__":
    sys.exit(main())
