#!/usr/bin/env python
"""Guard the throughput layer's acceptance bounds, in two regimes.

**Duplicate-heavy** (``dup``): ``--requests`` requests drawn from
``--unique`` distinct triples, i.e. the serving-workload shape the
batching layer's dedup targets. Asserts three things:

1. **Dedup** — the batch scheduler computes each distinct request once,
   so the dedup ratio is at least ``1 - unique/requests``.
2. **Bit-identity** — every cache hit (exact and in-batch dedup) matches
   the cold compute: same rows, same score, same meta modulo timing; and
   a warm re-run of the whole batch serves every request from the cache
   with identical results.
3. **Throughput** — the batch run beats a serial ``align3`` loop over
   the same requests by at least ``--min-speedup`` (the issue's bound is
   2x; the default here leaves headroom for loaded CI machines).

**Distinct**: no duplicates to hide behind — only ``DISTINCT_SMALL``
small (n 12-48) and ``DISTINCT_MID`` mid (n 40-150, diverged / default
/ similar families) distinct triples, served by a ``BatchScheduler`` in
its default configuration (two job workers) and interleaved against a
serial ``align3`` loop. Every result must match the loop's rows and
score, and on a machine with at least two CPUs the batch must be
``--min-distinct-speedup`` (1.3x) faster: the job workers' parallelism
has to win on its own. The scheduler is long-lived, as a server's is:
its job workers are spawned by an untimed warm-up batch.

Usage::

    PYTHONPATH=src python tools/check_batch.py [--requests 200]
        [--unique 40] [--n 24] [--min-speedup 2.0]
        [--min-distinct-speedup 1.3] [--repeats 2]

Exit status 0 when all bounds hold, 1 on violation (2 on bad arguments).
``--workers 1`` (the default of the duplicate-heavy regime) runs its
computes inline so the measurement is about batching and caching, not fork
timing noise. Each regime self-records as one ``check_batch`` row in the
run-record database (``RUNS.jsonl``; disable with ``--no-record``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

#: Distinct regime batch composition: small and mid distinct triples.
DISTINCT_SMALL = 60
DISTINCT_MID = 12


def _ensure_importable() -> None:
    try:
        import repro  # noqa: F401
    except ImportError:
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        sys.path.insert(0, str(src))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="assert batch dedup, hit bit-identity and speedup bounds"
    )
    parser.add_argument(
        "--requests", type=int, default=200,
        help="total batch size (duplicate-heavy regime)",
    )
    parser.add_argument(
        "--unique", type=int, default=40,
        help="distinct triples in the duplicate-heavy batch",
    )
    parser.add_argument(
        "--n", type=int, default=24,
        help="sequence length per duplicate-heavy triple",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="duplicate-heavy batch must beat the serial align3 loop by "
        "this factor",
    )
    parser.add_argument(
        "--min-distinct-speedup",
        type=float,
        default=1.3,
        help="distinct batch must beat the serial align3 loop by this "
        "factor (checked on machines with >= 2 CPUs)",
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="timed repeats per side"
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="job workers for the duplicate-heavy regime (1 = inline)",
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="skip self-recording the result as a check_batch run row",
    )
    parser.add_argument(
        "--runs-file",
        default=None,
        metavar="FILE",
        help="run-record store (default: RUNS.jsonl at the repo root)",
    )
    args = parser.parse_args(argv)
    if args.unique < 1 or args.requests < args.unique:
        parser.error("need requests >= unique >= 1")
    if args.n < 1 or args.repeats < 1 or args.min_speedup <= 0:
        parser.error("n/repeats must be >= 1 and min-speedup > 0")
    if args.min_distinct_speedup <= 0:
        parser.error("min-distinct-speedup must be > 0")

    _ensure_importable()
    dup_ok = _check_dup(args)
    distinct_ok = _check_distinct(args)
    return 0 if dup_ok and distinct_ok else 1


def _interleaved(serial_fn, batch_fn, repeats: int):
    """Minimum wall time of each side over ``repeats`` interleaved runs
    (so machine-load drift hits both sides equally), plus the last
    outputs."""
    import time

    serial_times: list[float] = []
    batch_times: list[float] = []
    serial_out = batch_out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        serial_out = serial_fn()
        serial_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        batch_out = batch_fn()
        batch_times.append(time.perf_counter() - t0)
    wall = sum(serial_times) + sum(batch_times)
    return min(serial_times), min(batch_times), wall, serial_out, batch_out


def _mismatches(results, serial_alns) -> int:
    """Results whose rows or score differ from the serial loop's (meta
    provenance legitimately differs)."""
    return sum(
        1
        for res, want in zip(results, serial_alns)
        if res.alignment.rows != want.rows
        or res.alignment.score != want.score
    )


def _record(args, regime: str, config: dict, metrics: dict, wall_s: float):
    from repro.runs import record_run

    record_run(
        "check_batch",
        config={"regime": regime, **config},
        metrics=metrics,
        wall_s=wall_s,
        runs_file=args.runs_file,
        enabled=not args.no_record,
    )


def _check_dup(args) -> bool:
    from repro.batch import AlignmentRequest, BatchScheduler
    from repro.cache import ResultCache, comparable_meta
    from repro.core.api import align3
    from repro.core.scoring import default_scheme_for
    from repro.seqio.alphabet import DNA
    from repro.seqio.generate import mutated_family
    from repro.util.timing import format_seconds

    scheme = default_scheme_for(DNA)
    triples = [
        tuple(mutated_family(args.n, seed=500 + i)) for i in range(args.unique)
    ]
    requests = [
        AlignmentRequest(seqs=triples[i % args.unique], scheme=scheme)
        for i in range(args.requests)
    ]
    expected_dedup = 1.0 - args.unique / args.requests

    def batch_run():
        with BatchScheduler(cache=ResultCache(), workers=args.workers) as sched:
            return sched.run(requests)

    serial_s, batch_s, wall, serial_alns, report = _interleaved(
        lambda: [align3(*r.seqs, r.scheme) for r in requests],
        batch_run,
        args.repeats,
    )

    failures: list[str] = []

    if report.stats.computed != args.unique:
        failures.append(
            f"computed {report.stats.computed} jobs, expected {args.unique}"
        )
    if report.stats.dedup_ratio < expected_dedup:
        failures.append(
            f"dedup_ratio {report.stats.dedup_ratio:.3f} "
            f"< expected {expected_dedup:.3f}"
        )

    # Every request must reproduce the serial loop's rows and score.
    mismatches = _mismatches(report.results, serial_alns)
    if mismatches:
        failures.append(
            f"{mismatches}/{args.requests} batch results differ from the "
            "serial align3 loop"
        )

    # Warm re-run: everything from the cache, still bit-identical.
    cache = ResultCache()
    with BatchScheduler(cache=cache, workers=args.workers) as sched:
        cold = sched.run(requests)
        warm = sched.run(requests)
    if warm.stats.computed != 0:
        failures.append(
            f"warm re-run recomputed {warm.stats.computed} jobs"
        )
    for a, b in zip(cold.results, warm.results):
        if (
            a.alignment.rows != b.alignment.rows
            or a.alignment.score != b.alignment.score
            or comparable_meta(a.alignment.meta)
            != comparable_meta(b.alignment.meta)
        ):
            failures.append("a warm cache hit differs from its cold compute")
            break

    speedup = serial_s / batch_s if batch_s > 0 else float("inf")
    if speedup < args.min_speedup:
        failures.append(
            f"batch speedup {speedup:.2f}x < required {args.min_speedup:.2f}x"
        )

    status = "FAIL" if failures else "OK"
    print(
        f"{status}: requests={args.requests} unique={args.unique} n={args.n} "
        f"dedup_ratio={report.stats.dedup_ratio:.3f} "
        f"serial={format_seconds(serial_s)} batch={format_seconds(batch_s)} "
        f"speedup={speedup:.2f}x (required {args.min_speedup:.2f}x)"
    )
    for f in failures:
        print(f"  - {f}")

    _record(
        args,
        "dup",
        config={
            "requests": args.requests,
            "unique": args.unique,
            "n": args.n,
            "workers": args.workers,
            "min_speedup": args.min_speedup,
        },
        metrics={
            "dedup_ratio": report.stats.dedup_ratio,
            "batch_speedup": speedup,
            "serial_seconds": serial_s,
            "batch_seconds": batch_s,
            "passed": float(not failures),
        },
        wall_s=wall,
    )
    return not failures


def _distinct_triples(small: int, mid: int) -> list[tuple[str, str, str]]:
    """``small`` triples of n 12-48 and ``mid`` of n 40-150, sizes spread
    evenly over each range, the mid ones cycling through diverged,
    default and similar families; every triple distinct."""
    from repro.seqio.generate import MutationModel, mutated_family

    models = (
        MutationModel().scaled(2.0),
        MutationModel(),
        MutationModel(substitution=0.03, insertion=0.007, deletion=0.007),
    )
    out = [
        tuple(mutated_family(12 + (36 * i) // max(1, small - 1), seed=900 + i))
        for i in range(small)
    ]
    out += [
        tuple(mutated_family(
            40 + (110 * i) // max(1, mid - 1),
            model=models[i % len(models)],
            seed=1900 + i,
        ))
        for i in range(mid)
    ]
    return out


def _check_distinct(args) -> bool:
    import os

    from repro.batch import AlignmentRequest, BatchScheduler
    from repro.cache import ResultCache
    from repro.core.api import align3
    from repro.seqio.generate import mutated_family
    from repro.util.timing import format_seconds

    triples = _distinct_triples(DISTINCT_SMALL, DISTINCT_MID)
    requests = [AlignmentRequest(seqs=t) for t in triples]
    cpus = os.cpu_count() or 1
    gated = cpus >= 2

    with BatchScheduler() as sched:
        sched.run([tuple(mutated_family(20, seed=s)) for s in (1, 2)])

        def batch_run():
            sched.cache = ResultCache()
            return sched.run(requests)

        serial_s, batch_s, wall, serial_alns, report = _interleaved(
            lambda: [align3(*t) for t in triples], batch_run, args.repeats
        )

    failures: list[str] = []
    if report.stats.computed != len(set(triples)):
        failures.append(
            f"computed {report.stats.computed} jobs, "
            f"expected {len(set(triples))}"
        )
    mismatches = _mismatches(report.results, serial_alns)
    if mismatches:
        failures.append(
            f"{mismatches}/{len(requests)} batch results differ from the "
            "serial align3 loop"
        )
    speedup = serial_s / batch_s if batch_s > 0 else float("inf")
    if gated and speedup < args.min_distinct_speedup:
        failures.append(
            f"distinct batch speedup {speedup:.2f}x < required "
            f"{args.min_distinct_speedup:.2f}x"
        )

    status = "FAIL" if failures else "OK"
    required = (
        f"required {args.min_distinct_speedup:.2f}x" if gated
        else f"not gated: {cpus} CPU"
    )
    print(
        f"{status}: distinct small={DISTINCT_SMALL} "
        f"mid={DISTINCT_MID} on_workers={report.stats.pool_jobs} "
        f"serial={format_seconds(serial_s)} batch={format_seconds(batch_s)} "
        f"speedup={speedup:.2f}x ({required})"
    )
    for f in failures:
        print(f"  - {f}")

    _record(
        args,
        "distinct",
        config={
            "small": DISTINCT_SMALL,
            "mid": DISTINCT_MID,
            "cpus": cpus,
            "min_speedup": args.min_distinct_speedup,
        },
        metrics={
            "batch_speedup": speedup,
            "serial_seconds": serial_s,
            "batch_seconds": batch_s,
            "pool_jobs": float(report.stats.pool_jobs),
            "passed": float(not failures),
        },
        wall_s=wall,
    )
    return not failures


if __name__ == "__main__":
    sys.exit(main())
