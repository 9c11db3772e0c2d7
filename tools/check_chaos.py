#!/usr/bin/env python
"""Chaos-test the fault-tolerance layer end to end.

Runs a ~40^3 alignment under each injected fault class and asserts the
recovery contract from ``docs/robustness.md``:

* a worker crash in the block-tiled executor (a direct
  ``WavefrontPool`` call and a ``blocks`` run with a pruning tube)
  -> the worker is respawned at its published counter, its blocks
  replayed, and the output is **bit-identical** to the serial engine
  (the tube run to the serial tube-pruned sweep);
* a straggler is tolerated (or killed and replayed) without changing
  the output;
* a batch job worker killed mid-job (``worker_crash@batch``) is reaped
  and respawned, its job reruns once, and the batch finishes with
  results bit-identical to the inline path;
* a simulated OOM walks the degradation ladder and still returns the
  optimal score;
* supervision overhead on the fault-free path stays within
  ``--tolerance`` (default 10%).

Every counter and pipe wait in the engines is bounded, so the whole suite
must finish inside ``--budget`` wall-clock seconds — exceeding it is
itself a failure (it means something waited unsupervised).

Usage::

    PYTHONPATH=src python tools/check_chaos.py [--n 40] [--repeats 3]
        [--tolerance 0.10] [--budget 300]

Exit status 0 when every scenario passes, 1 on any failure (2 on bad
arguments).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
import warnings


def _ensure_importable() -> None:
    try:
        import repro  # noqa: F401
    except ImportError:
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        sys.path.insert(0, str(src))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="assert fault injection recovers to bit-identical output"
    )
    parser.add_argument(
        "--n", type=int, default=40, help="sequence length (cube is ~(n+1)^3)"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repeats per side "
        "for the supervision-overhead check"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="max allowed fractional slowdown with supervision enabled",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=300.0,
        help="wall-clock seconds the whole suite must finish within",
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="skip self-recording the result as a check_chaos run row",
    )
    parser.add_argument(
        "--runs-file",
        default=None,
        metavar="FILE",
        help="run-record store (default: RUNS.jsonl at the repo root)",
    )
    args = parser.parse_args(argv)
    if args.n < 4 or args.repeats < 1 or args.tolerance < 0:
        parser.error("n must be >= 4, repeats >= 1, tolerance >= 0")

    _ensure_importable()

    from repro.core.api import align3
    from repro.core.bounds import carrillo_lipman_tube
    from repro.core.scoring import default_scheme_for
    from repro.core.wavefront import align3_wavefront
    from repro.parallel.blocks import align3_blocks
    from repro.parallel.executor import WavefrontPool
    from repro.resilience import faults
    from repro.seqio.alphabet import DNA
    from repro.seqio.generate import mutated_family
    from repro.util.timing import format_seconds

    t_start = time.perf_counter()
    seqs = mutated_family(args.n, seed=7)
    scheme = default_scheme_for(DNA)
    dmax = sum(len(s) for s in seqs)
    mid = dmax // 2

    ref = align3(*seqs, scheme, method="wavefront")
    failures: list[str] = []

    def scenario(name: str, fn) -> None:
        faults.clear()
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report, don't abort
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            print(f"  FAIL {name}: {exc}")
        else:
            print(
                f"  ok   {name} ({format_seconds(time.perf_counter() - t0)})"
            )
        finally:
            faults.clear()

    print(f"chaos: n={args.n} (planes 0..{dmax}), reference score {ref.score:g}")

    def pool_crash() -> None:
        faults.install(f"worker_crash@blocks:worker=1,plane={mid}")
        aln = WavefrontPool(workers=2).align3(*seqs, scheme)
        assert aln.rows == ref.rows and aln.score == ref.score, (
            "output differs after recovery"
        )
        assert aln.meta["recoveries"] >= 1, "no recovery recorded"

    def blocks_tube_crash() -> None:
        tube, _stats = carrillo_lipman_tube(*seqs, scheme)
        tube_ref = align3_wavefront(*seqs, scheme, tube=tube)
        faults.install(f"worker_crash@blocks:worker=1,plane={mid}")
        aln = align3_blocks(*seqs, scheme, workers=2, tube=tube)
        assert aln.rows == tube_ref.rows and aln.score == tube_ref.score, (
            "output differs from the serial tube sweep after recovery"
        )
        assert aln.meta["recoveries"] >= 1, "no recovery recorded"

    def blocks_straggler() -> None:
        faults.install(f"straggler@blocks:worker=1,delay=0.2,plane={mid}")
        aln = align3_blocks(*seqs, scheme, workers=2)
        assert aln.rows == ref.rows and aln.score == ref.score, (
            "output differs under a straggler"
        )

    def batch_job_crash() -> None:
        from repro.batch import AlignmentRequest, BatchScheduler

        reqs = [
            AlignmentRequest(seqs=tuple(mutated_family(m, seed=30 + m)))
            for m in (args.n // 2, args.n, args.n + 3, args.n // 2 + 1)
        ]
        with BatchScheduler(workers=1) as sched:
            want = sched.run(reqs).results
        faults.install("worker_crash@batch:worker=1")
        with BatchScheduler(workers=2) as sched:
            report = sched.run(reqs)
        assert report.stats.job_respawns == 1, "no respawn recorded"
        assert report.stats.pool_jobs == len(reqs), "jobs did not fan out"
        for got, ref in zip(report.results, want):
            assert (
                got.alignment.rows == ref.alignment.rows
                and got.alignment.score == ref.alignment.score
            ), "batch output differs after the rerun"

    def oom_degrade() -> None:
        from repro.resilience.degrade import estimate_bytes

        dims = tuple(len(s) for s in seqs)
        budget = estimate_bytes("wavefront", dims) - 1
        faults.install(f"oom:budget={budget}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            aln = align3(*seqs, scheme, method="wavefront")
        assert aln.score == ref.score, "degraded run lost optimality"
        assert "degraded_from" in aln.meta, "run did not degrade"

    scenario("pool worker_crash -> respawn + block replay", pool_crash)
    scenario(
        "blocks worker_crash with tube -> replay, bit-identical",
        blocks_tube_crash,
    )
    scenario("blocks straggler tolerated", blocks_straggler)
    scenario(
        "batch job worker_crash -> respawn + rerun, bit-identical",
        batch_job_crash,
    )
    scenario("oom -> degradation ladder, optimal score", oom_degrade)

    # Supervision overhead on the fault-free path, interleaved so drift
    # hits both sides equally; minimum-of-repeats suppresses noise.
    faults.clear()
    sup_times: list[float] = []
    base_times: list[float] = []
    sup_pool = WavefrontPool(workers=2, supervise=True)
    base_pool = WavefrontPool(workers=2, supervise=False)
    sup_pool.align3(*seqs, scheme)  # warmup
    base_pool.align3(*seqs, scheme)
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        base_aln = base_pool.align3(*seqs, scheme)
        base_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        sup_aln = sup_pool.align3(*seqs, scheme)
        sup_times.append(time.perf_counter() - t0)
    base_s, sup_s = min(base_times), min(sup_times)
    if sup_aln.rows != base_aln.rows or sup_aln.score != base_aln.score:
        failures.append("supervision changed the alignment output")
    overhead = sup_s / base_s - 1.0 if base_s > 0 else 0.0
    status = "ok  " if overhead <= args.tolerance else "FAIL"
    line = (
        f"  {status} supervision overhead: unsupervised="
        f"{format_seconds(base_s)} supervised={format_seconds(sup_s)} "
        f"overhead={overhead:+.1%} (tolerance {args.tolerance:.0%})"
    )
    print(line)
    if overhead > args.tolerance:
        failures.append(f"supervision overhead {overhead:+.1%}")

    elapsed = time.perf_counter() - t_start
    if elapsed > args.budget:
        failures.append(
            f"wall clock {elapsed:.0f}s exceeded budget {args.budget:.0f}s"
        )
    verdict = "OK" if not failures else "FAIL"
    print(
        f"{verdict}: {len(failures)} failure(s), total "
        f"{format_seconds(elapsed)}"
    )

    from repro.runs import record_run

    record_run(
        "check_chaos",
        config={
            "n": args.n,
            "repeats": args.repeats,
            "tolerance": args.tolerance,
            "budget": args.budget,
        },
        metrics={
            "supervision_overhead_frac": overhead,
            "failures": float(len(failures)),
            "passed": float(not failures),
        },
        wall_s=elapsed,
        runs_file=args.runs_file,
        enabled=not args.no_record,
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
