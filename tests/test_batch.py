"""Unit tests for the batch scheduler and request IO (repro.batch)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    AlignmentRequest,
    BatchScheduler,
    read_requests,
    requests_from_fasta,
    requests_from_jsonl,
    run_batch,
)
from repro.cache import ResultCache, comparable_meta
from repro.core.api import align3
from repro.parallel.executor import fork_available
from repro.seqio.fasta import write_fasta

T1 = ("GATTACA", "GATCA", "GTTACA")
T2 = ("ACGTAC", "ACTAC", "AGTAC")
T1_PERM = (T1[1], T1[0], T1[2])
T3 = ("TTGACCA", "TGACA", "TTGCCA")


class TestScheduling:
    def test_results_in_request_order_with_rids(self, dna_scheme):
        reqs = [
            AlignmentRequest(seqs=T1, scheme=dna_scheme, rid="one"),
            AlignmentRequest(seqs=T2, scheme=dna_scheme, rid="two"),
            AlignmentRequest(seqs=T1, scheme=dna_scheme, rid="three"),
        ]
        report = run_batch(reqs, workers=1)
        assert [r.rid for r in report.results] == ["one", "two", "three"]
        assert [r.index for r in report.results] == [0, 1, 2]

    def test_exact_dedup(self, dna_scheme):
        report = run_batch([T1, T1, T1, T2], workers=1)
        assert report.stats.requests == 4
        assert report.stats.computed == 2
        assert report.stats.dedup_hits == 2
        assert report.stats.dedup_ratio == 0.5
        sources = [r.source for r in report.results]
        assert sources == ["computed", "dedup", "dedup", "computed"]
        # duplicates share the score but own their alignment objects
        assert report.results[0].alignment.score == report.results[1].alignment.score
        assert report.results[0].alignment is not report.results[1].alignment

    def test_batch_matches_serial_align3(self, dna_scheme):
        serial = [align3(*t, dna_scheme) for t in (T1, T2)]
        report = run_batch(
            [AlignmentRequest(seqs=t, scheme=dna_scheme) for t in (T1, T2)],
            workers=1,
        )
        for got, want in zip(report.alignments(), serial):
            assert got.rows == want.rows
            assert got.score == want.score

    def test_permutation_reuse_within_batch(self, dna_scheme):
        report = run_batch(
            [
                AlignmentRequest(seqs=T1, scheme=dna_scheme),
                AlignmentRequest(seqs=T1_PERM, scheme=dna_scheme),
            ],
            workers=1,
        )
        assert report.stats.computed == 1
        assert report.stats.permutation_hits == 1
        perm_res = report.results[1]
        assert perm_res.source == "permutation"
        # score-identical by SP symmetry; rows belong to the right seqs
        assert perm_res.alignment.score == report.results[0].alignment.score
        assert perm_res.alignment.sequences() == T1_PERM
        assert perm_res.alignment.meta["permuted_from"] is not None
        assert dna_scheme.sp_score(perm_res.alignment.rows) == pytest.approx(
            perm_res.alignment.score
        )

    def test_cross_batch_memory_reuse(self, dna_scheme):
        cache = ResultCache()
        with BatchScheduler(cache=cache, workers=1) as sched:
            cold = sched.run([AlignmentRequest(seqs=T1, scheme=dna_scheme)])
            warm = sched.run([AlignmentRequest(seqs=T1, scheme=dna_scheme)])
        assert cold.results[0].source == "computed"
        assert warm.results[0].source == "memory_hit"
        assert warm.stats.memory_hits == 1
        # the bit-identity contract for exact hits
        a, b = cold.results[0].alignment, warm.results[0].alignment
        assert a.rows == b.rows
        assert a.score == b.score
        assert comparable_meta(a.meta) == comparable_meta(b.meta)

    def test_cross_batch_permutation_reuse(self, dna_scheme):
        cache = ResultCache()
        with BatchScheduler(cache=cache, workers=1) as sched:
            sched.run([AlignmentRequest(seqs=T1, scheme=dna_scheme)])
            warm = sched.run(
                [AlignmentRequest(seqs=T1_PERM, scheme=dna_scheme)]
            )
        res = warm.results[0]
        assert res.source == "permutation"
        assert res.alignment.sequences() == T1_PERM

    def test_disk_tier_across_schedulers(self, dna_scheme, tmp_path):
        with BatchScheduler(
            cache=ResultCache(cache_dir=tmp_path), workers=1
        ) as sched:
            cold = sched.run([AlignmentRequest(seqs=T1, scheme=dna_scheme)])
        with BatchScheduler(
            cache=ResultCache(cache_dir=tmp_path), workers=1
        ) as sched:
            warm = sched.run([AlignmentRequest(seqs=T1, scheme=dna_scheme)])
        assert warm.results[0].source == "disk_hit"
        assert warm.stats.disk_hits == 1
        a, b = cold.results[0].alignment, warm.results[0].alignment
        assert a.rows == b.rows
        assert a.score == b.score
        assert comparable_meta(a.meta) == comparable_meta(b.meta)

    def test_pool_path_matches_align3(self, dna_scheme):
        # Two or more computes with workers >= 2 go out whole to the job
        # workers; every one must match its per-request align3 exactly.
        report = run_batch(
            [AlignmentRequest(seqs=t, scheme=dna_scheme) for t in (T1, T2)],
            workers=2,
        )
        assert report.stats.pool_jobs == (2 if fork_available() else 0)
        for t, res in zip((T1, T2), report.results):
            want = align3(*t, dna_scheme)
            got = res.alignment
            assert got.rows == want.rows
            assert got.score == want.score
            assert got.meta["method"] == want.meta["method"]
            assert got.meta["auto"] == want.meta["auto"]

    def test_degenerate_seqs_bypass_pool(self, dna_scheme):
        # A lone compute runs inline even with workers=2: no job worker
        # is spawned for it.
        with BatchScheduler(workers=2) as sched:
            report = sched.run(
                [AlignmentRequest(seqs=("", "AC", "GT"), scheme=dna_scheme)]
            )
            assert sched._jobs is None
        assert report.stats.pool_jobs == 0
        assert report.stats.computed == 1
        assert report.results[0].alignment.score == align3(
            "", "AC", "GT", dna_scheme
        ).score

    def test_affine_and_serial_methods_bypass_pool(
        self, dna_scheme, affine_dna_scheme, monkeypatch
    ):
        # No batch request is split over a WavefrontPool any more: affine
        # schemes and explicit serial engines run whole, each on its own
        # engine, on the job workers.
        from repro.parallel.executor import WavefrontPool

        def no_pool(*_a, **_k):
            raise AssertionError("the batch built a WavefrontPool")

        monkeypatch.setattr(WavefrontPool, "__init__", no_pool)
        report = run_batch(
            [
                AlignmentRequest(seqs=T1, scheme=affine_dna_scheme),
                AlignmentRequest(seqs=T1, scheme=dna_scheme, method="dp3d"),
            ],
            workers=2,
        )
        assert report.stats.pool_jobs == (2 if fork_available() else 0)
        assert report.stats.computed == 2
        got = [r.alignment for r in report.results]
        assert got[0].meta["method"] == "affine"
        assert got[1].meta["method"] == "dp3d"
        for aln, scheme, method in (
            (got[0], affine_dna_scheme, "affine"),
            (got[1], dna_scheme, "dp3d"),
        ):
            want = align3(*T1, scheme, method=method)
            assert aln.rows == want.rows
            assert aln.score == want.score

    @pytest.mark.parametrize("mode", ["local", "semiglobal"])
    def test_modes_dispatch(self, mode, dna_scheme):
        report = run_batch(
            [AlignmentRequest(seqs=T1, scheme=dna_scheme, mode=mode)],
            workers=1,
        )
        if mode == "local":
            from repro.core.local import align3_local as ref
        else:
            from repro.core.semiglobal import align3_semiglobal as ref
        want = ref(*T1, dna_scheme)
        got = report.results[0].alignment
        assert got.score == want.score
        assert got.rows == want.rows
        assert got.meta["mode"] == mode

    def test_modes_keyed_separately(self, dna_scheme):
        cache = ResultCache()
        with BatchScheduler(cache=cache, workers=1) as sched:
            report = sched.run(
                [
                    AlignmentRequest(seqs=T1, scheme=dna_scheme, mode=m)
                    for m in ("global", "local", "semiglobal")
                ]
            )
        assert report.stats.computed == 3

    def test_plain_tuples_accepted(self):
        report = run_batch([T1, T1], workers=1)
        assert report.stats.computed == 1
        assert report.stats.dedup_hits == 1

    def test_bad_requests_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="three sequences"):
            run_batch([("A", "C")], workers=1)
        with pytest.raises(ValueError, match="unknown mode"):
            run_batch([AlignmentRequest(seqs=T1, mode="sideways")], workers=1)
        with pytest.raises(ValueError, match="unknown method"):
            run_batch([AlignmentRequest(seqs=T1, method="magic")], workers=1)
        # Engines folded into the block-tiled pool are unknown names now.
        for removed in ("shared", "threads"):
            with pytest.raises(ValueError, match=f"unknown method '{removed}'"):
                run_batch(
                    [AlignmentRequest(seqs=T1, method=removed)], workers=1
                )
        with pytest.raises(ValueError, match="single engine"):
            run_batch(
                [AlignmentRequest(seqs=T1, mode="local", method="dp3d")],
                workers=1,
            )
        with pytest.raises(ValueError):
            BatchScheduler(workers=0)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_pool_reused_and_grown_across_batches(self, dna_scheme):
        # Job workers spawn once, serve every later batch, and are gone
        # after close().
        def reqs(*triples):
            return [AlignmentRequest(seqs=t, scheme=dna_scheme) for t in triples]

        with BatchScheduler(workers=2) as sched:
            sched.run(reqs(T1, T2))
            jobs = sched._jobs
            procs = [slot.proc for slot in jobs._slots.values()]
            pids = jobs.pids()
            assert len(pids) == 2
            again = sched.run(reqs(T3, T1_PERM))
            assert again.stats.pool_jobs == 2
            assert again.stats.pool_setup_s == 0.0
            assert sched._jobs is jobs and jobs.pids() == pids
            # a lone compute runs inline and leaves the workers idle
            lone = sched.run(reqs(("ACGTT", "AGT", "ACT")))
            assert lone.stats.pool_jobs == 0
            assert jobs.pids() == pids
        assert sched._jobs is None  # closed by the context manager
        assert not any(p.is_alive() for p in procs)

    def test_empty_batch(self):
        report = run_batch([], workers=1)
        assert report.results == []
        assert report.stats.requests == 0
        assert report.stats.dedup_ratio == 0.0


class TestRequestIO:
    def test_jsonl_both_schemas(self, tmp_path):
        path = tmp_path / "reqs.jsonl"
        path.write_text(
            "\n".join(
                [
                    json.dumps({"seqs": list(T1), "id": "x"}),
                    "# comment",
                    "",
                    json.dumps({"a": T2[0], "b": T2[1], "c": T2[2]}),
                    json.dumps({"seqs": list(T1), "mode": "local"}),
                ]
            )
            + "\n"
        )
        reqs = requests_from_jsonl(path)
        assert [r.seqs for r in reqs] == [T1, T2, T1]
        assert reqs[0].rid == "x"
        assert reqs[1].rid == "req4"  # line number, comments counted
        assert reqs[2].mode == "local"

    def test_jsonl_errors(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            requests_from_jsonl(bad)
        bad.write_text('{"seqs": ["A", "C"]}\n')
        with pytest.raises(ValueError, match="three strings"):
            requests_from_jsonl(bad)
        bad.write_text('{"x": 1}\n')
        with pytest.raises(ValueError, match="needs 'seqs'"):
            requests_from_jsonl(bad)

    def test_fasta_triples(self, tmp_path):
        path = tmp_path / "six.fasta"
        write_fasta(
            path,
            [(f"t{i // 3} member{i % 3}", s) for i, s in enumerate(T1 + T2)],
        )
        reqs = requests_from_fasta(path)
        assert [r.seqs for r in reqs] == [T1, T2]
        assert reqs[0].rid == "t0"

    def test_fasta_wrong_count(self, tmp_path):
        path = tmp_path / "four.fasta"
        write_fasta(path, [(f"s{i}", "ACGT") for i in range(4)])
        with pytest.raises(ValueError, match="multiple of three"):
            requests_from_fasta(path)

    def test_read_requests_dispatch(self, tmp_path):
        jpath = tmp_path / "r.jsonl"
        jpath.write_text(json.dumps({"seqs": list(T1)}) + "\n")
        fpath = tmp_path / "r.fasta"
        write_fasta(fpath, [(f"s{i}", s) for i, s in enumerate(T1)])
        assert read_requests(jpath)[0].seqs == T1
        assert read_requests(fpath)[0].seqs == T1

    def test_read_requests_cli_defaults(self, tmp_path):
        jpath = tmp_path / "r.jsonl"
        jpath.write_text(
            json.dumps({"seqs": list(T1)})
            + "\n"
            + json.dumps({"seqs": list(T2), "mode": "local"})
            + "\n"
        )
        reqs = read_requests(jpath, mode="semiglobal")
        # CLI default applies where the line didn't say otherwise
        assert reqs[0].mode == "semiglobal"
        assert reqs[1].mode == "local"


class TestStreaming:
    """run(on_result=...) / run_stream: results emitted as they land."""

    def test_on_result_sees_every_result_with_alignment(self, dna_scheme):
        reqs = [
            AlignmentRequest(seqs=t, scheme=dna_scheme)
            for t in (T1, T1, T2, T1_PERM)
        ]
        seen = []
        with BatchScheduler(cache=ResultCache(), workers=1) as sched:
            report = sched.run(reqs, on_result=seen.append)
        assert sorted(r.index for r in seen) == [0, 1, 2, 3]
        assert all(r.alignment is not None for r in seen)
        # plain run() with a callback still returns intact results
        assert all(r.alignment is not None for r in report.results)
        assert len({id(r) for r in seen}) == 4  # each emitted exactly once

    def test_run_stream_releases_alignments_after_emit(self, dna_scheme):
        serial = {t: align3(*t, dna_scheme) for t in (T1, T2)}
        reqs = [
            AlignmentRequest(seqs=t, scheme=dna_scheme, rid=f"r{i}")
            for i, t in enumerate((T1, T2, T1))
        ]
        emitted = {}
        def emit(res):
            # the alignment is only valid during the callback
            assert res.alignment is not None
            emitted[res.rid] = (
                res.alignment.rows, res.alignment.score, res.source
            )
        with BatchScheduler(cache=ResultCache(), workers=1) as sched:
            report = sched.run_stream(reqs, emit)
        assert set(emitted) == {"r0", "r1", "r2"}
        for i, t in enumerate((T1, T2, T1)):
            rows, score, _source = emitted[f"r{i}"]
            assert rows == serial[t].rows
            assert score == serial[t].score
        # after the run every alignment has been released
        assert all(r.alignment is None for r in report.results)
        assert report.stats.computed == 2
        assert report.stats.dedup_hits == 1

    def test_run_stream_and_buffered_run_agree_on_stats(self, dna_scheme):
        reqs = [
            AlignmentRequest(seqs=t, scheme=dna_scheme)
            for t in (T1, T2, T1, T1_PERM, T2)
        ]
        with BatchScheduler(cache=ResultCache(), workers=1) as sched:
            buffered = sched.run(reqs)
        count = 0
        def emit(_res):
            nonlocal count
            count += 1
        with BatchScheduler(cache=ResultCache(), workers=1) as sched:
            streamed = sched.run_stream(reqs, emit)
        assert count == len(reqs)
        assert streamed.stats.computed == buffered.stats.computed
        assert streamed.stats.dedup_hits == buffered.stats.dedup_hits
        assert (
            streamed.stats.permutation_hits
            == buffered.stats.permutation_hits
        )
        sources_s = [r.source for r in streamed.results]
        sources_b = [r.source for r in buffered.results]
        assert sources_s == sources_b

    def test_run_without_callback_unchanged(self, dna_scheme):
        report = run_batch([T1, T2], workers=1)
        assert all(r.alignment is not None for r in report.results)


def _seqs(min_size=1, max_size=12):
    return st.text(alphabet="ACGT", min_size=min_size, max_size=max_size)


def _reference(req, scheme):
    """Per-request ``align3`` (or the mode's engine) for one request."""
    if req.mode == "local":
        from repro.core.local import align3_local

        return align3_local(*req.seqs, scheme)
    if req.mode == "semiglobal":
        from repro.core.semiglobal import align3_semiglobal

        return align3_semiglobal(*req.seqs, scheme)
    return align3(
        *req.seqs, scheme, method=req.method, constraints=req.constraints
    )


class TestJobWorkers:
    """Stage 3: whole requests on forked job workers, lone ones inline."""

    @settings(max_examples=6, deadline=None)
    @given(triples=st.lists(
        st.tuples(_seqs(2), _seqs(2), _seqs(2)), min_size=9, max_size=9,
    ))
    def test_mixed_batch_matches_align3_and_inline(self, triples):
        from repro.core.scoring import default_scheme_for
        from repro.seqio.alphabet import DNA

        dna = default_scheme_for(DNA)
        affine = dna.with_gaps(gap=-4.0, gap_open=-10.0)
        t = triples
        reqs = [
            AlignmentRequest(seqs=t[0], scheme=dna),
            AlignmentRequest(seqs=t[1], scheme=dna, method="pruned"),
            AlignmentRequest(seqs=t[2], scheme=dna, method="banded"),
            AlignmentRequest(seqs=t[3], scheme=dna, method="dp3d"),
            AlignmentRequest(seqs=t[4], scheme=affine),
            AlignmentRequest(seqs=t[5], scheme=dna, mode="local"),
            AlignmentRequest(seqs=t[6], scheme=dna, mode="semiglobal"),
            AlignmentRequest(
                seqs=t[7], scheme=dna, constraints=((1, 1, 1, 1),)
            ),
            AlignmentRequest(seqs=t[8], scheme=dna, method="anchored"),
            AlignmentRequest(seqs=t[0], scheme=dna),  # duplicate
            AlignmentRequest(seqs=t[3], scheme=dna, method="dp3d"),
            AlignmentRequest(  # permutation
                seqs=(t[0][2], t[0][0], t[0][1]), scheme=dna
            ),
            AlignmentRequest(  # permutation of an affine request
                seqs=(t[4][1], t[4][0], t[4][2]), scheme=affine
            ),
        ]

        def serve(workers):
            seen = []
            with BatchScheduler(workers=workers) as sched:
                report = sched.run(reqs, on_result=seen.append)
            assert sorted(r.index for r in seen) == list(range(len(reqs)))
            return report

        fanned, inline = serve(2), serve(1)
        assert inline.stats.pool_jobs == 0
        assert fanned.stats.pool_jobs == (
            fanned.stats.computed if fork_available() else 0
        )
        for req, got, ref in zip(reqs, fanned.results, inline.results):
            assert got.source == ref.source
            assert got.alignment.rows == ref.alignment.rows
            assert got.alignment.score == ref.alignment.score
            want = _reference(req, req.scheme)
            assert got.alignment.score == want.score
            if got.source != "permutation":
                # permutation-derived rows may break ties differently
                assert got.alignment.rows == want.rows

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_more_workers_than_cores_serve_every_request(self, dna_scheme):
        import os

        workers = (os.cpu_count() or 1) + 2
        triples = [
            (
                "ACGT"[i % 4] * (3 + i % 5),
                "GATTACA"[: 2 + i % 6],
                "TGCA" * (1 + i % 3),
            )
            for i in range(40)
        ]
        reqs = [AlignmentRequest(seqs=t, scheme=dna_scheme) for t in triples]
        seen = []
        with BatchScheduler(workers=workers) as sched:
            report = sched.run(reqs, on_result=seen.append)
        assert sorted(r.index for r in seen) == list(range(len(reqs)))
        inline = run_batch(reqs, workers=1)
        assert report.stats.pool_jobs == report.stats.computed
        for got, want in zip(report.results, inline.results):
            assert got.source == want.source
            assert got.alignment.rows == want.alignment.rows
            assert got.alignment.score == want.alignment.score

    def test_select_method_once_per_distinct_request(
        self, dna_scheme, affine_dna_scheme, monkeypatch
    ):
        import repro.batch.scheduler as scheduler_mod
        import repro.core.api as api

        calls = []
        real = api.select_method

        def counting(*args, **kwargs):
            calls.append(args[:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(api, "select_method", counting)
        monkeypatch.setattr(scheduler_mod, "select_method", counting)
        reqs = [
            AlignmentRequest(seqs=T1, scheme=dna_scheme),
            AlignmentRequest(seqs=T1, scheme=dna_scheme),  # duplicate
            AlignmentRequest(seqs=T2, scheme=dna_scheme),
            AlignmentRequest(seqs=T1_PERM, scheme=dna_scheme),
            AlignmentRequest(seqs=T2, scheme=dna_scheme),  # duplicate
            AlignmentRequest(seqs=T1, scheme=affine_dna_scheme),
            AlignmentRequest(seqs=T2, scheme=dna_scheme, mode="local"),
            AlignmentRequest(seqs=T3, scheme=dna_scheme, method="dp3d"),
        ]
        distinct_auto = 3  # T1, T2, T1_PERM
        # Inline, every call is visible: the engines never re-resolve.
        report = run_batch(reqs, workers=1)
        assert len(calls) == distinct_auto
        assert "reason" in report.results[0].alignment.meta["auto"]
        # Fanned out, this process resolves each distinct request once.
        calls.clear()
        report = run_batch(reqs, workers=2)
        assert len(calls) == distinct_auto
        for res in report.results[:5]:
            assert "auto" in res.alignment.meta

    def test_parent_records_every_job(self, dna_scheme):
        from repro.obs import metrics

        reqs = [
            AlignmentRequest(seqs=t, scheme=dna_scheme) for t in (T1, T2, T3)
        ]
        with metrics.collect() as reg:
            report = run_batch(reqs, workers=2)
        counters = reg.snapshot()["counters"]
        assert counters["batch_jobs"] == 3
        assert counters["batch_jobs_wavefront"] == 3
        assert counters["batch_job_cells"] == sum(
            r.alignment.meta["cells"] for r in report.results
        )
        assert counters.get("pool_jobs", 0) == report.stats.pool_jobs

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_job_exception_keeps_its_type(self, dna_scheme, monkeypatch):
        import repro.batch.scheduler as scheduler_mod
        from repro.resilience.errors import DegradedRun

        real = scheduler_mod.align3

        def failing(*seqs, **kwargs):
            if tuple(seqs[:3]) == T2:
                raise DegradedRun("no engine fits", plan=None)
            return real(*seqs, **kwargs)

        monkeypatch.setattr(scheduler_mod, "align3", failing)
        reqs = [
            AlignmentRequest(seqs=t, scheme=dna_scheme) for t in (T1, T2, T3)
        ]
        for workers in (1, 2):
            with pytest.raises(DegradedRun, match="no engine fits"):
                run_batch(reqs, workers=workers)
        with BatchScheduler(workers=2) as sched:
            with pytest.raises(DegradedRun):
                sched.run(reqs)
            # the scheduler stays usable after a failed batch
            ok = sched.run(reqs[:1] + reqs[2:])
            assert ok.stats.pool_jobs == 2

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_close_is_bounded_with_a_job_in_flight(
        self, dna_scheme, monkeypatch
    ):
        import threading
        import time

        import repro.batch.scheduler as scheduler_mod

        real = scheduler_mod.align3

        def slow(*seqs, **kwargs):
            if tuple(seqs[:3]) == T2:
                time.sleep(60)
            return real(*seqs, **kwargs)

        monkeypatch.setattr(scheduler_mod, "align3", slow)
        sched = BatchScheduler(workers=2)
        first = threading.Event()
        outcome = []

        def run():
            try:
                sched.run(
                    [AlignmentRequest(seqs=t, scheme=dna_scheme)
                     for t in (T1, T2)],
                    on_result=lambda _r: first.set(),
                )
            except BaseException as exc:  # noqa: BLE001 - recorded
                outcome.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        assert first.wait(30), "the fast job never completed"
        old = sched._jobs.pids()
        t0 = time.perf_counter()
        sched.close()
        assert time.perf_counter() - t0 < 10
        thread.join(10)
        assert not thread.is_alive()
        assert outcome and isinstance(outcome[0], RuntimeError)
        monkeypatch.setattr(scheduler_mod, "align3", real)
        # the next run spawns fresh workers
        report = sched.run(
            [AlignmentRequest(seqs=t, scheme=dna_scheme) for t in (T1, T3)]
        )
        assert report.stats.pool_jobs == 2
        assert set(sched._jobs.pids()).isdisjoint(old)
        sched.close()

    @pytest.mark.chaos
    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_worker_crash_reruns_job_once(self, dna_scheme):
        from repro.resilience import faults

        reqs = [
            AlignmentRequest(seqs=t, scheme=dna_scheme)
            for t in (T1, T2, T3, T1_PERM)
        ]
        want = run_batch(reqs, workers=1)
        faults.install("worker_crash@batch:worker=1")
        try:
            with BatchScheduler(workers=2) as sched:
                got = sched.run(reqs)
                assert got.stats.job_respawns == 1
                assert sched._jobs.failures[0].worker == 1
        finally:
            faults.clear()
        for a, b in zip(got.results, want.results):
            assert a.alignment.rows == b.alignment.rows
            assert a.alignment.score == b.alignment.score
