"""Unit tests for the per-call worker executor (repro.parallel.executor)."""

import ast
import multiprocessing as mp
import pathlib

import pytest

from repro.core.dp3d import score3_dp3d
from repro.core.wavefront import align3_wavefront
from repro.parallel.executor import WavefrontPool
from repro.parallel.executor import fork_available
from repro.resilience import faults
from repro.resilience.errors import WorkerFailure
from repro.resilience.supervise import SupervisionPolicy

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(scope="module")
def pool():
    return WavefrontPool(workers=2)


class TestPoolCorrectness:
    @needs_fork
    def test_scores_match_reference(self, pool, dna_scheme, small_triples):
        for triple in small_triples:
            got = pool.score3(*triple, dna_scheme)
            assert got == pytest.approx(score3_dp3d(*triple, dna_scheme)), triple

    @needs_fork
    def test_alignments_bit_identical_to_serial(
        self, pool, dna_scheme, family_small
    ):
        a = pool.align3(*family_small, dna_scheme)
        b = align3_wavefront(*family_small, dna_scheme)
        assert a.rows == b.rows
        assert a.score == b.score

    @needs_fork
    def test_many_jobs_reuse_buffers(self, pool, dna_scheme):
        from repro.seqio.generate import mutated_family

        # Successive calls on one object with interleaved sizes: each
        # call must size and initialise its own buffers.
        for n in (25, 5, 18, 1, 25, 12):
            fam = mutated_family(n, seed=n)
            got = pool.score3(*fam, dna_scheme)
            assert got == pytest.approx(score3_dp3d(*fam, dna_scheme)), n

    @needs_fork
    def test_empty_sequences(self, pool, dna_scheme):
        assert pool.score3("", "", "", dna_scheme) == 0.0
        aln = pool.align3("ACGT", "", "", dna_scheme)
        assert aln.sequences() == ("ACGT", "", "")

    @needs_fork
    def test_scheme_change_between_jobs(self, pool, dna_scheme, family_small):
        loose = dna_scheme.with_gaps(gap=-1.0)
        got_default = pool.score3(*family_small, dna_scheme)
        got_loose = pool.score3(*family_small, loose)
        assert got_loose == pytest.approx(score3_dp3d(*family_small, loose))
        assert got_default == pytest.approx(
            score3_dp3d(*family_small, dna_scheme)
        )
        assert got_loose >= got_default  # cheaper gaps never score lower


class TestPoolGuards:
    def test_capacity_enforced(self, pool, dna_scheme):
        # There is no capacity any more: the argument is gone and every
        # call sizes its buffers to the job, however large.
        with pytest.raises(TypeError):
            WavefrontPool(capacity=(30, 30, 30))
        got = pool.score3("A" * 40, "A", "A", dna_scheme)
        assert got == score3_dp3d("A" * 40, "A", "A", dna_scheme)

    def test_affine_rejected(self, pool, dna_scheme):
        with pytest.raises(ValueError, match="linear"):
            pool.score3("A", "A", "A", dna_scheme.with_gaps(gap=-1, gap_open=-1))

    @needs_fork
    def test_closed_pool_rejects_jobs(self, dna_scheme, family_small):
        # Nothing is closed or poisoned: a call after a call that raised
        # WorkerFailure runs normally on the same object.
        policy = SupervisionPolicy(barrier_timeout=0.05, max_respawns=0)
        p = WavefrontPool(workers=2, policy=policy)
        assert not hasattr(p, "close")
        faults.install("worker_crash@blocks:worker=1,plane=5")
        try:
            with pytest.raises(WorkerFailure):
                p.score3(*family_small, dna_scheme)
        finally:
            faults.clear()
        got = p.score3(*family_small, dna_scheme)
        assert got == score3_dp3d(*family_small, dna_scheme)

    @needs_fork
    def test_double_close_is_idempotent(self, dna_scheme, family_small):
        # Nothing to close: every call joins its own workers, so two
        # calls in a row leave no child process behind.
        before = set(mp.active_children())
        p = WavefrontPool(workers=2)
        p.score3(*family_small, dna_scheme)
        p.align3(*family_small, dna_scheme)
        assert set(mp.active_children()) <= before
        for name in ("close", "__enter__", "__exit__"):
            assert not hasattr(p, name)

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            WavefrontPool(workers=0)

    def test_negative_capacity_rejected(self):
        # The positional capacity is gone (TypeError); the band that
        # remains is validated.
        with pytest.raises(TypeError):
            WavefrontPool((-1, 5, 5), workers=1)
        with pytest.raises(ValueError):
            WavefrontPool(workers=1, band=0)


class TestSerialFallback:
    def test_single_worker_pool(self, dna_scheme, family_small):
        p = WavefrontPool(workers=1)
        got = p.score3(*family_small, dna_scheme)
        assert got == pytest.approx(score3_dp3d(*family_small, dna_scheme))
        aln = p.align3(*family_small, dna_scheme)
        assert aln.meta["serial_fallback"] is True


#: The only modules allowed to start OS processes: the sweep executor and
#: the batch scheduler's job workers.
PROCESS_SPAWNERS = {"parallel/executor.py", "batch/jobs.py"}


class TestOneProcessExecutor:
    def test_only_executor_and_job_workers_start_processes(self):
        pkg = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        found = []
        for path in sorted(pkg.rglob("*.py")):
            rel = path.relative_to(pkg).as_posix()
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(
                    fn, "id", None
                )
                if name == "Process":
                    found.append((rel, node.lineno))
        assert found, "scan found no Process() call at all"
        stray = [f"{rel}:{line}" for rel, line in found
                 if rel not in PROCESS_SPAWNERS]
        assert not stray, f"Process() outside {sorted(PROCESS_SPAWNERS)}: {stray}"
