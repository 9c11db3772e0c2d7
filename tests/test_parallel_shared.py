"""Unit tests for the multiprocess executor
(repro.parallel.executor.WavefrontPool) called directly: every call
forks its workers over job-sized shared buffers."""

import pytest

from repro.core.dp3d import score3_dp3d
from repro.parallel.executor import WavefrontPool, fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


class TestScores:
    @needs_fork
    def test_matches_reference_small(self, dna_scheme, small_triples):
        # One object serves every triple: each call sizes its own
        # buffers, whatever the shape.
        pool = WavefrontPool(workers=2)
        for triple in small_triples:
            got = pool.score3(*triple, dna_scheme)
            assert got == pytest.approx(
                score3_dp3d(*triple, dna_scheme)
            ), triple

    @needs_fork
    def test_matches_reference_medium(self, dna_scheme, family_medium):
        got = WavefrontPool(workers=2).score3(*family_medium, dna_scheme)
        assert got == pytest.approx(score3_dp3d(*family_medium, dna_scheme))

    @needs_fork
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_worker_counts(self, workers, dna_scheme, family_small):
        pool = WavefrontPool(workers=workers)
        got = pool.score3(*family_small, dna_scheme)
        assert got == pytest.approx(score3_dp3d(*family_small, dna_scheme))

    def test_single_worker_serial_path(self, dna_scheme, family_small):
        pool = WavefrontPool(workers=1)
        got = pool.score3(*family_small, dna_scheme)
        meta = pool.align3(*family_small, dna_scheme).meta
        assert got == pytest.approx(score3_dp3d(*family_small, dna_scheme))
        assert meta["serial_fallback"] is True

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            WavefrontPool(workers=0)

    def test_affine_rejected(self, dna_scheme):
        pool = WavefrontPool(workers=1)
        with pytest.raises(ValueError, match="linear"):
            pool.score3(
                "A", "A", "A", dna_scheme.with_gaps(gap=-1, gap_open=-1)
            )


class TestAlignment:
    @needs_fork
    def test_alignment_optimal_and_consistent(self, dna_scheme, family_small):
        aln = WavefrontPool(workers=2).align3(*family_small, dna_scheme)
        expected = score3_dp3d(*family_small, dna_scheme)
        assert aln.score == pytest.approx(expected)
        assert dna_scheme.sp_score(aln.rows) == pytest.approx(expected)
        assert aln.sequences() == tuple(family_small)
        assert aln.meta["workers"] == 2

    @needs_fork
    def test_empty_inputs(self, dna_scheme):
        aln = WavefrontPool(workers=2).align3("", "", "", dna_scheme)
        assert aln.rows == ("", "", "")

    @needs_fork
    def test_deterministic_across_runs(self, dna_scheme, family_small):
        pool = WavefrontPool(workers=2)
        a = pool.align3(*family_small, dna_scheme)
        b = pool.align3(*family_small, dna_scheme)
        assert a.rows == b.rows
        assert a.score == b.score

    @needs_fork
    def test_bit_identical_to_serial_engine(self, dna_scheme, family_small):
        from repro.core.wavefront import align3_wavefront

        par = WavefrontPool(workers=2).align3(*family_small, dna_scheme)
        ser = align3_wavefront(*family_small, dna_scheme)
        # Same deterministic argmax tie-breaking -> identical alignments.
        assert par.rows == ser.rows
        assert par.meta["cells"] == ser.meta["cells"]
