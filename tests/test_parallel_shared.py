"""Unit tests for the multiprocess shared-memory executor
(repro.parallel.executor.WavefrontPool) used as a persistent pool."""

import pytest

from repro.core.dp3d import score3_dp3d
from repro.parallel.executor import WavefrontPool, fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def _capacity(*triples):
    return tuple(max(len(t[i]) for t in triples) for i in range(3))


class TestScores:
    @needs_fork
    def test_matches_reference_small(self, dna_scheme, small_triples):
        # One pool serves every triple: the shared buffers are restaged
        # per job, whatever its shape.
        with WavefrontPool(_capacity(*small_triples), workers=2) as pool:
            for triple in small_triples:
                got = pool.score3(*triple, dna_scheme)
                assert got == pytest.approx(
                    score3_dp3d(*triple, dna_scheme)
                ), triple

    @needs_fork
    def test_matches_reference_medium(self, dna_scheme, family_medium):
        with WavefrontPool(_capacity(family_medium), workers=2) as pool:
            got = pool.score3(*family_medium, dna_scheme)
        assert got == pytest.approx(score3_dp3d(*family_medium, dna_scheme))

    @needs_fork
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_worker_counts(self, workers, dna_scheme, family_small):
        with WavefrontPool(_capacity(family_small), workers=workers) as pool:
            got = pool.score3(*family_small, dna_scheme)
        assert got == pytest.approx(score3_dp3d(*family_small, dna_scheme))

    def test_single_worker_serial_path(self, dna_scheme, family_small):
        with WavefrontPool(_capacity(family_small), workers=1) as pool:
            got = pool.score3(*family_small, dna_scheme)
            meta = pool.align3(*family_small, dna_scheme).meta
        assert got == pytest.approx(score3_dp3d(*family_small, dna_scheme))
        assert meta["serial_fallback"] is True

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            WavefrontPool((1, 1, 1), workers=0)

    def test_affine_rejected(self, dna_scheme):
        with WavefrontPool((1, 1, 1), workers=1) as pool:
            with pytest.raises(ValueError, match="linear"):
                pool.score3(
                    "A", "A", "A", dna_scheme.with_gaps(gap=-1, gap_open=-1)
                )


class TestAlignment:
    @needs_fork
    def test_alignment_optimal_and_consistent(self, dna_scheme, family_small):
        with WavefrontPool(_capacity(family_small), workers=2) as pool:
            aln = pool.align3(*family_small, dna_scheme)
        expected = score3_dp3d(*family_small, dna_scheme)
        assert aln.score == pytest.approx(expected)
        assert dna_scheme.sp_score(aln.rows) == pytest.approx(expected)
        assert aln.sequences() == tuple(family_small)
        assert aln.meta["workers"] == 2

    @needs_fork
    def test_empty_inputs(self, dna_scheme):
        with WavefrontPool((0, 0, 0), workers=2) as pool:
            aln = pool.align3("", "", "", dna_scheme)
        assert aln.rows == ("", "", "")

    @needs_fork
    def test_deterministic_across_runs(self, dna_scheme, family_small):
        with WavefrontPool(_capacity(family_small), workers=2) as pool:
            a = pool.align3(*family_small, dna_scheme)
            b = pool.align3(*family_small, dna_scheme)
        assert a.rows == b.rows
        assert a.score == b.score

    @needs_fork
    def test_bit_identical_to_serial_engine(self, dna_scheme, family_small):
        from repro.core.wavefront import align3_wavefront

        with WavefrontPool(_capacity(family_small), workers=2) as pool:
            par = pool.align3(*family_small, dna_scheme)
        ser = align3_wavefront(*family_small, dna_scheme)
        # Same deterministic argmax tie-breaking -> identical alignments.
        assert par.rows == ser.rows
        assert par.meta["cells"] == ser.meta["cells"]
