"""Tests for the block-tiled multiprocess wavefront engine
(repro.parallel.blocks, one WavefrontPool call): bit-identity against
the serial oracle across worker counts and band depths, pruning-tube
composition, degenerate shapes and validation."""

import numpy as np
import pytest

from repro.core.bounds import carrillo_lipman_tube
from repro.core.dp3d import align3_dp3d, score3_dp3d
from repro.core.scoring import ScoringScheme
from repro.core.wavefront import align3_wavefront, wavefront_sweep
from repro.parallel.blocks import align3_blocks, score3_blocks
from repro.parallel.executor import fork_available
from repro.seqio.alphabet import DNA

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


class TestScoreIdentity:
    @needs_fork
    @pytest.mark.parametrize("workers", [2, 3, 4, 5])
    def test_matches_dp3d(self, dna_scheme, family_small, workers):
        ref = score3_dp3d(*family_small, dna_scheme)
        got = score3_blocks(*family_small, dna_scheme, workers=workers)
        assert got == ref  # bit-identical, not approx
        sweep = wavefront_sweep(*family_small, dna_scheme, score_only=True)
        meta = align3_blocks(*family_small, dna_scheme, workers=workers).meta
        assert meta["active_workers"] == workers
        assert meta["cells"] == sweep.cells_computed

    @needs_fork
    def test_matches_reference_small(self, dna_scheme, small_triples):
        for triple in small_triples:
            got = score3_blocks(*triple, dna_scheme, workers=2)
            assert got == score3_dp3d(*triple, dna_scheme), triple

    @needs_fork
    def test_matches_reference_medium(self, dna_scheme, family_medium):
        got = score3_blocks(*family_medium, dna_scheme, workers=2)
        assert got == score3_dp3d(*family_medium, dna_scheme)

    @needs_fork
    def test_more_workers_than_rows(self, dna_scheme, family_small):
        # workers > n1 + 1: the slab split must shrink to the row count
        # rather than spawn idle workers (or worse, empty slabs).
        ref = score3_dp3d(*family_small, dna_scheme)
        got = score3_blocks(*family_small, dna_scheme, workers=64)
        assert got == ref

    @needs_fork
    @pytest.mark.parametrize("band", [1, 2, 7])
    def test_shallow_bands_force_many_blocks(
        self, dna_scheme, family_small, band
    ):
        # band=1 degenerates to per-plane synchronisation through the
        # counter protocol — the worst case for the window rotation.
        ref = score3_dp3d(*family_small, dna_scheme)
        got = score3_blocks(
            *family_small, dna_scheme, workers=3, band=band
        )
        assert got == ref

    @needs_fork
    def test_asymmetric_dims(self, dna_scheme):
        sa, sb, sc = "GATTACAGATTACA", "GAT", "ACGTACGT"
        ref = score3_dp3d(sa, sb, sc, dna_scheme)
        assert score3_blocks(sa, sb, sc, dna_scheme, workers=3) == ref

    def test_single_worker_serial_fallback(self, dna_scheme, family_small):
        ref = score3_dp3d(*family_small, dna_scheme)
        got = score3_blocks(*family_small, dna_scheme, workers=1)
        assert got == ref


class TestAlignmentIdentity:
    @needs_fork
    def test_rows_bit_identical_to_wavefront(self, dna_scheme, family_small):
        ref = align3_wavefront(*family_small, dna_scheme)
        aln = align3_blocks(*family_small, dna_scheme, workers=3)
        assert aln.rows == ref.rows
        assert aln.score == ref.score
        assert aln.sequences() == tuple(family_small)

    @needs_fork
    def test_alignment_optimal(self, dna_scheme, family_small):
        ref = align3_dp3d(*family_small, dna_scheme)
        aln = align3_blocks(*family_small, dna_scheme, workers=2)
        assert aln.score == ref.score

    @needs_fork
    def test_deterministic_across_runs(self, dna_scheme, family_small):
        a = align3_blocks(*family_small, dna_scheme, workers=4)
        b = align3_blocks(*family_small, dna_scheme, workers=4)
        assert a.rows == b.rows and a.score == b.score

    @needs_fork
    @pytest.mark.parametrize("band", [1, 2, 7])
    @pytest.mark.parametrize("pruned", [False, True], ids=["cube", "tube"])
    def test_rows_score_cells_match_sweep_at_band(
        self, dna_scheme, family_medium, band, pruned
    ):
        tube = (
            carrillo_lipman_tube(*family_medium, dna_scheme)[0]
            if pruned else None
        )
        ref = wavefront_sweep(*family_medium, dna_scheme, tube=tube)
        ref_aln = align3_wavefront(*family_medium, dna_scheme, tube=tube)
        aln = align3_blocks(
            *family_medium, dna_scheme, workers=3, band=band, tube=tube
        )
        assert aln.rows == ref_aln.rows
        assert aln.score == ref.score
        assert aln.meta["cells"] == ref.cells_computed
        assert aln.meta["band"] <= band

    @needs_fork
    @pytest.mark.parametrize(
        "seqs", [("", "", ""), ("ACGT", "", ""), ("", "AC", "GT")],
        ids=["all-empty", "one-nonempty", "first-empty"],
    )
    def test_empty_inputs(self, dna_scheme, seqs):
        ref = align3_wavefront(*seqs, dna_scheme)
        aln = align3_blocks(*seqs, dna_scheme, workers=2)
        assert aln.rows == ref.rows and aln.score == ref.score
        assert aln.sequences() == seqs
        assert score3_blocks(*seqs, dna_scheme, workers=3) == ref.score


class TestTubeComposition:
    @needs_fork
    def test_pruned_score_and_cells_match_serial(
        self, dna_scheme, family_small
    ):
        tube, _stats = carrillo_lipman_tube(*family_small, dna_scheme)
        serial = wavefront_sweep(
            *family_small, dna_scheme, tube=tube, score_only=True
        )
        got = score3_blocks(
            *family_small, dna_scheme, workers=3, tube=tube
        )
        assert got == serial.score
        # Cell-count parity proves the engine computed exactly the live
        # cells — blocks fully outside the tube were skipped, none of
        # the pruning speedup was given back.
        _score, _moves, meta = _sweep_meta(
            *family_small, dna_scheme, workers=3, tube=tube
        )
        assert meta["cells"] == serial.cells_computed

    @needs_fork
    def test_pruned_alignment_bit_identical(self, dna_scheme, family_small):
        tube, _stats = carrillo_lipman_tube(*family_small, dna_scheme)
        ref = align3_wavefront(*family_small, dna_scheme, tube=tube)
        aln = align3_blocks(
            *family_small, dna_scheme, workers=3, tube=tube
        )
        assert aln.rows == ref.rows and aln.score == ref.score

    def test_tube_shape_validated(self, dna_scheme, family_small):
        bad = np.ones((2, 2, 2), dtype=bool)
        with pytest.raises(ValueError, match="tube"):
            score3_blocks(
                *family_small, dna_scheme, workers=2, tube=bad
            )


class TestValidationAndMeta:
    def test_workers_validated(self, dna_scheme, family_small):
        with pytest.raises(ValueError):
            score3_blocks(*family_small, dna_scheme, workers=-1)

    def test_affine_rejected(self, dna_scheme, family_small):
        affine = ScoringScheme(
            alphabet=DNA,
            matrix=dna_scheme.matrix,
            gap=dna_scheme.gap,
            gap_open=-10.0,
        )
        with pytest.raises(ValueError, match="linear"):
            score3_blocks(*family_small, affine, workers=2)

    def test_serial_fallback_meta(self, dna_scheme, family_small):
        _score, _moves, meta = _sweep_meta(
            *family_small, dna_scheme, workers=1
        )
        assert meta["engine"] == "blocks"
        assert meta["fallback"] == "serial"
        assert meta["active_workers"] == 1

    @needs_fork
    def test_parallel_meta_shape(self, dna_scheme, family_small):
        _score, _moves, meta = _sweep_meta(
            *family_small, dna_scheme, workers=3
        )
        assert meta["engine"] == "blocks"
        assert meta["workers"] == 3
        assert 1 < meta["active_workers"] <= 3
        assert meta["band"] >= 1
        # The rotating window covers two bands plus the 3-plane read
        # horizon (clamped to the cube depth).
        dmax = sum(len(s) for s in family_small)
        assert meta["window"] <= min(2 * meta["band"] + 3, dmax + 4)
        n1 = len(family_small[0])
        n2, n3 = len(family_small[1]), len(family_small[2])
        assert meta["cells"] == (n1 + 1) * (n2 + 1) * (n3 + 1)


def _sweep_meta(sa, sb, sc, scheme, workers, tube=None):
    aln = align3_blocks(sa, sb, sc, scheme, workers=workers, tube=tube)
    return aln.score, None, aln.meta
