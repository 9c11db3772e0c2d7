"""Unit tests for the block-tiled engine driven from a thread pool.

The serve batcher runs alignment jobs on a ``ThreadPoolExecutor``, so
``score3_blocks``/``align3_blocks`` fork their workers from a worker
thread there. These tests run the engine the same way: results,
validation errors and determinism must not depend on the calling
thread.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.dp3d import score3_dp3d
from repro.parallel.blocks import align3_blocks, score3_blocks


def _on_thread(fn, *args, **kwargs):
    with ThreadPoolExecutor(max_workers=1) as ex:
        return ex.submit(fn, *args, **kwargs).result()


class TestScores:
    def test_matches_reference_small(self, dna_scheme, small_triples):
        for triple in small_triples:
            got = _on_thread(score3_blocks, *triple, dna_scheme, workers=2)
            assert got == pytest.approx(score3_dp3d(*triple, dna_scheme)), triple

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_worker_counts(self, workers, dna_scheme, family_small):
        got = _on_thread(
            score3_blocks, *family_small, dna_scheme, workers=workers
        )
        assert got == pytest.approx(score3_dp3d(*family_small, dna_scheme))

    def test_workers_validated(self, dna_scheme):
        with pytest.raises(ValueError):
            _on_thread(score3_blocks, "A", "A", "A", dna_scheme, workers=-1)

    def test_affine_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="linear"):
            _on_thread(
                score3_blocks,
                "A", "A", "A", dna_scheme.with_gaps(gap=-1, gap_open=-1),
            )


class TestAlignment:
    def test_alignment_optimal(self, dna_scheme, family_small):
        aln = _on_thread(align3_blocks, *family_small, dna_scheme, workers=2)
        expected = score3_dp3d(*family_small, dna_scheme)
        assert aln.score == pytest.approx(expected)
        assert aln.sequences() == tuple(family_small)

    def test_bit_identical_to_serial_engine(self, dna_scheme, family_medium):
        from repro.core.wavefront import align3_wavefront

        par = _on_thread(align3_blocks, *family_medium, dna_scheme, workers=3)
        ser = align3_wavefront(*family_medium, dna_scheme)
        assert par.rows == ser.rows
        assert par.score == ser.score

    def test_deterministic(self, dna_scheme, family_small):
        a = _on_thread(align3_blocks, *family_small, dna_scheme, workers=4)
        b = _on_thread(align3_blocks, *family_small, dna_scheme, workers=4)
        assert a.rows == b.rows
