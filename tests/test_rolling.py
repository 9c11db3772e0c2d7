"""Unit tests for the slab (rolling) engine (repro.core.rolling)."""

import numpy as np
import pytest

from repro.core.dp3d import dp3d_matrix, score3_dp3d
from repro.core.rolling import (
    backward_slab,
    forward_slab,
    score3_slab,
    slab_sweep,
)


class TestScoreAgreement:
    def test_small_battery(self, small_triples, dna_scheme):
        for triple in small_triples:
            assert score3_slab(*triple, dna_scheme) == pytest.approx(
                score3_dp3d(*triple, dna_scheme)
            ), triple

    def test_medium_family(self, family_medium, dna_scheme):
        from repro.core.wavefront import score3_wavefront

        assert score3_slab(*family_medium, dna_scheme) == pytest.approx(
            score3_wavefront(*family_medium, dna_scheme)
        )

    def test_affine_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="linear"):
            slab_sweep("A", "A", "A", dna_scheme.with_gaps(gap=-1, gap_open=-1))


class TestSlabCapture:
    def test_captured_slabs_match_reference_cube(self, dna_scheme):
        sa, sb, sc = "GATT", "GT", "GAT"
        D_ref, _ = dp3d_matrix(sa, sb, sc, dna_scheme)
        res = slab_sweep(sa, sb, sc, dna_scheme, want_levels=range(len(sa) + 1))
        assert set(res.slabs) == set(range(len(sa) + 1))
        for level, slab in res.slabs.items():
            np.testing.assert_allclose(slab, D_ref[level], atol=1e-9)

    def test_capture_level_validated(self, dna_scheme):
        with pytest.raises(ValueError, match="capture level"):
            slab_sweep("AC", "A", "A", dna_scheme, want_levels=(9,))

    def test_cells_computed(self, dna_scheme):
        res = slab_sweep("ACG", "AC", "A", dna_scheme)
        assert res.cells_computed == 4 * 3 * 2


class TestForwardBackwardSlabs:
    @pytest.mark.parametrize("engine", ["wavefront", "slab"])
    def test_engines_agree(self, engine, dna_scheme, family_small):
        # forward_slab (the plane sweep's row capture) and the rolling
        # slab_sweep each match the reference cube's level.
        sa, sb, sc = family_small
        mid = len(sa) // 2
        D_ref, _ = dp3d_matrix(sa, sb, sc, dna_scheme)
        if engine == "wavefront":
            got = forward_slab(sa, sb, sc, dna_scheme, mid)
        else:
            got = slab_sweep(sa, sb, sc, dna_scheme, want_levels=(mid,))
            got = got.slabs[mid]
        np.testing.assert_allclose(got, D_ref[mid], atol=1e-9)

    def test_unknown_engine(self, dna_scheme):
        # The slab backend is no longer selectable: engine= is rejected.
        with pytest.raises(TypeError):
            forward_slab("A", "A", "A", dna_scheme, 0, engine="slab")
        with pytest.raises(TypeError):
            backward_slab("A", "A", "A", dna_scheme, 0, engine="slab")
        from repro.core.hirschberg import align3_hirschberg

        with pytest.raises(TypeError):
            align3_hirschberg("A", "A", "A", dna_scheme, engine="slab")

    def test_forward_plus_backward_attains_optimum(
        self, dna_scheme, family_small
    ):
        # Hirschberg's core invariant: max_j,k F[mid] + B[mid] == OPT.
        sa, sb, sc = family_small
        opt = score3_dp3d(sa, sb, sc, dna_scheme)
        for mid in (0, len(sa) // 2, len(sa)):
            fwd = forward_slab(sa, sb, sc, dna_scheme, mid)
            bwd = backward_slab(sa, sb, sc, dna_scheme, mid)
            total = fwd + bwd
            assert total.max() == pytest.approx(opt), mid
            # And no cell ever exceeds the optimum.
            assert (total <= opt + 1e-6).all()

    def test_backward_slab_is_suffix_scores(self, dna_scheme):
        sa, sb, sc = "GAT", "GT", "AT"
        mid = 1
        bwd = backward_slab(sa, sb, sc, dna_scheme, mid)
        for j in range(len(sb) + 1):
            for k in range(len(sc) + 1):
                expected = score3_dp3d(sa[mid:], sb[j:], sc[k:], dna_scheme)
                assert bwd[j, k] == pytest.approx(expected), (j, k)

    def test_forward_slab_level_zero(self, dna_scheme):
        # F[0, j, k] is the pairwise face of (B, C) with gap columns.
        sa, sb, sc = "ACG", "GA", "GT"
        fwd = forward_slab(sa, sb, sc, dna_scheme, 0)
        assert fwd[0, 0] == 0.0
        expected = score3_dp3d("", sb, sc, dna_scheme)
        assert fwd[len(sb), len(sc)] == pytest.approx(expected)
