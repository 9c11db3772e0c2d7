"""Rank-count, mapping and ledger cases for the block-decomposed cluster
algorithm, run through the in-process blocked executor
(repro.cluster.execute). The simulator and ``execute_blocked`` model the
cluster; these cases pin the decomposition's exactness and its message
ledger at the rank counts and shapes a real rank runtime would see."""

import pytest

from repro.cluster.blockgrid import BlockGrid
from repro.cluster.execute import execute_blocked
from repro.cluster.machine import MachineModel
from repro.cluster.simulate import simulate_wavefront
from repro.core.dp3d import score3_dp3d
from repro.seqio.generate import mutated_family, random_sequence


class TestCorrectness:
    @pytest.mark.parametrize("procs", [2, 3, 4])
    def test_rank_counts(self, procs, dna_scheme):
        fam = mutated_family(18, seed=22)
        ref = score3_dp3d(*fam, dna_scheme)
        res = execute_blocked(*fam, dna_scheme, block=5, procs=procs)
        assert res.score == pytest.approx(ref)
        assert len(res.per_proc_cells) == procs
        assert all(cells > 0 for cells in res.per_proc_cells)

    @pytest.mark.parametrize("mapping", ["pencil", "linear", "slab"])
    def test_mappings(self, mapping, dna_scheme):
        fam = mutated_family(16, seed=23)
        ref = score3_dp3d(*fam, dna_scheme)
        res = execute_blocked(
            *fam, dna_scheme, block=6, procs=3, mapping=mapping
        )
        assert res.score == pytest.approx(ref)

    def test_uneven_shapes(self, dna_scheme):
        seqs = (
            random_sequence(21, seed=4),
            random_sequence(6, seed=5),
            random_sequence(13, seed=6),
        )
        ref = score3_dp3d(*seqs, dna_scheme)
        res = execute_blocked(*seqs, dna_scheme, block=(6, 3, 4), procs=3)
        assert res.score == pytest.approx(ref)

    def test_tiny_inputs(self, dna_scheme):
        for triple in (("A", "", "C"), ("AC", "G", "T"), ("", "", "")):
            ref = score3_dp3d(*triple, dna_scheme)
            res = execute_blocked(*triple, dna_scheme, block=2, procs=2)
            assert res.score == pytest.approx(ref), triple

    def test_single_proc_fallback(self, dna_scheme, family_small):
        res = execute_blocked(*family_small, dna_scheme, block=6, procs=1)
        assert res.score == pytest.approx(
            score3_dp3d(*family_small, dna_scheme)
        )
        assert res.messages == 0

    def test_affine_rejected(self, dna_scheme):
        with pytest.raises(ValueError, match="linear"):
            execute_blocked("A", "A", "A", dna_scheme.with_gaps(-1, -1))


class TestMessageLedger:
    @pytest.mark.parametrize("procs", [2, 3])
    def test_matches_simulator_accounting(self, procs, dna_scheme):
        fam = mutated_family(18, seed=24)
        n1, n2, n3 = (len(s) for s in fam)
        res = execute_blocked(*fam, dna_scheme, block=5, procs=procs)
        grid = BlockGrid.for_sequences(n1, n2, n3, 5)
        sim = simulate_wavefront(grid, MachineModel(procs=procs))
        assert res.messages == sim.messages > 0
        assert res.comm_bytes == sim.comm_volume_bytes
