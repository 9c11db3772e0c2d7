"""Tests for the fault-tolerance layer (repro.resilience) and its wiring
into the parallel engines, the batch job workers, the API and the CLI."""

import importlib
import multiprocessing as mp
import time
import warnings

import pytest

from repro.core.api import align3
from repro.core.dp3d import align3_dp3d, score3_dp3d
from repro.parallel.executor import WavefrontPool
from repro.parallel.executor import fork_available
from repro.resilience import faults
from repro.resilience.degrade import (
    DegradePlan,
    estimate_bytes,
    memory_budget,
    plan_method,
)
from repro.resilience.errors import (
    DegradationWarning,
    DegradedRun,
    FaultSpecError,
    ProtocolError,
    WorkerFailure,
)
from repro.resilience.supervise import (
    ENV_TIMEOUT,
    SupervisionPolicy,
    parent_alive,
    reap,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


class TestFaultSpecs:
    def test_parse_full_spec(self):
        spec = faults.parse_spec("worker_crash@blocks:worker=1,plane=25")
        assert spec.kind == "worker_crash"
        assert spec.engine == "blocks"
        assert spec.worker == 1 and spec.plane == 25
        assert spec.times == 1 and spec.armed

    def test_parse_minimal_and_oom_defaults(self):
        spec = faults.parse_spec("oom:budget=4096")
        assert spec.budget == 4096
        assert spec.times == -1  # budget is read repeatedly

    def test_roundtrip_spec_string(self):
        text = "straggler@blocks:worker=1,plane=7,delay=0.2"
        spec = faults.parse_spec(text)
        assert faults.parse_spec(spec.spec_string()) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "meteor_strike",
            "worker_crash:worker=zero",
            "worker_crash:worker=0",  # worker 0 is the dispatcher
            "straggler:delay=-1",
            "worker_crash:nonsense=1",
            "worker_crash:plane",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            faults.parse_spec(bad)

    def test_install_is_additive_and_clear_disarms(self):
        faults.install("worker_crash@blocks:worker=1;oom:budget=1")
        assert faults.enabled and len(faults.active_specs()) == 2
        faults.clear()
        assert not faults.enabled and not faults.active_specs()

    def test_fire_consumes_shots_peek_does_not(self):
        faults.install("worker_crash:worker=2")
        assert faults.peek("worker_crash", worker=2) is not None
        assert faults.fire("worker_crash", worker=2) is not None
        assert faults.fire("worker_crash", worker=2) is None  # consumed
        assert faults.fire("worker_crash", worker=1) is None  # wrong worker

    def test_derived_plane_is_deterministic_and_in_range(self):
        spec = faults.parse_spec("worker_crash:seed=3")
        planes = {spec.derived_plane(1, 90) for _ in range(5)}
        assert len(planes) == 1
        assert 1 <= planes.pop() <= 90


def _sleep_forever() -> None:
    time.sleep(600)


class TestRetryHelpers:
    # Only ``BackoffPolicy`` is left in ``repro.resilience.retry``; the
    # queue-receive and checksum helpers went with the message-passing
    # runtime, and the warn-and-default environment rule moved to
    # ``SupervisionPolicy.from_env``.
    def test_checksum_roundtrip_and_corruption_detected(self):
        retry = importlib.import_module("repro.resilience.retry")
        for name in ("payload_checksum", "verify_payload", "corrupt_payload"):
            assert not hasattr(retry, name), name
        with pytest.raises(ImportError):
            from repro.resilience.retry import payload_checksum  # noqa: F401

    def test_queue_get_retry_returns_message(self):
        retry = importlib.import_module("repro.resilience.retry")
        for name in ("queue_get_with_retry", "comm_deadline",
                     "ENV_DEADLINE", "DEFAULT_DEADLINE"):
            assert not hasattr(retry, name), name
        with pytest.raises(ImportError):
            from repro.resilience import comm_deadline  # noqa: F401

    @needs_fork
    def test_queue_get_retry_raises_typed_failure(self):
        # reap() finishes in bounded time on a live child.
        proc = mp.get_context("fork").Process(target=_sleep_forever)
        proc.start()
        t0 = time.perf_counter()
        reap([proc])
        assert time.perf_counter() - t0 < 5.0
        assert not proc.is_alive()
        assert proc.exitcode is not None and proc.exitcode < 0

    @needs_fork
    def test_liveness_probe_short_circuits_the_deadline(self):
        # The worker-side liveness probe: true in the test process (no
        # parent process) and in a child whose parent is alive.
        assert parent_alive()
        ctx = mp.get_context("fork")
        box = ctx.Value("i", -1)

        def probe():
            box.value = int(parent_alive())

        proc = ctx.Process(target=probe)
        proc.start()
        proc.join(timeout=10)
        assert proc.exitcode == 0 and box.value == 1

    def test_comm_deadline_reads_env_with_floor(self):
        assert SupervisionPolicy.from_env({}) == SupervisionPolicy()
        policy = SupervisionPolicy.from_env({ENV_TIMEOUT: "12.5"})
        assert policy.barrier_timeout == 12.5
        assert policy.straggler_grace == 37.5
        floored = SupervisionPolicy.from_env({ENV_TIMEOUT: "0.001"})
        assert floored.barrier_timeout == 0.05

    def test_comm_deadline_falls_back_on_garbage(
        self, capsys, monkeypatch, dna_scheme, family_small
    ):
        # A typo'd environment must not crash a sweep: warn on stderr
        # and use the default policy.
        from repro.core.wavefront import score3_wavefront
        from repro.parallel.blocks import score3_blocks

        policy = SupervisionPolicy.from_env({ENV_TIMEOUT: "sixty"})
        assert policy == SupervisionPolicy()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "warning" in err and "sixty" in err and ENV_TIMEOUT in err

        monkeypatch.setenv(ENV_TIMEOUT, "sixty")
        got = score3_blocks(*family_small, dna_scheme, workers=2)
        assert got == score3_wavefront(*family_small, dna_scheme)
        assert capsys.readouterr().err.count("# warning:") == 1


@pytest.mark.chaos
class TestPoolRecovery:
    @needs_fork
    def test_crash_recovers_bit_identical(self, dna_scheme, family_small):
        ref = align3_dp3d(*family_small, dna_scheme)
        dmax = sum(len(s) for s in family_small)
        faults.install(f"worker_crash@blocks:worker=1,plane={dmax // 2}")
        pool = WavefrontPool(workers=2)
        aln = pool.align3(*family_small, dna_scheme)
        assert aln.rows == ref.rows and aln.score == ref.score
        assert aln.meta["recoveries"] >= 1
        assert pool.failures[0].respawned
        # The pool stays usable after a recovery.
        faults.clear()
        again = pool.align3(*family_small, dna_scheme)
        assert again.rows == ref.rows

    @needs_fork
    def test_close_releases_shared_memory_after_kill(
        self, dna_scheme, family_small, monkeypatch
    ):
        # Every call joins or reaps all of its workers before it
        # returns, in bounded time, however it ends: normally, with a
        # typed WorkerFailure at the respawn cap, or after a straggler
        # was killed and replaced.
        import multiprocessing as mp
        import time

        from repro.parallel.blocks import align3_blocks, score3_blocks
        from repro.resilience.supervise import SupervisionPolicy

        ref = align3_dp3d(*family_small, dna_scheme)
        before = set(mp.active_children())

        def bounded(call):
            t0 = time.perf_counter()
            try:
                return call()
            finally:
                assert time.perf_counter() - t0 < 30.0
                assert set(mp.active_children()) <= before

        assert bounded(
            lambda: score3_blocks(*family_small, dna_scheme, workers=3)
        ) == ref.score

        faults.install("worker_crash@blocks:worker=1,plane=5")
        capped = WavefrontPool(
            workers=2,
            policy=SupervisionPolicy(barrier_timeout=0.05, max_respawns=0),
        )
        with pytest.raises(WorkerFailure):
            bounded(lambda: capped.align3(*family_small, dna_scheme))
        faults.clear()

        # A 0.05 s scan period gives a 0.15 s straggler grace, so the
        # 5 s stall is killed and replayed long before it would end.
        monkeypatch.setenv("REPRO_SUPERVISE_TIMEOUT", "0.05")
        faults.install("straggler@blocks:worker=1,delay=5,plane=10")
        aln = bounded(
            lambda: align3_blocks(*family_small, dna_scheme, workers=2)
        )
        assert aln.rows == ref.rows and aln.score == ref.score
        assert aln.meta["recoveries"] >= 1

    @needs_fork
    def test_respawn_cap_raises_typed_failure(
        self, dna_scheme, family_small
    ):
        # A crash past max_respawns must turn the stall into a typed
        # WorkerFailure carrying the failure log, not wedge the pool.
        from repro.resilience.supervise import SupervisionPolicy

        faults.install("worker_crash@blocks:worker=1,plane=5")
        policy = SupervisionPolicy(barrier_timeout=0.05, max_respawns=0)
        pool = WavefrontPool(workers=2, policy=policy)
        with pytest.raises(WorkerFailure) as excinfo:
            pool.align3(*family_small, dna_scheme)
        assert excinfo.value.failures[0].engine == "blocks"
        assert not excinfo.value.failures[0].respawned

    @needs_fork
    def test_unsupervised_pool_still_works(self, dna_scheme, family_small):
        pool = WavefrontPool(workers=2, supervise=False)
        aln = pool.align3(*family_small, dna_scheme)
        assert aln.score == pytest.approx(
            score3_dp3d(*family_small, dna_scheme)
        )
        assert not aln.meta["supervised"]


@pytest.mark.chaos
class TestSharedRecovery:
    """Recovery on one pool object that runs several calls, each with
    its own buffers and workers."""

    @needs_fork
    def test_crash_recovers_bit_identical(self, dna_scheme, family_small):
        # A worker dies mid-way through a tube-pruned job: its
        # replacement replays the windows computed for that job, and the
        # pool stays usable for the next (untubed) job.
        from repro.core.bounds import carrillo_lipman_tube
        from repro.core.wavefront import align3_wavefront

        tube, _stats = carrillo_lipman_tube(*family_small, dna_scheme)
        ref = align3_wavefront(*family_small, dna_scheme, tube=tube)
        dmax = sum(len(s) for s in family_small)
        faults.install(f"worker_crash@blocks:worker=1,plane={dmax // 2}")
        pool = WavefrontPool(workers=2)
        aln = pool.align3(*family_small, dna_scheme, tube=tube)
        assert aln.rows == ref.rows and aln.score == ref.score
        assert aln.meta["cells"] == ref.meta["cells"]
        assert aln.meta["recoveries"] >= 1
        again = pool.align3(*family_small, dna_scheme)
        full = align3_dp3d(*family_small, dna_scheme)
        assert again.rows == full.rows and again.score == full.score

    @needs_fork
    def test_straggler_is_tolerated(self, dna_scheme, family_small):
        ref = align3_dp3d(*family_small, dna_scheme)
        faults.install("straggler@blocks:worker=1,delay=0.1,plane=10")
        aln = WavefrontPool(workers=2).align3(*family_small, dna_scheme)
        assert aln.rows == ref.rows and aln.score == ref.score


@pytest.mark.chaos
class TestBlocksRecovery:
    @needs_fork
    def test_crash_recovers_bit_identical(self, dna_scheme, family_small):
        from repro.parallel.blocks import align3_blocks

        ref = align3_dp3d(*family_small, dna_scheme)
        dmax = sum(len(s) for s in family_small)
        faults.install(f"worker_crash@blocks:worker=1,plane={dmax // 2}")
        aln = align3_blocks(*family_small, dna_scheme, workers=2)
        assert aln.rows == ref.rows and aln.score == ref.score
        assert aln.meta["recoveries"] >= 1

    @needs_fork
    def test_crash_with_tube_replays_same_windows(
        self, dna_scheme, family_small
    ):
        # The satellite-2 regression: a respawned worker must inherit
        # the pre-fork per-plane tube row windows, replaying only the
        # live rows — verified by bit-identity against the serial
        # tube-pruned alignment (a full-range replay would read rows
        # the tube never computed and corrupt the boundary).
        from repro.core.bounds import carrillo_lipman_tube
        from repro.core.wavefront import align3_wavefront
        from repro.parallel.blocks import align3_blocks

        tube, _stats = carrillo_lipman_tube(*family_small, dna_scheme)
        ref = align3_wavefront(*family_small, dna_scheme, tube=tube)
        dmax = sum(len(s) for s in family_small)
        faults.install(f"worker_crash@blocks:worker=1,plane={dmax // 2}")
        aln = align3_blocks(
            *family_small, dna_scheme, workers=2, tube=tube
        )
        assert aln.rows == ref.rows and aln.score == ref.score
        assert aln.meta["recoveries"] >= 1

    @needs_fork
    def test_straggler_is_tolerated(self, dna_scheme, family_small):
        from repro.parallel.blocks import align3_blocks

        ref = align3_dp3d(*family_small, dna_scheme)
        faults.install("straggler@blocks:worker=1,delay=0.1,plane=10")
        aln = align3_blocks(*family_small, dna_scheme, workers=2)
        assert aln.rows == ref.rows and aln.score == ref.score


@pytest.mark.chaos
class TestDistributedResilience:
    # Ghost corruption and rank addressing belonged to the removed
    # message-passing runtime: specs naming them are rejected up front.
    def test_corrupt_ghost_detected_and_resent(self):
        with pytest.raises(FaultSpecError, match="unknown fault kind"):
            faults.parse_spec("corrupt_ghost")
        with pytest.raises(FaultSpecError):
            faults.install("corrupt_ghost:rank=1")
        assert not faults.enabled

    def test_rank_death_raises_with_failure_log(self):
        for spec in ("worker_crash:rank=1", "straggler:block=3"):
            with pytest.raises(FaultSpecError, match="unknown fault key"):
                faults.parse_spec(spec)

    def test_wavefront_order_violation_is_protocol_error(self):
        assert issubclass(ProtocolError, RuntimeError)


class TestDegradation:
    def test_estimates_ordered_sensibly_at_scale(self):
        dims = (300, 300, 300)
        assert estimate_bytes("dp3d", dims) > estimate_bytes(
            "wavefront", dims
        ) > estimate_bytes("hirschberg", dims)

    def test_plan_prefers_requested_method_when_it_fits(self):
        plan = plan_method("wavefront", (20, 20, 20), budget=1 << 30)
        assert isinstance(plan, DegradePlan)
        assert not plan.degraded and plan.method == "wavefront"

    def test_plan_walks_ladder_and_bottom_rung_is_accepted(self):
        plan = plan_method("dp3d", (50, 50, 50), budget=1)
        assert plan.method == "hirschberg"
        assert plan.over_budget  # nothing fits in 1 byte; attempt anyway
        assert [m for m, _ in plan.steps] == [
            "dp3d", "wavefront", "hirschberg"
        ]

    def test_oom_fault_overrides_the_budget(self):
        faults.install("oom:budget=12345")
        assert memory_budget() == 12345

    @pytest.mark.chaos
    def test_degraded_run_is_exact_and_annotated(
        self, dna_scheme, family_small
    ):
        ref = align3_dp3d(*family_small, dna_scheme)
        faults.install("oom:budget=50000")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            aln = align3(*family_small, dna_scheme, method="dp3d")
        assert aln.score == ref.score
        assert aln.meta["degraded_from"] == "dp3d"
        assert any(
            issubclass(w.category, DegradationWarning) for w in caught
        )

    def test_strict_mode_raises_degraded_run(self, dna_scheme, family_small):
        faults.install("oom:budget=50000")
        with pytest.raises(DegradedRun) as excinfo:
            align3(
                *family_small, dna_scheme, method="dp3d", allow_degrade=False
            )
        assert excinfo.value.plan.requested == "dp3d"


class TestCliExitCodes:
    def _fasta(self, tmp_path, seqs=("GATTACA", "GATCA", "GATTA")):
        path = tmp_path / "in.fasta"
        path.write_text(
            "".join(f">s{i}\n{s}\n" for i, s in enumerate(seqs))
        )
        return str(path)

    def test_bad_fault_spec_exits_5(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            ["align", self._fasta(tmp_path), "--inject-fault", "meteor"]
        )
        assert rc == 5
        assert "bad fault spec" in capsys.readouterr().err

    def test_forbidden_degradation_exits_4(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "align", self._fasta(tmp_path),
                "--method", "dp3d",
                "--no-degrade",
                "--inject-fault", "oom:budget=1000",
            ]
        )
        assert rc == 4
        assert "--no-degrade" in capsys.readouterr().err

    def test_worker_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        import repro.parallel.blocks as blocks
        from repro.cli import main
        from repro.resilience.errors import FailureRecord

        def exhausted(*args, **kwargs):
            record = FailureRecord(
                engine="blocks", worker=1, plane=3,
                reason="worker process died (exitcode 13)",
                exitcode=13, respawned=False,
            )
            raise WorkerFailure("blocks worker 1 failed 4 times", [record])

        monkeypatch.setattr(blocks, "align3_blocks", exhausted)
        rc = main(
            ["align", self._fasta(tmp_path), "--method", "blocks"]
        )
        assert rc == 3
        assert "worker failure" in capsys.readouterr().err

    @pytest.mark.chaos
    def test_degraded_align_still_succeeds_with_note(self, tmp_path, capsys):
        from repro.cli import main

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(
                [
                    "align", self._fasta(tmp_path),
                    "--method", "dp3d",
                    "--inject-fault", "oom:budget=2000",
                ]
            )
        assert rc == 0
        err = capsys.readouterr().err
        assert "# degraded: dp3d ->" in err
