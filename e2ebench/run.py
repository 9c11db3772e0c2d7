#!/usr/bin/env python3
"""End-to-end benchmark of the three-sequence alignment stack.

One command, three workloads (see ``workloads.py`` and ``METRICS.md``)::

    python3 e2ebench/run.py --workload serve_small --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload batch_distinct --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload twice, untraced and then with the layer
wrappers of ``tracing.py`` installed, and reports the per-layer metrics
and the tracing overhead. Every output is checked (``verify.py``); a
wrong result prints ``"correct": false`` and exits 1. The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit). Each run also appends one row to
the ``repro.runs`` store unless ``--no-record`` is given.

The program runs from ``src/`` of the checkout holding this directory;
the benchmark exits 2 when it is missing.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import pathlib
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import tracing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Server logs and span dumps of the last run (ignored by git).
OUT = ROOT / ".e2ebench_out"

#: Set-ups per batch_distinct or large_triples run; ``setup_s`` is their
#: median (serve_small has one per server, ``SERVE_SERVERS``).
SETUPS = 5
#: A run that has not finished by then is killed with its children.
WATCHDOG_S = 175
CLIENT_TIMEOUT_S = 60.0
#: Processes computing the oracle scores (after the timed code).
ORACLE_WORKERS = 2

E2E_UNITS = {
    "setup_s": "s",
    "throughput_aps": "alignments/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "max_rate_ok_rps": "req/s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MiB",
}


def bootstrap() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"e2ebench: {SRC} holds no repro package; run the benchmark "
            "from the root of a checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class Processes:
    """Every child this run starts, each in a session of its own, so that
    :meth:`close` also stops what the child started (pool workers)."""

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []

    def start(self, cmd: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, start_new_session=True, **kwargs
        )
        self.procs.append(proc)
        return proc

    def close(self) -> None:
        """Kill children still running, then wait until every process of
        their sessions has ended (killing stragglers after 10 s)."""
        for proc in self.procs:
            if proc.poll() is None:
                _kill_group(proc.pid)
            proc.wait()
            for stream in (proc.stdin, proc.stdout):
                if stream is not None:
                    stream.close()
        deadline = time.monotonic() + 10
        while True:
            alive = _live_groups({p.pid for p in self.procs})
            if not alive:
                return
            if time.monotonic() > deadline:
                for pgid in alive:
                    _kill_group(pgid)
            time.sleep(0.05)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _proc_stats() -> list[list[str]]:
    """``[pid, state, ppid, pgrp, ...]`` of every process, from /proc."""
    stats = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            stats.append([entry] + stat.rsplit(")", 1)[1].split())
    return stats


def _live_groups(pgids: set[int]) -> set[int]:
    return {
        int(st[3]) for st in _proc_stats()
        if int(st[3]) in pgids and st[1] != "Z"
    }


def terminate(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    proc.wait(timeout=60)


def tree_peak_rss_kb(root: int) -> int:
    """Sum of the peak resident sizes (VmHWM) of ``root`` and its live
    descendants. Pages shared after fork count once per process."""
    children: dict[int, list[int]] = {}
    for st in _proc_stats():
        children.setdefault(int(st[2]), []).append(int(st[0]))
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, []))
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total


def read_message(proc: subprocess.Popen) -> dict:
    """Next ``E2E`` message from a worker's stdout."""
    for line in proc.stdout:
        if line.startswith("E2E "):
            return json.loads(line[4:])
    raise RuntimeError(f"worker exited (rc={proc.wait()}) before replying")


def start_worker(
    procs: Processes, mode: str, spec: dict, **kwargs
) -> subprocess.Popen:
    proc = procs.start(
        [sys.executable, str(HERE / "worker.py"), mode],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, **kwargs,
    )
    proc.stdin.write(json.dumps(spec) + "\n")
    proc.stdin.flush()
    return proc


def start_server(
    procs: Processes, host_spec: dict | None, log_name: str
) -> tuple[subprocess.Popen, int]:
    """Start ``repro serve`` (``host_spec`` None) or the tracing host, and
    wait for its ``# serving on HOST:PORT`` line."""
    OUT.mkdir(exist_ok=True)
    log_path = OUT / log_name
    with open(log_path, "w") as log:
        if host_spec is None:
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(SRC), env.get("PYTHONPATH")) if p
            )
            proc = procs.start(
                [sys.executable, "-m", "repro", "serve", "--port", "0"],
                stdout=subprocess.DEVNULL, stderr=log, env=env,
            )
        else:
            proc = start_worker(procs, "serve", host_spec, stderr=log)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        m = re.search(r"# serving on [\d.]+:(\d+)", log_path.read_text())
        if m:
            return proc, int(m.group(1))
        if proc.poll() is not None:
            break
        time.sleep(0.002)
    raise RuntimeError(f"server did not start; see {log_path}")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

class Checker:
    """Checks results against the inputs and the reference-kernel oracle.
    Results are checked only after the timed code has finished, so the
    first check computes every exact triple's oracle at once, on
    ``ORACLE_WORKERS`` processes."""

    def __init__(self, wl) -> None:
        import verify

        self.verify = verify
        self.wl = wl
        self.oracle: dict[int, float] = {}
        self.mismatches: list[str] = []

    def _compute_oracles(self) -> None:
        bases = sorted(
            {r.base for r in self.wl.requests if r.exact} - self.oracle.keys()
        )
        with ProcessPoolExecutor(ORACLE_WORKERS) as pool:
            scores = pool.map(
                self.verify.oracle_score, [self.wl.triples[b] for b in bases]
            )
            self.oracle.update(zip(bases, scores))

    def ok(self, req, result) -> bool:
        """True when ``result`` (``[score, rows]`` or None) is correct."""
        if result is None:
            return False
        oracle = None
        if req.exact:
            if req.base not in self.oracle:
                self._compute_oracles()
            oracle = self.oracle[req.base]
        score, rows = result
        try:
            self.verify.check(req.seqs, rows, score, oracle)
        except self.verify.Mismatch as exc:
            self.mismatches.append(f"{req.rid}: {exc}")
            return False
        return True


# ---------------------------------------------------------------------------
# serve_small
# ---------------------------------------------------------------------------

def open_loop(clients, reqs) -> list[tuple]:
    """Send ``reqs`` at their due times, counted from the first one, over
    the keep-alive ``clients`` (one thread each). A request waits for a
    free connection, so a slow server makes the generator late; latency
    counts from the due time. Returns ``(due, sent, received, status,
    result)`` per request."""
    t_start = time.perf_counter() + 0.02 - reqs[0].due_s
    lock = threading.Lock()
    cursor = [0]
    records: list[tuple | None] = [None] * len(reqs)

    def pump(client) -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(reqs):
                return
            req = reqs[i]
            due = t_start + req.due_s
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                resp = client.align(seqs=req.seqs, rid=req.rid)
                status, body = resp.status, resp.body
            except (OSError, http.client.HTTPException) as exc:
                status, body = None, repr(exc)
            result = None
            if status == 200:
                item = body["results"][0]
                result = [item["score"], item["rows"]]
            records[i] = (due, sent, time.perf_counter(), status, result)

    threads = [threading.Thread(target=pump, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records  # type: ignore[return-value]


def serve_setup(procs, wl, host_spec=None, log_name="serve.log"):
    """Start a server, open both connections and warm it up; returns
    ``(proc, clients, seconds)``."""
    from repro.serve import ServeClient
    from workloads import SERVE_CONNECTIONS

    t0 = time.perf_counter()
    proc, port = start_server(procs, host_spec, log_name)
    clients = [
        ServeClient("127.0.0.1", port, timeout=CLIENT_TIMEOUT_S)
        for _ in range(SERVE_CONNECTIONS)
    ]
    # One body, so one micro-batch sizes the pool for every timed cube.
    warm = [clients[0].align(requests=[{"seqs": list(t)} for t in wl.warmup])]
    warm += [client.align(seqs=wl.warmup[0]) for client in clients[1:]]
    if any(resp.status != 200 for resp in warm):
        raise RuntimeError("a warm-up request failed")
    return proc, clients, time.perf_counter() - t0


def close_clients(clients) -> None:
    for client in clients:
        client.close()


def step_summary(slices, checker) -> dict:
    """Pooled latency of one ladder step, given as ``(reqs, records)``
    slices that may have run against different servers."""
    from workloads import SERVE_LATENCY_LIMIT_MS

    lat_ms, late_ms, ok, wall = [], [], 0, 0.0
    for reqs, records in slices:
        for req, (due, sent, recv, status, result) in zip(reqs, records):
            good = status == 200 and checker.ok(req, result)
            ok += good
            lat_ms.append(
                (recv - due) * 1e3 if good else CLIENT_TIMEOUT_S * 1e3
            )
            late_ms.append((sent - due) * 1e3)
        wall += max(r[2] for r in records) - min(r[0] for r in records)
    p95 = tracing.percentile(lat_ms, 0.95)
    return {
        "attempted": len(lat_ms),
        "ok": ok,
        "p50_ms": tracing.percentile(lat_ms, 0.5),
        "p95_ms": p95,
        "late_max_ms": max(late_ms),
        "served_rps": ok / wall,
        "passed": (
            ok == len(lat_ms)
            and p95 <= SERVE_LATENCY_LIMIT_MS
            and max(late_ms) <= SERVE_LATENCY_LIMIT_MS
        ),
    }


def steps_of(wl) -> list[list]:
    steps: list[list] = [[] for _ in wl.steps]
    for req in wl.requests:
        steps[req.step].append(req)
    return steps


def serve_e2e(procs, wl, checker) -> tuple[dict, int, int, dict]:
    """Each server of the run is started fresh and serves its requests
    (see ``SERVE_SERVERS``). One server's tail latency stays in a faster
    or a slower regime for its whole life, and which one it gets varies
    from start to start, so the pooled percentiles average over many
    starts instead of resting on one."""
    from workloads import SERVE_NOMINAL_STEP, SERVE_SERVERS

    # Per server, its ``(step, requests)`` parts in sending order.
    parts: list[list] = [[] for _ in range(SERVE_SERVERS)]
    for k, reqs in enumerate(steps_of(wl)):
        for srv in sorted({r.server for r in reqs}):
            parts[srv].append((k, [r for r in reqs if r.server == srv]))
    slices: list[list] = [[] for _ in wl.steps]
    setups = []
    for i, server_parts in enumerate(parts):
        proc, clients, seconds = serve_setup(procs, wl)
        setups.append(seconds)
        for k, reqs in server_parts:
            slices[k].append((reqs, open_loop(clients, reqs)))
        if i < SERVE_SERVERS - 1:
            close_clients(clients)
            terminate(proc)
    peak_kb = tree_peak_rss_kb(proc.pid)
    close_clients(clients)
    terminate(proc)

    summaries = [step_summary(step, checker) for step in slices]
    nominal = summaries[SERVE_NOMINAL_STEP]
    passed = [s for s in summaries if s["passed"]]
    attempted = sum(s["attempted"] for s in summaries)
    ok = sum(s["ok"] for s in summaries)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_aps": nominal["served_rps"],
        "latency_p50_ms": nominal["p50_ms"],
        "latency_p95_ms": nominal["p95_ms"],
        "max_rate_ok_rps": passed[-1]["served_rps"] if passed else 0.0,
        "ok_frac": ok / attempted,
        "peak_rss_mb": peak_kb / 1024,
    }
    notes = {"steps": summaries, "nominal_samples": nominal["attempted"]}
    return metrics, attempted, attempted - ok, notes


def serve_traced_pass(procs, wl, trace: bool):
    """Low and nominal ladder steps against the tracing host."""
    from workloads import SERVE_NOMINAL_STEP

    tag = "traced" if trace else "untraced"
    proc, clients, _ = serve_setup(
        procs, wl, {"trace": trace}, f"serve-host-{tag}.log"
    )
    steps = steps_of(wl)[: SERVE_NOMINAL_STEP + 1]
    records = [open_loop(clients, reqs) for reqs in steps]
    # The generator's keep-alive connections stay open through the
    # drain, as a router's connection pool would hold them.
    t0 = time.perf_counter()
    proc.send_signal(signal.SIGTERM)
    msg = read_message(proc)
    proc.wait(timeout=60)
    drain_s = time.perf_counter() - t0
    close_clients(clients)
    return steps, records, msg["spans"], drain_s


def serve_trace(procs, wl, checker) -> tuple[dict, int, int]:
    from workloads import SERVE_NOMINAL_STEP

    base_steps, base_records, _, drain_s = serve_traced_pass(
        procs, wl, False
    )
    steps, records, spans, _ = serve_traced_pass(procs, wl, True)
    attempted = failed = 0
    for reqs, recs in list(zip(base_steps, base_records)) + list(
        zip(steps, records)
    ):
        for req, rec in zip(reqs, recs):
            attempted += 1
            failed += not (rec[3] == 200 and checker.ok(req, rec[4]))

    reqs, recs = steps[SERVE_NOMINAL_STEP], records[SERVE_NOMINAL_STEP]
    w0 = min(r[0] for r in recs)
    w1 = max(r[2] for r in recs)
    window = tracing.in_window(spans, w0, w1)
    metrics = tracing.layer_metrics(window, spans)
    run_of = {}
    for s in spans:
        if s[2] == "batch.run" and s[6]:
            for rid in s[6]["rids"]:
                run_of[rid] = s
    # A request's latency is its wait, the batch.run span that carried it
    # and the return; ``covered`` sums the latency of requests whose run
    # span was found, so the three parts account for it exactly.
    waits, returns, covered, total = [], [], 0.0, 0.0
    for req, (due, _sent, recv, status, _res) in zip(reqs, recs):
        total += recv - due
        run = run_of.get(req.rid)
        if run is None or status != 200:
            continue
        waits.append(run[3] - due)
        returns.append(recv - run[4])
        covered += recv - due
    runs = [s for s in window if s[2] == "batch.run" and s[6]]
    metrics.update({
        "serve.wait_ms.p50": tracing.percentile(waits, 0.5) * 1e3,
        "serve.return_ms.p50": tracing.percentile(returns, 0.5) * 1e3,
        "serve.batch_requests.mean": (
            sum(s[6]["requests"] for s in runs) / len(runs) if runs else 0.0
        ),
        "serve.generator_late_ms.max": max(r[1] - r[0] for r in recs) * 1e3,
        "serve.samples": len(recs),
        "parallel.blocks_speedup_vs_serial": 0.0,
        "trace.accounted_frac": covered / total if total else 0.0,
    })
    base = base_records[SERVE_NOMINAL_STEP]
    metrics["serve.drain_s"] = drain_s
    metrics["trace.overhead_frac"] = (
        tracing.percentile([r[2] - r[0] for r in recs], 0.5)
        / tracing.percentile([r[2] - r[0] for r in base], 0.5) - 1.0
    )
    dump_spans(wl.name, spans)
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# batch_distinct and large_triples
# ---------------------------------------------------------------------------

def worker_spec(wl, passes: int, trace: bool, **extra) -> dict:
    return {
        "seed": wl.seed,
        "passes": passes,
        "trace": trace,
        "requests": [r.to_json() for r in wl.requests],
        "warmup": [list(t) for t in wl.warmup],
        **extra,
    }


def check_passes(wl, passes, checker) -> list[int]:
    """Failed (wrong or missing) results of each pass."""
    return [
        sum(not checker.ok(req, result)
            for req, result in zip(wl.requests, p["results"]))
        for p in passes
    ]


def worker_e2e(procs, wl, seconds, checker) -> tuple[dict, int, int, dict]:
    from workloads import PASS_SECONDS

    # Whole passes, as many as ``seconds`` holds at the nominal pass
    # length: a count fixed by the settings, not by how fast this run is.
    passes = max(1, int(seconds // PASS_SECONDS[wl.name]))
    spec = worker_spec(wl, passes, False)
    setups = []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        proc = start_worker(procs, wl.name, spec)
        if read_message(proc)["event"] != "ready":
            raise RuntimeError("worker did not get ready")
        setups.append(time.perf_counter() - t0)
        if i < SETUPS - 1:
            proc.stdin.write("exit\n")
            proc.stdin.flush()
            proc.wait(timeout=60)
    proc.stdin.write("go\n")
    proc.stdin.flush()
    msg = read_message(proc)
    peak_kb = tree_peak_rss_kb(proc.pid) + msg["children_maxrss_kb"]
    terminate(proc)

    passes = msg["passes"]
    failed = check_passes(wl, passes, checker)
    attempted = len(wl.requests) * len(passes)
    throughput = (attempted - sum(failed)) / sum(
        p["t1"] - p["t0"] for p in passes
    )
    # Each request's median over the passes, so one slow pass does not
    # set the percentiles. Explicit-method calls (large_triples' blocks
    # and anchored ones) count in throughput only: the anchored calls'
    # times move with the chain each seed's sequences give, and they sit
    # in the middle of the set.
    timed = [p["latency_s"] for p in passes if p["latency_s"]]
    latencies = [
        statistics.median(lat[i] for lat in timed)
        for i, req in enumerate(wl.requests)
        if req.method == "auto" and timed
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_aps": throughput,
        "latency_p50_ms": tracing.percentile(latencies, 0.5) * 1e3,
        "latency_p95_ms": tracing.percentile(latencies, 0.95) * 1e3,
        # A closed loop sustains exactly its completion rate.
        "max_rate_ok_rps": throughput,
        "ok_frac": 1.0 - sum(failed) / attempted,
        "peak_rss_mb": peak_kb / 1024,
    }
    notes = {"passes": len(passes), "pass_failures": failed}
    return metrics, attempted, sum(failed), notes


def worker_pass(procs, wl, trace: bool, **extra) -> dict:
    proc = start_worker(procs, wl.name, worker_spec(wl, 1, trace, **extra))
    if read_message(proc)["event"] != "ready":
        raise RuntimeError("worker did not get ready")
    proc.stdin.write("go\n")
    proc.stdin.flush()
    msg = read_message(proc)
    terminate(proc)
    return msg


def worker_trace(procs, wl, checker) -> tuple[dict, int, int]:
    base = worker_pass(
        procs, wl, False, speedup=wl.name == "large_triples"
    )
    traced = worker_pass(procs, wl, True)
    attempted = 2 * len(wl.requests)
    failed = sum(
        sum(check_passes(wl, msg["passes"], checker)) for msg in (base, traced)
    )
    (p,) = traced["passes"]
    (p_base,) = base["passes"]
    spans = traced["spans"]
    window = tracing.in_window(spans, p["t0"], p["t1"])
    metrics = tracing.layer_metrics(window, spans)
    wall = p["t1"] - p["t0"]
    metrics.update({
        "serve.wait_ms.p50": 0.0,
        "serve.return_ms.p50": 0.0,
        "serve.batch_requests.mean": 0.0,
        "serve.generator_late_ms.max": 0.0,
        "serve.samples": 0,
        "serve.drain_s": 0.0,
        "parallel.blocks_speedup_vs_serial": base.get(
            "blocks_speedup_vs_serial", 0.0
        ),
        "trace.accounted_frac": tracing.top_level_ms(window) / 1e3 / wall,
        "trace.overhead_frac": wall / (p_base["t1"] - p_base["t0"]) - 1.0,
    })
    dump_spans(wl.name, spans)
    return metrics, attempted, failed


def dump_spans(workload: str, spans: list) -> None:
    """Write the traced run's spans, one JSON array per line."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}.jsonl", "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _watchdog(_signum, _frame):
    raise TimeoutError(f"benchmark run exceeded {WATCHDOG_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--no-record", action="store_true",
        help="do not append a row to the repro.runs store",
    )
    args = parser.parse_args(argv)
    bootstrap()

    import verify
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    t_run = time.perf_counter()
    verify.self_test()
    wl = workloads.build(args.workload, args.seed, args.seconds)
    checker = Checker(wl)
    procs = Processes()
    notes: dict = {}
    try:
        if args.trace:
            if wl.name == "serve_small":
                metrics, attempted, failed = serve_trace(procs, wl, checker)
            else:
                metrics, attempted, failed = worker_trace(procs, wl, checker)
            units = PER_LAYER_UNITS
        else:
            if wl.name == "serve_small":
                metrics, attempted, failed, notes = serve_e2e(
                    procs, wl, checker
                )
            else:
                metrics, attempted, failed, notes = worker_e2e(
                    procs, wl, args.seconds, checker
                )
            units = E2E_UNITS
    finally:
        procs.close()
        signal.alarm(0)

    correct = not checker.mismatches
    for line in checker.mismatches[:20]:
        print(f"# MISMATCH {line}", file=sys.stderr)
    from repro.runs import record_run

    record_run(
        "e2ebench",
        config={
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        metrics=metrics,
        wall_s=time.perf_counter() - t_run,
        notes={"correct": correct, "attempted": attempted,
               "failed": failed, **notes},
        enabled=not args.no_record,
    )
    for name, unit in units.items():
        print(f"# {wl.name} {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


#: Per-layer metric units (``--trace 1``); see METRICS.md for each one.
PER_LAYER_UNITS = {
    "serve.wait_ms.p50": "ms",
    "serve.return_ms.p50": "ms",
    "serve.batch_requests.mean": "count",
    "serve.generator_late_ms.max": "ms",
    "serve.samples": "count",
    "serve.drain_s": "s",
    "batch.self_ms.total": "ms",
    "batch.pool_jobs": "count",
    "batch.direct_jobs": "count",
    "batch.dedup_ratio": "fraction",
    "cache.get_us.p50": "us",
    "cache.put_us.p50": "us",
    "cache.key_us.p50": "us",
    "cache.hit_rate": "fraction",
    "cache.self_ms.total": "ms",
    "core.api.select_us.p50": "us",
    "core.api.resolved.wavefront": "count",
    "core.api.resolved.pruned": "count",
    "core.api.resolved.banded": "count",
    "core.api.resolved.hirschberg": "count",
    "core.api.degraded": "count",
    "core.api.self_ms.total": "ms",
    "core.bounds.tube_ms.total": "ms",
    "core.bounds.kept_fraction.mean": "fraction",
    "core.bounds.self_ms.total": "ms",
    "core.band.ms.total": "ms",
    "core.band.self_ms.total": "ms",
    "core.hirschberg.ms.total": "ms",
    "core.hirschberg.calls": "count",
    "core.hirschberg.self_ms.total": "ms",
    "core.wavefront.sweep_ms.total": "ms",
    "core.wavefront.pruned_sweep_ms.total": "ms",
    "core.wavefront.kernel_calls": "count",
    "core.wavefront.kernel_cells": "count",
    "core.wavefront.kernel_us_per_call.p50": "us",
    "core.wavefront.kernel_cells_per_s": "cells/s",
    "core.wavefront.kernel_bytes_computed": "bytes",
    "core.wavefront.kernel_ms.total": "ms",
    "core.wavefront.self_ms.total": "ms",
    "parallel.pool_setup_s": "s",
    "parallel.pool_align_ms.p50": "ms",
    "parallel.blocks_ms.total": "ms",
    "parallel.blocks_speedup_vs_serial": "x",
    "parallel.self_ms.total": "ms",
    "anchor.discover_ms.total": "ms",
    "anchor.chain_ms.total": "ms",
    "anchor.segments": "count",
    "anchor.self_ms.total": "ms",
    "trace.overhead_frac": "fraction",
    "trace.accounted_frac": "fraction",
}


if __name__ == "__main__":
    sys.exit(main())
