"""Span tracer with a process-safe JSONL sink.

Design constraints (see ``docs/observability.md``):

* **Zero cost when off.** The module-level :data:`enabled` flag defaults to
  False; engines hoist one read of it out of their hot loops and skip all
  instrumentation when it is False. :func:`span` returns a shared no-op
  context manager in that state.
* **Multiprocess-safe.** The sink is an ``O_APPEND`` file descriptor that
  forked workers inherit; every flush writes whole lines, so records from
  different processes interleave at line granularity and a record is
  uniquely identified by ``(pid, sid)``. Parents must call :func:`flush`
  before forking so buffered lines are not duplicated into children.
* **Comparable clocks.** Timestamps are ``time.perf_counter()`` readings;
  on Linux that is ``CLOCK_MONOTONIC``, which forked children share, so
  worker timestamps line up with the parent's.

Record types emitted (one JSON object per line):

``span``    nested timed region: name, pid, sid, parent, t0, t1, dur
``event``   instant marker: name, pid, t, plus free-form attributes
``planes``  per-plane cells/durations of one sweep, batched as two lists
            indexed by the wavefront index ``d``
``worker``  one worker's sweep summary: engine, pid, worker, busy_s,
            wait_s, cells, planes
``sweep``   one whole sweep: engine, pid, cells, seconds, cells_per_s,
            peak_plane_bytes, move_cube_bytes
``sim``     one simulated execution: procs, blocks, messages, comm bytes,
            makespan, speedup
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any

#: Module-level fast guard. Engines read this once per sweep; when False the
#: instrumented path is never entered.
enabled = False

_recorder: "TraceRecorder | None" = None

#: Buffered lines before an automatic flush. Buffering keeps the per-plane
#: emit cost to a string append; the overhead guard in
#: ``tools/check_overhead.py`` depends on this.
_FLUSH_EVERY = 256


class TraceRecorder:
    """Append-only JSONL sink shared by all processes of a run."""

    def __init__(self, path: Any):
        self.path = os.fspath(path)
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._buf: list[str] = []
        self._lock = threading.Lock()

    def emit(self, record: dict) -> None:
        """Serialise ``record`` and queue it for the sink."""
        self.emit_line(json.dumps(record, separators=(",", ":")))

    def emit_line(self, line: str) -> None:
        """Queue one pre-serialised JSON line (fast path for hot records)."""
        with self._lock:
            self._buf.append(line)
            if len(self._buf) >= _FLUSH_EVERY:
                self._flush_locked()

    def _flush_locked(self) -> None:
        if self._buf and self._fd >= 0:
            os.write(self._fd, ("\n".join(self._buf) + "\n").encode())
            self._buf.clear()

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        with self._lock:
            self._flush_locked()
            if self._fd >= 0:
                os.close(self._fd)
                self._fd = -1

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def install(recorder: TraceRecorder) -> None:
    """Route all trace records to ``recorder`` and enable tracing."""
    global enabled, _recorder
    _recorder = recorder
    enabled = True


def uninstall() -> None:
    """Disable tracing; the recorder is flushed but left open for the caller."""
    global enabled, _recorder
    if _recorder is not None:
        _recorder.flush()
    _recorder = None
    enabled = False


def flush() -> None:
    """Flush buffered records. Call before forking workers."""
    if _recorder is not None:
        _recorder.flush()


def _after_fork_in_child() -> None:
    # Another thread of the parent may have held the sink's lock (or
    # queued lines) at the fork: the child starts with a free lock and
    # leaves the parent's lines to the parent.
    if _recorder is not None:
        _recorder._lock = threading.Lock()
        _recorder._buf = []


os.register_at_fork(after_in_child=_after_fork_in_child)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

_tls = threading.local()
_next_sid = 0


def _stack() -> list[int]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "attrs", "sid", "parent", "t0")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        global _next_sid
        _next_sid += 1
        self.sid = _next_sid
        stack = _stack()
        self.parent = stack[-1] if stack else None
        stack.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        t1 = time.perf_counter()
        stack = _stack()
        if stack and stack[-1] == self.sid:
            stack.pop()
        rec = _recorder
        if rec is not None:
            record = {
                "type": "span",
                "name": self.name,
                "pid": os.getpid(),
                "sid": self.sid,
                "parent": self.parent,
                "t0": self.t0,
                "t1": t1,
                "dur": t1 - self.t0,
            }
            record.update(self.attrs)
            rec.emit(record)
        return False


def span(name: str, **attrs: Any):
    """Context manager timing a named region; no-op while disabled.

    Nested spans record their parent's ``sid``; each process numbers its
    spans independently, so ``(pid, sid)`` is the merge key.
    """
    if not enabled:
        return _NULL_SPAN
    return _Span(name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Emit an instant event record."""
    rec = _recorder
    if rec is None:
        return
    record: dict[str, Any] = {
        "type": "event",
        "name": name,
        "pid": os.getpid(),
        "t": time.perf_counter(),
    }
    record.update(attrs)
    rec.emit(record)


# ---------------------------------------------------------------------------
# Typed fast-path records (hand-formatted: these fire once per plane/worker)
# ---------------------------------------------------------------------------


def planes(engine: str, cells: list[int], durs: list[float]) -> None:
    """Record the per-plane cell counts and durations of one sweep.

    One batched record per sweep (index = wavefront index ``d``) keeps the
    in-loop tracing cost to a pair of list appends; emitting a JSON line
    per plane measurably slowed small sweeps.
    """
    rec = _recorder
    if rec is None:
        return
    rec.emit(
        {
            "type": "planes",
            "engine": engine,
            "pid": os.getpid(),
            "cells": cells,
            "durs": [round(x, 9) for x in durs],
        }
    )


def worker(
    engine: str,
    worker_id: int,
    busy_s: float,
    wait_s: float,
    cells: int,
    planes: int,
) -> None:
    """Record one worker's busy/barrier-wait totals for a sweep."""
    rec = _recorder
    if rec is None:
        return
    rec.emit_line(
        f'{{"type":"worker","engine":"{engine}","pid":{os.getpid()},'
        f'"worker":{worker_id},"busy_s":{busy_s:.9f},"wait_s":{wait_s:.9f},'
        f'"cells":{cells},"planes":{planes}}}'
    )


def sweep(
    engine: str,
    cells: int,
    seconds: float,
    peak_plane_bytes: int = 0,
    move_cube_bytes: int = 0,
) -> None:
    """Record a completed sweep with throughput and buffer sizes."""
    rec = _recorder
    if rec is None:
        return
    cps = cells / seconds if seconds > 0 else 0.0
    rec.emit(
        {
            "type": "sweep",
            "engine": engine,
            "pid": os.getpid(),
            "cells": cells,
            "seconds": seconds,
            "cells_per_s": cps,
            "peak_plane_bytes": peak_plane_bytes,
            "move_cube_bytes": move_cube_bytes,
        }
    )


def sim(
    procs: int,
    blocks: int,
    messages: int,
    comm_bytes: int,
    makespan: float,
    speedup: float,
) -> None:
    """Record one simulated cluster execution."""
    rec = _recorder
    if rec is None:
        return
    rec.emit(
        {
            "type": "sim",
            "pid": os.getpid(),
            "procs": procs,
            "blocks": blocks,
            "messages": messages,
            "comm_bytes": comm_bytes,
            "makespan": makespan,
            "speedup": speedup,
        }
    )


# ---------------------------------------------------------------------------
# Reading traces back
# ---------------------------------------------------------------------------


def read_trace(path: Any) -> list[dict]:
    """Parse a JSONL trace file, skipping blank or truncated lines."""
    records: list[dict] = []
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                # A worker killed mid-write can leave one truncated line.
                continue
    return records
