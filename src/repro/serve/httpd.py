"""Shared asyncio HTTP/1.1 server scaffolding.

Three services speak the same wire protocol — the alignment service
(:class:`repro.serve.app.AlignServer`), the front router
(:class:`repro.router.app.RouterServer`) and the shared cache service
(:class:`repro.cache.service.CacheServer`). :class:`JsonHttpServer`
holds everything they have in common so each service implements only
its routes and lifecycle hooks:

* socket bind/accept with per-connection tasks and keep-alive loops;
* uniform exception→status mapping around a ``_dispatch`` coroutine;
* graceful drain: stop accepting, run the service's flush hooks, close
  idle keep-alive connections, give in-flight responses a bounded grace
  period, then cancel stragglers;
* the signal-driven ``request_drain``/``serve_until_drained`` pattern
  and the ``# <banner> HOST:PORT`` stderr line the tooling scrapes.

The drain sequence is ordered for rolling restarts: the ``draining``
flag flips (so ``/healthz`` answers 503) *before* the listener closes,
and ``drain_grace_s`` optionally keeps the listener open in that state
so a health-polling router observes the drain and reroutes while the
replica still answers — the zero-failed-request handoff
``docs/robustness.md`` describes.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import sys
import time
from typing import Any

from repro.serve import protocol


class JsonHttpServer:
    """Base class for the stack's asyncio JSON-over-HTTP services."""

    #: stderr banner prefix; tooling scrapes ``# <banner> HOST:PORT``.
    banner = "serving on"

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = protocol.DEFAULT_MAX_BODY_BYTES,
        keepalive_timeout_s: float = 5.0,
        drain_timeout_s: float = 30.0,
        drain_grace_s: float = 0.0,
    ):
        self._bind_host = host
        self._bind_port = port
        self.max_body_bytes = int(max_body_bytes)
        self.keepalive_timeout_s = float(keepalive_timeout_s)
        self.drain_timeout_s = float(drain_timeout_s)
        self.drain_grace_s = float(drain_grace_s)
        self.draining = False
        self.host: str | None = None
        self.port: int | None = None
        self._server: asyncio.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        # Connection tasks waiting for their next request (no request in
        # flight): drain closes these at once instead of waiting out the
        # keep-alive read timeout.
        self._idle_tasks: set[asyncio.Task] = set()
        self._drain_requested: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started_at = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the socket (after :meth:`_on_start`); returns (host, port)."""
        self._loop = asyncio.get_running_loop()
        self._drain_requested = asyncio.Event()
        await self._on_start()
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self._bind_host,
            port=self._bind_port,
            limit=protocol.MAX_HEADER_BYTES,
        )
        addr = self._server.sockets[0].getsockname()
        self.host, self.port = addr[0], addr[1]
        self._started_at = time.time()
        return self.host, self.port

    def request_drain(self) -> None:
        """Ask the serve loop to drain and exit. Safe to call from a
        signal handler or another thread, and idempotent — a repeat
        signal after the loop already drained and closed is a no-op."""
        if self._loop is not None and self._drain_requested is not None:
            try:
                self._loop.call_soon_threadsafe(self._drain_requested.set)
            except RuntimeError:
                pass  # loop already closed: the drain it asked for is done

    async def serve_until_drained(self) -> None:
        """Serve until :meth:`request_drain`, then drain gracefully."""
        assert self._drain_requested is not None, "call start() first"
        await self._drain_requested.wait()
        await self.drain()

    async def drain(self) -> None:
        """Flip to draining, close the listener, flush, finish in-flight
        responses, release resources. Idempotent."""
        if self.draining:
            return
        self.draining = True
        # Grace window: /healthz already answers 503 but the listener
        # stays open, so health-polling routers reroute before connects
        # start failing (rolling-restart handoff).
        if self.drain_grace_s > 0:
            await asyncio.sleep(self.drain_grace_s)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._on_listener_closed()
        for task in list(self._idle_tasks):
            task.cancel()
        # In-flight handlers now hold their results; give them until the
        # drain timeout to write responses and hang up.
        deadline = time.monotonic() + self.drain_timeout_s
        while self._conn_tasks and time.monotonic() < deadline:
            pending = {t for t in self._conn_tasks if not t.done()}
            if not pending:
                break
            await asyncio.wait(
                pending, timeout=max(0.05, deadline - time.monotonic())
            )
        for task in list(self._conn_tasks):
            if not task.done():
                task.cancel()
        await self._on_drained()

    # Hooks ------------------------------------------------------------

    async def _on_start(self) -> None:
        """Runs before the listener binds (spawn collectors, pollers)."""

    async def _on_listener_closed(self) -> None:
        """Runs after the listener closes, before in-flight waits
        (flush queues, stop background tasks feeding responses)."""

    async def _on_drained(self) -> None:
        """Runs last: release pools and background resources."""

    def uptime_s(self) -> float:
        return round(time.time() - self._started_at, 3)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        while True:
            self._idle_tasks.add(task)
            try:
                request = await asyncio.wait_for(
                    protocol.read_request(
                        reader, max_body_bytes=self.max_body_bytes
                    ),
                    timeout=self.keepalive_timeout_s,
                )
            except asyncio.TimeoutError:
                return  # idle keep-alive connection
            except protocol.PayloadTooLarge as exc:
                writer.write(protocol.render_response(
                    413,
                    protocol.error_payload("payload_too_large", str(exc)),
                    keep_alive=False,
                ))
                await writer.drain()
                return
            except protocol.BadRequest as exc:
                writer.write(protocol.render_response(
                    400,
                    protocol.error_payload("bad_request", str(exc)),
                    keep_alive=False,
                ))
                await writer.drain()
                return
            finally:
                self._idle_tasks.discard(task)
            if request is None:
                return
            keep_alive = not request.wants_close and not self.draining
            body = await self._respond(request, keep_alive)
            writer.write(body)
            await writer.drain()
            # A drain that began mid-request has already closed the idle
            # connections; this one must not go idle after it.
            if not keep_alive or self.draining:
                return

    async def _respond(
        self, request: protocol.HttpRequest, keep_alive: bool
    ) -> bytes:
        t0 = time.perf_counter()
        extra: list[tuple[str, str]] = []
        try:
            status, payload, extra = await self._dispatch(request)
        except protocol.BadRequest as exc:
            status, payload = 400, protocol.error_payload(
                "bad_request", str(exc)
            )
        except Exception as exc:  # never let a handler kill the loop
            mapped = self._map_exception(exc)
            if mapped is None:
                status, payload = 500, protocol.error_payload(
                    "internal", f"{type(exc).__name__}: {exc}"
                )
            else:
                status, payload = mapped
        self._record_request(
            route=request.path,
            status=status,
            seconds=time.perf_counter() - t0,
        )
        return protocol.render_response(
            status, payload, keep_alive=keep_alive, extra_headers=extra
        )

    async def _dispatch(
        self, request: protocol.HttpRequest
    ) -> tuple[int, Any, list[tuple[str, str]]]:
        raise NotImplementedError

    def _map_exception(self, exc: Exception) -> tuple[int, Any] | None:
        """Service-specific exception→(status, payload) mapping; None
        falls through to the generic 500."""
        return None

    def _record_request(
        self, *, route: str, status: int, seconds: float
    ) -> None:
        """Per-exchange observability hook (no-op by default)."""

    @staticmethod
    def _method_not_allowed(
        allowed: str,
    ) -> tuple[int, Any, list[tuple[str, str]]]:
        return 405, protocol.error_payload(
            "method_not_allowed", f"use {allowed}"
        ), [("Allow", allowed)]


async def amain(server: JsonHttpServer) -> int:
    """Run ``server`` until a drain signal: the shared body of every
    blocking CLI entry point (``repro serve``/``router``/``cache-server``)."""
    host, port = await server.start()
    print(
        f"# {server.banner} {host}:{port}", file=sys.stderr, flush=True
    )
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(sig, server.request_drain)
    await server.serve_until_drained()
    print("# drained cleanly", file=sys.stderr, flush=True)
    return 0


def run_blocking(make_server) -> int:
    """Blocking runner: build the server inside a fresh event loop via
    ``make_server()`` and serve until drained; returns the exit code."""
    async def _go() -> int:
        return await amain(make_server())

    try:
        return asyncio.run(_go())
    except KeyboardInterrupt:  # signal handler not installable (rare)
        return 0
