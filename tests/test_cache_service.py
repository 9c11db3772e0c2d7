"""Shared cache service: wire protocol, the remote client, and the
three-tier ResultCache integration the serve replicas rely on."""

from __future__ import annotations

import asyncio
import queue
import socket
import threading
import time

import pytest

from repro.cache import ResultCache, encode_alignment, request_key
from repro.cache.remote import RemoteCacheClient
from repro.cache.service import CacheServer
from repro.core.api import align3, resolve_scheme
from repro.core.scoring import default_scheme_for
from repro.seqio.alphabet import DNA
from repro.serve import ServeClient

TRIPLE = ("GATTACA", "GATCA", "GTTACA")


def _key_and_alignment():
    scheme = default_scheme_for(DNA)
    aln = align3(*TRIPLE, scheme)
    key = request_key(TRIPLE, resolve_scheme(TRIPLE, None), "global", "auto")
    return key, aln


class CacheServerThread:
    """A CacheServer on its own thread + event loop, drained on exit."""

    def __init__(self, **overrides):
        overrides.setdefault("port", 0)
        self.server: CacheServer | None = None
        self._overrides = overrides
        self._ready: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        item = self._ready.get(timeout=30)
        if isinstance(item, BaseException):
            raise item
        self.port: int = item

    def _run(self) -> None:
        async def amain():
            self.server = CacheServer(**self._overrides)
            try:
                _host, port = await self.server.start()
            except BaseException as exc:  # pragma: no cover - setup only
                self._ready.put(exc)
                return
            self._ready.put(port)
            await self.server.serve_until_drained()

        asyncio.run(amain())

    def __enter__(self) -> "CacheServerThread":
        return self

    def __exit__(self, *exc) -> None:
        assert self.server is not None
        self.server.request_drain()
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "cache server failed to drain"


def _dead_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


@pytest.mark.serve
class TestCacheServer:
    def test_put_get_roundtrip_and_miss(self):
        key, aln = _key_and_alignment()
        with CacheServerThread() as srv:
            client = RemoteCacheClient("127.0.0.1", srv.port)
            assert client.get_payload(key) is None
            assert client.put_payload(key, encode_alignment(aln))
            got = client.get_payload(key)
            assert got is not None
            assert tuple(got["rows"]) == aln.rows
            assert float(got["score"]) == aln.score
            assert client.hits == 1 and client.misses == 1
            client.close()

    def test_http_contract(self):
        key, aln = _key_and_alignment()
        with CacheServerThread() as srv, ServeClient(
            "127.0.0.1", srv.port
        ) as http:
            # Malformed keys and bodies are rejected, not stored.
            assert http._request("GET", "/v1/cache/nothex").status == 400
            assert http._request(
                "PUT", f"/v1/cache/{key}", {"alignment": {"rows": ["A"]}}
            ).status == 400
            assert http._request(
                "PUT", f"/v1/cache/{key}", {"nope": 1}
            ).status == 400
            assert http._request("GET", f"/v1/cache/{key}").status == 404
            assert http._request("DELETE", f"/v1/cache/{key}").status == 405
            assert http._request("GET", "/nope").status == 404

            ok = http._request(
                "PUT", f"/v1/cache/{key}", {"alignment": encode_alignment(aln)}
            )
            assert ok.status == 200
            health = http._request("GET", "/healthz")
            assert health.status == 200
            assert health.body["role"] == "cache"
            assert health.body["entries"] == 1
            metrics = http._request("GET", "/metrics")
            assert metrics.status == 200
            assert metrics.body["requests"]["put"] >= 1

    def test_persistent_tier_survives_restart(self, tmp_path):
        key, aln = _key_and_alignment()
        payload = encode_alignment(aln)
        with CacheServerThread(cache_dir=str(tmp_path)) as srv:
            client = RemoteCacheClient("127.0.0.1", srv.port)
            assert client.put_payload(key, payload)
            client.close()
        with CacheServerThread(cache_dir=str(tmp_path)) as srv:
            client = RemoteCacheClient("127.0.0.1", srv.port)
            got = client.get_payload(key)
            assert got is not None and tuple(got["rows"]) == aln.rows
            client.close()


class TestRemoteCacheClient:
    def test_from_url_forms(self):
        c = RemoteCacheClient.from_url("http://localhost:9999/")
        assert (c.host, c.port) == ("localhost", 9999)
        c = RemoteCacheClient.from_url("127.0.0.1:80")
        assert (c.host, c.port) == ("127.0.0.1", 80)
        for bad in ("nope", "host:", "host:port"):
            with pytest.raises(ValueError):
                RemoteCacheClient.from_url(bad)

    def test_breaker_opens_after_consecutive_errors(self):
        key, _aln = _key_and_alignment()
        client = RemoteCacheClient(
            "127.0.0.1", _dead_port(),
            timeout_s=0.2, breaker_threshold=3, breaker_cooldown_s=60.0,
        )
        for _ in range(3):
            assert client.get_payload(key) is None
        assert client.breaker_trips == 1
        assert client.errors == 3
        # Breaker open: further calls fail fast without touching the
        # socket (error count stays put).
        assert client.get_payload(key) is None
        assert not client.put_payload(key, {"rows": []})
        assert client.errors == 3
        assert client.snapshot()["breaker_open"] == 1.0


@pytest.mark.serve
class TestResultCacheRemoteTier:
    def test_remote_hit_promotes_to_memory(self):
        key, aln = _key_and_alignment()
        with CacheServerThread() as srv:
            remote = RemoteCacheClient("127.0.0.1", srv.port)
            writer = ResultCache(remote=remote)
            writer.put(key, aln)

            reader = ResultCache(
                remote=RemoteCacheClient("127.0.0.1", srv.port)
            )
            got = reader.get(key)
            assert got is not None and got.rows == aln.rows
            assert reader.stats.remote_hits == 1
            # Promoted: the repeat is a memory hit, no round trip.
            again = reader.get(key)
            assert again is not None
            assert reader.stats.memory_hits == 1

    def test_drain_closes_idle_keepalive_connections(self):
        # An idle keep-alive client must not hold drain for the
        # keep-alive read timeout (5 s by default): idle connections
        # close at once, only in-flight requests are waited on.
        key, aln = _key_and_alignment()
        srv = CacheServerThread()
        remote = RemoteCacheClient("127.0.0.1", srv.port)
        assert remote.put_payload(key, encode_alignment(aln))
        assert remote.get_payload(key) is not None  # connection now idle
        t0 = time.perf_counter()
        srv.__exit__(None, None, None)
        assert time.perf_counter() - t0 < 1.0

    def test_dead_remote_degrades_to_local_only(self):
        key, aln = _key_and_alignment()
        cache = ResultCache(
            remote=RemoteCacheClient("127.0.0.1", _dead_port(), timeout_s=0.2)
        )
        cache.put(key, aln)  # remote mirror fails silently
        got = cache.get(key)
        assert got is not None and got.rows == aln.rows
        assert cache.stats.memory_hits == 1
