"""Tests for the HTTP front-end and the stdlib client, over real sockets."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.exec import SweepEngine
from repro.serve import QueryService, ServeClient, ServeError, httpd, make_server

QUICK = {"hurst": 0.7, "cutoff": 2.0, "buffer": 0.3,
         "initial_bins": 32, "max_bins": 64, "relative_gap": 0.5}


@pytest.fixture
def server():
    service = QueryService(SweepEngine(), batch_size=4, batch_delay_s=0.005)
    server = make_server("127.0.0.1", 0, service).start_background()
    yield server
    server.close()


@pytest.fixture
def client(server):
    client = ServeClient(f"http://127.0.0.1:{server.port}", timeout_s=30.0)
    client.wait_until_ready(timeout_s=10.0)
    return client


class TestEndpoints:
    def test_healthz_reports_ok(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0

    def test_loss_query_round_trip(self, client):
        response = client.loss(**QUICK)
        assert response["ok"] is True
        assert response["kind"] == "loss"
        result = response["result"]
        assert 0.0 < result["lower"] <= result["upper"] < 1.0
        assert result["converged"] is True
        assert response["coalesced"] is False

    def test_horizon_and_dimension_round_trip(self, client):
        horizon = client.horizon(hurst=0.75, buffer=0.5)
        assert horizon["result"]["eq26_horizon_s"] > 0
        dimension = client.dimension(
            hurst=0.7, cutoff=2.0, buffer=0.3, target_loss=1e-2,
            relative_gap=0.5, initial_bins=32, max_bins=64,
        )
        assert 1.0 < dimension["result"]["effective_bandwidth"] <= 2.0

    def test_stats_reflects_traffic(self, client):
        client.loss(**QUICK)
        stats = client.stats()
        assert stats["accepted"] >= 1
        assert stats["completed"] >= 1
        assert stats["engine"]["cells"] >= 1
        assert "queue" in stats and "latency_s" in stats
        assert stats["singleflight"]["leaders"] >= 1
        assert stats["memory_lru"]["entries"] >= 1
        # A replay of the same query is answered from the memory tier.
        client.loss(**QUICK)
        assert client.stats()["memory_lru"]["hits"] >= 1

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/nope", {"kind": "loss"})
        assert excinfo.value.status == 404


class TestErrorMapping:
    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/query",
            data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "invalid JSON" in json.loads(excinfo.value.read())["error"]

    def test_protocol_violations_are_400_with_a_message(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.query({"kind": "loss", "hurst": 1.5})
        assert excinfo.value.status == 400
        assert "hurst" in str(excinfo.value)
        with pytest.raises(ServeError) as excinfo:
            client.query({"kind": "warp"})
        assert excinfo.value.status == 400

    def test_empty_body_is_400(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/query", data=b"", method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


def _reply(sock: socket.socket) -> bytes:
    """Everything the server sends before it closes the connection."""
    chunks = []
    try:
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    except ConnectionResetError:
        pass  # closed with part of the request unread
    return b"".join(chunks)


class TestSlowAndOversizedClients:
    def test_header_line_beyond_the_stream_limit_is_400(self, server, monkeypatch):
        # 100 KiB in one line overruns the stream reader's 64 KiB line limit.
        monkeypatch.setattr(httpd, "_IDLE_TIMEOUT_S", 2.0)
        big = b"X-Big: " + b"a" * (100 << 10) + b"\r\n"
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n" + big + b"\r\n")
            reply = _reply(sock)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"oversized request headers" in reply

    def test_stalled_body_is_dropped_after_the_idle_timeout(self, server, monkeypatch):
        monkeypatch.setattr(httpd, "_IDLE_TIMEOUT_S", 0.5)
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            # Content-Length promises 50 bytes; only 9 ever arrive.
            sock.sendall(b"POST /v1/query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"kind\": ")
            started = time.monotonic()
            assert _reply(sock) == b""
        assert time.monotonic() - started < 5.0

    def test_trickled_header_lines_are_dropped_after_the_idle_timeout(
        self, server, monkeypatch
    ):
        # Every line arrives well within the timeout; the whole head does not.
        monkeypatch.setattr(httpd, "_IDLE_TIMEOUT_S", 0.6)
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            try:
                for index in range(6):
                    time.sleep(0.2)
                    sock.sendall(f"X-Trickle-{index}: 1\r\n".encode())
                sock.sendall(b"\r\n")
            except (BrokenPipeError, ConnectionResetError):
                pass  # already dropped
            assert _reply(sock) == b""


class TestShutdown:
    def test_draining_server_returns_503_on_healthz(self):
        service = QueryService(SweepEngine(), batch_size=2, batch_delay_s=0.005)
        server = make_server("127.0.0.1", 0, service).start_background()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        client.wait_until_ready(timeout_s=10.0)
        # Drain the service but keep the listener up: health must flip to 503
        # so a load balancer stops routing before the socket goes away.
        service.close(drain=True)
        try:
            with pytest.raises(ServeError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 503
            with pytest.raises(ServeError) as excinfo:
                client.loss(**QUICK)
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after_s is not None
            with pytest.raises(ServeError) as excinfo:  # its executor is released
                client.stats()
            assert excinfo.value.status == 503
        finally:
            server.close()

    def test_server_close_is_idempotent(self):
        service = QueryService(SweepEngine())
        server = make_server("127.0.0.1", 0, service).start_background()
        server.close()
        server.close()


class _SlowCache:
    """Disk-cache stand-in whose ``len`` blocks, like a first read of a big cache file."""

    hits = misses = 0

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def __len__(self) -> int:
        self.entered.set()
        self.release.wait(timeout=30)
        return 0


class TestStatsOffTheLoop:
    def test_stats_reading_the_cache_does_not_stall_other_connections(self):
        cache = _SlowCache()
        service = QueryService(SweepEngine(cache=cache), batch_size=2, batch_delay_s=0.005)
        server = make_server("127.0.0.1", 0, service).start_background()
        url = f"http://127.0.0.1:{server.port}"
        ServeClient(url).wait_until_ready(timeout_s=10.0)
        replies: list[dict] = []
        reader = threading.Thread(target=lambda: replies.append(ServeClient(url).stats()))
        reader.start()
        try:
            assert cache.entered.wait(timeout=10)
            # /stats is parked inside the cache; the loop must still answer.
            assert ServeClient(url, timeout_s=3.0).healthz()["status"] == "ok"
        finally:
            cache.release.set()
            reader.join(timeout=10)
            server.close()
        assert not reader.is_alive()
        assert replies and replies[0]["cache"]["entries"] == 0
