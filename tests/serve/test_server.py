"""HTTP layer + client + load harness over one live service.

One module-scoped server backs every test: the HTTP front is a thin
blocking shim over the dispatcher, so what these tests pin is the wire
contract — routes, JSON shapes, the error-to-status mapping (400/404/
409/503), keep-alive without a delayed-ACK stall, ``100 Continue``,
request-body framing over raw sockets, the Prometheus exposition of
``/metrics``, the named-world endpoints against a real
:class:`~repro.store.store.GraphStore`, and the
:func:`~repro.serve.loadgen.run_load` harness end to end.
"""

import http.client
import json
import socket
import statistics
import time
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.serve import (
    ServeClient,
    ServeClientError,
    ServeDispatcher,
    percentile,
    run_load,
    running_server,
)

N = 150
MODEL = "albert-barabasi"


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    dispatcher = ServeDispatcher(
        jobs=1, root=tmp_path_factory.mktemp("serve-http"), threads=2
    )
    with running_server(dispatcher) as url:
        yield ServeClient(url)
    dispatcher.shutdown()


class TestEndpoints:
    def test_health(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["jobs"] == 1
        assert health["uptime_seconds"] >= 0

    def test_summarize_round_trip(self, service):
        result = service.summarize(MODEL, N, seed=1)
        assert result["model"] == MODEL
        assert result["values"]["num_nodes"] == N
        repeat = service.summarize(MODEL, N, seed=1)
        assert repeat["values"] == result["values"]
        assert repeat["generated"] == 0

    def test_summarize_with_params_and_groups(self, service):
        result = service.summarize(
            "waxman", N, seed=2, params={"alpha": 0.2}, groups=["size"]
        )
        assert result["groups"] == ["size"]
        assert set(result["values"]) >= {"num_nodes", "num_edges"}

    def test_generate(self, service):
        result = service.generate(MODEL, N, seed=8)
        assert result["num_nodes"] == N
        assert result["fingerprint"]

    def test_compare(self, service):
        result = service.compare(MODEL, N, seed=1)
        assert result["score"] >= 0
        assert result["rows"]

    def test_stats(self, service):
        stats = service.stats()
        assert stats["queue_limit"] == 64
        assert "serve.requests" in stats["counters"]

    def test_metrics_prometheus_exposition(self, service):
        text = service.metrics_text()
        assert "# TYPE serve_requests counter" in text
        assert "serve_request_seconds_count" in text
        assert "serve_queue_depth" in text


class TestErrorMapping:
    def test_unknown_model_is_400(self, service):
        with pytest.raises(ServeClientError) as excinfo:
            service.summarize("no-such-model", N)
        assert excinfo.value.status == 400
        assert "cannot build model" in excinfo.value.message

    def test_unknown_route_is_404(self, service):
        with pytest.raises(ServeClientError) as excinfo:
            service._request("GET", "/frobnicate")
        assert excinfo.value.status == 404

    def test_unknown_world_is_404(self, service):
        with pytest.raises(ServeClientError) as excinfo:
            service.world_info("missing")
        assert excinfo.value.status == 404

    def test_invalid_world_id_is_400(self, service):
        with pytest.raises(ServeClientError) as excinfo:
            service._request("PUT", "/worlds/..", {"model": MODEL, "n": N})
        assert excinfo.value.status == 400

    def test_non_object_body_is_400(self, service):
        request = urllib.request.Request(
            service.base_url + "/summarize",
            data=json.dumps([1, 2]).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unreachable_server_maps_to_status_zero(self):
        client = ServeClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServeClientError) as excinfo:
            client.health()
        assert excinfo.value.status == 0


def _address(service):
    parsed = urlparse(service.base_url)
    return parsed.hostname, parsed.port


def _recv(sock, until=None):
    """Bytes from *sock* through *until*, or up to EOF when it is None."""
    received = b""
    while until is None or until not in received:
        chunk = sock.recv(65536)
        if not chunk:
            break
        received += chunk
    return received


class TestWire:
    """Keep-alive, interim responses and body framing, seen from the socket.

    Every socket carries a timeout, so a server that stalls or leaves a
    connection open fails the test instead of hanging it.
    """

    SUMMARIZE = json.dumps({"model": MODEL, "n": N, "seed": 1})

    def test_keep_alive_round_trips_do_not_stall(self, service):
        # Under Nagle a response's second write (the body) waits for the
        # client's delayed ACK of the first: ~40 ms per reused-connection
        # request.
        service.summarize(MODEL, N, seed=1)  # the summarize below is a hit
        conn = http.client.HTTPConnection(*_address(service), timeout=30)
        try:
            for method, path, body in (
                ("GET", "/health", None),
                ("POST", "/summarize", self.SUMMARIZE),
            ):
                seconds = []
                for _ in range(20):
                    start = time.perf_counter()
                    conn.request(method, path, body=body)
                    response = conn.getresponse()
                    response.read()
                    seconds.append(time.perf_counter() - start)
                    assert response.status == 200
                    assert not response.will_close
                assert statistics.median(seconds) < 0.020, (path, seconds)
        finally:
            conn.close()

    def test_expect_100_continue_arrives_before_the_body(self, service):
        body = self.SUMMARIZE.encode()
        with socket.create_connection(_address(service), timeout=30) as sock:
            sock.sendall(
                b"POST /summarize HTTP/1.1\r\nHost: test\r\n"
                b"Expect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            sock.settimeout(1.0)
            interim = _recv(sock, until=b"\r\n\r\n")
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.settimeout(30)
            sock.sendall(body)
            response = http.client.HTTPResponse(sock, method="POST")
            response.begin()
            assert response.status == 200
            assert json.loads(response.read())["values"]["num_nodes"] == N

    @pytest.mark.parametrize(
        "length", ["abc", "-1", str(2 << 20)], ids=["text", "negative", "oversized"]
    )
    def test_body_rejected_unread_closes_the_connection(self, service, length):
        # The request line after the headers would be answered as a second
        # request if the rejected body's connection stayed open.
        with socket.create_connection(_address(service), timeout=5) as sock:
            sock.sendall(
                b"POST /summarize HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n"
                b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"
            )
            received = _recv(sock)
        head, _, body = received.partition(b"\r\n\r\n")
        assert received.count(b"HTTP/1.1 ") == 1, received
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["error"]

    @pytest.mark.parametrize("with_length", [False, True], ids=["chunked", "both"])
    def test_transfer_encoding_gets_411_and_closes(self, service, with_length):
        # Framed by Content-Length alone, the chunk-size line (or the chunks
        # as a body) would be answered, then the request line after them.
        body = self.SUMMARIZE.encode()
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        framing = b"Transfer-Encoding: chunked\r\n"
        if with_length:
            framing += b"Content-Length: %d\r\n" % len(chunked)
        with socket.create_connection(_address(service), timeout=5) as sock:
            sock.sendall(
                b"POST /generate HTTP/1.1\r\nHost: test\r\n" + framing + b"\r\n"
                + chunked + b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"
            )
            received = _recv(sock)
        head, _, rest = received.partition(b"\r\n\r\n")
        assert received.count(b"HTTP/1.1 ") == 1, received
        assert head.startswith(b"HTTP/1.1 411 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(rest)["error"]

    @pytest.mark.parametrize(
        "body", [b"{not json", b"[1, 2]"], ids=["invalid", "array"]
    )
    def test_body_read_in_full_keeps_the_connection(self, service, body):
        conn = http.client.HTTPConnection(*_address(service), timeout=30)
        try:
            conn.request("POST", "/summarize", body=body)
            response = conn.getresponse()
            response.read()
            assert response.status == 400
            assert not response.will_close
            sock = conn.sock
            conn.request("GET", "/health")
            assert conn.getresponse().status == 200
            assert conn.sock is sock
        finally:
            conn.close()


class TestWorlds:
    def test_world_lifecycle(self, service):
        saved = service.put_world("staging", MODEL, N, seed=5, checkpoint_every=64)
        assert saved["world"] == "staging"
        assert saved["regenerated"] is True
        assert saved["info"]["num_nodes"] == N

        # Idempotent PUT: a complete identical store is reused, not re-grown.
        again = service.put_world("staging", MODEL, N, seed=5, checkpoint_every=64)
        assert again["regenerated"] is False

        listed = service.worlds()["worlds"]
        assert any(w["world"] == "staging" for w in listed)

        info = service.world_info("staging")
        assert info["info"]["num_nodes"] == N

        summary = service.world_summary("staging")
        assert summary["values"]["num_nodes"] == N

        full = service.world_summarize("staging", seed=0, groups=["size", "tail"])
        assert full["generated"] == 0
        assert full["values"]["num_nodes"] == N

        # Repeat summarize over the same stored world is pure cache.
        warm = service.world_summarize("staging", seed=0, groups=["size", "tail"])
        assert warm["computed_groups"] == []
        assert warm["values"] == full["values"]


class TestLoadHarness:
    def test_run_load_reports_percentiles_and_coalescing(self, service):
        report = run_load(
            service,
            requests=8,
            threads=4,
            models=(MODEL,),
            n=N,
            seeds=1,
            duplicate_rounds=2,
            groups=["size"],
        )
        assert report.errors == 0
        assert report.requests == 8 + 2 * 4
        assert len(report.all_latencies) == report.requests
        assert report.rps > 0
        assert report.p(50) <= report.p(99)
        assert report.coalesce_hits >= 1
        table = report.table()
        assert "p99 ms" in table and "coalesce_hits" in table

    def test_percentile_nearest_rank(self):
        values = [0.01 * i for i in range(1, 101)]
        assert percentile(values, 50) == pytest.approx(0.50)
        assert percentile(values, 99) == pytest.approx(0.99)
        assert percentile([], 50) != percentile([], 50)  # NaN
        assert percentile([7.0], 99) == 7.0
