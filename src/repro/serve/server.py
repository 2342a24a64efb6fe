"""Topology-as-a-service HTTP layer (stdlib only).

A thin, threaded front over :class:`~repro.serve.dispatcher.
ServeDispatcher`: every connection handler parses/serializes JSON and
blocks on the dispatcher's (possibly coalesced) future; all actual work
happens on the dispatcher threads and the warm worker pool.

Endpoints
---------
``GET /health``
    Liveness: uptime, pool size, queue depth.
``GET /metrics``
    The ambient metrics registry in Prometheus text exposition format.
``GET /stats``
    Dispatcher health as JSON (queue, coalescing, cache hit rate,
    filtered counters).
``POST /summarize`` ``{"model", "n", "seed"|"replicate", "params", "groups"}``
    Metric-group values for one (model, n, seed) topology — cache-first,
    coalesced, micro-batched on the warm pool.
``POST /generate``
    Publish (or probe) the topology's shared snapshot; returns handle
    metadata, no metrics.
``POST /compare``
    Full-battery score of the model against the frozen reference map.
``PUT /worlds/<id>`` ``{"model", "n", "seed", "params", "checkpoint_every"}``
    Grow a named world into its :class:`~repro.store.store.GraphStore`
    (checkpointed; an identical complete store is reused, not re-grown).
``GET /worlds`` · ``GET /worlds/<id>``
    List worlds / one world's store info.
``GET /worlds/<id>/summary``
    The ``size`` group straight from the store's mmap view.
``GET /worlds/<id>/summarize?seed=N&groups=a,b``
    Full metric groups for the stored world via the warm pool
    (fingerprint-keyed cells, zero generations).

Error mapping: malformed requests → 400 (a ``Content-Length`` that is
not a non-negative integer included), unknown paths/worlds → 404, store
conflicts → 409, a request carrying ``Transfer-Encoding`` → 411, a full
job queue → 503 with ``Retry-After``.

Wire
----
HTTP/1.1 keep-alive with ``TCP_NODELAY`` on every accepted connection.
Headers and body leave in two writes; under Nagle the body would wait
for the ACK of the headers, which a keep-alive client delays ~40 ms, so
nearly every request on a reused connection would stall that long.
``wfile`` stays unbuffered so an ``Expect: 100-continue`` client gets
its interim ``100 Continue`` at once, not after it has sent the body. A
body the service rejects unread (a bad or oversized ``Content-Length``)
closes its connection, so those bytes are never parsed as the next
request.  Bodies are framed by ``Content-Length`` only: a request that
carries ``Transfer-Encoding`` (chunked, or alongside a length) gets 411
Length Required before any body byte is read or a ``100 Continue`` is
sent, and its connection closes.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..obs.exporters import render_prometheus
from ..obs.metrics import get_registry
from ..store.sqlite import StoreError
from .dispatcher import ServeBusy, ServeDispatcher, ServeError

__all__ = ["TopologyServer", "running_server"]

_MAX_BODY = 1 << 20  # 1 MiB of JSON is plenty for any request we accept


class TopologyServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one dispatcher."""

    daemon_threads = True

    def __init__(
        self,
        dispatcher: ServeDispatcher,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: Optional[float] = None,
    ):
        super().__init__((host, port), _Handler)
        self.dispatcher = dispatcher
        self.request_timeout = request_timeout

    @property
    def url(self) -> str:
        """The service's base URL (resolved host and bound port)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # see "Wire" in the module docstring

    # ------------------------------------------------------------- plumbing

    def log_message(self, format: str, *args: Any) -> None:
        # Access logging is the journal's and /metrics' job; stderr noise
        # per request would drown the terminal the service runs in.
        pass

    def _send_json(
        self,
        status: int,
        body: Dict[str, Any],
        retry: bool = False,
        close: bool = False,
    ) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if retry:
            self.send_header("Retry-After", "1")
        if close:
            self.send_header("Connection", "close")  # sets close_connection
        self.end_headers()
        self.wfile.write(data)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def parse_request(self) -> bool:
        """Parse the request line and headers; refuse (411) a request
        framed by ``Transfer-Encoding``."""
        return super().parse_request() and self._length_framed()

    def handle_expect_100(self) -> bool:
        """Invite the body only when the request is ``Content-Length``
        framed; otherwise the 411 is the only response."""
        return self._length_framed() and super().handle_expect_100()

    def _length_framed(self) -> bool:
        """False once a 411 is sent for a ``Transfer-Encoding`` request.

        Its body cannot be read by length, so its connection closes before
        any of its bytes could be parsed as the next request.
        """
        if "Transfer-Encoding" not in self.headers:
            return True
        error = "Transfer-Encoding is not supported; send a Content-Length"
        self._send_json(411, {"error": error}, close=True)
        return False

    def _body(self) -> Optional[Dict[str, Any]]:
        """The request's JSON object body, or ``None`` once a 400 is sent.

        A body rejected unread closes the connection: its bytes would
        otherwise be parsed as the next request. A body read in full but
        not a JSON object keeps the connection open.
        """
        value = (self.headers.get("Content-Length") or "0").strip()
        if not (value.isascii() and value.isdigit()):
            error = f"Content-Length must be a non-negative integer, got {value!r}"
            self._send_json(400, {"error": error}, close=True)
            return None
        length = int(value)
        if length > _MAX_BODY:
            error = f"request body too large ({length} bytes)"
            self._send_json(400, {"error": error}, close=True)
            return None
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"request body is not valid JSON: {exc}"})
            return None
        if not isinstance(body, dict):
            self._send_json(400, {"error": "request body must be a JSON object"})
            return None
        return body

    def _dispatch(self, op: str, params: Dict[str, Any]) -> None:
        """Run one dispatcher op and map its failure modes onto HTTP."""
        server: TopologyServer = self.server  # type: ignore[assignment]
        try:
            result = server.dispatcher.call(
                op, params, timeout=server.request_timeout
            )
        except ServeBusy as exc:
            self._send_json(503, {"error": str(exc)}, retry=True)
        except ServeError as exc:
            self._send_json(400, {"error": str(exc)})
        except KeyError as exc:
            self._send_json(404, {"error": str(exc.args[0] if exc.args else exc)})
        except StoreError as exc:
            self._send_json(409, {"error": str(exc)})
        except Exception as exc:
            get_registry().counter("serve.http.errors").inc()
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._send_json(200, result)

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        query = {
            key: values[-1]
            for key, values in parse_qs(parsed.query).items()
            if values
        }
        return parsed.path.rstrip("/") or "/", query

    # -------------------------------------------------------------- methods

    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        path, query = self._route()
        server: TopologyServer = self.server  # type: ignore[assignment]
        if path == "/health":
            self._send_json(
                200,
                {
                    "status": "ok",
                    "uptime_seconds": round(server.dispatcher.uptime, 3),
                    "jobs": server.dispatcher.pool.jobs,
                    "queue_depth": server.dispatcher.stats()["queue_depth"],
                },
            )
            return
        if path == "/metrics":
            self._send_text(
                200, render_prometheus(get_registry()), "text/plain; version=0.0.4"
            )
            return
        if path == "/stats":
            self._send_json(200, server.dispatcher.stats())
            return
        if path == "/worlds":
            self._dispatch("world_list", {})
            return
        parts = path.strip("/").split("/")
        if parts[0] == "worlds" and len(parts) == 2:
            self._dispatch("world_info", {"world": parts[1]})
            return
        if parts[0] == "worlds" and len(parts) == 3 and parts[2] == "summary":
            self._dispatch("world_summary", {"world": parts[1]})
            return
        if parts[0] == "worlds" and len(parts) == 3 and parts[2] == "summarize":
            params: Dict[str, Any] = {"world": parts[1]}
            if "seed" in query:
                params["seed"] = query["seed"]
            if "groups" in query:
                params["groups"] = query["groups"]
            self._dispatch("world_summarize", params)
            return
        self._send_json(404, {"error": f"no route for GET {path}"})

    def do_POST(self) -> None:  # noqa: N802
        path, _ = self._route()
        body = self._body()
        if body is None:
            return
        if path in ("/summarize", "/generate", "/compare"):
            self._dispatch(path.lstrip("/"), body)
            return
        self._send_json(404, {"error": f"no route for POST {path}"})

    def do_PUT(self) -> None:  # noqa: N802
        path, _ = self._route()
        body = self._body()
        if body is None:
            return
        parts = path.strip("/").split("/")
        if parts[0] == "worlds" and len(parts) == 2:
            self._dispatch("world_save", dict(body, world=parts[1]))
            return
        self._send_json(404, {"error": f"no route for PUT {path}"})


@contextmanager
def running_server(
    dispatcher: ServeDispatcher,
    host: str = "127.0.0.1",
    port: int = 0,
    request_timeout: Optional[float] = None,
):
    """Serve *dispatcher* on a background thread; yields the base URL.

    Shuts the HTTP layer down on exit; the dispatcher's lifecycle stays
    with the caller (so one dispatcher can outlive several servers in
    tests, and ``serve run`` can own both).
    """
    server = TopologyServer(
        dispatcher, host=host, port=port, request_timeout=request_timeout
    )
    thread = threading.Thread(
        target=server.serve_forever, name="serve-http", daemon=True
    )
    thread.start()
    try:
        yield server.url
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
