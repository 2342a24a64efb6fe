"""The service under load: started through the real CLI, driven from one
process over at most two persistent ``http.client`` connections.

The server runs ``repro serve run --port 0`` in its own process on a
fresh ``--root``; its first stdout line carries the URL, and SIGINT stops
it.  Connections keep ``http.client``'s default socket options.  A paced
phase sends each op at its due time (one thread per connection, so a
slow response delays only the ops queued on its own connection); a
closed loop sends the next op as soon as the previous one returns.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import benchmath as bm
from harness import BenchError, child_env, default_sigint, process_tree, read_line, stop, tree_peak_mb


class Server:
    """One ``repro serve run`` process on a fresh state root."""

    def __init__(self, root: Path, jobs: int):
        self.root = root
        self.jobs = jobs
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> float:
        """Start the service; returns seconds until it printed its URL
        (by then its worker pool is spawned and prewarmed)."""
        self.root.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        with open(self.root.parent / f"{self.root.name}.log", "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "run", "--port", "0",
                 "--jobs", str(self.jobs), "--root", str(self.root)],
                stdout=subprocess.PIPE, stderr=log, text=True, env=child_env(),
                start_new_session=True, preexec_fn=default_sigint,
            )
        line = read_line(self.proc, 120.0)
        ready = time.perf_counter() - started
        # "serving on http://127.0.0.1:PORT (jobs=..., root=...); Ctrl-C to stop"
        url = line.split()[2]
        if not url.startswith("http://"):
            raise BenchError(f"unexpected first line from the service: {line!r}")
        self.host, port = url[len("http://"):].rsplit(":", 1)
        self.port = int(port)
        return ready

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def peak_rss_mb(self) -> float:
        """Peak RSS summed over the service process and its pool workers."""
        return tree_peak_mb(process_tree(self.proc.pid))

    def stop(self) -> None:
        if self.proc is not None:
            stop(self.proc)


def request(conn: http.client.HTTPConnection, method: str, path: str,
            body: Optional[bytes] = None) -> Tuple[Optional[int], bytes]:
    """One request on a persistent connection; (None, b"") on a transport
    error (the connection reconnects on its next request)."""
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        conn.close()
        return None, b""


def get_stats(conn: http.client.HTTPConnection) -> Dict[str, Any]:
    status, data = request(conn, "GET", "/stats")
    if status != 200:
        raise BenchError(f"/stats answered {status}")
    return json.loads(data)


class Op:
    """One op of a load phase: what was sent and what came back."""

    __slots__ = ("index", "key", "timing", "status", "body")

    def __init__(self, index: int, key: Any, timing: bm.Timing, status: Optional[int], body: bytes):
        self.index = index
        self.key = key
        self.timing = timing
        self.status = status
        self.body = body


def _encode(params: Dict[str, Any]) -> bytes:
    return json.dumps(params).encode()


def paced(conns: Sequence[http.client.HTTPConnection],
          schedules: Sequence[List[Tuple[float, int, Any, Dict[str, Any]]]]) -> List[Op]:
    """Open-loop phase: connection *i* sends ``schedules[i]``'s ops, each
    ``(due offset s, index, key, params)``, no earlier than its due time."""
    ops: List[Op] = []
    start = time.perf_counter() + 0.05

    def run(conn, schedule):
        free = start
        for due_offset, index, key, params in schedule:
            body = _encode(params)
            due = start + due_offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, data = request(conn, "POST", "/summarize", body)
            done = time.perf_counter()
            ops.append(Op(index, key, bm.Timing(due, sent, done, free), status, data))
            free = done

    _run_threads(run, zip(conns, schedules))
    ops.sort(key=lambda op: op.index)
    return ops


def closed(conns: Sequence[http.client.HTTPConnection],
           keys: Iterator[Tuple[Any, Dict[str, Any]]], seconds: float) -> Tuple[List[Op], float]:
    """Closed loop: every connection sends its next op as soon as the
    previous one returns, until *seconds* have passed; returns the ops and
    the phase's wall time (start to the last completion)."""
    ops: List[Op] = []
    lock = threading.Lock()
    counter = iter(range(1 << 30))
    start = time.perf_counter()
    stop_at = start + seconds

    def run(conn):
        while time.perf_counter() < stop_at:
            with lock:
                index = next(counter)
                key, params = next(keys)
            body = _encode(params)
            sent = time.perf_counter()
            status, data = request(conn, "POST", "/summarize", body)
            done = time.perf_counter()
            ops.append(Op(index, key, bm.Timing(sent, sent, done, sent), status, data))

    _run_threads(run, ((conn,) for conn in conns))
    ops.sort(key=lambda op: op.index)
    elapsed = max(op.timing.done for op in ops) - start
    return ops, elapsed


def _run_threads(target: Callable, arg_tuples) -> None:
    errors: List[BaseException] = []

    def guarded(*args):
        try:
            target(*args)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=tuple(args)) for args in arg_tuples]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(300)
        if thread.is_alive():
            raise BenchError("load thread did not finish within 300s")
    if errors:
        raise errors[0]
