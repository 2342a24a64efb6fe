"""Process plumbing shared by the workloads.

Every workload process — the service, the battery parent, the world
grower and reader, the reference checkers — is a fresh interpreter
started here with a pinned environment: the ``REPRO_*`` execution
selectors unset (so ``auto`` resolves from the inputs alone), a fixed
``PYTHONHASHSEED``, single-threaded BLAS, and ``src`` as the only
``PYTHONPATH`` entry.  Peak memory is read from ``/proc`` as the sum of
each process's ``VmHWM`` over the workload's own process tree.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = ROOT / ".perfbench_state"

#: Execution selectors the program reads from the environment; unset so a
#: caller's shell cannot change which backend, engine or transport runs.
UNSET_VARS = (
    "REPRO_BACKEND",
    "REPRO_ENGINE",
    "REPRO_TRANSPORT",
    "REPRO_MP_START",
    "REPRO_TRANSPORT_DIR",
    "PYTHONDONTWRITEBYTECODE",
)

PINNED_VARS = {
    "PYTHONHASHSEED": "0",
    "PYTHONUNBUFFERED": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not run a workload to completion."""


def program_present() -> bool:
    """Whether the program's sources are beside the benchmark."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """The pinned environment every workload process runs under."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET_VARS}
    env.update(PINNED_VARS)
    env["PYTHONPATH"] = str(SRC)
    return env


def python_cmd(script: str, *args: str) -> List[str]:
    """Command line for one of the benchmark's own scripts."""
    return [sys.executable, str(BENCH_DIR / script), *args]


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """Next stdout line of *proc* (text mode), or ``BenchError`` when the
    process exits or stays silent for *timeout* seconds."""
    deadline = time.monotonic() + timeout
    stream = proc.stdout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no output from pid {proc.pid} within {timeout}s")
        ready, _, _ = select.select([stream], [], [], remaining)
        if ready:
            line = stream.readline()
            if not line:
                raise BenchError(f"pid {proc.pid} exited (code {proc.wait()})")
            return line.rstrip("\n")


def default_sigint() -> None:
    """``preexec_fn`` for a process stopped with SIGINT: a shell that
    started the benchmark in the background leaves SIGINT ignored, and
    Python installs no KeyboardInterrupt handler for an ignored signal."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def stop(proc: subprocess.Popen, sig: int = signal.SIGINT, timeout: float = 20.0) -> int:
    """Signal *proc*, wait for it, kill its process group if it lingers,
    and wait until every process of the group (pool workers included)
    has ended; returns its exit code.  *proc* must lead its own session."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            pass
    _kill_group(proc.pid)
    proc.wait(timeout)
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode


def _kill_group(pgid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        return
    raise BenchError(f"process group {pgid} survived SIGKILL for {timeout}s")


class Child:
    """One run of ``child.py <task>`` in a fresh process.

    The task's arguments travel in a JSON file; the child prints
    ``ready`` once it is ready for load (its set-up time is measured from
    :meth:`start` to that line) and its result as the last stdout line.
    """

    def __init__(self, task: str, args: Dict[str, Any], workdir: Path):
        self.task = task
        workdir.mkdir(parents=True, exist_ok=True)
        self.args_path = workdir / f"{task}-{time.monotonic_ns()}.json"
        self.args_path.write_text(json.dumps(args))
        self.log_path = self.args_path.with_suffix(".log")
        self.proc: Optional[subprocess.Popen] = None
        self.started = 0.0

    def start(self) -> "Child":
        self.started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                python_cmd("child.py", self.task, str(self.args_path)),
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                env=child_env(),
                cwd=ROOT,
                start_new_session=True,
            )
        return self

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Seconds from start until the child reported ``ready``."""
        line = self._line(timeout)
        if line != "ready":
            raise BenchError(f"{self.task}: expected 'ready', got {line[:200]!r}")
        return time.perf_counter() - self.started

    def result(self, timeout: float = 170.0) -> Dict[str, Any]:
        """The child's JSON result (its last stdout line); reaps it."""
        line = self._line(timeout)
        code = self.proc.wait(timeout)
        self.proc.stdout.close()
        if code != 0:
            raise BenchError(f"{self.task} exited with {code}: {self.log_tail()}")
        return json.loads(line)

    def kill(self) -> None:
        """Kill the child if it still runs, and anything left in its group."""
        if self.proc is not None:
            stop(self.proc, signal.SIGKILL)

    def _line(self, timeout: float) -> str:
        try:
            return read_line(self.proc, timeout)
        except BenchError as exc:
            raise BenchError(f"{self.task}: {exc}: {self.log_tail()}") from None

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text()[-2000:]
        except OSError:
            return ""


def run_children(jobs: List[Tuple[str, Dict[str, Any]]], workdir: Path,
                 timeout: float = 170.0) -> List[Dict[str, Any]]:
    """Run ``(task, args)`` children side by side; their results in order."""
    children = [Child(task, args, workdir).start() for task, args in jobs]
    try:
        return [child.result(timeout) for child in children]
    finally:
        for child in children:
            child.kill()


def run_child(task: str, args: Dict[str, Any], workdir: Path) -> Dict[str, Any]:
    return run_children([(task, args)], workdir)[0]


def setup_seconds(task: str, args: Dict[str, Any], workdir: Path) -> float:
    """Start a set-up-only child; seconds until it reported ready."""
    child = Child(task, args, workdir).start()
    try:
        ready = child.wait_ready()
        child.result()
        return ready
    finally:
        child.kill()


# ------------------------------------------------------------------ memory


def _parent_map() -> Dict[int, int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces and parentheses: split after it.
        fields = stat[stat.rfind(")") + 2 :].split()
        parents[int(entry)] = int(fields[1])
    return parents


def process_tree(pid: int) -> List[int]:
    """*pid* and all its live descendants."""
    children: Dict[int, List[int]] = {}
    for child, parent in _parent_map().items():
        children.setdefault(parent, []).append(child)
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo.extend(children.get(current, ()))
    return tree


def vm_hwm_kb(pid: int) -> Optional[int]:
    """Peak resident set of *pid* in KiB (None once it has exited)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def tree_peak_mb(pids: Iterable[int]) -> float:
    """Sum of per-process peak RSS over *pids*, in MB."""
    return sum(vm_hwm_kb(pid) or 0 for pid in pids) / 1024.0


class PeakWatch:
    """Polls the peak RSS of a process tree from outside, so processes
    that exit before the workload ends (a battery's pool workers) still
    count.  Each process contributes the last ``VmHWM`` read for it."""

    def __init__(self, pid: int, interval: float = 0.1):
        self.pid = pid
        self.interval = interval
        self.peaks: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self) -> "PeakWatch":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(5)

    def _poll(self) -> None:
        while True:
            for pid in process_tree(self.pid):
                peak = vm_hwm_kb(pid)
                if peak is not None:
                    self.peaks[pid] = max(peak, self.peaks.get(pid, 0))
            if self._stop.wait(self.interval):
                return

    @property
    def total_mb(self) -> float:
        return sum(self.peaks.values()) / 1024.0


# ------------------------------------------------------------- environment


def cpu_jiffies() -> Tuple[int, int]:
    """(steal, total) CPU time of the host's view of this machine, from
    ``/proc/stat``; the steal share of a run says how much the hypervisor
    held the CPUs back while it ran."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:9]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def environment_record(versions: Dict[str, Any], **resolved: Any) -> Dict[str, Any]:
    """Host and toolchain facts a reader needs to compare two runs;
    *versions* comes from a workload process (the harness itself never
    imports the program or its numeric stack)."""
    record: Dict[str, Any] = {"nproc": os.cpu_count(), "commit": _commit()}
    record.update(versions)
    record.update(resolved)
    return record


def _commit() -> str:
    # Only ask git when the checkout itself is a repository, so the lookup
    # never walks up into an enclosing one.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"
