"""Host the plan server as a subprocess and drive it with closed-loop clients."""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: how long a booting server may take to print its address.
BOOT_TIMEOUT_S = 60.0
#: per-request socket timeout; a request slower than this fails.
REQUEST_TIMEOUT_S = 60.0
_LISTENING = "listening on http://"
_DRAINED = "shutdown: drained cleanly"


class BenchError(RuntimeError):
    """The server could not be started or stopped as expected."""


class Server:
    """``python -m repro serve --port 0 --scale-factor 0.01 [--dataset ...]``.

    Every other flag keeps its default.  stdout and stderr (the start
    banner plus one JSON log line per request) go to *log_path*: the log
    line is part of the per-request cost, and a file never fills up the
    way an undrained pipe does.
    """

    def __init__(self, root: Path, log_path: Path, dataset: Optional[str] = None):
        self.log_path = log_path
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--scale-factor", "0.01"]
        if dataset is not None:
            argv += ["--dataset", dataset]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONUNBUFFERED"] = "1"
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log_path, "wb")
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=str(root), env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
            # Its own process group, so the optimizer pool it forks can be
            # waited for (and reaped) along with it.
            start_new_session=True,
        )
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            at = text.find(_LISTENING)
            if at >= 0:
                address = text[at + len(_LISTENING):].split()[0]
                return int(address.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                self.stop()
                raise BenchError(f"server exited during boot:\n{text[-2000:]}")
            time.sleep(0.002)
        self.stop()
        raise BenchError("server did not report its port in time")

    def peak_rss_mb(self) -> float:
        """The server process's ``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def cpu_seconds(self) -> float:
        """CPU time (user + system) used so far by the server's process group.

        Counts the server, its optimizer pool and their helpers, whether
        alive or already reaped by a member of the group.
        """
        return group_cpu_seconds(self.process.pid)

    def stop(self, timeout: float = 30.0) -> bool:
        """SIGTERM, wait, and record whether the drain was clean."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reap_group()
        self._log.close()
        text = self.log_path.read_text(errors="replace")
        return self.process.returncode == 0 and _DRAINED in text

    def _reap_group(self, timeout: float = 10.0) -> None:
        """Wait until every process of the server's group has exited.

        Exited members the init process has not reaped yet (zombies) have
        ended and are not waited for.
        """
        deadline = time.monotonic() + timeout
        while any(state != "Z" for state, _ in _group_stats(self.process.pid)):
            if time.monotonic() > deadline:
                os.killpg(self.process.pid, signal.SIGKILL)
                deadline = time.monotonic() + timeout
            time.sleep(0.01)


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PR_SET_CHILD_SUBREAPER = 36


def _proc_stats() -> List[Tuple[int, List[str]]]:
    """``(pid, stat fields)`` of every process; fields[0] is the state,
    fields[1] the parent and fields[2] the process group."""
    stats = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                stats.append((int(entry), stat.read().rsplit(")", 1)[1].split()))
        except OSError:  # exited meanwhile
            continue
    return stats


def _group_stats(pgid: int) -> List[Tuple[str, List[str]]]:
    """``(state, stat fields)`` of every process in process group *pgid*."""
    return [(fields[0], fields) for _, fields in _proc_stats() if int(fields[2]) == pgid]


def become_subreaper() -> None:
    """Adopt every orphaned descendant, so :func:`reap_children` waits for it.

    A server's helpers (its forkserver, resource tracker, pool workers)
    outlive it for a moment; without this they would be re-parented to
    the init process and could still run after the benchmark exits.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def reap_children(timeout: float = 10.0) -> None:
    """Wait until this process has no child left, zombies included.

    Children still running after *timeout* seconds are killed first.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child, fields in _proc_stats():
                if int(fields[1]) == os.getpid():
                    os.kill(child, signal.SIGKILL)
            deadline = time.monotonic() + timeout
        time.sleep(0.01)


def group_cpu_seconds(pgid: int) -> float:
    """utime + stime (own and reaped children's) summed over process group *pgid*."""
    ticks = sum(int(value) for _, fields in _group_stats(pgid) for value in fields[11:15])
    return ticks / _CLOCK_TICKS


class Connection:
    """One keep-alive HTTP/1.1 connection that never reconnects silently.

    ``http.client`` re-opens a closed connection on the next request
    unless ``auto_open`` is off; with it off a dropped connection fails
    the request, so every request the benchmark counts went over the
    connection it was meant to.
    """

    def __init__(self, port: int):
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        self._conn.connect()
        self._conn.auto_open = 0

    def post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        self._conn.request("POST", path, body, {"Content-Type": "application/json"})
        response = self._conn.getresponse()
        return response.status, response.read()

    def get(self, path: str) -> Tuple[int, bytes]:
        self._conn.request("GET", path)
        response = self._conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._conn.close()


def get_json(port: int, path: str) -> dict:
    connection = Connection(port)
    try:
        status, body = connection.get(path)
    finally:
        connection.close()
    if status != 200:
        raise BenchError(f"GET {path} answered {status}")
    return json.loads(body)


@dataclass
class Outcome:
    """One request as the client saw it."""

    index: int
    path: str
    started: float
    finished: float
    status: int
    body: bytes
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.finished - self.started) * 1000.0


@dataclass
class Phase:
    """A timed phase: the outcomes in list order, its wall-clock bounds,
    and ``marks`` — list index → value of ``sample()`` just before that
    request was sent (plus ``len(requests)`` → the value at the end)."""

    outcomes: List[Outcome]
    started: float
    finished: float
    marks: Dict[int, float]


def closed_loop(port: int, requests: Sequence[Tuple[str, bytes]], connections: int,
                sample: Optional[Callable[[], float]] = None,
                marks: Sequence[int] = ()) -> Phase:
    """Send *requests* over *connections* closed-loop clients.

    Each client sends its next request only once the previous answer is
    fully read; the clients share one cursor over the list, so the list
    is sent in order and exactly once.  When a client takes an index in
    *marks* it records ``sample()`` first (under the cursor lock, so the
    samples are in list order).
    """
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    cursor_lock = threading.Lock()
    ready = threading.Barrier(connections + 1)
    wanted = set(marks)
    sampled: Dict[int, float] = {}

    def client() -> None:
        connection: Optional[Connection] = None
        try:
            connection = Connection(port)
        except OSError:
            pass
        ready.wait()
        while True:
            with cursor_lock:
                index = next(cursor, None)
                if index in wanted:
                    sampled[index] = sample()
            if index is None:
                break
            path, body = requests[index]
            started = time.perf_counter()
            if connection is None:
                outcomes[index] = Outcome(index, path, started, started, 0, b"",
                                          "no connection")
                continue
            try:
                status, payload = connection.post(path, body)
                outcomes[index] = Outcome(index, path, started, time.perf_counter(),
                                          status, payload)
            except (OSError, http.client.HTTPException) as error:
                outcomes[index] = Outcome(index, path, started, time.perf_counter(), 0,
                                          b"", f"{type(error).__name__}: {error}")
                connection.close()
                connection = None  # no silent reconnect: later requests fail too
        if connection is not None:
            connection.close()

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(connections)]
    for thread in threads:
        thread.start()
    ready.wait()
    phase_started = time.perf_counter()
    for thread in threads:
        thread.join()
    phase_finished = time.perf_counter()
    if sample is not None:
        sampled[len(requests)] = sample()
    return Phase([outcome for outcome in outcomes if outcome is not None],
                 phase_started, phase_finished, sampled)
