"""End-to-end phases: untraced `wsn` subprocesses, measured from outside.

Each child is reaped with ``os.wait4`` for its CPU seconds. Its peak RSS is
the ``VmHWM`` line of its /proc status, read while it runs: ``ru_maxrss``
also counts the pages a child inherits from the benchmark at fork, which
would put a floor of the benchmark's own size under every reading. A
running server's CPU seconds come from its threads' /proc schedstat. Nothing
under /proc or /sys is written. Machine-wide effects (page cache, disk writeback, other
tenants) are not measured or controlled; the speed the other tenants leave
is measured by ``Reference`` and divided out of the CPU-time figures.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median

from stats import percentile, tail
from workloads import request_stream


#: requests per idle window, a multiple of workloads.MIX_BLOCK on each connection
IDLE_REQUESTS = 400
SPIN = "import os\nos.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\nwhile True: pass"
PR_SET_PDEATHSIG = 1


def _hwm_kb(pid: int) -> int:
    """Peak resident set of a running process in KiB (0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _cpu_s(pid: int) -> float:
    """CPU seconds the live threads of a running process have used so far."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        with contextlib.suppress(FileNotFoundError, ProcessLookupError):
            with open(f"/proc/{pid}/task/{tid}/schedstat", "rb") as fh:
                total += int(fh.read().split()[0])
    return total / 1e9


def _child_setup() -> None:
    """In a new child: let SIGINT stop it (a background launcher may have set it
    to ignored) and have the kernel kill it if the benchmark dies first."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class BenchError(Exception):
    """The program under test misbehaved in a way that ends the run."""


@dataclass
class Child:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float


class Runner:
    """Starts `wsn` children from the checkout's sources and reaps every one."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        # only the checkout's own sources, never an installed copy; a fixed hash
        # seed gives every run the same dict and set layouts
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.live: list[subprocess.Popen] = []

    def spawn(self, args, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
              program=("-m", "wsnmon.cli")):
        proc = subprocess.Popen(
            [sys.executable, *program, *map(str, args)],
            cwd=self.work, env=self.env, stdout=stdout, stderr=stderr,
            preexec_fn=_child_setup,
        )
        self.live.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen, started: float, timeout: float = 150.0) -> Child:
        deadline = time.perf_counter() + timeout
        peak_kb = 0
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            peak_kb = max(peak_kb, _hwm_kb(proc.pid))
            if time.perf_counter() > deadline:
                proc.kill()
                deadline = float("inf")
            time.sleep(0.001)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return Child(proc.returncode, wall, (peak_kb or usage.ru_maxrss) / 1024.0,
                     usage.ru_utime + usage.ru_stime)

    def run(self, args, stdout: Path | None = None, stderr: Path | None = None,
            program=("-m", "wsnmon.cli")) -> Child:
        out = open(stdout, "wb") if stdout else subprocess.DEVNULL
        err = open(stderr, "wb") if stderr else subprocess.DEVNULL
        try:
            started = time.perf_counter()
            return self.reap(self.spawn(args, out, err, program), started)
        finally:
            for fh in (out, err):
                if fh is not subprocess.DEVNULL:
                    fh.close()

    def close(self) -> None:
        """Kill and reap every child still running, whatever state it is in."""
        for proc in self.live:
            with contextlib.suppress(ProcessLookupError):
                os.kill(proc.pid, signal.SIGKILL)
        for proc in self.live:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(proc.pid, 0)
        self.live.clear()


#: Fixed reference work, pure-Python formatting, dict, string and float
#: handling like the program's own, run as a child between measured steps.
REFERENCE = """\
rows = []
for i in range(100_000):
    rec = {"node": "N%d.%d" % (i % 60, i % 19), "value": i * 0.37}
    rows.append("%s,%.3f" % (rec["node"], rec["value"]))
total = sum(float(r.partition(",")[2]) for r in "\\n".join(rows).split("\\n"))
"""
#: CPU seconds REFERENCE takes on the machine that normalized seconds refer to
REFERENCE_S = 0.2


class Reference:
    """The machine's speed, from the CPU time of REFERENCE run between steps.

    A shared virtual machine runs the same code up to 60% slower for a few
    seconds at a time (other tenants on the same cores), in CPU time as well
    as in wall time. Dividing a step's CPU time by the reference's gives the
    program's cost at a fixed speed, which only a change to the program
    moves. A short step is scaled by the two reference runs around it, which
    see the speed it saw; a step long enough to span changes of speed is
    scaled by the mean of all reference runs (``scale``). Results are seconds
    on a machine where REFERENCE takes REFERENCE_S.
    """

    def __init__(self, runner: Runner):
        self.runner = runner
        self.cpu_s: list[float] = []

    def sample(self) -> None:
        child = self.runner.run(["-c", REFERENCE], program=())
        if child.exit_code != 0:
            raise BenchError(f"reference run exited {child.exit_code}")
        self.cpu_s.append(child.cpu_s)

    def flanked(self, cpu_s: float) -> float:
        """Reference-speed seconds of a short step run since the last sample."""
        before = self.cpu_s[-1]
        self.sample()
        return cpu_s * REFERENCE_S / ((before + self.cpu_s[-1]) / 2)

    @property
    def scale(self) -> float:
        return REFERENCE_S / mean(self.cpu_s)


def setup_probe(runner: Runner, args, log: Path, lines_needed: int, timeout=60.0) -> float:
    """Seconds from spawning `wsn run` until its first whole round is in the log."""
    log.unlink(missing_ok=True)
    started = time.perf_counter()
    proc = runner.spawn(args)
    try:
        while True:
            try:
                seen = log.read_bytes().count(b"\n")
            except FileNotFoundError:
                seen = 0
            if seen >= lines_needed:
                return time.perf_counter() - started
            if proc.poll() is not None and log.read_bytes().count(b"\n") < lines_needed:
                raise BenchError(f"wsn run exited ({proc.returncode}) before its first round")
            if time.perf_counter() - started > timeout:
                raise BenchError("no complete round within the setup timeout")
            time.sleep(0.0005)
    finally:
        if proc.returncode is None:
            proc.send_signal(signal.SIGTERM)
        proc.wait()
        runner.live.remove(proc)


class _Conn:
    """One closed-loop client connection: at most one request in flight."""

    def __init__(self, port: int, stream):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = stream
        self.buf = bytearray()
        self.request = ""
        self.sent_at = 0.0

    def send(self, request: str | None = None) -> None:
        self.request = request or next(self.stream)
        self.buf.clear()
        self.sent_at = time.perf_counter()
        self.sock.sendall(self.request.encode("ascii") + b"\n")

    def read(self) -> bytes | None:
        """The whole response once it has arrived, else None."""
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise BenchError(f"connection closed inside the response to {self.request!r}")
        self.buf += chunk
        done = (self.buf.endswith(b"\nEND\n") if self.buf.startswith(b"BEGIN ")
                else self.buf.endswith(b"\n"))
        return bytes(self.buf) if done else None


class ServeSession:
    """Drives `wsn run --serve --pace` with a seeded closed-loop request mix."""

    def __init__(self, runner: Runner, args, seed: int, heads, sensing, streams=None):
        self.runner = runner
        self.proc = runner.spawn(args, stderr=subprocess.PIPE)
        self.started = time.perf_counter()
        self.sel = selectors.DefaultSelector()
        os.set_blocking(self.proc.stderr.fileno(), False)
        self.sel.register(self.proc.stderr, selectors.EVENT_READ, None)
        self.stderr = bytearray()
        self.streams = streams or [request_stream(seed, i, heads, sensing) for i in range(2)]
        self.conns: list[_Conn] = []
        self.responses: dict[tuple[str, int], bytes] = {}  # (request, round) -> bytes
        self.final_alerts: set[bytes] = set()
        self.idle = False
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _pump_stderr(self) -> None:
        try:
            chunk = os.read(self.proc.stderr.fileno(), 1 << 16)
        except BlockingIOError:
            return
        if not chunk:
            self.sel.unregister(self.proc.stderr)
            if self.proc.poll() is not None:
                raise BenchError(f"server exited early ({self.proc.returncode})")
        self.stderr += chunk

    def connect(self, count: int, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while not (found := re.search(rb"gateway listening on \S+:(\d+)\n", self.stderr)):
            if time.perf_counter() > deadline:
                raise BenchError("server never printed its port")
            for key, _ in self.sel.select(0.05):
                if key.data is None:
                    self._pump_stderr()
        port = int(found.group(1))
        for i in range(count):
            conn = _Conn(port, self.streams[i])
            self.sel.register(conn.sock, selectors.EVENT_READ, conn)
            self.conns.append(conn)
        # wait for the first published round
        conn = self.conns[0]
        while True:
            conn.send("SNAPSHOT")
            response = None
            while response is None:
                response = conn.read()
            if not response.startswith(b"ERR NO_DATA"):
                break
            time.sleep(0.002)

    def _record(self, request: str, response: bytes) -> None:
        self.attempted += 1
        head, _, _ = response.partition(b"\n")
        fields = head.split()
        if fields[:1] != [b"BEGIN"] or len(fields) != 3:
            self.failed += 1
            self.errors.append(f"{request!r} -> {head[:60]!r}")
            return
        if response.count(b"\n") != int(fields[2]) + 2:
            self.failed += 1
            self.errors.append(f"torn envelope for {request!r}")
            return
        if request == "ALERTS":
            if self.idle:
                self.final_alerts.add(response)
            return
        key = (request, int(fields[1]))
        seen = self.responses.setdefault(key, response)
        if seen != response:
            self.failed += 1
            self.errors.append(f"two different responses to {key}")

    def phase(self, conns, stop=lambda: False, each: int | None = None):
        """Closed-loop requests on ``conns`` until ``stop()`` or until each
        connection has sent ``each``; in-flight ones finish. Returns the
        latencies and the seconds taken."""
        latencies: list[float] = []
        started = time.perf_counter()
        sent = dict.fromkeys(conns, 1)
        for conn in conns:
            conn.send()
        active = set(conns)
        stopping = False
        while active:
            stopping = stopping or stop()
            # poll without blocking: waking a blocked client costs a scheduler
            # round trip that varies between runs far more than the server does
            for key, _ in self.sel.select(0):
                conn = key.data
                if conn is None:
                    self._pump_stderr()
                    continue
                response = conn.read()
                if response is None:
                    continue
                latencies.append(time.perf_counter() - conn.sent_at)
                self._record(conn.request, response)
                if stopping or sent[conn] == each:
                    active.discard(conn)
                else:
                    conn.send()
                    sent[conn] += 1
        return latencies, time.perf_counter() - started

    def stop(self) -> Child:
        for conn in self.conns:
            self.sel.unregister(conn.sock)
            conn.sock.close()
        self.proc.send_signal(signal.SIGINT)
        child = self.runner.reap(self.proc, self.started, timeout=30)
        self.stderr += self.proc.stderr.read() or b""
        self.proc.stderr.close()
        self.sel.close()
        return child


def latency_metrics(prefix: str, suffix: str, latencies, seconds: float, notes: list[str]):
    """Requests/s, p50 and p99 (or the highest supported percentile) in ms."""
    p, value = tail(latencies, 99.0)
    notes.append(f"{prefix}{suffix}: n={len(latencies)} over {seconds:.2f}s, "
                 f"tail reported at p{p:g}")
    return {
        f"{prefix}_req_per_s{suffix}": (len(latencies) / seconds, "1/s"),
        f"{prefix}_req_p50_ms{suffix}": (percentile(latencies, 50)[0] * 1e3, "ms"),
        f"{prefix}_req_p99_ms{suffix}": (value * 1e3, "ms"),
    }


class Serving:
    """Paced server sessions, each queried live and then idle, pooled over a run.

    Each session starts `wsn run --serve --pace`, queries it on two
    connections while rounds are published (live) and, after the last round,
    sends IDLE_REQUESTS on one and then on two connections (idle), then stops
    it with SIGINT. A run holds several sessions between its batch steps, so
    every figure samples the whole run rather than one stretch of a shared
    machine. The live request streams carry on from one session to the next;
    the idle ones start afresh, so every idle phase of a run does the same work.
    """

    def __init__(self, runner: Runner, args, seed: int, heads, sensing):
        self.runner, self.args = runner, args
        self.seed, self.heads, self.sensing = seed, heads, sensing
        # While clients query, an idle-priority spinner keeps the server's CPU
        # from halting between requests, so a request's latency is the
        # server's, not the time the hypervisor takes to resume a halted
        # virtual CPU. It is stopped between sessions, where it would only
        # compete with the batch work.
        self.spinner = runner.spawn(["-c", SPIN], program=())
        self.spinner.send_signal(signal.SIGSTOP)
        self.streams = [request_stream(seed, i, heads, sensing) for i in range(2)]
        self.live: list[list[float]] = []  # latencies of each session's live phase
        self.live_s = 0.0
        self.idle = {1: ([], [0.0]), 2: ([], [0.0])}
        self.idle_cpu_s: list[float] = []  # server CPU seconds of each session's idle phase
        self.responses: dict[tuple[str, int], bytes] = {}
        self.final_alerts: set[bytes] = set()
        self.alert_lines: set[int] = set()  # ALERT lines on each session's stderr
        self.stderr = b""
        self.children: list[Child] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def session(self) -> None:
        self.spinner.send_signal(signal.SIGCONT)
        s = ServeSession(self.runner, self.args, self.seed, self.heads, self.sensing,
                         self.streams)
        s.responses = self.responses
        try:
            s.connect(2)
            live, took = s.phase(s.conns, lambda: b"simulation done" in s.stderr)
            self.live.append(live)
            self.live_s += took
            s.idle = True
            cpu = _cpu_s(s.proc.pid)
            for count, (latencies, seconds) in self.idle.items():
                for i, conn in enumerate(s.conns[:count]):
                    conn.stream = request_stream(self.seed, 2 + i, self.heads, self.sensing)
                window, took = s.phase(s.conns[:count], each=IDLE_REQUESTS // count)
                latencies += window
                seconds[0] += took
            self.idle_cpu_s.append(_cpu_s(s.proc.pid) - cpu)
        finally:
            self.children.append(s.stop())
            self.spinner.send_signal(signal.SIGSTOP)
        self.final_alerts |= s.final_alerts
        self.alert_lines.add(s.stderr.count(b"ALERT "))
        self.stderr = bytes(s.stderr)
        self.attempted += s.attempted
        self.failed += s.failed
        self.errors += s.errors[:5]

    @property
    def idle_requests(self) -> int:
        """Requests of one session's idle phase."""
        return IDLE_REQUESTS * len(self.idle)

    def close(self) -> None:
        self.spinner.kill()
        self.runner.reap(self.spinner, 0.0)

    def metrics(self, notes: list[str]) -> dict:
        """Pooled request rates and latencies, and the live p99 of the median session."""
        pooled = [x for live in self.live for x in live]
        metrics = latency_metrics("live", "", pooled, self.live_s, notes)
        metrics["live_req_p99_ms"] = (median(tail(live, 99.0)[1] for live in self.live) * 1e3,
                                      "ms")
        notes.append(f"live p99 per session (ms): "
                     + " ".join(f"{tail(live, 99.0)[1] * 1e3:.3f}" for live in self.live))
        metrics.update(latency_metrics("idle", "_1c", self.idle[1][0], self.idle[1][1][0], notes))
        two = latency_metrics("idle", "_2c", self.idle[2][0], self.idle[2][1][0], notes)
        del two["idle_req_p50_ms_2c"]
        metrics.update(two)
        return metrics
