"""Shared plumbing of the repo benchmark: timing, spans, HTTP, processes.

Nothing here imports the program under test; the workload modules do,
through ``src/`` on ``sys.path`` (set up by ``run.py``).  The pieces:

- :func:`p50` / :func:`tail` -- the summary statistics every timing is
  reported with (the tail is the highest percentile on a fixed ladder
  that still has at least ten samples beyond it);
- :class:`Spans` -- in-memory spans the benchmark records around its own
  calls into the program's public functions (traced runs only);
- :class:`Conn` -- a persistent HTTP/1.1 connection that sends every
  request in one write and parses ``Content-Length`` framed replies;
- :func:`open_loop` / :func:`closed_loop` -- load generators over a
  fixed set of such connections (at most ``nproc`` of them);
- :class:`ServerProcess` -- a ``python -m repro serve`` subprocess whose
  port is read from its banner line;
- :func:`parse_prometheus` -- the server's ``/metrics`` text, as
  ``{(name, labels): value}`` so runs can take counter deltas.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import socket
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Percentiles a tail may be reported at, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def p50(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (no interpolation) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_pct(n: int) -> float:
    """Highest ladder percentile with at least 10 of ``n`` samples beyond it."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            best = pct
    return best


def tail(values) -> tuple[float, float]:
    """``(value, percentile)`` of the highest well-supported percentile."""
    pct = tail_pct(len(values))
    value = p50(values) if pct == 50.0 else percentile(values, pct)
    return value, pct


def summary(values_ms) -> dict:
    """p50, tail and sample count of a list of millisecond timings."""
    if not values_ms:
        return {"n": 0}
    value, pct = tail(values_ms)
    return {
        "n": len(values_ms),
        "p50": round(p50(values_ms), 4),
        "tail": round(value, 4),
        "tail_pct": pct,
        "max": round(max(values_ms), 4),
    }


class Spans:
    """In-memory spans around the benchmark's own calls into the program.

    A span is ``(id, parent, name, start, end)`` in ``perf_counter``
    seconds; nothing is written until :meth:`dump`, so recording costs
    one tuple append per span.
    """

    def __init__(self) -> None:
        self.records: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str):
        """Time the ``with`` body as one span nested in the open one."""
        span_id = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.records.append(
                (span_id, parent, name, start, time.perf_counter())
            )

    def durations_ms(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in milliseconds."""
        return [(e - s) * 1e3 for _, _, n, s, e in self.records if n == name]

    def dump(self, path: Path) -> None:
        """Write every span as JSON lines (written once, at the end)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.records:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


class HTTPError(Exception):
    """A transport-level failure (reset, timeout, malformed reply)."""


class Conn:
    """One persistent HTTP/1.1 connection; one write per request."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def request(self, method: str, path: str, body: bytes = b""):
        """``(status, headers, body)``; raises :class:`HTTPError`."""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        try:
            self.sock.sendall(head + body)
            status_line = self.rfile.readline(65537)
            if not status_line:
                raise HTTPError("connection closed by server")
            parts = status_line.split(None, 2)
            status = int(parts[1])
            headers = {}
            while True:
                line = self.rfile.readline(65537)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            payload = self.rfile.read(length)
            if len(payload) != length:
                raise HTTPError("short body")
        except (OSError, ValueError, IndexError) as exc:
            raise HTTPError(f"{type(exc).__name__}: {exc}") from exc
        return status, headers, payload

    def close(self) -> None:
        """Close the socket (and its reader)."""
        try:
            self.rfile.close()
        finally:
            self.sock.close()


def _drive(conns, jobs, record, due_times=None, deadline=None):
    """Run ``jobs`` over ``conns``, one thread per connection.

    Each thread takes the next job index, waits for its due time when
    ``due_times`` is given (open loop), sends it and records
    ``(index, due, sent, done, status, headers, body, error)``.
    Closed loop when ``due_times`` is None: a thread sends its next job
    as soon as its previous one completed, until ``deadline``.
    """
    lock = threading.Lock()
    cursor = [0]

    def worker(conn):
        while True:
            with lock:
                index = cursor[0]
                if index >= len(jobs):
                    return
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                cursor[0] += 1
            method, path, body = jobs[index]
            due = None
            if due_times is not None:
                due = due_times[index]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            sent = time.perf_counter()
            if due is None:
                due = sent
            try:
                status, headers, payload = conn.request(method, path, body)
                error = None
            except HTTPError as exc:
                status, headers, payload, error = 0, {}, b"", str(exc)
            done = time.perf_counter()
            record(index, due, sent, done, status, headers, payload, error)

    threads = [threading.Thread(target=worker, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def poisson_schedule(rng, rate: float, count: int, start: float) -> list[float]:
    """``count`` Poisson arrival times at ``rate``/s from ``start``."""
    gaps = rng.exponential(1.0 / rate, size=count)
    times, t = [], start
    for gap in gaps.tolist():
        t += gap
        times.append(t)
    return times


def open_loop(conns, jobs, rng, rate: float):
    """Open-loop Poisson load; returns the per-request records in order."""
    results = [None] * len(jobs)

    def record(index, *rest):
        results[index] = rest

    due = poisson_schedule(rng, rate, len(jobs), time.perf_counter() + 0.05)
    _drive(conns, jobs, record, due_times=due)
    return results


def closed_loop(conns, jobs, seconds: float):
    """Closed loop until ``seconds`` pass (or jobs run out).

    Returns ``(records, elapsed)``; records of unsent jobs are None.
    """
    results = [None] * len(jobs)

    def record(index, *rest):
        results[index] = rest

    start = time.perf_counter()
    _drive(conns, jobs, record, deadline=start + seconds)
    return [r for r in results if r is not None], time.perf_counter() - start


def parse_prometheus(text: str) -> dict:
    """``{(name, frozenset(labels)): value}`` from Prometheus text 0.0.4."""
    out = {}
    line_re = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)')
    label_re = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = line_re.match(line)
        if not match:
            continue
        labels = frozenset(label_re.findall(match.group(3) or ""))
        out[(match.group(1), labels)] = float(match.group(4))
    return out


def metric_sum(scrape: dict, name: str, **want) -> float:
    """Sum of every series of ``name`` whose labels include ``want``."""
    total = 0.0
    for (series, labels), value in scrape.items():
        if series != name:
            continue
        label_map = dict(labels)
        if all(label_map.get(k) == v for k, v in want.items()):
            total += value
    return total


def metric_delta(before: dict, after: dict, name: str, **want) -> float:
    """Counter/histogram-component delta between two scrapes."""
    return metric_sum(after, name, **want) - metric_sum(before, name, **want)


def hist_mean_ms(before: dict, after: dict, name: str, **want) -> float | None:
    """Mean of a seconds-histogram's observations between two scrapes."""
    count = metric_delta(before, after, name + "_count", **want)
    if count <= 0:
        return None
    return metric_delta(before, after, name + "_sum", **want) / count * 1e3


class ServerProcess:
    """``python -m repro serve ...`` with its port read from the banner.

    The serve command prints ``... on http://HOST:PORT`` once it is
    listening (after recovering any journal); that line is the readiness
    signal, so nothing polls the port.  ``boot_s`` is spawn to banner.
    """

    def __init__(self, args: list[str], cwd: Path, timeout: float = 120.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args, "--port", "0"],
            cwd=cwd,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.output: list[str] = []
        self.port = None
        pattern = re.compile(r" on http://([^:]+):(\d+)")
        deadline = start + timeout
        while time.perf_counter() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.output.append(line.rstrip())
            match = pattern.search(line)
            if line.startswith("serving artifact") and match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
        self.boot_s = time.perf_counter() - start
        if self.port is None:
            self.stop()
            raise RuntimeError(
                "server printed no banner: " + " | ".join(self.output[-5:])
            )
        # Keep draining stdout so the server never blocks on a full pipe.
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line.rstrip())

    def connect(self) -> Conn:
        """A new persistent connection to the server."""
        return Conn(self.host, self.port)

    def pids(self) -> list[int]:
        """The server process and its descendants (forked workers)."""
        found, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            try:
                children = Path(f"/proc/{pid}/task/{pid}/children").read_text()
            except OSError:
                continue
            frontier.extend(int(c) for c in children.split())
        return found

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM (peak resident set) over the process tree, in MB."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.M)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def stop(self, timeout: float = 20.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL; always reaps."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def self_peak_rss_mb() -> float:
    """VmHWM of this process, in MB."""
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.M).group(1)) / 1024.0


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    path = path.resolve()
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in mounts:
        fields = line.split()
        if len(fields) >= 3 and str(path).startswith(fields[1]):
            if len(fields[1]) > len(best):
                best, fstype = fields[1], fields[2]
    return fstype


def source_digest() -> str:
    """sha256 over every file under ``src/`` (the program's identity)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_conditions(workload: str, seed: int, workdir: Path) -> dict:
    """Host and build facts recorded beside every result."""
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas_env = {
        k: os.environ[k]
        for k in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
        )
        if k in os.environ
    }
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_env": blas_env,
        "workdir": str(workdir.relative_to(ROOT)),
        "workdir_fs": filesystem_of(workdir),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }
