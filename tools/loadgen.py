"""Open-loop load harness for the repro serving layer.

Drives a running ``repro serve`` instance with a Poisson arrival
process (seeded, so a run is reproducible) over a mixed workload of
``POST /predict-home`` and ``POST /ingest`` requests, then reports
throughput and latency quantiles and appends them to the performance
trajectory journal (``benchmarks/results/bench_trajectory.jsonl``)
under ``"source": "loadgen"``.

Open loop means arrivals are dispatched on schedule regardless of how
fast the server answers -- the harness measures the latency a given
*offered* load produces instead of letting a slow server throttle its
own measurement (closed-loop coordination omission).  Each arrival runs
on its own thread; ``--max-inflight`` bounds runaway concurrency if the
server falls far behind.

Usage::

    python tools/loadgen.py --url http://127.0.0.1:8000 \\
        --rate 200 --duration 10 --ingest-fraction 0.05

    # Self-contained smoke (builds a tiny artifact, serves it in-process
    # through the front end at 0 workers):
    PYTHONPATH=src python tools/loadgen.py --smoke

    # Same, but with a world store and 2 forked predictor workers:
    PYTHONPATH=src python tools/loadgen.py --smoke --workers 2

    # Head-to-head worker scaling; merges a ``loadgen_worker_scaling``
    # entry (with ``rps_ratio``) into bench_run.json for bench_gate:
    PYTHONPATH=src python tools/loadgen.py --smoke --compare-workers 1,4

``--spec-mode unique`` sends every predict request with a fresh random
evidence spec (explicit friends/venues) instead of replaying known
users, defeating the LRU cache so posterior solves dominate the served
work.  Replayed traffic measures the HTTP plane; unique traffic
measures solve throughput, which is what extra worker processes scale.

Exit status is non-zero when the error rate exceeds ``--max-error-rate``
(default 1%), so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
TOOLS_DIR = Path(__file__).resolve().parent


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse the load-harness CLI flags."""
    parser = argparse.ArgumentParser(
        prog="loadgen",
        description="Open-loop Poisson load harness for `repro serve`.",
    )
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8000",
        help="server base URL (default: %(default)s)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=100.0,
        help="mean offered load in requests/second (default: %(default)s)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=10.0,
        help="length of the arrival schedule in seconds (default: %(default)s)",
    )
    parser.add_argument(
        "--ingest-fraction",
        type=float,
        default=0.05,
        help="fraction of arrivals that POST /ingest instead of "
        "/predict-home (default: %(default)s)",
    )
    parser.add_argument(
        "--spec-mode",
        choices=("replay", "unique"),
        default=None,
        help="predict workload: 'replay' known users (cache-friendly) "
        "or 'unique' random evidence specs (cache-busting; solves "
        "dominate).  Defaults to replay, or unique under "
        "--compare-workers.",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="RNG seed for arrivals and workload (default: %(default)s)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="cap on concurrently dispatched requests (default: %(default)s)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request timeout in seconds (default: %(default)s)",
    )
    parser.add_argument(
        "--max-error-rate",
        type=float,
        default=0.01,
        help="exit non-zero past this error fraction (default: %(default)s)",
    )
    parser.add_argument(
        "--label",
        default="loadgen",
        help="timing entry name in the trajectory journal "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--no-journal",
        action="store_true",
        help="print the summary but do not append to bench_trajectory.jsonl",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="self-contained mode: fit a tiny artifact, serve it "
        "in-process, drive a short load, then exit (needs "
        "PYTHONPATH=src)",
    )
    parser.add_argument(
        "--smoke-users",
        type=int,
        default=120,
        help="world size for --smoke (default: %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="for --smoke: serve through N forked predictor workers "
        "(0 = solve in the server process; default: %(default)s)",
    )
    parser.add_argument(
        "--coalesce-ms",
        type=float,
        default=2.0,
        help="for --smoke: micro-batch coalescing window, at any "
        "--workers count (default: %(default)s)",
    )
    parser.add_argument(
        "--compare-workers",
        default=None,
        metavar="N,M[,...]",
        help="run the smoke load once per worker count, "
        "report each, and merge a loadgen_worker_scaling entry with "
        "rps_ratio (last vs first count) into bench_run.json "
        "(implies --smoke; e.g. --compare-workers 1,4)",
    )
    return parser.parse_args(argv)


def poisson_arrivals(
    rate: float, duration: float, rng: np.random.Generator
) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson process over [0, duration)."""
    if rate <= 0 or duration <= 0:
        return np.empty(0, dtype=np.float64)
    # Draw enough exponential gaps to cover the window, then trim.
    expected = int(rate * duration * 1.5) + 32
    gaps = rng.exponential(1.0 / rate, size=expected)
    times = np.cumsum(gaps)
    while times.size and times[-1] < duration:
        gaps = rng.exponential(1.0 / rate, size=expected)
        times = np.concatenate([times, times[-1] + np.cumsum(gaps)])
    return times[times < duration]


def _request(
    url: str, payload: dict | list | None, timeout: float
) -> tuple[int, float]:
    """One HTTP call; returns (status, latency_seconds)."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers)
    t0 = time.perf_counter()
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            response.read()
            status = response.status
    except urllib.error.HTTPError as error:
        error.read()
        status = error.code
    except (urllib.error.URLError, OSError, TimeoutError):
        status = 0
    return status, time.perf_counter() - t0


def build_predict_specs(
    spec_mode: str,
    n_requests: int,
    n_users: int,
    n_venues: int,
    rng: np.random.Generator,
) -> list[dict]:
    """One predict-home user entry per arrival, drawn deterministically.

    ``replay`` re-asks about known users (the cache answers most of
    them); ``unique`` fabricates a fresh evidence spec each time so
    every request costs a posterior solve.
    """
    specs: list[dict] = []
    for _ in range(n_requests):
        if spec_mode == "unique":
            k = int(rng.integers(3, 9))
            spec = {"friends": rng.integers(0, n_users, size=k).tolist()}
            if n_venues:
                spec["venues"] = rng.integers(0, n_venues, size=2).tolist()
            specs.append(spec)
        else:
            specs.append({"user_id": int(rng.integers(0, n_users))})
    return specs


def run_load(
    base_url: str,
    rate: float,
    duration: float,
    ingest_fraction: float,
    seed: int,
    max_inflight: int,
    timeout: float,
    spec_mode: str = "replay",
) -> dict:
    """Drive the open-loop schedule; returns the summary dict."""
    rng = np.random.default_rng(seed)
    status, artifact, _ = _get_json(f"{base_url}/artifact", timeout)
    if status != 200:
        raise RuntimeError(
            f"cannot reach {base_url}/artifact (status {status}); "
            "is the server running?"
        )
    n_users = int(artifact["users"])
    n_venues = int(artifact.get("venues", 0))

    arrivals = poisson_arrivals(rate, duration, rng)
    kinds = rng.random(arrivals.size) < ingest_fraction
    specs = build_predict_specs(
        spec_mode, arrivals.size, n_users, n_venues, rng
    )

    results: list[tuple[str, int, float]] = []
    results_lock = threading.Lock()
    inflight = threading.Semaphore(max_inflight)
    threads: list[threading.Thread] = []

    def fire(kind: str, spec: dict) -> None:
        try:
            if kind == "ingest":
                status, latency = _request(
                    f"{base_url}/ingest", {"new_users": [{}]}, timeout
                )
            else:
                status, latency = _request(
                    f"{base_url}/predict-home", {"users": [spec]}, timeout
                )
            with results_lock:
                results.append((kind, status, latency))
        finally:
            inflight.release()

    start = time.perf_counter()
    for offset, is_ingest, spec in zip(
        arrivals.tolist(), kinds.tolist(), specs
    ):
        now = time.perf_counter() - start
        if offset > now:
            time.sleep(offset - now)
        inflight.acquire()
        kind = "ingest" if is_ingest else "predict"
        thread = threading.Thread(target=fire, args=(kind, spec), daemon=True)
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join(timeout=timeout + 5)
    elapsed = time.perf_counter() - start

    summary = summarize(results, offered=arrivals.size, elapsed=elapsed)
    summary["spec_mode"] = spec_mode
    return summary


def _get_json(url: str, timeout: float) -> tuple[int, dict, float]:
    t0 = time.perf_counter()
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return (
                response.status,
                json.loads(response.read()),
                time.perf_counter() - t0,
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), time.perf_counter() - t0
    except (urllib.error.URLError, OSError, TimeoutError):
        return 0, {}, time.perf_counter() - t0


def summarize(
    results: list[tuple[str, int, float]], offered: int, elapsed: float
) -> dict:
    """Throughput + latency quantiles over one completed run."""
    latencies = np.array([latency for _, _, latency in results])
    ok = sum(1 for _, status, _ in results if status == 200)
    errors = len(results) - ok
    summary = {
        "offered": int(offered),
        "completed": len(results),
        "ok": ok,
        "errors": errors,
        "error_rate": (errors / len(results)) if results else 1.0,
        "duration_s": round(elapsed, 3),
        "rps": round(len(results) / elapsed, 2) if elapsed > 0 else 0.0,
        "predict_requests": sum(1 for k, _, _ in results if k == "predict"),
        "ingest_requests": sum(1 for k, _, _ in results if k == "ingest"),
    }
    if latencies.size:
        summary.update(
            p50_ms=round(float(np.percentile(latencies, 50)) * 1e3, 3),
            p95_ms=round(float(np.percentile(latencies, 95)) * 1e3, 3),
            p99_ms=round(float(np.percentile(latencies, 99)) * 1e3, 3),
            max_ms=round(float(latencies.max()) * 1e3, 3),
        )
    return summary


def _git_commit() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).parent,
            check=True,
        ).stdout.strip()
    except Exception:
        return None


def append_trajectory(summary: dict, label: str) -> Path:
    """Append one loadgen run to the shared perf trajectory journal."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "source": "loadgen",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "timings": [{"kind": "timing", "name": label, **summary}],
    }
    path = RESULTS_DIR / "bench_trajectory.jsonl"
    with path.open("a") as fh:
        fh.write(json.dumps(entry) + "\n")
    return path


def _fit_smoke_result(args: argparse.Namespace):
    """Fit the tiny smoke artifact once; reused across compared configs."""
    from repro.core.model import MLPModel
    from repro.core.params import MLPParams
    from repro.data.generator import SyntheticWorldConfig, generate_world

    world = generate_world(
        SyntheticWorldConfig(n_users=args.smoke_users, seed=7)
    )
    params = MLPParams(
        n_iterations=8,
        burn_in=3,
        seed=0,
        engine="vectorized",
        track_edge_assignments=False,
    )
    return MLPModel(params).fit(world)


def _serve(predictor, workers: int, coalesce_ms: float):
    """Stand up the front end in-process; returns (base_url, stop).

    With ``workers > 0`` a temporary world store and that many forked
    predictor workers back it.
    """
    import shutil
    import tempfile

    from repro.serving.frontend import FrontendThread, make_frontend
    from repro.serving.store import WorldStore

    store_dir = store = None
    if workers > 0:
        store_dir = tempfile.mkdtemp(prefix="loadgen-store-")
        store = WorldStore(store_dir, predictor.world.gazetteer)
    frontend = make_frontend(
        predictor,
        store,
        n_workers=workers,
        port=0,
        coalesce_ms=coalesce_ms,
    )
    thread = FrontendThread(frontend).start()

    def stop() -> None:
        try:
            thread.stop()
        finally:
            if store is not None:
                store.close()
                shutil.rmtree(store_dir, ignore_errors=True)

    return f"http://127.0.0.1:{thread.port}", stop


def run_smoke(args: argparse.Namespace, result=None) -> dict:
    """Fit a tiny artifact, serve it in-process, and drive a short load."""
    from repro.serving.foldin import FoldInPredictor

    if result is None:
        result = _fit_smoke_result(args)
    # A fresh predictor per run: ingests advance the served world, and
    # compared configs must all start from the same generation 0.
    predictor = FoldInPredictor(result, artifact_id="loadgen-smoke")
    base_url, stop = _serve(predictor, args.workers, args.coalesce_ms)
    try:
        return run_load(
            base_url=base_url,
            rate=args.rate,
            duration=args.duration,
            ingest_fraction=args.ingest_fraction,
            seed=args.seed,
            max_inflight=args.max_inflight,
            timeout=args.timeout,
            spec_mode=args.spec_mode,
        )
    finally:
        stop()


def _annotate(summary: dict, args: argparse.Namespace) -> dict:
    summary["rate"] = args.rate
    summary["ingest_fraction"] = args.ingest_fraction
    summary["seed"] = args.seed
    summary["workers"] = args.workers
    summary["coalesce_ms"] = args.coalesce_ms
    return summary


def run_compare(args: argparse.Namespace, counts: list[int]) -> int:
    """Drive the identical smoke load once per worker count.

    Fits one artifact, serves it per config (0 = solved in-process,
    N = that many forked workers), and merges a ``loadgen_worker_scaling``
    timing entry -- carrying ``rps_ratio`` of the last count over the
    first -- into ``bench_run.json`` so ``make bench-gate`` can hold a
    multi-worker throughput floor (env-gated on ``LOADGEN_SCALE``).
    """
    sys.path.insert(0, str(TOOLS_DIR))
    from bench_gate import DEFAULT_RUN, merge_run_entry

    result = _fit_smoke_result(args)
    summaries: dict[int, dict] = {}
    worst_error_rate = 0.0
    for workers in counts:
        per_run = argparse.Namespace(**vars(args))
        per_run.workers = workers
        summary = _annotate(run_smoke(per_run, result=result), per_run)
        summaries[workers] = summary
        worst_error_rate = max(worst_error_rate, summary["error_rate"])
        print(
            f"[loadgen] {workers} workers: {summary['rps']} rps, "
            f"p50 {summary.get('p50_ms', '?')} ms, "
            f"p99 {summary.get('p99_ms', '?')} ms, "
            f"errors {summary['errors']}",
            file=sys.stderr,
        )
        if not args.no_journal:
            append_trajectory(summary, f"{args.label}_w{workers}")
    base, top = counts[0], counts[-1]
    ratio = (
        summaries[top]["rps"] / summaries[base]["rps"]
        if summaries[base]["rps"]
        else 0.0
    )
    entry = {
        "kind": "timing",
        "name": "loadgen_worker_scaling",
        "workers": counts,
        "rps": {str(n): summaries[n]["rps"] for n in counts},
        "p99_ms": {str(n): summaries[n].get("p99_ms") for n in counts},
        "rps_ratio": round(ratio, 3),
        "spec_mode": args.spec_mode,
        "rate": args.rate,
        "duration": args.duration,
        "ingest_fraction": args.ingest_fraction,
        "coalesce_ms": args.coalesce_ms,
        "seed": args.seed,
    }
    print(json.dumps(entry, indent=2))
    if not args.no_journal:
        path = merge_run_entry(entry, DEFAULT_RUN)
        print(f"[loadgen] merged scaling entry into {path}", file=sys.stderr)
    if worst_error_rate > args.max_error_rate:
        print(
            f"[loadgen] error rate {worst_error_rate:.3f} exceeds "
            f"--max-error-rate {args.max_error_rate}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the load harness per CLI flags; return an exit code."""
    args = parse_args(argv)
    if args.compare_workers is not None:
        args.smoke = True
        try:
            counts = [int(part) for part in args.compare_workers.split(",")]
        except ValueError:
            print(
                f"[loadgen] bad --compare-workers {args.compare_workers!r}; "
                "expected comma-separated integers like 1,4",
                file=sys.stderr,
            )
            return 2
        if len(counts) < 2:
            print(
                "[loadgen] --compare-workers needs at least two counts",
                file=sys.stderr,
            )
            return 2
        # Scaling is about solve throughput, so bust the cache and
        # offer more load than one worker can absorb.
        if args.spec_mode is None:
            args.spec_mode = "unique"
        if args.rate == 100.0:
            args.rate = 400.0
        if args.duration == 10.0:
            args.duration = 4.0
        return run_compare(args, counts)
    if args.spec_mode is None:
        args.spec_mode = "replay"
    if args.smoke:
        # Short, self-contained, CI-friendly defaults unless overridden.
        if args.rate == 100.0:
            args.rate = 50.0
        if args.duration == 10.0:
            args.duration = 4.0
        summary = run_smoke(args)
    else:
        summary = run_load(
            base_url=args.url.rstrip("/"),
            rate=args.rate,
            duration=args.duration,
            ingest_fraction=args.ingest_fraction,
            seed=args.seed,
            max_inflight=args.max_inflight,
            timeout=args.timeout,
            spec_mode=args.spec_mode,
        )
    _annotate(summary, args)
    print(json.dumps(summary, indent=2))
    if not args.no_journal:
        path = append_trajectory(summary, args.label)
        print(f"[loadgen] appended run to {path}", file=sys.stderr)
    if summary["error_rate"] > args.max_error_rate:
        print(
            f"[loadgen] error rate {summary['error_rate']:.3f} exceeds "
            f"--max-error-rate {args.max_error_rate}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
