"""The repo benchmark: ``fit``, ``serve`` and ``ingest`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Inputs are generated from ``--seed``; the program under test is driven
only through ``MLPModel.fit`` / ``repro.evaluation.metrics`` in process
and a ``python -m repro serve`` subprocess over HTTP.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones (spans
the benchmark records around its own calls, plus ``/metrics`` deltas);
see ``perfbench/NOTES.md`` for what each metric means and why each
workload exists.

Output: a JSON report line (run conditions, sample counts, tail
percentiles, every failure with route/status/reason, every metric the
run measured), then, as the last line, ``{"correct", "attempted",
"failed", "metrics"}`` holding exactly the ``BENCHMARK.json`` metrics of
the run's kind.  Exits 2 without a result when the program's sources
are missing, 3 when the workload did not measure a manifest metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import ROOT, SRC, Spans, run_conditions  # noqa: E402

WORKLOADS = ("fit", "serve", "ingest")
FAILED_VALUE = 1e9


class Context:
    """One run's inputs and everything it reports."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.spans = Spans()
        self.attempted = 0
        self.failures: list[dict] = []
        self.end_to_end: dict[str, dict] = {}
        self.per_layer: dict[str, dict] = {}
        self.report: dict = {}

    def fail(self, route: str, status, reason: str) -> None:
        """Record one failed operation (never retried away)."""
        self.failures.append({"route": route, "status": status, "reason": reason})

    @staticmethod
    def _entry(value: float, unit: str) -> dict:
        # A failed request counts as an infinite latency; JSON has no
        # infinity, so such a percentile is reported as FAILED_VALUE.
        value = float(value)
        if not math.isfinite(value):
            value = FAILED_VALUE
        return {"value": value, "unit": unit}

    def metric(self, name: str, value: float, unit: str) -> None:
        """An end-to-end metric."""
        self.end_to_end[name] = self._entry(value, unit)

    def layer(self, name: str, value: float, unit: str) -> None:
        """A per-layer metric: the result of a traced run, the report of
        every run (the CPU-bound timings are recorded untraced too)."""
        self.per_layer[name] = self._entry(value, unit)


def main(argv=None) -> int:
    """Parse arguments, run one workload, print report and result."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "fit":
        import wl_fit as module
    elif args.workload == "serve":
        import wl_serve as module
    else:
        import wl_ingest as module

    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace))
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx.report["conditions"] = run_conditions(args.workload, args.seed, ctx.workdir)
        module.run(ctx)
        out_dir = ROOT / ".perfbench_work"
        if ctx.trace:
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            ctx.spans.dump(spans_path)
            ctx.report["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    failed = len(ctx.failures)
    attempted = max(ctx.attempted, 1)
    ok_frac = (attempted - failed) / attempted
    ctx.metric("ok_frac", ok_frac, "fraction")
    ctx.report["failures"] = ctx.failures
    ctx.report["end_to_end"] = ctx.end_to_end
    ctx.report["per_layer"] = ctx.per_layer
    print(json.dumps({"report": ctx.report}, sort_keys=True))
    # The result carries exactly the manifest's metrics of this kind,
    # in the manifest's units; the report line above carries the rest.
    kind, measured = (
        ("per_layer", ctx.per_layer) if ctx.trace else ("end_to_end", ctx.end_to_end)
    )
    metrics = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]:
        got = measured.get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            print(
                f"perfbench: {args.workload} measured {spec['name']} as {got}, "
                f"the manifest wants unit {spec['unit']}",
                file=sys.stderr,
            )
            return 3
        metrics[spec["name"]] = got
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
