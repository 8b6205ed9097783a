"""Steadiness evidence: two interleaved sets of runs of the same code.

Run from the repository root::

    python3 perfbench/steady.py --runs 10 --out perfbench/results/steadiness.json

Runs every workload ``--runs`` times in each of two sets (set A seeds
1..N, set B seeds 101..100+N), alternating A, B, A, B, ... so host
drift hits both sets alike.  For every end-to-end metric it reports
each set's median, quartiles (``statistics.quantiles(n=4)``) and spread
(interquartile distance over the median), and how far set B's median
is from set A's, either way; both are checked against the metric's
bound in BENCHMARK.json.  With
``--traced`` it adds one ``--trace 1`` run per workload and reports the
tracing overhead: traced values against the untraced run of the same
seed.  Raw results go to ``.perfbench_work/steady-raw.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its result and report lines."""
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr[-2000:]}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "wall_s": time.perf_counter() - start,
        "result": json.loads(lines[-1]),
        "report": json.loads(lines[-2])["report"],
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles and interquartile spread as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    """Run the sets and write the summary."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--from-raw",
        type=Path,
        default=None,
        help="summarize the runs recorded in this raw file instead of running",
    )
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    raw_path = ROOT / ".perfbench_work" / "steady-raw.jsonl"
    raw_path.parent.mkdir(exist_ok=True)

    runs: list[dict] = []
    traced: list[dict] = []
    if args.from_raw is not None:
        for line in args.from_raw.read_text().splitlines():
            rec = json.loads(line)
            if rec["workload"] in workloads:
                (traced if rec["trace"] else runs).append(rec)
        args.runs = min(
            sum(1 for r in runs if r["workload"] == w and r["set"] == "A")
            for w in workloads
        )
    else:
        collect(args, workloads, seconds, raw_path, runs, traced)
    return 0 if summarize(args, workloads, bounds, seconds, runs, traced) else 1


def collect(args, workloads, seconds, raw_path, runs, traced) -> None:
    """Make the runs, appending each to the raw file as it completes."""
    with open(raw_path, "a", encoding="utf-8") as raw:
        for i in range(args.runs):
            for set_index in range(2):
                for workload in workloads:
                    rec = run_once(workload, 1 + 100 * set_index + i, seconds, 0)
                    rec["set"] = "AB"[set_index]
                    runs.append(rec)
                    raw.write(json.dumps(rec) + "\n")
                    raw.flush()
                    print(
                        f"{rec['set']} {workload:6s} seed {rec['seed']:3d} "
                        f"{rec['wall_s']:5.1f}s correct={rec['result']['correct']} "
                        + " ".join(
                            f"{k}={v['value']:.4g}"
                            for k, v in rec["result"]["metrics"].items()
                        ),
                        flush=True,
                    )
        if args.traced:
            for workload in workloads:
                rec = run_once(workload, 1, seconds, 1)
                traced.append(rec)
                raw.write(json.dumps(rec) + "\n")


def summarize(args, workloads, bounds, seconds, runs, traced) -> bool:
    """Print the spread table, write it to ``--out``; True if all passed."""
    summary: dict = {"run_seconds": seconds, "runs_per_set": args.runs, "workloads": {}}
    ok = True
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        table = {}
        ungated = {}
        for name in mine[0]["result"]["metrics"]:
            if name not in bounds:
                ungated[name] = "result"
                continue
            bound = bounds[name]["bound"]
            sides = {}
            for set_name in "AB":
                values = [
                    r["result"]["metrics"][name]["value"]
                    for r in mine
                    if r["set"] == set_name
                ]
                sides[set_name] = spread(values)
            a, b = sides["A"]["median"], sides["B"]["median"]
            worse = (b - a) / a if bounds[name]["better"] == "lower" else (a - b) / a
            row = {"bound": bound, **sides, "b_worse_than_a": worse}
            row["ok"] = abs(worse) <= bound and all(
                s["spread"] <= bound for s in sides.values()
            )
            ok = ok and row["ok"]
            table[name] = row
        # Ungated values -- the per-layer values every untraced run
        # reports (the CPU-bound timings among them), and result metrics
        # that have no bound now -- are summarized the same way.
        for name in mine[0]["report"].get("per_layer", {}):
            ungated.setdefault(name, "report")
        layers = {}
        for name, where in ungated.items():
            layers[name] = {
                set_name: spread(
                    [
                        (
                            r["result"]["metrics"]
                            if where == "result"
                            else r["report"]["per_layer"]
                        )[name]["value"]
                        for r in mine
                        if r["set"] == set_name
                    ]
                )
                for set_name in "AB"
            }
        entry = {
            "metrics": table,
            "per_layer_untraced": layers,
            "all_correct": all(r["result"]["correct"] for r in mine),
            "mean_wall_s": statistics.mean(r["wall_s"] for r in mine),
        }
        for rec in traced:
            if rec["workload"] != workload:
                continue
            # Overhead against the untraced run of the same seed: the
            # quality numbers must be identical, the timings may move.
            base = next(r for r in mine if r["seed"] == rec["seed"])
            pairs = {}
            for section in ("end_to_end", "per_layer"):
                for name, value in rec["report"].get(section, {}).items():
                    before = base["report"].get(section, {}).get(name)
                    if before is not None and before["value"]:
                        change = value["value"] - before["value"]
                        pairs[name] = change / before["value"]
            entry["traced"] = {
                "seed": rec["seed"],
                "per_layer": rec["result"]["metrics"],
                "overhead_vs_untraced_same_seed": pairs,
            }
        summary["workloads"][workload] = entry
        print(
            f"\n{workload}: correct={entry['all_correct']} "
            f"mean wall {entry['mean_wall_s']:.1f}s"
        )
        for name, row in table.items():
            cells = "  ".join(
                f"{s}: med {row[s]['median']:.4g} spread {row[s]['spread']:.3f}"
                for s in "AB"
            )
            drift = f"B worse {row['b_worse_than_a']:+.3f}"
            verdict = "ok" if row["ok"] else "FAIL"
            print(f"  {name:16s} bound {row['bound']:.2f}  {cells}  {drift}  {verdict}")
        for name, sides in layers.items():
            cells = "  ".join(
                f"{s}: med {sides[s]['median']:.4g} spread {sides[s]['spread']:.3f}"
                for s in sides
            )
            print(f"  {name:16s} (per-layer, no bound)  {cells}")
    summary["all_ok"] = ok
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return ok


if __name__ == "__main__":
    sys.exit(main())
