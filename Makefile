# Developer entry points.  Everything assumes the repo root as cwd and
# needs no installation beyond python + numpy (+ pytest, pytest-benchmark;
# ruff for `make lint`, pinned in requirements-ci.txt).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-smoke bench-large bench-gate loadgen-smoke loadgen-scale perfbench-smoke docs-check link-check lint all

all: docs-check test

## tier-1 test suite (the gate every change must keep green)
test:
	$(PYTHON) -m pytest -x -q

## fast benchmark pass: component micro-benches + engine head-to-head
## + serving throughput + batch fold-in + columnar-world compile/fit
## scaling + streaming-delta splice + observability overhead, writes
## benchmarks/results/bench_run.json and appends to
## benchmarks/results/bench_trajectory.jsonl
bench-smoke:
	cd benchmarks && PYTHONPATH=../src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
		$(PYTHON) -m pytest bench_components.py bench_serving.py \
		bench_batch_foldin.py bench_columnar.py bench_delta.py \
		bench_journal.py bench_obs.py bench_query.py bench_scaling.py -q

## large-world scaling points (minutes + gigabytes): 50k partitioned
## head-to-head, 500k partitioned fit, 1M generate+compile -- then the
## env-gated baseline checks that only apply to these points
bench-large:
	cd benchmarks && BENCH_LARGE=1 \
		PYTHONPATH=../src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
		$(PYTHON) -m pytest bench_components.py bench_serving.py \
		bench_batch_foldin.py bench_columnar.py bench_delta.py \
		bench_journal.py bench_obs.py bench_query.py bench_scaling.py -q
	BENCH_LARGE=1 $(PYTHON) tools/bench_gate.py

## short open-loop load runs against an in-process server -- once at
## 0 workers (every window solved in the server process), once with a
## world store and 2 forked workers; appends p50/p99 + rps to
## benchmarks/results/bench_trajectory.jsonl
loadgen-smoke:
	$(PYTHON) tools/loadgen.py --smoke --label loadgen_smoke
	$(PYTHON) tools/loadgen.py --smoke --workers 2 --label loadgen_smoke_mp

## multi-worker scaling demo: the identical cache-busting load against
## 1 then 4 workers, a loadgen_worker_scaling entry (rps_ratio) merged
## into bench_run.json, then the env-gated floor (4-worker rps >= 1.5x
## single-worker) checked by the baseline gate
loadgen-scale:
	$(PYTHON) tools/loadgen.py --smoke --compare-workers 1,4 \
		--label loadgen_scale
	LOADGEN_SCALE=1 $(PYTHON) tools/bench_gate.py

## one seeded run each of the benchmark's fit workload (generate and
## fit paper-shaped worlds; a repeated fit must score identically and
## ACC@100 must beat the prior), serve workload (fit, save,
## `repro serve --workers 0`, read-only traffic) and ingest workload
## (`repro serve --workers 1 --journal --store`, writes beside reads,
## then replay == live); fails unless each result line reports
## "correct": true
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload fit --seed 1 \
		| tail -n 1 | tee /dev/stderr | grep -q '"correct": true'
	$(PYTHON) perfbench/run.py --workload serve --seed 1 \
		| tail -n 1 | tee /dev/stderr | grep -q '"correct": true'
	$(PYTHON) perfbench/run.py --workload ingest --seed 1 \
		| tail -n 1 | tee /dev/stderr | grep -q '"correct": true'

## perf-regression gate: compare bench_run.json against the committed
## baseline bands (run bench-smoke first)
bench-gate:
	$(PYTHON) tools/bench_gate.py

## fail if any public module or public function lacks a docstring
docs-check:
	$(PYTHON) tools/docs_check.py

## fail on broken relative links / anchors across README.md and docs/
link-check:
	$(PYTHON) tools/link_check.py

## ruff lint + format check (config in ruff.toml; formatting is adopted
## incrementally -- see the [format] exclude list there)
lint:
	ruff check .
	ruff format --check .
