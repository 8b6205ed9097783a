"""Serving-layer observability tests: /metrics, /healthz schema, the
access log, concurrency, the metrics CLI, and read-only guarantees.

The metrics registry is process-global, so everything here asserts
*deltas* between before/after snapshots rather than absolute values --
other test modules sharing the process may have already incremented the
same counters.
"""

from __future__ import annotations

import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

import promtext
import repro.data.journal  # noqa: F401  -- registers the journal metric families
from repro.core.model import MLPModel
from repro.core.params import MLPParams
from repro.data.generator import SyntheticWorldConfig, generate_world
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import REGISTRY
from repro.serving.foldin import FoldInPredictor
from repro.serving.frontend import FrontendThread, make_frontend
from repro.serving.server import (
    HTTP_LATENCY,
    HTTP_REQUESTS,
    METRICS_CONTENT_TYPE,
)


@pytest.fixture(scope="module")
def world():
    return generate_world(SyntheticWorldConfig(n_users=70, seed=9))


@pytest.fixture(scope="module")
def fitted(world):
    params = MLPParams(n_iterations=8, burn_in=3, seed=1, engine="vectorized")
    return MLPModel(params).fit(world)


@pytest.fixture(scope="module")
def access_log_stream():
    return io.StringIO()


@pytest.fixture(scope="module")
def served(fitted, access_log_stream):
    predictor = FoldInPredictor(fitted, artifact_id="obs-test")
    frontend = make_frontend(predictor, port=0, access_log=access_log_stream)
    server = FrontendThread(frontend).start()
    yield predictor, frontend, f"http://127.0.0.1:{server.port}"
    server.stop()


@pytest.fixture()
def base_url(served):
    return served[2]


def _get_raw(url: str) -> tuple[int, str, str]:
    with urllib.request.urlopen(url, timeout=10) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


def _get_json(url: str):
    status, _, text = _get_raw(url)
    return status, json.loads(text)


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    """Poll until ``predicate()`` -- metrics and access-log lines are
    written in the handler's ``finally`` block *after* the response is
    sent, so the client can observe the response first."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _post(url: str, payload) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestMetricsEndpoint:
    def test_content_type_and_grammar(self, base_url):
        # Generate some traffic first so families have samples.
        _post(f"{base_url}/predict-home", {"users": [{"user_id": 1}]})
        status, content_type, text = _get_raw(f"{base_url}/metrics")
        assert status == 200
        assert content_type == METRICS_CONTENT_TYPE
        # Strict line-grammar parse; raises on any malformed line,
        # duplicate sample, or sample without a TYPE declaration.
        families = promtext.parse(text)
        assert families

    def test_covers_server_foldin_cache_and_journal(self, base_url):
        _post(f"{base_url}/predict-home", {"users": [{"user_id": 2}]})
        _, _, text = _get_raw(f"{base_url}/metrics")
        families = promtext.parse(text)
        for name in (
            "repro_http_requests_total",
            "repro_http_request_seconds",
            "repro_http_inflight_requests",
            "repro_foldin_solve_seconds",
            "repro_foldin_solves_total",
            "repro_foldin_iterations_total",
            "repro_foldin_unconverged_total",
            "repro_foldin_kernel_rows",
            "repro_cache_hits_total",
            "repro_cache_misses_total",
            "repro_journal_appends_total",
        ):
            assert name in families, f"{name} missing from /metrics"

    def test_histograms_internally_consistent(self, base_url):
        _post(f"{base_url}/predict-home", {"users": [{"user_id": 3}]})
        _, _, text = _get_raw(f"{base_url}/metrics")
        families = promtext.parse(text)
        for family in families.values():
            if family.kind == "histogram":
                promtext.assert_histogram_consistent(family)

    def test_request_counter_and_latency_increment(self, base_url):
        child = HTTP_REQUESTS.labels(
            route="/predict-home", method="POST", status="200"
        )
        latency = HTTP_LATENCY.labels(route="/predict-home")
        before_count = child.value
        before_observed = latency.count
        for _ in range(3):
            status, _ = _post(
                f"{base_url}/predict-home", {"users": [{"user_id": 4}]}
            )
            assert status == 200
        assert _wait_until(lambda: child.value == before_count + 3)
        assert _wait_until(lambda: latency.count == before_observed + 3)

    def test_errors_labeled_by_status(self, base_url):
        bad = HTTP_REQUESTS.labels(
            route="/predict-home", method="POST", status="400"
        )
        before = bad.value
        status, _ = _post(f"{base_url}/predict-home", {"users": []})
        assert status == 400
        assert _wait_until(lambda: bad.value == before + 1)

    def test_unknown_route_label_is_bounded(self, base_url):
        """Unknown paths collapse into one '<unknown>' label value, so a
        client scanning random URLs cannot explode metric cardinality."""
        for path in ("/nope", "/scan1", "/scan2"):
            with pytest.raises(urllib.error.HTTPError):
                _get_raw(f"{base_url}{path}")
        _, _, text = _get_raw(f"{base_url}/metrics")
        families = promtext.parse(text)
        routes = {
            sample.labels["route"]
            for sample in families["repro_http_requests_total"].samples
        }
        assert "<unknown>" in routes
        assert not any(route.startswith("/scan") for route in routes)
        assert not any(route == "/nope" for route in routes)


class TestHealthzSchema:
    """Regression contract: the top-level payload shape is stable."""

    TOP_LEVEL = {
        "status", "artifact", "world", "cache", "journal", "metrics",
        "serving",
    }

    def test_top_level_keys_exact(self, base_url):
        status, payload = _get_json(f"{base_url}/healthz")
        assert status == 200
        assert set(payload) == self.TOP_LEVEL

    def test_nested_shapes(self, base_url, served):
        predictor, _, _ = served
        _, payload = _get_json(f"{base_url}/healthz")
        assert payload["status"] == "ok"
        assert payload["artifact"] == {"id": "obs-test"}
        assert set(payload["world"]) == {
            "users", "generation", "following", "tweeting", "hash",
        }
        assert payload["world"]["users"] == predictor.world.n_users
        assert set(payload["cache"]) == {
            "hits", "misses", "invalidations", "size", "max_size",
        }
        assert payload["journal"] is None  # no journal attached here
        metrics = payload["metrics"]
        assert {
            "uptime_seconds",
            "requests_total",
            "errors_total",
            "inflight",
            "solves_total",
            "traces",
        } <= set(metrics)
        assert metrics["uptime_seconds"] >= 0.0
        assert metrics["inflight"] >= 1  # this very request
        assert metrics["traces"]["captured"] >= 1
        serving = payload["serving"]
        assert set(serving) == {
            "mode", "workers", "coalesce_ms", "store", "worker_info",
        }
        assert serving["mode"] == "inline"
        assert serving["workers"] == 0
        assert serving["store"] is None
        assert serving["worker_info"] == []

    def test_payload_is_json_serializable_roundtrip(self, base_url):
        _, payload = _get_json(f"{base_url}/healthz")
        assert json.loads(json.dumps(payload)) == payload


class TestAccessLog:
    def test_one_json_line_per_request(self, base_url, access_log_stream):
        before = access_log_stream.getvalue().count("\n")
        status, _ = _post(
            f"{base_url}/predict-home", {"users": [{"user_id": 5}]}
        )
        assert status == 200
        assert _wait_until(
            lambda: access_log_stream.getvalue().count("\n") > before
        )
        lines = access_log_stream.getvalue().splitlines()
        entry = json.loads(lines[-1])
        assert set(entry) == {
            "ts", "method", "route", "path", "status", "latency_ms",
            "trace_id",
        }
        assert entry["method"] == "POST"
        assert entry["route"] == "/predict-home"
        assert entry["status"] == 200
        assert entry["latency_ms"] >= 0.0
        assert entry["trace_id"]

    def test_errors_are_logged_too(self, base_url, access_log_stream):
        status, _ = _post(f"{base_url}/predict-home", {"users": []})
        assert status == 400

        def last_entry():
            lines = access_log_stream.getvalue().splitlines()
            return json.loads(lines[-1]) if lines else None

        assert _wait_until(
            lambda: (last_entry() or {}).get("status") == 400
        )
        entry = last_entry()
        assert entry["status"] == 400
        assert entry["route"] == "/predict-home"

    def test_every_line_is_valid_json(self, access_log_stream):
        lines = access_log_stream.getvalue().splitlines()
        assert lines, "no access log lines were written"
        for line in lines:
            json.loads(line)


class TestTracing:
    """Every route runs under a trace; executor-hop spans join it.

    A request is counted, logged and its trace deposited before its
    response is written, so nothing here needs to poll.
    """

    def test_every_request_is_traced(self, base_url, served, access_log_stream):
        _, frontend, _ = served
        _, before = _get_json(f"{base_url}/healthz")
        _post(f"{base_url}/predict-home", {"users": [{"user_id": 8}]})
        _post(f"{base_url}/profile", {"user_id": 8})
        _get_raw(f"{base_url}/metrics")
        _, after = _get_json(f"{base_url}/healthz")
        # The first scrape and the three requests after it; a scrape's
        # own trace lands after its payload is built.
        captured = before["metrics"]["traces"]["captured"]
        assert after["metrics"]["traces"]["captured"] == captured + 4
        lines = access_log_stream.getvalue().splitlines()[-5:]
        assert [json.loads(line)["route"] for line in lines] == [
            "/healthz", "/predict-home", "/profile", "/metrics", "/healthz",
        ]
        assert all(json.loads(line)["trace_id"] for line in lines)
        recent = frontend.trace_buffer.recent()[-5:]
        assert [t["trace_id"] for t in recent] == [
            json.loads(line)["trace_id"] for line in lines
        ]

    def test_slow_request_lands_in_slow_log_with_inline_spans(
        self, base_url, served, monkeypatch
    ):
        _, frontend, _ = served
        monkeypatch.setattr(frontend.trace_buffer, "slow_threshold", 0.0)
        status, _ = _post(
            f"{base_url}/explain-edge",
            {"user": {"friends": [1, 2, 3]}, "neighbor": 2},
        )
        assert status == 200
        trace = frontend.trace_buffer.slow()[-1]
        assert trace["meta"] == {"route": "/explain-edge", "status": 200}
        # The solve ran in an executor thread, yet its span is here.
        assert "foldin.solve" in [span["name"] for span in trace["spans"]]

    def test_predict_trace_records_the_dispatch_wait(self, base_url, served):
        _, frontend, _ = served
        status, _ = _post(
            f"{base_url}/predict-home", {"users": [{"friends": [4, 5, 6]}]}
        )
        assert status == 200
        trace = frontend.trace_buffer.recent()[-1]
        assert trace["meta"]["route"] == "/predict-home"
        assert [s["name"] for s in trace["spans"]] == ["frontend.dispatch"]

    def test_ingest_trace_holds_journal_and_apply_spans(self, fitted, tmp_path):
        from repro.data.journal import open_journal

        predictor = FoldInPredictor(fitted, artifact_id="obs-ingest")
        _, journal, _ = open_journal(tmp_path, predictor.world)
        frontend = make_frontend(predictor, port=0, journal=journal)
        server = FrontendThread(frontend).start()
        try:
            status, _ = _post(
                f"http://127.0.0.1:{server.port}/ingest", {"new_users": [{}]}
            )
        finally:
            server.stop()
            journal.close()
        assert status == 200
        (trace,) = frontend.trace_buffer.recent()
        names = [span["name"] for span in trace["spans"]]
        assert {"journal.append", "ingest.apply"} <= set(names)


class TestConcurrentInstrumentation:
    """Hammer the live server and check counters stay exact."""

    N_THREADS = 10
    N_REQUESTS_EACH = 5

    def test_counters_exact_under_concurrency(self, base_url):
        ok = HTTP_REQUESTS.labels(
            route="/predict-home", method="POST", status="200"
        )
        latency = HTTP_LATENCY.labels(route="/predict-home")
        before_ok = ok.value
        before_observed = latency.count
        errors: list[Exception] = []
        barrier = threading.Barrier(self.N_THREADS)

        def hammer(thread_id: int) -> None:
            try:
                barrier.wait(10)
                for i in range(self.N_REQUESTS_EACH):
                    uid = (thread_id * self.N_REQUESTS_EACH + i) % 60
                    status, _ = _post(
                        f"{base_url}/predict-home",
                        {"users": [{"user_id": uid}]},
                    )
                    assert status == 200
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,))
            for t in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        total = self.N_THREADS * self.N_REQUESTS_EACH
        assert _wait_until(lambda: ok.value == before_ok + total)
        assert _wait_until(lambda: latency.count == before_observed + total)
        # The exposition must still parse cleanly after the hammer.
        _, _, text = _get_raw(f"{base_url}/metrics")
        promtext.parse(text)


class TestMetricsCli:
    def test_dump(self, base_url, capsys):
        from repro.cli import main

        exit_code = main(["metrics", "--url", base_url])
        assert exit_code == 0
        out = capsys.readouterr().out
        promtext.parse(out)

    def test_grep(self, base_url, capsys):
        from repro.cli import main

        exit_code = main(
            ["metrics", "--url", base_url, "--grep", "repro_http_requests"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert out
        for line in out.splitlines():
            assert "repro_http_requests" in line

    def test_unreachable_server_is_exit_1(self, capsys):
        from repro.cli import main

        exit_code = main(
            ["metrics", "--url", "http://127.0.0.1:9"]  # discard port
        )
        assert exit_code == 1
        assert "cannot fetch" in capsys.readouterr().err


class TestReadOnly:
    """Observability must never change what the model computes."""

    def test_predictions_identical_with_metrics_disabled(self, fitted):
        predictor_on = FoldInPredictor(fitted, artifact_id="on")
        specs = [
            predictor_on.spec_for_training_user(uid) for uid in range(20)
        ]
        with_metrics = [predictor_on.predict(spec) for spec in specs]

        previous = obs_metrics.set_enabled(False)
        try:
            predictor_off = FoldInPredictor(fitted, artifact_id="off")
            without = [predictor_off.predict(spec) for spec in specs]
        finally:
            obs_metrics.set_enabled(previous)

        for a, b in zip(with_metrics, without):
            assert a.home == b.home
            assert a.profile == b.profile
            assert a.iterations == b.iterations

    def test_scrape_does_not_mutate_sample_values(self, base_url):
        """Rendering the exposition is a pure read of registry state."""
        _post(f"{base_url}/predict-home", {"users": [{"user_id": 6}]})
        snapshot_before = REGISTRY.snapshot()
        # Render locally (no HTTP request, which would itself count).
        obs_metrics.render_prometheus()
        assert REGISTRY.snapshot() == snapshot_before
