"""Multi-process serving tests: worker pool, coalescing, RCU, degradation.

The hard contracts exercised here:

- every route keeps its status codes and error strings when predict
  traffic is dispatched to worker processes;
- RCU: with concurrent ``/ingest`` publishes, every response is
  bit-identical to a single-process solve against the generation named
  by its ``X-World-Generation`` header;
- a ``kill -9`` of any worker degrades (re-dispatch, then inline
  fallback) but never corrupts or drops a request;
- graceful shutdown lets a slow in-flight request finish.
"""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.model import MLPModel
from repro.core.params import MLPParams
from repro.data.columnar import compile_world
from repro.data.delta import WorldDelta, apply_delta
from repro.data.generator import SyntheticWorldConfig, generate_world
from repro.serving.foldin import FoldInPredictor, prediction_payload
from repro.serving.frontend import (
    COALESCE_BATCH_SIZE,
    COALESCE_DISPATCHES,
    FrontendThread,
    make_frontend,
)
from repro.serving.store import WorldStore


@pytest.fixture(scope="module")
def dataset():
    return generate_world(SyntheticWorldConfig(n_users=80, seed=6))


@pytest.fixture(scope="module")
def result(dataset):
    params = MLPParams(n_iterations=10, burn_in=4, seed=0, engine="vectorized")
    return MLPModel(params).fit(dataset)


def _spawn(result, store_dir, n_workers=2, coalesce_ms=2.0):
    predictor = FoldInPredictor(result, artifact_id="frontend-test")
    store = WorldStore(store_dir, predictor.world.gazetteer)
    frontend = make_frontend(
        predictor, store, n_workers, port=0, coalesce_ms=coalesce_ms
    )
    ft = FrontendThread(frontend).start()
    return ft, frontend, predictor, store


@pytest.fixture(scope="module")
def served(result, tmp_path_factory):
    """A module-wide read-only front end: 2 workers, 2 ms window."""
    ft, frontend, predictor, store = _spawn(
        result, tmp_path_factory.mktemp("store")
    )
    yield ft, frontend, predictor
    ft.stop()
    store.close()


@pytest.fixture(scope="module")
def base_url(served):
    ft, _, _ = served
    return f"http://127.0.0.1:{ft.port}"


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post(url: str, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (
                response.status,
                json.loads(response.read()),
                dict(response.headers),
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _strip_cached(body):
    """Drop the ``cached`` serving-metadata key, wherever it nests."""
    if isinstance(body, dict):
        return {
            k: _strip_cached(v) for k, v in body.items() if k != "cached"
        }
    if isinstance(body, list):
        return [_strip_cached(v) for v in body]
    return body


class TestRoutes:
    def test_healthz_reports_topology(self, base_url):
        status, payload = _get(f"{base_url}/healthz")
        assert status == 200
        assert set(payload) == {
            "status", "artifact", "world", "cache", "journal", "metrics",
            "serving",
        }
        serving = payload["serving"]
        assert serving["mode"] == "multiprocess"
        assert serving["workers"] == 2
        assert serving["coalesce_ms"] == 2.0
        assert serving["store"]["generation"] == 0
        info = serving["worker_info"]
        assert len(info) == 2
        for row in info:
            assert row["alive"] is True
            assert isinstance(row["pid"], int)
            assert row["pid"] != os.getpid()

    def test_healthz_worker_generation_after_dispatch(self, base_url):
        _post(f"{base_url}/predict-home", {"users": [{"user_id": 1}]})
        _, payload = _get(f"{base_url}/healthz")
        generations = [
            row["generation"]
            for row in payload["serving"]["worker_info"]
        ]
        assert 0 in generations  # at least one worker has served gen 0

    def test_metrics_exposes_coalescing_histogram(self, base_url):
        with urllib.request.urlopen(
            f"{base_url}/metrics", timeout=30
        ) as response:
            text = response.read().decode("utf-8")
        assert "repro_serve_coalesced_batch_size_bucket" in text
        assert "repro_serve_dispatches_total" in text
        assert "repro_worker_batches_total" in text

    def test_unknown_route_404(self, base_url):
        status, payload, _ = _post(f"{base_url}/nope", {})
        assert status == 404
        assert payload == {"error": "unknown route /nope"}

    def test_get_on_post_route_405_with_allow(self, base_url):
        try:
            urllib.request.urlopen(f"{base_url}/predict-home", timeout=30)
            raise AssertionError("expected HTTPError")
        except urllib.error.HTTPError as error:
            assert error.code == 405
            assert error.headers["Allow"] == "POST"

    def test_post_on_get_route_405_with_allow(self, base_url):
        status, _, headers = _post(f"{base_url}/healthz", {})
        assert status == 405
        assert headers["Allow"] == "GET"

    def test_invalid_json_400(self, base_url):
        request = urllib.request.Request(
            f"{base_url}/predict-home", data=b"{nope", method="POST"
        )
        try:
            urllib.request.urlopen(request, timeout=30)
            raise AssertionError("expected HTTPError")
        except urllib.error.HTTPError as error:
            assert error.code == 400
            assert "invalid JSON body" in json.loads(error.read())["error"]

    def test_per_request_client_errors_400(self, base_url):
        status, payload, _ = _post(
            f"{base_url}/predict-home", {"users": []}
        )
        assert status == 400
        assert payload == {
            "error": '"users" must be a non-empty list of specs'
        }
        status, payload, _ = _post(
            f"{base_url}/predict-home", {"users": [{"user_id": 10**6}]}
        )
        assert status == 400
        assert "not in the served world" in payload["error"]

    def test_predict_carries_generation_header(self, base_url):
        status, _, headers = _post(
            f"{base_url}/predict-home", {"users": [{"user_id": 2}]}
        )
        assert status == 200
        assert headers["X-World-Generation"] == "0"


class TestCoalescing:
    def test_concurrent_burst_coalesces(self, result, tmp_path):
        ft, frontend, _, store = _spawn(
            result, tmp_path, n_workers=2, coalesce_ms=80.0
        )
        try:
            base = f"http://127.0.0.1:{ft.port}"
            before_ok = COALESCE_DISPATCHES.labels(outcome="ok").value
            before_count = COALESCE_BATCH_SIZE.summary()["count"]
            n = 8
            barrier = threading.Barrier(n)
            statuses = []
            lock = threading.Lock()

            def fire(i):
                barrier.wait()
                status, _, _ = _post(
                    f"{base}/predict-home",
                    {"users": [{"friends": [i, i + 1]}]},
                )
                with lock:
                    statuses.append(status)

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert statuses == [200] * n
            dispatches = (
                COALESCE_DISPATCHES.labels(outcome="ok").value - before_ok
            )
            assert 1 <= dispatches < n  # the window merged traffic
            assert COALESCE_BATCH_SIZE.summary()["count"] > before_count
            assert COALESCE_BATCH_SIZE.summary()["max"] >= 2
        finally:
            ft.stop()
            store.close()


class TestIngestAndRCU:
    def _ingest_body(self, i: int, label_user=None):
        body = {
            "new_users": [{}],
            "edges": [[i % 40, (i * 7 + 3) % 40]],
            "tweets": [],
            "labels": {},
        }
        if label_user is not None:
            body["labels"] = {str(label_user): 1}
        return body

    def test_ingest_publishes_and_workers_adopt(self, result, tmp_path):
        ft, frontend, predictor, store = _spawn(result, tmp_path)
        try:
            base = f"http://127.0.0.1:{ft.port}"
            status, body, headers = _post(
                f"{base}/ingest", self._ingest_body(0)
            )
            assert status == 200
            assert body["generation"] == 1
            assert headers["X-World-Generation"] == "1"
            assert store.current_generation() == 1
            # The next predict is served from the new generation.
            status, _, headers = _post(
                f"{base}/predict-home", {"users": [{"user_id": 1}]}
            )
            assert status == 200
            assert headers["X-World-Generation"] == "1"
            _, hz = _get(f"{base}/healthz")
            assert hz["world"]["generation"] == 1
            assert hz["serving"]["store"]["generation"] == 1
        finally:
            ft.stop()
            store.close()

    def test_rcu_interleaved_ingest_predict_bit_identity(
        self, result, tmp_path
    ):
        """The RCU property: concurrent publishes + predict traffic.

        Every response must match a fresh single-process solve against
        the generation named in its ``X-World-Generation`` header --
        the local reference chain replays the same deltas through
        ``apply_delta`` (pure, deterministic), so generation g's world
        is reconstructible exactly.
        """
        ft, frontend, predictor, store = _spawn(
            result, tmp_path, n_workers=2, coalesce_ms=1.0
        )
        try:
            base = f"http://127.0.0.1:{ft.port}"
            gazetteer = predictor.world.gazetteer
            n_ingests = 4
            deltas = [
                WorldDelta.from_payload(
                    self._ingest_body(i, label_user=(i * 3) % 40),
                    gazetteer=gazetteer,
                )
                for i in range(n_ingests)
            ]
            observations = []
            obs_lock = threading.Lock()
            stop = threading.Event()
            errors = []

            def predict_loop(worker_seed):
                specs = [
                    {"user_id": (worker_seed * 11 + k) % 80}
                    for k in range(3)
                ] + [{"friends": [worker_seed, worker_seed + 5]}]
                while not stop.is_set():
                    for spec in specs:
                        try:
                            status, body, headers = _post(
                                f"{base}/predict-home", {"users": [spec]}
                            )
                        except Exception as exc:  # pragma: no cover
                            errors.append(exc)
                            return
                        if status != 200:
                            errors.append((status, body))
                            return
                        with obs_lock:
                            observations.append(
                                (
                                    spec,
                                    body,
                                    int(headers["X-World-Generation"]),
                                )
                            )

            threads = [
                threading.Thread(target=predict_loop, args=(i,))
                for i in range(3)
            ]
            for t in threads:
                t.start()
            ingest_hashes = []
            for i, delta in enumerate(deltas):
                time.sleep(0.05)
                status, body, _ = _post(
                    f"{base}/ingest",
                    self._ingest_body(i, label_user=(i * 3) % 40),
                )
                assert status == 200
                assert body["generation"] == i + 1
                ingest_hashes.append(body["world_hash"])
            time.sleep(0.15)
            stop.set()
            for t in threads:
                t.join(timeout=60)
            assert not errors, errors[:3]
            assert observations

            # Rebuild the generation chain locally (pure replay) and
            # check the server chained identically.
            base_world = compile_world(result.dataset)
            chain = {0: base_world}
            world = base_world
            for i, delta in enumerate(deltas):
                world = apply_delta(world, delta)
                chain[i + 1] = world
                assert world.content_hash == ingest_hashes[i]

            reference = FoldInPredictor(
                result, artifact_id="frontend-test"
            )
            seen_generations = set()
            for spec, body, generation in observations:
                assert generation in chain, (
                    f"response served from unpublished generation "
                    f"{generation}"
                )
                seen_generations.add(generation)
                reference.attach_world(chain[generation])
                resolved = reference.resolve_request(spec)
                expected = prediction_payload(
                    reference.predict(resolved, use_cache=False),
                    gazetteer,
                    top_k=3,
                )
                actual = body["predictions"][0]
                assert _strip_cached(actual) == _strip_cached(expected), (
                    spec,
                    generation,
                )
            # The interleaving actually spanned generations.
            assert len(seen_generations) >= 2
        finally:
            ft.stop()
            store.close()


class TestWorkerDeath:
    def test_kill_one_worker_degrades_not_corrupts(self, result, tmp_path):
        ft, frontend, predictor, store = _spawn(result, tmp_path)
        try:
            base = f"http://127.0.0.1:{ft.port}"
            victim = frontend.pool.workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            for i in range(6):
                status, body, _ = _post(
                    f"{base}/predict-home", {"users": [{"user_id": i}]}
                )
                assert status == 200
                assert body["predictions"][0]["home"] is not None
            _, hz = _get(f"{base}/healthz")
            rows = {
                row["worker"]: row
                for row in hz["serving"]["worker_info"]
            }
            assert rows[0]["alive"] is False
            assert rows[1]["alive"] is True
        finally:
            ft.stop()
            store.close()

    def test_kill_all_workers_falls_back_inline(self, result, tmp_path):
        ft, frontend, predictor, store = _spawn(result, tmp_path)
        try:
            base = f"http://127.0.0.1:{ft.port}"
            before = COALESCE_DISPATCHES.labels(
                outcome="fallback_inline"
            ).value
            for worker in frontend.pool.workers:
                os.kill(worker.pid, signal.SIGKILL)
            status, body, headers = _post(
                f"{base}/predict-home", {"users": [{"user_id": 3}]}
            )
            assert status == 200
            assert body["predictions"][0]["home"] is not None
            assert headers["X-World-Generation"] == "0"
            after = COALESCE_DISPATCHES.labels(
                outcome="fallback_inline"
            ).value
            assert after > before
            _, hz = _get(f"{base}/healthz")
            assert all(
                not row["alive"]
                for row in hz["serving"]["worker_info"]
            )
        finally:
            ft.stop()
            store.close()


class TestGracefulShutdown:
    def test_drain_finishes_slow_inflight_request(
        self, result, tmp_path, monkeypatch
    ):
        ft, frontend, predictor, store = _spawn(result, tmp_path)
        base = f"http://127.0.0.1:{ft.port}"
        original = predictor.explain_edge

        def slow_explain(*args, **kwargs):
            time.sleep(0.6)
            return original(*args, **kwargs)

        monkeypatch.setattr(predictor, "explain_edge", slow_explain)
        outcome = {}

        def fire():
            outcome["response"] = _post(
                f"{base}/explain-edge",
                {"user": {"user_id": 3}, "neighbor": 7},
            )

        thread = threading.Thread(target=fire)
        thread.start()
        time.sleep(0.15)  # the request is in flight and sleeping
        ft.stop(deadline_seconds=10.0)
        thread.join(timeout=15)
        status, body, _ = outcome["response"]
        assert status == 200
        assert body["neighbor"] == 7
        # The listener is really gone.
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(f"{base}/healthz", timeout=2)
        store.close()
