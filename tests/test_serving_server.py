"""Inference server tests: live HTTP round-trips against a real socket.

Everything here runs the front end at 0 workers (one process, every
predict window solved inline); tests/test_serving_frontend.py covers
what the worker topology adds.
"""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.model import MLPModel
from repro.core.params import MLPParams
from repro.data.generator import SyntheticWorldConfig, generate_world
from repro.serving import frontend as frontend_module
from repro.serving.foldin import FoldInPredictor
from repro.serving.frontend import FrontendThread, make_frontend
from repro.serving.server import HTTP_REQUESTS


@pytest.fixture(scope="module")
def world():
    return generate_world(SyntheticWorldConfig(n_users=80, seed=6))


@pytest.fixture(scope="module")
def predictor(world):
    params = MLPParams(n_iterations=10, burn_in=4, seed=0, engine="vectorized")
    result = MLPModel(params).fit(world)
    return FoldInPredictor(result, artifact_id="server-test")


def _serve(predictor) -> FrontendThread:
    """A started 0-worker front end over ``predictor``."""
    return FrontendThread(make_frontend(predictor, port=0)).start()


@pytest.fixture(scope="module")
def base_url(predictor):
    server = _serve(predictor)
    yield f"http://127.0.0.1:{server.port}"
    server.stop()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(url: str, payload) -> tuple[int, dict]:
    return _post_raw(url, json.dumps(payload).encode("utf-8"))


def _post_raw(url: str, body: bytes) -> tuple[int, dict]:
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHealthAndMetadata:
    def test_healthz(self, base_url):
        status, payload = _get(f"{base_url}/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["artifact"]["id"] == "server-test"
        assert set(payload["cache"]) == {
            "hits", "misses", "invalidations", "size", "max_size",
        }
        assert payload["journal"] is None
        # The handler itself is the in-flight request; its own counter
        # increment lands only after the response is written.
        assert payload["metrics"]["inflight"] >= 1

    def test_artifact_metadata(self, base_url, world):
        status, payload = _get(f"{base_url}/artifact")
        assert status == 200
        assert payload["users"] == world.n_users
        assert payload["params"]["engine"] == "vectorized"
        assert payload["fitted_law"]["alpha"] < 0

    def test_unknown_get_route_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{base_url}/nope")
        assert excinfo.value.code == 404


class TestMethodNotAllowed:
    """Known route + wrong method -> 405 with an Allow header."""

    @pytest.mark.parametrize(
        "route", ["/predict-home", "/profile", "/explain-edge"]
    )
    def test_get_on_post_route_405(self, base_url, route):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{base_url}{route}")
        assert excinfo.value.code == 405
        assert excinfo.value.headers["Allow"] == "POST"
        assert "POST" in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize("route", ["/healthz", "/artifact"])
    def test_post_on_get_route_405(self, base_url, route):
        status, payload = _post(f"{base_url}{route}", {"x": 1})
        assert status == 405
        assert "GET" in payload["error"]

    def test_post_on_get_route_sets_allow_header(self, base_url):
        request = urllib.request.Request(
            f"{base_url}/healthz",
            data=b"{}",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 405
        assert excinfo.value.headers["Allow"] == "GET"

    def test_delete_on_known_route_405(self, base_url):
        request = urllib.request.Request(
            f"{base_url}/predict-home", method="DELETE"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 405
        assert excinfo.value.headers["Allow"] == "POST"

    def test_delete_on_unknown_route_404(self, base_url):
        request = urllib.request.Request(f"{base_url}/nope", method="DELETE")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404

    def test_unknown_post_route_still_404(self, base_url):
        status, payload = _post(f"{base_url}/nope", {"x": 1})
        assert status == 404


class TestPredictHome:
    def test_training_user(self, base_url, predictor):
        status, payload = _post(
            f"{base_url}/predict-home", {"users": [{"user_id": 3}], "top_k": 2}
        )
        assert status == 200
        (prediction,) = payload["predictions"]
        expected = predictor.predict(predictor.spec_for_training_user(3))
        assert prediction["home"] == expected.home
        assert len(prediction["profile"]) <= 2
        assert prediction["home_name"]

    def test_new_user_spec(self, base_url, world):
        labeled = list(world.labeled_user_ids[:2])
        status, payload = _post(
            f"{base_url}/predict-home",
            {"users": [{"friends": labeled}]},
        )
        assert status == 200
        (prediction,) = payload["predictions"]
        observed = {world.observed_locations[u] for u in labeled}
        assert prediction["home"] in observed

    def test_batch_and_cache_flag(self, base_url):
        request = {"users": [{"user_id": 11}, {"user_id": 12}]}
        _post(f"{base_url}/predict-home", request)
        status, payload = _post(f"{base_url}/predict-home", request)
        assert status == 200
        assert all(p["cached"] for p in payload["predictions"])

    def test_empty_users_rejected(self, base_url):
        status, payload = _post(f"{base_url}/predict-home", {"users": []})
        assert status == 400
        assert "users" in payload["error"]

    def test_unknown_neighbor_rejected(self, base_url):
        status, payload = _post(
            f"{base_url}/predict-home", {"users": [{"friends": [99999]}]}
        )
        assert status == 400
        assert "99999" in payload["error"]

    def test_invalid_json_rejected(self, base_url):
        request = urllib.request.Request(
            f"{base_url}/predict-home", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_malformed_content_length_is_400_not_500(self, base_url):
        """Regression: 'Content-Length: abc' used to escape as a raw
        ValueError; it must come back as a clean 400 naming the header,
        with the connection closed (the body size is unknowable)."""
        import socket

        host, port = base_url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                b"POST /predict-home HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: abc\r\n"
                b"\r\n"
            )
            sock.settimeout(10)
            data = b""
            while b"\r\n\r\n" not in data:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        status_line = data.split(b"\r\n", 1)[0]
        assert b"400" in status_line
        assert b"Content-Length" in data
        assert b"Connection: close" in data

    @pytest.mark.parametrize("header", ["1_0", "+10", "-5", "0x10", "²"])
    def test_non_digit_content_length_rejected(self, base_url, header):
        """int() quirks ('1_0' == 10, '+10') must not mis-frame bodies,
        and Unicode digits ('²'.isdigit() is True) must not slip past
        the guard only to blow up in int()."""
        import socket

        host, port = base_url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            # Headers only: the server must answer without waiting for
            # (or reading) any body it cannot frame.
            sock.sendall(
                b"POST /predict-home HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {header}\r\n\r\n".encode()
            )
            data = b""
            while b"invalid Content-Length" not in data:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        assert b"400" in data.split(b"\r\n", 1)[0]
        assert b"invalid Content-Length" in data


class TestPredictBatch:
    """The bulk endpoint: a JSON array in, an array out."""

    def test_array_in_array_out(self, base_url, predictor):
        status, payload = _post(
            f"{base_url}/predict-batch", [{"user_id": 4}, {"user_id": 9}]
        )
        assert status == 200
        assert isinstance(payload, list) and len(payload) == 2
        expected = predictor.predict(predictor.spec_for_training_user(4))
        assert payload[0]["home"] == expected.home
        assert all("profile" in p and "converged" in p for p in payload)

    def test_matches_predict_home_route(self, base_url):
        users = [{"user_id": 21}, {"friends": [1, 2]}]
        _, bulk = _post(f"{base_url}/predict-batch", users)
        _, single = _post(f"{base_url}/predict-home", {"users": users})
        homes = [p["home"] for p in single["predictions"]]
        assert [p["home"] for p in bulk] == homes

    def test_object_body_rejected(self, base_url):
        status, payload = _post(
            f"{base_url}/predict-batch", {"users": [{"user_id": 1}]}
        )
        assert status == 400
        assert "array" in payload["error"]

    def test_bad_spec_rejected(self, base_url):
        status, payload = _post(
            f"{base_url}/predict-batch", [{"user_id": 99999}]
        )
        assert status == 400
        assert "99999" in payload["error"]

    def test_wrong_method_405(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{base_url}/predict-batch")
        assert excinfo.value.code == 405
        assert excinfo.value.headers["Allow"] == "POST"

    def test_accepts_bodies_beyond_single_user_cap(self, base_url):
        """The bulk route takes population dumps: bodies over the 1 MiB
        single-user cap (here ~2 MiB of whitespace padding) must pass."""
        body = (b"[" + b" " * (2 << 20) + b'{"user_id": 2}]')
        request = urllib.request.Request(
            f"{base_url}/predict-batch",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
            payload = json.loads(response.read())
        assert len(payload) == 1

    def test_single_user_routes_keep_the_small_cap(self, base_url):
        """predict-home still refuses oversized bodies (before reading
        them, so a plain client sees the 400 or a reset mid-send)."""
        import socket

        host, port = base_url.removeprefix("http://").split(":")
        length = 2 << 20
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                b"POST /predict-home HTTP/1.1\r\n"
                b"Host: test\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode()
            )
            # The server answers without waiting for the body, then
            # closes; read until that close.
            data = b""
            while b"exceeds" not in data:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        assert b"400" in data.split(b"\r\n", 1)[0]
        assert b"exceeds" in data


class TestProfile:
    def test_stored_profile_served(self, base_url, predictor):
        status, payload = _post(
            f"{base_url}/profile", {"user_id": 5, "top_k": 3}
        )
        assert status == 200
        profile = predictor.result.profile_of(5)
        assert payload["home"] == profile.home
        served = [
            (entry["location"], entry["probability"])
            for entry in payload["profile"]
        ]
        assert tuple(served) == profile.entries[:3]

    def test_out_of_range_user_rejected(self, base_url):
        status, payload = _post(f"{base_url}/profile", {"user_id": 9999})
        assert status == 400
        assert "9999" in payload["error"]


class TestExplainEdge:
    def test_explains_training_edge(self, base_url, world):
        edge = world.following[0]
        status, payload = _post(
            f"{base_url}/explain-edge",
            {
                "user": {"user_id": edge.follower},
                "neighbor": edge.friend,
                "direction": "out",
                "top": 3,
            },
        )
        assert status == 200
        assert payload["neighbor"] == edge.friend
        assert 0.0 <= payload["noise_probability"] <= 1.0
        assert payload["pairs"]
        assert all("x_name" in pair for pair in payload["pairs"])

    def test_missing_fields_rejected(self, base_url):
        status, payload = _post(f"{base_url}/explain-edge", {"user": {}})
        assert status == 400
        assert "neighbor" in payload["error"]

    def test_unknown_post_route_404(self, base_url):
        status, payload = _post(f"{base_url}/predict", {"users": []})
        assert status == 404


class TestKeepAlive:
    def test_connection_survives_request_sequence(self, base_url):
        """Several requests over one persistent HTTP/1.1 connection."""
        import http.client

        host, port = base_url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            body = json.dumps({"users": [{"user_id": 1}]})
            for _ in range(3):
                conn.request("POST", "/predict-home", body=body)
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read())
        finally:
            conn.close()

    def test_unread_body_does_not_desync_next_request(self, base_url):
        """A 404'd POST body must not be parsed as the next request."""
        import http.client

        host, port = base_url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.request(
                "POST", "/nope", body=json.dumps({"users": [{"user_id": 1}]})
            )
            response = conn.getresponse()
            assert response.status == 404
            response.read()
            # The server closed the connection rather than desync;
            # http.client transparently reconnects on the same object.
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            conn.close()


class TestConcurrency:
    def test_parallel_requests(self, base_url):
        """Concurrent fold-ins all succeed."""
        results = []
        errors = []

        def hit(uid: int) -> None:
            try:
                status, payload = _post(
                    f"{base_url}/predict-home", {"users": [{"user_id": uid}]}
                )
                results.append((status, payload["predictions"][0]["home"]))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hit, args=(uid,)) for uid in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 12
        assert all(status == 200 for status, _ in results)


class TestIngest:
    """POST /ingest: streaming world deltas into the live server.

    Runs against its own server (fresh predictor over the shared
    fitted result), so world growth never leaks into the other route
    tests' fixtures.
    """

    @pytest.fixture(scope="class")
    def live(self, predictor):
        fresh = FoldInPredictor(predictor.result, artifact_id="ingest-test")
        server = _serve(fresh)
        yield fresh, f"http://127.0.0.1:{server.port}"
        server.stop()

    def test_ingest_applies_and_reports_identity(self, live):
        fresh, url = live
        users_before = fresh.world.n_users
        status, payload = _post(
            f"{url}/ingest",
            {
                "new_users": [{"observed_location": 3}, {}],
                "edges": [[users_before, 0], [1, users_before + 1]],
                "tweets": [[users_before, 2]],
                "labels": {"5": 4},
            },
        )
        assert status == 200
        assert payload["generation"] == fresh.world.generation
        assert payload["world_hash"] == fresh.world.content_hash
        assert payload["users"] == users_before + 2
        assert payload["applied"]["new_users"] == 2
        assert payload["applied"]["edges"] == 2
        assert payload["applied"]["label_updates"] == 1
        assert payload["applied"]["touched_users"] >= 3

    def test_ingested_user_is_servable_immediately(self, live):
        fresh, url = live
        uid = fresh.world.n_users - 2  # arrival from the previous test
        status, payload = _post(
            f"{url}/predict-home", {"users": [{"user_id": uid}]}
        )
        assert status == 200
        assert payload["predictions"][0]["converged"]

    def test_healthz_reports_generation(self, live):
        fresh, url = live
        status, payload = _get(f"{url}/healthz")
        assert status == 200
        assert payload["world"]["generation"] == fresh.world.generation
        assert payload["world"]["users"] == fresh.world.n_users

    def test_bad_delta_is_a_400(self, live):
        fresh, url = live
        generation = fresh.world.generation
        status, payload = _post(
            f"{url}/ingest", {"edges": [[0, 10_000_000]]}
        )
        assert status == 400
        assert "unknown user" in payload["error"]
        status, payload = _post(
            f"{url}/ingest", {"tweets": [[0, "venue-that-never-was"]]}
        )
        assert status == 400
        assert "unknown venue name" in payload["error"]
        status, payload = _post(f"{url}/ingest", {"bogus_field": 1})
        assert status == 400
        assert "unknown delta fields" in payload["error"]
        # Structurally malformed fields are clean 400s too, never a
        # dropped connection from an uncaught AttributeError/TypeError.
        status, payload = _post(f"{url}/ingest", {"labels": [1, 2]})
        assert status == 400
        assert "labels" in payload["error"]
        status, payload = _post(f"{url}/ingest", {"edges": [5]})
        assert status == 400
        assert "two-element pair" in payload["error"]
        status, payload = _post(f"{url}/ingest", {"new_users": 3})
        assert status == 400
        assert "new_users" in payload["error"]
        # Failed ingests must not advance the world.
        assert fresh.world.generation == generation

    def test_get_on_ingest_is_405(self, live):
        _, url = live
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{url}/ingest")
        assert excinfo.value.code == 405
        assert excinfo.value.headers["Allow"] == "POST"


class TestGracefulDrain:
    """SIGTERM-path regression: a drain finishes in-flight requests."""

    def test_drain_waits_for_slow_inflight_request(
        self, predictor, monkeypatch
    ):
        import time

        server = _serve(predictor)
        url = f"http://127.0.0.1:{server.port}"
        original = predictor.explain_edge

        def slow_explain(*args, **kwargs):
            time.sleep(0.6)
            return original(*args, **kwargs)

        monkeypatch.setattr(predictor, "explain_edge", slow_explain)
        outcome = {}

        def fire():
            outcome["response"] = _post(
                f"{url}/explain-edge",
                {"user": {"user_id": 3}, "neighbor": 7},
            )

        request_thread = threading.Thread(target=fire)
        request_thread.start()
        time.sleep(0.15)  # in flight, sleeping inside the handler
        drained = server.stop(deadline_seconds=10.0)
        request_thread.join(timeout=15)
        assert not request_thread.is_alive()
        assert drained is True
        status, payload = outcome["response"]
        assert status == 200
        assert payload["neighbor"] == 7
        # The listener is closed: new connections are refused.
        with pytest.raises(
            (urllib.error.URLError, ConnectionError, OSError)
        ):
            urllib.request.urlopen(f"{url}/healthz", timeout=2)

    def test_drain_reports_idle_immediately_when_quiet(self, predictor):
        server = _serve(predictor)
        assert server.stop(deadline_seconds=2.0) is True

    def test_drain_closes_idle_keep_alive_connection(self, predictor):
        """A pooled client idle between requests must not hold a drain."""
        import time

        server = _serve(predictor)
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            head, body = _read_response(sock)
            assert head.startswith(b"HTTP/1.1 200 ")
            assert b"Connection: close" not in head
            t0 = time.monotonic()
            assert server.stop(deadline_seconds=1.0) is True
            assert time.monotonic() - t0 < 2.0
            assert sock.recv(1) == b""  # the server closed it

    def test_large_response_is_delivered_across_drain(
        self, predictor, monkeypatch
    ):
        """A drain waits until an in-flight response has been written."""
        import time

        blob = "x" * (8 << 20)  # far beyond any socket buffer
        monkeypatch.setattr(
            frontend_module, "artifact_payload", lambda _: {"blob": blob}
        )
        server = _serve(predictor)
        outcome = {}
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /artifact HTTP/1.1\r\nHost: t\r\n\r\n")
            time.sleep(0.3)  # unread: the server blocks writing it
            stopper = threading.Thread(
                target=lambda: outcome.update(
                    drained=server.stop(deadline_seconds=10.0)
                )
            )
            stopper.start()
            time.sleep(0.3)  # the drain is waiting on the write
            head, body = _read_response(sock)
            stopper.join(timeout=15)
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body) == {"blob": blob}
        assert outcome["drained"] is True


def _read_response(sock) -> tuple[bytes, bytes]:
    """Read one Content-Length framed response off ``sock``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "connection closed inside the response head"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    while len(body) < length:
        chunk = sock.recv(1 << 20)
        assert chunk, "connection closed inside the response body"
        body += chunk
    return head, body


def _raw_exchange(base_url: str, request: bytes) -> bytes:
    """Send raw bytes, then read until the server closes the socket."""
    host, port = base_url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(request)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return data
            data += chunk


class TestBoundedHead:
    """An oversized or malformed request head gets an answer and a close.

    Each case counts in ``repro_http_requests_total`` like any request.
    """

    def _counted(self, status: int):
        return HTTP_REQUESTS.labels(
            route="<unknown>", method="<unknown>", status=str(status)
        )

    def test_long_request_line_is_414(self, base_url):
        counter = self._counted(414)
        before = counter.value
        target = "/" + "a" * (frontend_module.MAX_LINE_BYTES + 10)
        data = _raw_exchange(
            base_url, f"GET {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
        )
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 414 ")
        assert b"Connection: close" in head
        assert "request line exceeds" in json.loads(body)["error"]
        assert counter.value == before + 1

    def test_long_header_line_is_431(self, base_url):
        value = "x" * (frontend_module.MAX_LINE_BYTES + 10)
        data = _raw_exchange(
            base_url,
            f"GET /healthz HTTP/1.1\r\nX-Big: {value}\r\n\r\n".encode(),
        )
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 431 ")
        assert b"Connection: close" in head
        assert "header line exceeds" in json.loads(body)["error"]

    def test_too_many_headers_is_431(self, base_url):
        many = "".join(
            f"X-H{i}: {i}\r\n" for i in range(frontend_module.MAX_HEADERS + 1)
        )
        data = _raw_exchange(
            base_url, f"GET /healthz HTTP/1.1\r\n{many}\r\n".encode()
        )
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 431 ")
        assert b"Connection: close" in head
        assert "header lines" in json.loads(body)["error"]

    def test_header_count_at_the_limit_is_served(self, base_url):
        many = "".join(
            f"X-H{i}: {i}\r\n" for i in range(frontend_module.MAX_HEADERS - 1)
        )
        data = _raw_exchange(
            base_url,
            f"GET /healthz HTTP/1.1\r\n{many}Connection: close\r\n\r\n"
            .encode(),
        )
        assert data.startswith(b"HTTP/1.1 200 ")

    @pytest.mark.parametrize(
        "line", [b"GARBAGE\r\n", b"GET /healthz\r\n", b"GET / FTP/1.0\r\n"]
    )
    def test_malformed_request_line_is_400(self, base_url, line):
        counter = self._counted(400)
        before = counter.value
        data = _raw_exchange(base_url, line + b"\r\n")
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert json.loads(body) == {"error": "malformed request line"}
        assert counter.value == before + 1


class TestStalledBody:
    def test_body_that_never_arrives_is_408(self, base_url, monkeypatch):
        monkeypatch.setattr(frontend_module, "BODY_READ_TIMEOUT", 0.3)
        counter = HTTP_REQUESTS.labels(
            route="/predict-home", method="POST", status="408"
        )
        before = counter.value
        # Declares 100 bytes, sends 2, then waits without closing.
        data = _raw_exchange(
            base_url,
            b"POST /predict-home HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 100\r\n\r\n{}",
        )
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 ")
        assert b"Connection: close" in head
        assert "not received within 0.3 seconds" in json.loads(body)["error"]
        assert counter.value == before + 1


class TestStalledHead:
    def test_head_that_never_completes_is_408(self, base_url, monkeypatch):
        monkeypatch.setattr(frontend_module, "HEAD_READ_TIMEOUT", 0.3)
        counter = HTTP_REQUESTS.labels(
            route="<unknown>", method="<unknown>", status="408"
        )
        before = counter.value
        # A started head with no blank line to end it.
        data = _raw_exchange(base_url, b"GET /healthz HTTP/1.1\r\nHost: t")
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 ")
        assert b"Connection: close" in head
        assert "head not received within 0.3" in json.loads(body)["error"]
        assert counter.value == before + 1

    def test_idle_keep_alive_outlives_the_head_deadline(
        self, base_url, monkeypatch
    ):
        import time

        monkeypatch.setattr(frontend_module, "HEAD_READ_TIMEOUT", 0.3)
        host, port = base_url.removeprefix("http://").split(":")
        request = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(request)
            assert _read_response(sock)[0].startswith(b"HTTP/1.1 200 ")
            time.sleep(0.8)  # idle between requests: no deadline runs
            sock.sendall(request)
            assert _read_response(sock)[0].startswith(b"HTTP/1.1 200 ")
