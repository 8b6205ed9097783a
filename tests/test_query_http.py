"""HTTP tests for the ``GET /query/*`` routes, at 0 and at 2 workers.

The acceptance contract: at any worker count the front end serves
every query route from the writer's :meth:`QueryService.answer`, stamps
responses with ``X-World-Generation``, and keeps 400/404/405 semantics.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.model import MLPModel
from repro.core.params import MLPParams
from repro.data.generator import SyntheticWorldConfig, generate_world
from repro.query.service import QUERY_ROUTES
from repro.serving.foldin import FoldInPredictor
from repro.serving.frontend import FrontendThread, make_frontend
from repro.serving.store import WorldStore


@pytest.fixture(scope="module")
def dataset():
    return generate_world(SyntheticWorldConfig(n_users=90, seed=17))


@pytest.fixture(scope="module")
def result(dataset):
    params = MLPParams(n_iterations=10, burn_in=4, seed=0, engine="vectorized")
    return MLPModel(params).fit(dataset)


@pytest.fixture(scope="module")
def inline_url(result):
    predictor = FoldInPredictor(result, artifact_id="query-http")
    ft = FrontendThread(make_frontend(predictor, port=0)).start()
    yield f"http://127.0.0.1:{ft.port}"
    ft.stop()


@pytest.fixture(scope="module")
def frontend_url(result, tmp_path_factory):
    predictor = FoldInPredictor(result, artifact_id="query-http")
    store = WorldStore(tmp_path_factory.mktemp("store"), predictor.world.gazetteer)
    frontend = make_frontend(predictor, store, 2, port=0, coalesce_ms=2.0)
    ft = FrontendThread(frontend).start()
    yield f"http://127.0.0.1:{ft.port}"
    ft.stop()
    store.close()


def _get_raw(url: str) -> tuple[int, bytes, dict]:
    """Status, exact body bytes, and headers (errors included)."""
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


QUERIES = [
    ("/query/radius", "radius=5000&lat=40&lon=-95&limit=5"),
    ("/query/radius", "radius=200&lat=40.7&lon=-74&min_confidence=0.2"),
    ("/query/top-cities", ""),
    ("/query/top-cities", "k=3&min_confidence=0.1"),
    ("/query/aggregate", ""),
    ("/query/aggregate", "by=city"),
    ("/query/venue-residents", "venue_id=0"),
]


@pytest.mark.parametrize("base", ["inline_url", "frontend_url"])
class TestQueryRouteSemantics:
    def test_generation_header_matches_body(self, base, request):
        url = request.getfixturevalue(base)
        status, body, headers = _get_raw(url + "/query/top-cities")
        assert status == 200
        payload = json.loads(body)
        assert headers["X-World-Generation"] == str(payload["generation"])
        assert payload["artifact_id"] == "query-http"

    @pytest.mark.parametrize(("route", "query"), QUERIES)
    def test_queries_answer_at_generation_zero(self, base, request, route, query):
        url = request.getfixturevalue(base)
        status, body, headers = _get_raw(
            url + route + ("?" + query if query else "")
        )
        assert status == 200
        assert json.loads(body)["generation"] == 0
        assert headers["X-World-Generation"] == "0"

    def test_bad_parameters_are_400(self, base, request):
        url = request.getfixturevalue(base)
        for target in (
            "/query/radius?radius=10",
            "/query/top-cities?k=bogus",
            "/query/aggregate?by=planet",
            "/query/venue-residents",
        ):
            status, body, _ = _get_raw(url + target)
            assert status == 400
            assert json.loads(body)["error"]

    def test_all_query_routes_registered(self, base, request):
        url = request.getfixturevalue(base)
        for route in QUERY_ROUTES:
            status, _, _ = _get_raw(url + route + "?min_confidence=2")
            # Reachable (bad parameter, not missing route).
            assert status == 400

    def test_unknown_query_route_404(self, base, request):
        url = request.getfixturevalue(base)
        status, _, _ = _get_raw(url + "/query/nope")
        assert status == 404

    def test_post_on_query_route_405(self, base, request):
        url = request.getfixturevalue(base)
        req = urllib.request.Request(
            url + "/query/top-cities",
            data=b"{}",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 405
        assert excinfo.value.headers["Allow"] == "GET"

    def test_query_string_ignored_for_routing(self, base, request):
        """`?k=3` must route to the handler, not 404 on the raw path."""
        url = request.getfixturevalue(base)
        status, body, _ = _get_raw(url + "/query/top-cities?k=3")
        assert status == 200
        assert json.loads(body)["k"] == 3

    def test_radius_answer_composes_spatial_grid(self, base, request):
        url = request.getfixturevalue(base)
        status, body, _ = _get_raw(
            url + "/query/radius?radius=25000&lat=40&lon=-95&limit=1000"
        )
        assert status == 200
        payload = json.loads(body)
        # A continent-sized radius sees the whole predicted population.
        assert payload["total"] == sum(
            row["predicted_residents"] for row in payload["locations"]
        )
        assert len(payload["users"]) == payload["total"]
        assert not payload["truncated"]
