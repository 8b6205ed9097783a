"""Query-result consistency under interleaved live ingest (property test).

The acceptance criterion for the query layer: after *any* sequence of
ingest deltas, every ``/query/*`` answer served over HTTP (which
reaches the index through **incremental** refreshes) must equal a
**from-scratch** rebuild of the index at the same generation.  Here a
seeded random sequence of deltas is streamed through ``POST /ingest``
on each topology while a reference predictor replays the identical
payloads offline; after every round, all four query routes are diffed
against a brand-new :class:`QueryService` over the reference (whose
first answer is always a full build).  Checked on the front end at 0
workers and at 2.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.core.model import MLPModel
from repro.core.params import MLPParams
from repro.data.generator import SyntheticWorldConfig, generate_world
from repro.query.service import QueryService
from repro.serving.foldin import FoldInPredictor
from repro.serving.frontend import FrontendThread, make_frontend
from repro.serving.server import apply_ingest
from repro.serving.store import WorldStore

ROUNDS = 4

ROUTES = (
    "/query/radius?radius=25000&lat=40&lon=-95&limit=1000",
    "/query/top-cities?k=25",
    "/query/venue-residents?venue_id=0&limit=1000",
    "/query/aggregate?by=state",
    "/query/aggregate?by=city&min_confidence=0.1",
)


@pytest.fixture(scope="module")
def result():
    dataset = generate_world(SyntheticWorldConfig(n_users=80, seed=23))
    params = MLPParams(n_iterations=10, burn_in=4, seed=0, engine="vectorized")
    return MLPModel(params).fit(dataset)


def _random_ingest_body(rng, n_users, n_locations, n_venues) -> dict:
    """One random, JSON-shaped ingest delta over the current world."""
    new_users = []
    for _ in range(int(rng.integers(0, 3))):
        if rng.random() < 0.6:
            new_users.append(
                {"observed_location": int(rng.integers(n_locations))}
            )
        else:
            new_users.append({})
    total = n_users + len(new_users)
    edges = [
        [int(s), int(d)]
        for s, d in zip(rng.integers(0, total, 6), rng.integers(0, total, 6))
        if s != d
    ]
    tweets = [
        [int(rng.integers(total)), int(rng.integers(n_venues))]
        for _ in range(4)
    ]
    labels = {}
    if rng.random() < 0.5:
        labels[str(int(rng.integers(n_users)))] = int(
            rng.integers(n_locations)
        )
    return {
        "new_users": new_users,
        "edges": edges,
        "tweets": tweets,
        "labels": labels,
    }


def _post(url: str, payload) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def _get_raw(url: str) -> tuple[bytes, dict]:
    with urllib.request.urlopen(url, timeout=60) as response:
        return response.read(), dict(response.headers)


def _run_property(base_url, reference: FoldInPredictor) -> None:
    rng = np.random.default_rng(42)
    for _ in range(ROUNDS):
        body = _random_ingest_body(
            rng,
            reference.world.n_users,
            reference.n_locations,
            reference.n_venues,
        )
        response = _post(f"{base_url}/ingest", body)
        apply_ingest(reference, body)
        assert response["generation"] == reference.world.generation
        assert response["world_hash"] == reference.world.content_hash
        for target in ROUTES:
            served_body, headers = _get_raw(base_url + target)
            served = json.loads(served_body)
            # A brand-new service => from-scratch index build.
            route, _, query = target.partition("?")
            expected = QueryService(reference).answer(route, query)
            assert served == json.loads(json.dumps(expected)), target
            assert headers["X-World-Generation"] == str(
                reference.world.generation
            )


def test_inline_frontend_consistency(result):
    predictor = FoldInPredictor(result, artifact_id="consistency")
    ft = FrontendThread(make_frontend(predictor, port=0)).start()
    try:
        reference = FoldInPredictor(result, artifact_id="consistency")
        _run_property(f"http://127.0.0.1:{ft.port}", reference)
    finally:
        ft.stop()


def test_frontend_consistency(result, tmp_path):
    predictor = FoldInPredictor(result, artifact_id="consistency")
    store = WorldStore(tmp_path / "store", predictor.world.gazetteer)
    frontend = make_frontend(predictor, store, 2, port=0, coalesce_ms=2.0)
    ft = FrontendThread(frontend).start()
    try:
        reference = FoldInPredictor(result, artifact_id="consistency")
        _run_property(f"http://127.0.0.1:{ft.port}", reference)
    finally:
        ft.stop()
        store.close()
