"""The serving protocol: JSON-over-HTTP routes over a frozen artifact.

A deliberately dependency-free protocol exposing the three serving
tasks of the paper's problem statement as endpoints:

- ``POST /predict-home``   -- fold-in home prediction for one or many
  user specs (``{"users": [...], "top_k": k}``); each spec is either
  ``{"user_id": n}`` (replay a training user) or explicit evidence
  (``friends``/``followers``/``venues``/``venue_names``/
  ``observed_location``);
- ``POST /predict-batch``  -- the bulk population-scoring endpoint: a
  single JSON *array* of user specs in, an array of predictions out,
  scored through the vectorized batch fold-in engine;
- ``POST /profile``        -- the *stored* posterior profile of a
  training user (``{"user_id": n, "top_k": k}``), no fold-in;
- ``POST /explain-edge``   -- the blocked-conditional explanation of
  one edge between a spec'd user and a training neighbour
  (``{"user": {...}, "neighbor": j, "direction": "out"|"in"}``);
- ``POST /ingest``         -- streaming world ingest: a
  :class:`~repro.data.delta.WorldDelta` payload (``{"new_users":
  [...], "edges": [...], "tweets": [...], "labels": {...}}``) is
  spliced into the served world in O(|delta| + touched rows), no
  artifact reload; returns the new chained world hash + generation
  (body capped at the standard 1 MiB budget -- stream larger backlogs
  as multiple deltas);
- ``GET /healthz``         -- liveness plus per-subsystem status blocks
  under stable top-level keys (``artifact``/``world``/``cache``/
  ``journal``/``metrics``);
- ``GET /metrics``         -- the process metrics registry in the
  Prometheus text exposition format (request counts and latency
  histograms per route, fold-in solve timings, cache hit/miss, journal
  fsync/append timings, ...);
- ``GET /artifact``        -- the artifact's identity and parameters;
- ``GET /query/*``         -- the geo-analytics query layer
  (:mod:`repro.query`): ``/query/radius``, ``/query/top-cities``,
  ``/query/venue-residents`` and ``/query/aggregate`` answer inverse
  lookups ("who do we predict lives near X?") from the prediction
  index, which is built lazily on first query and refreshed
  incrementally after each ``/ingest`` (responses carry the index's
  world generation in the body and the ``X-World-Generation`` header).

Requests and responses are JSON (except ``/metrics``, which is
Prometheus text); errors come back as ``{"error": ...}`` with a 400
(bad request), a 404 (unknown route), a 408 (request body not delivered
in time), a 414/431 (request line / header block over its limit), a
500 (unexpected server fault) or -- when a known route is hit with the
wrong HTTP method -- a 405 with an ``Allow`` header naming the
supported method.

This module is the protocol, not the transport: the route table, the
body caps, the request metrics and the pure payload builders.  The one
HTTP server speaking it is the asyncio front end in
:mod:`repro.serving.frontend`; the forked predictor workers in
:mod:`repro.serving.workers` render through the same builders.
"""

from __future__ import annotations

import time
from dataclasses import asdict

from repro.obs import metrics as obs_metrics
from repro.query.service import QUERY_ROUTES
from repro.serving.foldin import FoldInPredictor

#: Cap on accepted request bodies (1 MiB): a single-user serving
#: endpoint should never need more, and the cap bounds memory per
#: connection.
MAX_BODY_BYTES = 1 << 20

#: The bulk ``/predict-batch`` route exists to take population dumps,
#: so it gets a much larger (but still bounded) budget: 64 MiB holds
#: on the order of a million small specs.
MAX_BATCH_BODY_BYTES = 64 << 20

#: The single route table.  Method dispatch and 405-vs-404
#: classification both read it, so a route added here automatically
#: gets the right ``Allow`` header.  Every ``/query/*`` route defers to
#: the shared :meth:`QueryService.answer` dispatch.
GET_ROUTES = ("/healthz", "/artifact", "/metrics", *QUERY_ROUTES)
POST_ROUTES = (
    "/predict-home",
    "/predict-batch",
    "/profile",
    "/explain-edge",
    "/ingest",
)

METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Request metrics, resolved once at import.  The route label is always
#: a route-table entry or the literal ``<unknown>`` so cardinality is
#: bounded by the route table, never by client-controlled paths.
_REG = obs_metrics.get_registry()
HTTP_REQUESTS = _REG.counter(
    "repro_http_requests_total",
    "HTTP requests served, by route, method, and status code",
    labelnames=("route", "method", "status"),
)
HTTP_ERRORS = _REG.counter(
    "repro_http_errors_total",
    "HTTP responses with status >= 400, by route and status code",
    labelnames=("route", "status"),
)
HTTP_LATENCY = _REG.histogram(
    "repro_http_request_seconds",
    "Wall time from request head read to response ready, by route",
    labelnames=("route",),
)
HTTP_INFLIGHT = _REG.gauge(
    "repro_http_inflight_requests",
    "Requests currently being handled by the server",
)


# -- shared response builders ------------------------------------------------
#
# Pure payload constructors over a predictor: the front end
# (:mod:`repro.serving.frontend`) and the multi-process worker loop
# (:mod:`repro.serving.workers`) render responses through these same
# functions, so a body does not depend on which process built it.
# Client errors are ``ValueError``s; the front end maps them to a 400.


def require_object(payload) -> dict:
    """The payload as a dict, or ValueError for non-object JSON."""
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    return payload


def profile_payload(predictor: FoldInPredictor, payload) -> dict:
    """``POST /profile``: a training user's stored posterior profile."""
    payload = require_object(payload)
    if "user_id" not in payload:
        raise ValueError('"user_id" is required')
    user_id = int(payload["user_id"])
    if not 0 <= user_id < predictor.dataset.n_users:
        raise ValueError(f"user {user_id} not in the training set")
    top_k = int(payload.get("top_k", 3))
    profile = predictor.result.profile_of(user_id)
    gaz = predictor.dataset.gazetteer
    return {
        "artifact_id": predictor.artifact_id,
        "user_id": user_id,
        "home": profile.home,
        "home_name": (
            gaz.by_id(profile.home).name if profile.home is not None else None
        ),
        "profile": [
            {
                "location": loc,
                "name": gaz.by_id(loc).name,
                "probability": prob,
            }
            for loc, prob in profile.entries[:top_k]
        ],
    }


def explain_edge_payload(predictor: FoldInPredictor, payload) -> dict:
    """``POST /explain-edge``: blocked-conditional edge explanation."""
    payload = require_object(payload)
    if "user" not in payload or "neighbor" not in payload:
        raise ValueError('"user" and "neighbor" are required')
    spec = predictor.resolve_request(payload["user"])
    explanation = predictor.explain_edge(
        spec,
        neighbor=int(payload["neighbor"]),
        direction=payload.get("direction", "out"),
        top=int(payload.get("top", 5)),
    )
    gaz = predictor.dataset.gazetteer
    return {
        "artifact_id": predictor.artifact_id,
        "neighbor": explanation.neighbor,
        "direction": explanation.direction,
        "noise_probability": explanation.noise_probability,
        "pairs": [
            {
                "x": pair.x,
                "x_name": gaz.by_id(pair.x).name,
                "y": pair.y,
                "y_name": gaz.by_id(pair.y).name,
                "probability": pair.probability,
            }
            for pair in explanation.pairs
        ],
    }


def artifact_payload(predictor: FoldInPredictor) -> dict:
    """``GET /artifact``: the served artifact's identity and parameters."""
    world = predictor.world
    return {
        "artifact_id": predictor.artifact_id,
        "params": asdict(predictor.params),
        "users": world.n_users,
        "following": world.n_following,
        "tweeting": world.n_tweeting,
        "locations": world.n_locations,
        "venues": world.n_venues,
        "fitted_law": {
            "alpha": predictor.result.fitted_law.alpha,
            "beta": predictor.result.fitted_law.beta,
        },
    }


def apply_ingest(predictor: FoldInPredictor, payload, journal=None):
    """Parse + apply one ingest body; returns ``(world, delta)``.

    On a journaled server the delta is validated, write-ahead appended
    and only then applied, so an acknowledged ingest survives
    ``kill -9``.  The delta itself is returned because the multi-process
    front end publishes its ``label_users`` set with the new generation
    so readers can invalidate surgically.
    """
    from repro.data.delta import WorldDelta

    payload = require_object(payload)
    delta = WorldDelta.from_payload(
        payload, gazetteer=predictor.world.gazetteer
    )
    if journal is not None:
        from repro.data.journal import journaled_ingest

        world = journaled_ingest(predictor, journal, delta)
    else:
        world = predictor.refresh(delta)
    return world, delta


def ingest_response(predictor: FoldInPredictor, world, journal=None) -> dict:
    """The ``POST /ingest`` response body for an applied delta."""
    record = world.delta_log[-1]
    response = {
        "artifact_id": predictor.artifact_id,
        "world_hash": world.content_hash,
        "generation": world.generation,
        "users": world.n_users,
        "following": world.n_following,
        "tweeting": world.n_tweeting,
        "applied": {
            "new_users": record.n_new_users,
            "edges": record.n_edges,
            "tweets": record.n_tweets,
            "label_updates": record.n_label_updates,
            "touched_users": int(record.touched_users.size),
        },
        "cache": predictor.cache.stats(),
    }
    if journal is not None:
        response["journal"] = journal.stats()
    return response


def healthz_payload(
    predictor: FoldInPredictor,
    journal=None,
    trace_buffer=None,
    started_unix=None,
    serving=None,
) -> dict:
    """``GET /healthz``: liveness plus stable per-subsystem blocks.

    Schema contract (tests/test_serving_obs.py): ``status`` plus the
    blocks ``artifact``/``world``/``cache``/``journal``/``metrics``/
    ``serving`` are always present; ``journal`` is ``None`` on an
    unjournaled server rather than absent.  ``serving`` describes the
    process topology (mode/workers/coalesce_ms/store/worker_info).
    """
    world = predictor.world
    return {
        "status": "ok",
        "artifact": {"id": predictor.artifact_id},
        "world": {
            "users": world.n_users,
            "generation": world.generation,
            "following": world.n_following,
            "tweeting": world.n_tweeting,
            "hash": world.content_hash,
        },
        "cache": predictor.cache.stats(),
        "journal": journal.stats() if journal is not None else None,
        "metrics": {
            "uptime_seconds": (
                round(time.time() - started_unix, 3) if started_unix else None
            ),
            "requests_total": HTTP_REQUESTS.total(),
            "errors_total": HTTP_ERRORS.total(),
            "inflight": HTTP_INFLIGHT.value,
            "solves_total": predictor.solve_count,
            "traces": (
                trace_buffer.stats() if trace_buffer is not None else None
            ),
        },
        "serving": serving,
    }
