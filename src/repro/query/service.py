"""Serving wrapper over the prediction index: routes, payloads, refresh.

One :class:`QueryService` per served predictor owns the
:class:`~repro.query.index.PredictionIndex` lifecycle (lazy first
build, generation-checked incremental refresh, the **loud** full-rebuild
fallback when the incremental window is gone) and renders the four
``GET /query/*`` responses.  The front end
(:mod:`repro.serving.frontend`) dispatches every query route into
:meth:`QueryService.answer` on its writer predictor, at any worker
count.

Every response carries ``generation`` (the world generation the index
reflects; transports mirror it into the ``X-World-Generation`` header)
so clients can detect a stale read against a known ingest position.

Query-string parsing is strict: unknown or repeated parameters are a
400, not silently ignored -- a typo'd ``min_confidnce=`` must not
quietly widen a confidence-filtered answer.
"""

from __future__ import annotations

import threading
import time
import warnings

import numpy as np

from typing import TYPE_CHECKING

from repro.data.delta import StaleWindowError
from repro.geo.index import SpatialGridIndex
from repro.obs import metrics as obs_metrics
from repro.query.index import DEFAULT_TOP_K, PredictionIndex

if TYPE_CHECKING:  # hint only: repro.serving imports this package
    from repro.serving.foldin import FoldInPredictor

#: The four query routes; the serving route tables extend themselves
#: from this tuple so the transports and the docs test share one source.
QUERY_ROUTES = (
    "/query/radius",
    "/query/top-cities",
    "/query/venue-residents",
    "/query/aggregate",
)

#: Metric label per route (bounded cardinality, like HTTP route labels).
_ROUTE_KINDS = {
    "/query/radius": "radius",
    "/query/top-cities": "top_cities",
    "/query/venue-residents": "venue_residents",
    "/query/aggregate": "aggregate",
}

#: Hard cap on ``limit=``: the per-user rows are a preview, not a bulk
#: export (use ``repro ingest --score-output`` for dumps).
MAX_LIMIT = 1000

#: Default number of per-user rows in radius/venue responses.
DEFAULT_LIMIT = 50

_REG = obs_metrics.get_registry()
QUERY_REQUESTS = _REG.counter(
    "repro_query_requests_total",
    "Query-layer requests answered, by query kind",
    labelnames=("kind",),
)
QUERY_SECONDS = _REG.histogram(
    "repro_query_seconds",
    "Wall time to answer one query (index refresh excluded)",
    labelnames=("kind",),
)
QUERY_REFRESHES = _REG.counter(
    "repro_query_index_refreshes_total",
    "Prediction-index (re)builds, by kind: initial, incremental, or "
    "full_fallback (incremental window lost -- see docs/API.md)",
    labelnames=("kind",),
)
QUERY_REFRESH_SECONDS = _REG.histogram(
    "repro_query_index_refresh_seconds",
    "Wall time of prediction-index builds and refreshes",
    labelnames=("kind",),
)
QUERY_INDEXED_USERS = _REG.gauge(
    "repro_query_indexed_users",
    "Users currently projected in the prediction index",
)
QUERY_INDEX_GENERATION = _REG.gauge(
    "repro_query_index_generation",
    "World generation the prediction index currently reflects",
)


def split_query_path(path: str) -> tuple[str, str]:
    """Split a request path into ``(route, query_string)``."""
    route, _, query = path.partition("?")
    return route, query


def parse_params(query: str, allowed: tuple[str, ...]) -> dict[str, str]:
    """Decode a query string into a dict, strictly.

    Unknown keys and repeated keys raise ``ValueError`` (the transports
    map it to a 400) so filters cannot be silently dropped.
    """
    from urllib.parse import parse_qsl

    params: dict[str, str] = {}
    for key, value in parse_qsl(query, keep_blank_values=True):
        if key not in allowed:
            raise ValueError(
                f"unknown query parameter {key!r}; "
                f"expected one of {', '.join(sorted(allowed))}"
            )
        if key in params:
            raise ValueError(f"duplicate query parameter {key!r}")
        params[key] = value
    return params


def _float_param(
    params: dict[str, str],
    name: str,
    default: float,
    lo: float,
    hi: float,
) -> float:
    """One bounds-checked float parameter."""
    raw = params.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")
    return value


def _int_param(
    params: dict[str, str], name: str, default: int, lo: int, hi: int
) -> int:
    """One bounds-checked integer parameter."""
    raw = params.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")
    return value


def _resolve_center(params: dict[str, str], gazetteer):
    """``(lat, lon, Location | None)`` of a radius query's center.

    Accepts explicit coordinates (``lat=&lon=``) or a city -- either
    ``city=Austin&state=TX``, the combined ``city=Austin,%20TX``, or a
    bare unambiguous name.  Ambiguous bare names are a 400 listing the
    candidate states rather than a silent most-populous guess.
    """
    if "city" in params:
        if "lat" in params or "lon" in params:
            raise ValueError("pass either lat=/lon= or city=, not both")
        city = params["city"]
        state = params.get("state")
        if state is None and "," in city:
            city, state = (part.strip() for part in city.split(",", 1))
        if state is not None:
            location = gazetteer.lookup_city_state(city, state)
            if location is None:
                raise ValueError(f"unknown city {city!r}, {state!r}")
            return location.lat, location.lon, location
        matches = gazetteer.lookup_name(city)
        if not matches:
            raise ValueError(f"unknown city {city!r}")
        if len(matches) > 1:
            states = ", ".join(loc.state for loc in matches)
            raise ValueError(
                f"city {city!r} is ambiguous ({states}); "
                "add state= to disambiguate"
            )
        location = matches[0]
        return location.lat, location.lon, location
    if "lat" not in params or "lon" not in params:
        raise ValueError("radius query needs lat= and lon= (or city=)")
    lat = _float_param(params, "lat", 0.0, -90.0, 90.0)
    lon = _float_param(params, "lon", 0.0, -180.0, 180.0)
    return lat, lon, None


def _user_rows(index: PredictionIndex, positions: np.ndarray, gazetteer):
    """Per-user JSON rows for a sorted slice of index positions."""
    rows = []
    for pos in positions:
        home = int(index.homes[pos])
        rows.append(
            {
                "user_id": int(index.user_ids[pos]),
                "home": home if home >= 0 else None,
                "home_name": (
                    gazetteer.by_id(home).name if home >= 0 else None
                ),
                "confidence": float(index.confidences[pos]),
            }
        )
    return rows


def _location_rows(index, location_ids, counts, gazetteer):
    """Per-location JSON rows (only locations with residents)."""
    return [
        {
            "location": int(loc),
            "name": gazetteer.by_id(int(loc)).name,
            "predicted_residents": int(count),
        }
        for loc, count in zip(location_ids, counts)
        if count > 0
    ]


class QueryService:
    """Owns one prediction index and answers the ``/query/*`` routes.

    Thread-safe: a single lock serializes index builds/refreshes and
    queries (queries are array scans -- microseconds next to the
    fold-in scoring a refresh may trigger).  The index is built lazily
    on the first query, so serving startup stays fast and processes
    that never query never score the population.
    """

    def __init__(
        self,
        predictor: FoldInPredictor,
        k: int = DEFAULT_TOP_K,
        cell_miles: float = 50.0,
    ):
        self.predictor = predictor
        self.k = k
        self._cell_miles = cell_miles
        self._lock = threading.Lock()
        self._index: PredictionIndex | None = None
        self._spatial: SpatialGridIndex | None = None
        #: Loud-fallback count: full rebuilds forced by a lost
        #: incremental window (also a metric; kept here so tests and
        #: ``stats()`` need no registry scrape).
        self.stale_window_fallbacks = 0

    # -- index lifecycle ---------------------------------------------------

    def _spatial_index(self) -> SpatialGridIndex:
        if self._spatial is None:
            self._spatial = SpatialGridIndex.from_gazetteer(
                self.predictor.dataset.gazetteer, cell_miles=self._cell_miles
            )
        return self._spatial

    def _rebuild(self, kind: str) -> PredictionIndex:
        t0 = time.perf_counter()
        index = PredictionIndex.build(self.predictor, k=self.k)
        QUERY_REFRESH_SECONDS.labels(kind=kind).observe(
            time.perf_counter() - t0
        )
        QUERY_REFRESHES.labels(kind=kind).inc()
        return index

    def current_index(self) -> PredictionIndex:
        """The index at the predictor's current generation.

        Builds on first use, refreshes incrementally when ingest moved
        the world forward, and falls back to a full rebuild -- loudly:
        a ``RuntimeWarning``, the ``full_fallback`` refresh metric, and
        :attr:`stale_window_fallbacks` -- when the incremental window
        is no longer retained (docs/API.md, "Incremental re-scoring
        window").
        """
        with self._lock:
            if self._index is None:
                self._index = self._rebuild("initial")
            elif self._index.generation != self.predictor.world.generation:
                try:
                    t0 = time.perf_counter()
                    self._index = self._index.refreshed(self.predictor)
                    QUERY_REFRESH_SECONDS.labels(kind="incremental").observe(
                        time.perf_counter() - t0
                    )
                    QUERY_REFRESHES.labels(kind="incremental").inc()
                except StaleWindowError as exc:
                    self.stale_window_fallbacks += 1
                    warnings.warn(
                        "query index refresh window lost "
                        f"({exc}); rebuilding the full prediction index",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    self._index = self._rebuild("full_fallback")
            QUERY_INDEXED_USERS.set(float(len(self._index)))
            QUERY_INDEX_GENERATION.set(float(self._index.generation))
            return self._index

    # -- dispatch ----------------------------------------------------------

    def answer(self, route: str, query: str) -> dict:
        """Answer one ``/query/*`` route; ``ValueError`` means a 400.

        The single entry point both transports call with the split
        request path -- identical inputs produce identical payloads, so
        the serialized bodies match byte for byte across topologies.
        """
        kind = _ROUTE_KINDS.get(route)
        if kind is None:
            raise ValueError(f"unknown query route {route!r}")
        builder = getattr(self, "_" + kind)
        index = self.current_index()
        t0 = time.perf_counter()
        try:
            payload = builder(index, query)
        finally:
            QUERY_SECONDS.labels(kind=kind).observe(time.perf_counter() - t0)
        QUERY_REQUESTS.labels(kind=kind).inc()
        return payload

    def _base(self, index: PredictionIndex) -> dict:
        return {
            "artifact_id": index.artifact_id,
            "generation": index.generation,
        }

    # -- the four routes ---------------------------------------------------

    def _radius(self, index: PredictionIndex, query: str) -> dict:
        """``GET /query/radius``: predicted residents near a point/city."""
        gazetteer = self.predictor.dataset.gazetteer
        params = parse_params(
            query,
            ("lat", "lon", "city", "state", "radius", "min_confidence",
             "limit"),
        )
        if "radius" not in params:
            raise ValueError("radius (miles) is required")
        radius = _float_param(params, "radius", 0.0, 0.0, 25000.0)
        min_confidence = _float_param(params, "min_confidence", 0.0, 0.0, 1.0)
        limit = _int_param(params, "limit", DEFAULT_LIMIT, 0, MAX_LIMIT)
        lat, lon, center = _resolve_center(params, gazetteer)
        locations = self._spatial_index().query_radius(lat, lon, radius)
        counts = index.city_counts(min_confidence)
        positions = np.sort(index.residents_of(locations, min_confidence))
        total = int(positions.size)
        return {
            **self._base(index),
            "center": {
                "lat": lat,
                "lon": lon,
                "location": (
                    center.location_id if center is not None else None
                ),
                "name": center.name if center is not None else None,
            },
            "radius_miles": radius,
            "min_confidence": min_confidence,
            "locations": _location_rows(
                index, locations, counts[locations], gazetteer
            ),
            "total": total,
            "users": _user_rows(index, positions[:limit], gazetteer),
            "truncated": total > limit,
        }

    def _top_cities(self, index: PredictionIndex, query: str) -> dict:
        """``GET /query/top-cities``: cities by predicted population."""
        gazetteer = self.predictor.dataset.gazetteer
        params = parse_params(query, ("k", "min_confidence"))
        k = _int_param(params, "k", 10, 1, int(index.home_indptr.size - 1))
        min_confidence = _float_param(params, "min_confidence", 0.0, 0.0, 1.0)
        chosen, counts = index.top_cities(k, min_confidence)
        return {
            **self._base(index),
            "k": k,
            "min_confidence": min_confidence,
            "matching_users": int(
                index.city_counts(min_confidence).sum()
            ),
            "cities": [
                {
                    "location": int(loc),
                    "name": gazetteer.by_id(int(loc)).name,
                    "predicted_residents": int(count),
                }
                for loc, count in zip(chosen, counts)
            ],
        }

    def _venue_residents(self, index: PredictionIndex, query: str) -> dict:
        """``GET /query/venue-residents``: the venue's predicted locals.

        A venue *name* is ambiguous by design (the paper's premise), so
        the answer spans every location sharing the name, each reported
        separately.
        """
        gazetteer = self.predictor.dataset.gazetteer
        params = parse_params(
            query, ("venue", "venue_id", "min_confidence", "limit")
        )
        if ("venue" in params) == ("venue_id" in params):
            raise ValueError("pass exactly one of venue= or venue_id=")
        if "venue_id" in params:
            venue_id = _int_param(
                params, "venue_id", 0, 0,
                len(gazetteer.venue_vocabulary) - 1,
            )
            venue = gazetteer.venue_vocabulary[venue_id]
        else:
            from repro.geo.gazetteer import normalize_place_name

            venue = normalize_place_name(params["venue"])
            if venue not in gazetteer.venue_index:
                raise ValueError(f"unknown venue {params['venue']!r}")
            venue_id = gazetteer.venue_index[venue]
        min_confidence = _float_param(params, "min_confidence", 0.0, 0.0, 1.0)
        limit = _int_param(params, "limit", DEFAULT_LIMIT, 0, MAX_LIMIT)
        locations = sorted(
            loc.location_id for loc in gazetteer.lookup_name(venue)
        )
        counts = index.city_counts(min_confidence)
        positions = np.sort(index.residents_of(locations, min_confidence))
        total = int(positions.size)
        return {
            **self._base(index),
            "venue": venue,
            "venue_id": venue_id,
            "min_confidence": min_confidence,
            "locations": _location_rows(
                index, locations, counts[locations], gazetteer
            ),
            "total": total,
            "users": _user_rows(index, positions[:limit], gazetteer),
            "truncated": total > limit,
        }

    def _aggregate(self, index: PredictionIndex, query: str) -> dict:
        """``GET /query/aggregate``: group-level population aggregates."""
        gazetteer = self.predictor.dataset.gazetteer
        params = parse_params(query, ("by", "min_confidence"))
        by = params.get("by", "state")
        if by not in ("state", "city"):
            raise ValueError(f"by must be 'state' or 'city', got {by!r}")
        min_confidence = _float_param(params, "min_confidence", 0.0, 0.0, 1.0)
        mask = index.homes >= 0
        if min_confidence > 0.0:
            mask = mask & (index.confidences >= min_confidence)
        homes = index.homes[mask]
        conf = index.confidences[mask]
        if by == "city":
            labels = [loc.name for loc in gazetteer]
            group_of_location = np.arange(len(gazetteer), dtype=np.int64)
        else:
            states = sorted({loc.state for loc in gazetteer})
            state_code = {state: i for i, state in enumerate(states)}
            labels = states
            group_of_location = np.fromiter(
                (state_code[loc.state] for loc in gazetteer),
                dtype=np.int64,
                count=len(gazetteer),
            )
        groups = group_of_location[homes]
        counts = np.bincount(groups, minlength=len(labels))
        conf_sums = np.bincount(
            groups, weights=conf, minlength=len(labels)
        )
        nonzero = np.flatnonzero(counts)
        order = np.lexsort((nonzero, -counts[nonzero]))
        return {
            **self._base(index),
            "by": by,
            "min_confidence": min_confidence,
            "groups": [
                {
                    "group": labels[int(g)],
                    "predicted_residents": int(counts[g]),
                    "mean_confidence": round(
                        float(conf_sums[g] / counts[g]), 6
                    ),
                }
                for g in nonzero[order]
            ],
            "summary": index.stats(min_confidence),
        }
