"""Serving layer: persistent model artifacts + online fold-in inference.

This package turns a fitted :class:`~repro.core.model.MLPResult` from a
process-lifetime object into a served product:

- :mod:`repro.serving.artifacts` -- versioned compressed ``.mlp.npz``
  artifacts that round-trip a result (multi-chain posteriors included)
  bit-for-bit;
- :mod:`repro.serving.foldin` -- deterministic collapsed fold-in
  scoring of *new* users against the frozen posterior, with an LRU
  result cache;
- :mod:`repro.serving.batch` -- the fold-in solver: one vectorized
  engine that solves every prediction, from a single user to a whole
  population, in one numpy pass per call;
- :mod:`repro.serving.cache` -- the thread-safe LRU map behind it;
- :mod:`repro.serving.server` -- the JSON-over-HTTP protocol: route
  table, body caps, request metrics and the payload builders for
  predict-home / predict-batch / profile / explain-edge / ingest;
- :mod:`repro.serving.frontend` -- the HTTP server (``repro serve``):
  an asyncio accept loop that micro-batches predict traffic
  (``--coalesce-ms``) and solves it inline, or on forked workers;
- :mod:`repro.serving.store` -- the generation-versioned
  :class:`WorldStore`: a single writer publishes each world as
  mmap-backed read-only arenas, readers acquire/release generations
  RCU-style;
- :mod:`repro.serving.workers` -- the ``repro serve --workers N``
  predictor processes, attached to the store by mmap.

Worlds served here are *live*: ``FoldInPredictor.refresh(delta)``
splices a :class:`~repro.data.delta.WorldDelta` of arrivals into the
served world in O(|delta| + touched rows) -- no artifact reload -- and
invalidates only the cached predictions the delta actually staled
(``POST /ingest`` is the HTTP face of it, ``repro ingest`` the offline
streamer).

Typical flow::

    result = MLPModel(params).fit(dataset)
    artifact_id = save_result(result, "model.mlp.npz")

    predictor = FoldInPredictor(
        load_result("model.mlp.npz"), artifact_id=artifact_id
    )
    spec = UserSpec(friends=(3, 17), venues=(42,))
    predictor.predict(spec).home

    server = FrontendThread(make_frontend(predictor, port=8000)).start()
    ...
    server.stop()
"""

from repro.serving.artifacts import (
    ARTIFACT_SUFFIX,
    ARTIFACT_VERSION,
    ArtifactError,
    artifact_metadata,
    load_result,
    save_result,
)
from repro.serving.batch import BatchFoldInEngine, score_population
from repro.serving.cache import LRUCache
from repro.serving.foldin import (
    FoldInEdgeExplanation,
    FoldInPrediction,
    FoldInPredictor,
    UserSpec,
    prediction_payload,
)
from repro.serving.frontend import AsyncFrontend, FrontendThread, make_frontend
from repro.serving.store import StoreError, WorldLease, WorldStore

__all__ = [
    "ARTIFACT_SUFFIX",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "AsyncFrontend",
    "BatchFoldInEngine",
    "FoldInEdgeExplanation",
    "FoldInPrediction",
    "FoldInPredictor",
    "FrontendThread",
    "LRUCache",
    "StoreError",
    "UserSpec",
    "WorldLease",
    "WorldStore",
    "artifact_metadata",
    "load_result",
    "make_frontend",
    "prediction_payload",
    "save_result",
    "score_population",
]
