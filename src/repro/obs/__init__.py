"""Zero-dependency observability: metrics registry, tracing, sampler hooks.

The package is deliberately flat and stdlib+numpy only:

- :mod:`repro.obs.metrics` -- process-wide thread-safe registry of named
  counters, gauges, and log-bucketed latency histograms with a
  Prometheus-text exposition encoder.
- :mod:`repro.obs.trace` -- lightweight nested spans on a
  context-local trace (per thread and per asyncio task), a bounded ring
  buffer of recent request traces, and a slow-request log with per-span
  breakdowns.
- :mod:`repro.obs.hooks` -- opt-in observer hooks for the sampler hot
  loop that cost a single ``None`` check when disabled.

Everything here is read-only with respect to the numerical pipeline:
instrumentation never changes what the samplers, fold-in solvers, or
ingest paths compute (golden-tested in tests/test_obs_trace.py and
tests/test_serving_obs.py).
"""

from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    get_registry,
    render_prometheus,
    set_enabled,
)
from repro.obs.trace import TraceBuffer, span, trace_request

__all__ = [
    "REGISTRY",
    "MetricsRegistry",
    "get_registry",
    "render_prometheus",
    "set_enabled",
    "TraceBuffer",
    "span",
    "trace_request",
]
