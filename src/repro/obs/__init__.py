"""The unified observability layer: metrics, tracing, and exposition.

Everything the engine, the service and the CLIs report about *themselves*
funnels through this package:

* :mod:`repro.obs.registry` — a thread-safe :class:`MetricsRegistry` of typed
  Counter/Gauge/Histogram instruments with label support. The process-wide
  default registry (:data:`REGISTRY`) backs the legacy stats objects
  (``JOIN_STATS``, ``COLUMNAR_STATS``, ``BACKEND_STATS``, the service's
  ``_Metrics``) behind their historical attribute APIs, and provides the
  counter snapshot/merge protocol worker processes use to ship their
  increments back to the driver with each round.
* :mod:`repro.obs.trace` — structured round-lifecycle spans (JSON-lines
  export, monotonic durations, parent/child nesting) behind a process-wide
  tracer that is a no-op unless explicitly enabled (``--trace-out``).
* :mod:`repro.obs.exposition` — the Prometheus text exposition format for any
  registry, served by the service's ``/metrics?format=prometheus``.
* :mod:`repro.obs.summary` — the ``qfe-trace summary`` renderer: a per-round
  phase breakdown (prepare/ship/evaluate/merge/materialize) computed from a
  span file, so "the pool loses to serial" becomes "62% of round time is
  context pickling".
"""

from repro.obs.registry import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RegistryStats,
    reset_all_stats,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    start_tracing,
    stop_tracing,
)
from repro.obs.exposition import render_prometheus

__all__ = [
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RegistryStats",
    "reset_all_stats",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "start_tracing",
    "stop_tracing",
    "render_prometheus",
]
