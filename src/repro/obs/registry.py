"""A thread-safe registry of typed metric instruments with label support.

The registry is the single home for every counter the engine keeps about
itself. Three instrument types cover the reporting needs of the whole
codebase:

* :class:`Counter` — a monotonically *used* cumulative value. (It also
  supports direct assignment, which is what lets the historical stats
  objects — ``JOIN_STATS.full_joins``, ``stats.reset()`` — keep their
  exact attribute APIs while being registry-backed underneath.)
* :class:`Gauge` — a value that goes up and down (live sessions, cached
  joins).
* :class:`Histogram` — cumulative bucket counts plus sum/count in the
  Prometheus style, with an optional bounded sample reservoir so exact
  p50/p95 quantiles come from the same instrument that feeds the
  ``/metrics`` exposition.

Instruments are created through the registry (:meth:`MetricsRegistry.counter`
etc.), which memoizes by name — asking twice returns the same instrument, so
module-level stats objects and ad-hoc instrumentation can share counters
freely. Labeled instruments hold one value per label-value tuple.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RegistryStats",
    "REGISTRY",
    "reset_all_stats",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram buckets (seconds) — the Prometheus client defaults,
#: which bracket interactive round latencies well on this workload.
DEFAULT_LATENCY_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: The label-value key of an unlabeled instrument's single series.
_UNLABELED: tuple = ()


class _Instrument:
    """Shared machinery: name, help text, label names, per-series storage."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, Any] | None) -> tuple:
        if not self.label_names:
            if labels:
                raise ValueError(f"instrument {self.name!r} takes no labels")
            return _UNLABELED
        labels = labels or {}
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"instrument {self.name!r} requires labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)


class Counter(_Instrument):
    """A cumulative value; also settable, for the legacy attribute APIs."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self._values: dict[tuple, int | float] = {}

    def inc(self, amount: int | float = 1, **labels: Any) -> None:
        """Add *amount* to the counter (atomically)."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def set(self, value: int | float, **labels: Any) -> None:
        """Assign the counter directly (the legacy ``stats.field = n`` path)."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = value

    def get(self, **labels: Any) -> int | float:
        """The current value (0 for a series never touched)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0)

    @property
    def value(self) -> int | float:
        """The unlabeled series' current value."""
        return self.get()

    def series(self) -> dict[tuple, int | float]:
        """All ``label values -> value`` series (a copy)."""
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge(Counter):
    """A value that can go up and down; same storage, different exposition."""

    kind = "gauge"

    def dec(self, amount: int | float = 1, **labels: Any) -> None:
        self.inc(-amount, **labels)


class Histogram(_Instrument):
    """Cumulative buckets + sum/count, with an optional quantile reservoir.

    ``reservoir`` keeps the most recent N observations per series (the
    service's round-latency window); :meth:`quantile` computes exact
    percentiles over that window with the same nearest-rank rule the
    service's historical ``_Metrics`` used, so the JSON contract's p50/p95
    stay byte-for-byte compatible while the Prometheus exposition gets real
    buckets.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        reservoir: int | None = None,
    ) -> None:
        super().__init__(name, help, label_names)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one finite bucket bound")
        self.reservoir_size = reservoir
        #: per-series: (bucket counts list, sum, count, deque | None)
        self._series: dict[tuple, list] = {}

    def _state(self, key: tuple) -> list:
        state = self._series.get(key)
        if state is None:
            window = deque(maxlen=self.reservoir_size) if self.reservoir_size else None
            state = [[0] * (len(self.buckets) + 1), 0.0, 0, window]
            self._series[key] = state
        return state

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation."""
        key = self._key(labels)
        with self._lock:
            counts, total, count, window = self._state(key)
            placed = len(self.buckets)  # the +Inf bucket
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    placed = index
                    break
            counts[placed] += 1
            state = self._series[key]
            state[1] = total + value
            state[2] = count + 1
            if window is not None:
                window.append(value)

    def snapshot(self, **labels: Any) -> dict:
        """``{"buckets": [(le, cumulative), ...], "sum": s, "count": n}``."""
        key = self._key(labels)
        with self._lock:
            if key not in self._series:
                counts, total, count = [0] * (len(self.buckets) + 1), 0.0, 0
            else:
                counts, total, count, _ = self._series[key]
                counts = list(counts)
        cumulative, out = 0, []
        for bound, bucket_count in zip(self.buckets, counts):
            cumulative += bucket_count
            out.append((bound, cumulative))
        out.append((float("inf"), cumulative + counts[-1]))
        return {"buckets": out, "sum": total, "count": count}

    def observation_count(self, **labels: Any) -> int:
        return self.snapshot(**labels)["count"]

    def quantile(self, fraction: float, **labels: Any) -> float | None:
        """Nearest-rank quantile over the reservoir window (None when empty).

        Matches the service's historical percentile rule exactly:
        ``sorted(samples)[min(n - 1, max(0, round(fraction * (n - 1))))]``.
        """
        key = self._key(labels)
        with self._lock:
            state = self._series.get(key)
            samples = sorted(state[3]) if state is not None and state[3] else []
        if not samples:
            return None
        index = min(len(samples) - 1, max(0, round(fraction * (len(samples) - 1))))
        return samples[index]

    def series(self) -> dict[tuple, dict]:
        with self._lock:
            keys = list(self._series)
        return {key: self.snapshot(**dict(zip(self.label_names, key))) for key in keys}

    def reset(self) -> None:
        with self._lock:
            self._series.clear()


class MetricsRegistry:
    """A named collection of instruments; creation is memoized by name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _register(self, cls, name: str, help: str, label_names: Sequence[str], **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {cls.kind}"
                    )
                if tuple(label_names) != existing.label_names:
                    raise ValueError(
                        f"metric {name!r} is already registered with labels "
                        f"{existing.label_names}"
                    )
                return existing
            instrument = cls(name, help, label_names, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        reservoir: int | None = None,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, labels, buckets=buckets, reservoir=reservoir
        )

    def instruments(self) -> list[_Instrument]:
        """Every registered instrument, sorted by name (exposition order)."""
        with self._lock:
            return [self._instruments[name] for name in sorted(self._instruments)]

    def get(self, name: str) -> _Instrument | None:
        with self._lock:
            return self._instruments.get(name)

    # ------------------------------------------------------------------ reset
    def reset(self) -> None:
        """Zero every instrument (tests call this between cases)."""
        for instrument in self.instruments():
            instrument.reset()  # type: ignore[attr-defined]


#: The process-wide default registry. The legacy stats objects
#: (``JOIN_STATS``, ``COLUMNAR_STATS``, ``PLAN_MEMO_STATS``) register their
#: counters here at import time; the Prometheus exposition reads from it.
REGISTRY = MetricsRegistry()


def reset_all_stats() -> None:
    """Zero every instrument of the process-wide registry.

    The shared pytest fixture calls this before each test so counter state
    can never leak across tests; it is also safe to call from benchmarks
    before a measured section.
    """
    REGISTRY.reset()


class RegistryStats:
    """Attribute-API façade over registry counters.

    The historical stats objects are plain attribute bags
    (``JOIN_STATS.full_joins``, ``stats.reset()``, ``stats.snapshot()``).
    Subclasses declare ``_PREFIX`` and ``_FIELDS``; each field becomes a
    registry Counter named ``{prefix}_{field}``, and attribute reads/writes
    pass through to it, so the values are visible to the exposition
    endpoint. Count with :meth:`add`: ``stats.field += 1`` reads, then
    sets, and loses the increments other threads make in between.
    """

    _PREFIX = "qfe"
    _FIELDS: tuple[str, ...] = ()
    _HELP: Mapping[str, str] = {}

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        registry = registry if registry is not None else REGISTRY
        counters = {
            field: registry.counter(
                f"{self._PREFIX}_{field}", self._HELP.get(field, "")
            )
            for field in self._FIELDS
        }
        object.__setattr__(self, "_registry", registry)
        object.__setattr__(self, "_counters", counters)

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails: the counter-backed fields.
        counters = object.__getattribute__(self, "_counters")
        if name in counters:
            return counters[name].value
        raise AttributeError(f"{type(self).__name__!r} has no attribute {name!r}")

    def __setattr__(self, name: str, value) -> None:
        if name in self._FIELDS:
            self._counters[name].set(value)
        else:
            object.__setattr__(self, name, value)

    def add(self, **amounts: int | float) -> None:
        """Add to several fields, each atomically (``+=`` reads, then writes)."""
        for field, amount in amounts.items():
            self._counters[field].inc(amount)

    def reset(self) -> None:
        """Zero all counters (tests/benchmarks call this before measuring)."""
        for counter in self._counters.values():
            counter.set(0)

    def snapshot(self) -> dict[str, int | float]:
        """``field -> value`` at this moment (subclasses may narrow the shape)."""
        return {field: self._counters[field].value for field in self._FIELDS}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{k}={self._counters[k].value}" for k in self._FIELDS)
        return f"{type(self).__name__}({body})"
