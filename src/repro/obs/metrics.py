"""repro.obs.metrics — a typed metrics registry for long-running work.

The span profiler (:mod:`repro.obs.profiler`) answers "where did the
time go" for one bounded run; this module answers "what is happening
right now, and at what rate" for work that keeps going — the ROADMAP's
production-scale hunts.  Four instrument types, all label-aware:

* :class:`Counter` — monotonically increasing totals
  (``hunt_tries_total{policy="ring", status="racy"}``);
* :class:`Gauge` — a value that goes up and down (``hunt_done``);
* :class:`Histogram` — observations bucketed by fixed upper bounds,
  with running count/sum (``hunt_job_duration_seconds``);
* :class:`TimeSeries` — a bounded ring buffer of ``(t, value)`` points
  for rate curves (``hunt_throughput``); old points fall off the front.

A :class:`MetricsRegistry` owns instruments by name.  Instruments are
get-or-create (:meth:`MetricsRegistry.counter` etc. return the existing
instrument when the name is already registered, and raise on a
type/label mismatch), so call sites never coordinate creation.

Cross-process merge: fork workers (or repeated runs) serialize a
registry with :meth:`MetricsRegistry.to_records` — plain dicts, cheap
to pickle or JSON — and any registry folds them back in with
:meth:`MetricsRegistry.merge_records`.  Counters and histograms sum,
gauges keep the last value applied, time series interleave by
timestamp and keep the newest ``capacity`` points; merging is
commutative for everything except gauges (documented, and the hunt
only sets gauges parent-side).

Like the profiler, collection is opt-in: the hunt engine folds
per-outcome metrics into a registry only when one is active (one
module-attribute check per *hunt*, not per job), so the disabled-mode
overhead budget of ``benchmarks/bench_profiling.py`` is unaffected.

Hunt metric names (written by :func:`repro.analysis.hunt_races`,
read by :class:`repro.obs.live.HuntStatusLine`):

=============================  =========  ==================================
name                           type       labels / meaning
=============================  =========  ==================================
``hunt_tries_total``           Counter    ``policy``, ``status`` (racy |
                                          clean | error | skipped, plus
                                          ``retried`` for attempts a
                                          later retry superseded),
                                          ``detector`` (the hunt's
                                          analysis backend)
``hunt_trace_cache_hits_total``  Counter  analyses served from the cache
``hunt_job_duration_seconds``  Histogram  per-job wall time
``hunt_done`` / ``hunt_total``  Gauge     completed / planned jobs
``hunt_racy``                  Gauge      racy runs so far
``hunt_elapsed_seconds``       Gauge      wall time since the hunt began
``hunt_throughput``            TimeSeries ``(elapsed, jobs/sec)`` samples
``hunt_failures_total``        Counter    ``kind`` — settled-error
                                          classification (deterministic
                                          | exhausted | unretried)
``hunt_info``                  Gauge      ``hunt_id``, ``detector``,
                                          ``model`` — constant ``1``;
                                          joins scrapes to event logs,
                                          checkpoints, and results
``hunt_coverage_fingerprints`` Gauge     distinct trace fingerprints
``hunt_coverage_provenance_partitions``  Gauge — distinct first-race
                                          provenance partition signatures
``hunt_coverage``              TimeSeries ``(elapsed, count)`` growth
                                          curve, labelled ``kind``
                                          (fingerprints | partitions)
``hunt_scrapes_total``         Counter    ``endpoint`` — telemetry-server
                                          requests served
=============================  =========  ==================================

The fold is split across the batch wire (see
:class:`repro.analysis.parallel.BatchOutcome`): pool workers pre-fold
the *status-independent* instruments — the duration histogram and the
cache-hit counter — into one ``to_records()`` payload per batch, which
the parent ``merge_records()``s as batches arrive; the status counter
(whose error→retried reclassification only the parent can decide) and
every gauge/time series fold parent-side per outcome.  Totals are
identical to the serial fold either way.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
    "active",
    "collect",
    "enabled",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (seconds-flavoured, like the
#: hunt's job durations); the implicit +inf bucket is always present.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)

LabelValues = Tuple[str, ...]


class MetricError(ValueError):
    """Instrument misuse: wrong labels, or a name re-registered with a
    different type or label set."""


class _Instrument:
    """Shared label plumbing for all instrument types."""

    kind = "instrument"

    def __init__(self, name: str, help: str, labels: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.labels: Tuple[str, ...] = tuple(labels)

    def _key(self, label_kwargs: Dict[str, str]) -> LabelValues:
        if set(label_kwargs) != set(self.labels):
            raise MetricError(
                f"{self.kind} {self.name!r} takes labels "
                f"{list(self.labels)}, got {sorted(label_kwargs)}"
            )
        return tuple(str(label_kwargs[label]) for label in self.labels)

    def _label_dict(self, key: LabelValues) -> Dict[str, str]:
        return dict(zip(self.labels, key))


class Counter(_Instrument):
    """A monotonically increasing total, per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, n: float = 1, **labels: str) -> None:
        if n < 0:
            raise MetricError(
                f"counter {self.name!r} cannot decrease (inc({n}))"
            )
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + n

    def value(self, **labels: str) -> float:
        return self._values.get(self._key(labels), 0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._values.values())

    def series(self) -> List[dict]:
        return [
            {"labels": self._label_dict(key), "value": value}
            for key, value in sorted(self._values.items())
        ]

    def _merge(self, series: List[dict]) -> None:
        for entry in series:
            key = self._key(entry["labels"])
            self._values[key] = self._values.get(key, 0) + entry["value"]


class Gauge(_Instrument):
    """A value that goes up and down, per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: Dict[LabelValues, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[self._key(labels)] = value

    def add(self, n: float = 1, **labels: str) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + n

    def value(self, **labels: str) -> Optional[float]:
        return self._values.get(self._key(labels))

    def series(self) -> List[dict]:
        return [
            {"labels": self._label_dict(key), "value": value}
            for key, value in sorted(self._values.items())
        ]

    def _merge(self, series: List[dict]) -> None:
        # Last applied wins: gauges describe current state, not totals.
        for entry in series:
            self._values[self._key(entry["labels"])] = entry["value"]


class Histogram(_Instrument):
    """Observations bucketed by fixed upper bounds, with count and sum.

    Bucket counts are non-cumulative per bucket (the record format sums
    cleanly across workers); quantile estimates interpolate within the
    bucket containing the target rank.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise MetricError(f"histogram {self.name!r} needs >=1 bucket")
        self.bounds = bounds
        # per label set: [per-bucket counts..., +inf count], count, sum
        self._data: Dict[LabelValues, Tuple[List[int], int, float]] = {}

    def _cell(self, key: LabelValues) -> Tuple[List[int], int, float]:
        cell = self._data.get(key)
        if cell is None:
            cell = ([0] * (len(self.bounds) + 1), 0, 0.0)
            self._data[key] = cell
        return cell

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        counts, count, total = self._cell(key)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        self._data[key] = (counts, count + 1, total + value)

    def count(self, **labels: str) -> int:
        cell = self._data.get(self._key(labels))
        return cell[1] if cell else 0

    def sum(self, **labels: str) -> float:
        cell = self._data.get(self._key(labels))
        return cell[2] if cell else 0.0

    def mean(self, **labels: str) -> Optional[float]:
        cell = self._data.get(self._key(labels))
        if not cell or cell[1] == 0:
            return None
        return cell[2] / cell[1]

    def quantile(self, q: float, **labels: str) -> Optional[float]:
        """Estimate the *q*-quantile (0..1) from the bucket counts.

        Ranks are assumed uniform within the bucket holding the target
        rank, so the estimate interpolates linearly between the
        bucket's bounds (the lowest bucket interpolates up from 0),
        like Prometheus's ``histogram_quantile``.  Error bound: the
        true quantile lies in the same bucket ``(lo, hi]``, so the
        estimate is off by at most the bucket width ``hi - lo`` — and
        is exact when observations really are uniform in the bucket.
        Ranks landing in the implicit +inf bucket clamp to the largest
        finite bound, which can under-estimate without bound; size the
        top bucket above the expected maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(
                f"histogram {self.name!r}: quantile {q} not in [0, 1]"
            )
        cell = self._data.get(self._key(labels))
        if not cell or cell[1] == 0:
            return None
        counts, count, _ = cell
        target = q * count
        lo = 0.0
        seen = 0
        for i, bound in enumerate(self.bounds):
            below = seen
            seen += counts[i]
            if seen >= target:
                if counts[i] == 0:
                    return bound
                frac = (target - below) / counts[i]
                return lo + (bound - lo) * min(max(frac, 0.0), 1.0)
            lo = bound
        return self.bounds[-1]

    def series(self) -> List[dict]:
        return [
            {
                "labels": self._label_dict(key),
                "buckets": list(counts),
                "count": count,
                "sum": total,
            }
            for key, (counts, count, total) in sorted(self._data.items())
        ]

    def _merge(self, series: List[dict]) -> None:
        for entry in series:
            key = self._key(entry["labels"])
            counts, count, total = self._cell(key)
            incoming = entry["buckets"]
            if len(incoming) != len(counts):
                raise MetricError(
                    f"histogram {self.name!r}: bucket count mismatch "
                    f"({len(incoming)} != {len(counts)})"
                )
            for i, n in enumerate(incoming):
                counts[i] += n
            self._data[key] = (
                counts, count + entry["count"], total + entry["sum"]
            )


class TimeSeries(_Instrument):
    """A bounded ring buffer of ``(t, value)`` samples, per label set.

    ``capacity`` bounds memory for arbitrarily long runs; recording the
    ``capacity + 1``-th point drops the oldest.
    """

    kind = "timeseries"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (), capacity: int = 256) -> None:
        super().__init__(name, help, labels)
        if capacity < 1:
            raise MetricError(f"timeseries {self.name!r} capacity must be >=1")
        self.capacity = capacity
        self._points: Dict[LabelValues, List[Tuple[float, float]]] = {}

    def record(self, t: float, value: float, **labels: str) -> None:
        points = self._points.setdefault(self._key(labels), [])
        points.append((t, value))
        if len(points) > self.capacity:
            del points[: len(points) - self.capacity]

    def points(self, **labels: str) -> List[Tuple[float, float]]:
        return list(self._points.get(self._key(labels), ()))

    def latest(self, **labels: str) -> Optional[Tuple[float, float]]:
        points = self._points.get(self._key(labels))
        return points[-1] if points else None

    def series(self) -> List[dict]:
        return [
            {
                "labels": self._label_dict(key),
                "points": [[t, v] for t, v in points],
            }
            for key, points in sorted(self._points.items())
        ]

    def _merge(self, series: List[dict]) -> None:
        for entry in series:
            key = self._key(entry["labels"])
            points = self._points.setdefault(key, [])
            points.extend((t, v) for t, v in entry["points"])
            points.sort(key=lambda point: point[0])
            if len(points) > self.capacity:
                del points[: len(points) - self.capacity]


_TYPES = {
    cls.kind: cls for cls in (Counter, Gauge, Histogram, TimeSeries)
}


class MetricsRegistry:
    """Instruments by name, with get-or-create accessors and merge.

    Instruments themselves are not thread-safe; single-threaded folds
    (the hunt's parent-side ``observe`` callback) need no locking.  When
    another thread *reads* the registry concurrently — the telemetry
    server rendering ``/metrics`` while a hunt folds outcomes — both
    sides bracket their access with :meth:`hold`::

        with registry.hold():
            text = render_prometheus(registry)

    The lock is reentrant, so a writer already holding it can call
    helpers that take it again.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self._lock = threading.RLock()

    def hold(self) -> "threading.RLock":
        """Reentrant lock serialising cross-thread registry access."""
        return self._lock

    # -- get-or-create -------------------------------------------------
    def _get(self, cls, name: str, help: str,
             labels: Sequence[str], **extra) -> _Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricError(
                    f"{name!r} is registered as a {existing.kind}, "
                    f"not a {cls.kind}"
                )
            if existing.labels != tuple(labels):
                raise MetricError(
                    f"{existing.kind} {name!r} is registered with labels "
                    f"{list(existing.labels)}, not {list(labels)}"
                )
            return existing
        instrument = cls(name, help=help, labels=labels, **extra)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def timeseries(self, name: str, help: str = "",
                   labels: Sequence[str] = (),
                   capacity: int = 256) -> TimeSeries:
        return self._get(TimeSeries, name, help, labels, capacity=capacity)

    def get(self, name: str) -> Optional[_Instrument]:
        """The instrument registered under *name*, if any (no create)."""
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    # -- export / merge ------------------------------------------------
    def to_records(self) -> List[dict]:
        """One plain dict per instrument — picklable, JSONable, and the
        unit of cross-process merge."""
        records = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            record = {
                "t": "metric",
                "kind": instrument.kind,
                "name": name,
                "help": instrument.help,
                "labels": list(instrument.labels),
                "series": instrument.series(),
            }
            if isinstance(instrument, Histogram):
                record["bounds"] = list(instrument.bounds)
            if isinstance(instrument, TimeSeries):
                record["capacity"] = instrument.capacity
            records.append(record)
        return records

    def merge_records(self, records: Iterable[dict]) -> None:
        """Fold serialized instruments (from :meth:`to_records`) into
        this registry, creating missing instruments on the fly."""
        for record in records:
            if record.get("t") != "metric":
                continue
            cls = _TYPES.get(record["kind"])
            if cls is None:
                raise MetricError(f"unknown metric kind {record['kind']!r}")
            extra = {}
            if cls is Histogram:
                extra["buckets"] = tuple(record.get("bounds", DEFAULT_BUCKETS))
            if cls is TimeSeries:
                extra["capacity"] = record.get("capacity", 256)
            instrument = self._get(
                cls, record["name"], record.get("help", ""),
                tuple(record.get("labels", ())), **extra,
            )
            instrument._merge(record["series"])

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (via its records)."""
        self.merge_records(other.to_records())

    def snapshot(self) -> Dict[str, dict]:
        """``{name: record}`` view of :meth:`to_records`."""
        return {record["name"]: record for record in self.to_records()}


# ----------------------------------------------------------------------
# module-level active registry (mirrors the profiler's activation slot)
# ----------------------------------------------------------------------

_ACTIVE: Optional[MetricsRegistry] = None


def active() -> Optional[MetricsRegistry]:
    """The registry currently collecting in this process, if any."""
    return _ACTIVE


def enabled() -> bool:
    """True when a registry is collecting in this process."""
    return _ACTIVE is not None


class _Collection:
    """Sets/restores the module-level active registry."""

    __slots__ = ("_registry", "_previous")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._registry
        return self._registry

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False


def collect(registry: Optional[MetricsRegistry] = None) -> _Collection:
    """Context manager: make *registry* (or a fresh one) the active
    collection target::

        with metrics.collect() as reg:
            hunt_races(...)
        print(reg.counter("hunt_tries_total",
                          labels=("policy", "status", "detector")).total())
    """
    return _Collection(registry if registry is not None else MetricsRegistry())
