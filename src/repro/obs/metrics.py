"""The metrics registry: one telemetry substrate for every serving layer.

Before this module, each serving component (service, cache, registry,
substrate provider, gateway) kept its own ad-hoc counter ints behind its
own lock and exposed them through a hand-rolled ``stats()`` dict.
:class:`MetricsRegistry` replaces the five hand-rolled counter sets with
named, thread-safe instruments:

* :class:`Counter` — monotonically increasing totals (requests, hits, ...);
* :class:`Gauge` — point-in-time values (resident substrates, cache size);
* :class:`Histogram` — fixed-bucket latency distributions from which
  p50/p90/p99 are derived without storing individual samples.

Every instrument supports label sets (``counter.inc(method="retexpan")``)
with a per-family cardinality cap so a buggy caller cannot grow the
registry without bound.  The existing ``stats()`` endpoints stay wire-
compatible as *views* over the registry, and ``GET /v1/metrics`` renders
the whole registry in the Prometheus text exposition format (0.0.4).

Histograms built with ``exemplars=True`` additionally capture the current
request id (from :mod:`repro.obs.trace`) as a per-bucket exemplar —
bounded (one slot per bucket), latest-wins — rendered in the OpenMetrics
exemplar syntax (``... # {request_id="req-..."} value``) so an operator
can jump from a fat latency bucket straight to the matching slow-query
log entry.

A registry built with ``enabled=False`` hands out shared no-op
instruments — the mode the benchmark overhead guard measures the
uninstrumented baseline with.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable, Mapping

from repro.obs.trace import current_request_id

#: default latency buckets in milliseconds (upper bounds; +Inf is implicit).
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0, 2500.0, 5000.0, 10000.0, 30000.0,
)

#: maximum distinct label sets per family before new ones are dropped.
MAX_SERIES_PER_FAMILY = 64

#: content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_VALID_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_:")


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    # The unlabeled and single-label cases are the serving hot path; keep
    # them free of the sort-a-generator machinery.
    if not labels:
        return ()
    if len(labels) == 1:
        for k, v in labels.items():
            return ((str(k), str(v)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    # Prometheus accepts both; render counts without a trailing ``.0`` so
    # the golden test (and human eyes) see ``42`` rather than ``42.0``.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_le(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    return _format_value(bound)


class _Instrument:
    """Shared plumbing of one metric family (name + per-label-set series)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._series: dict[tuple[tuple[str, str], ...], float] = {}
        #: label sets refused once the family hit the cardinality cap.
        self.dropped_series = 0

    def _slot(self, labels: Mapping[str, str]):
        """The series key for ``labels``, or ``None`` once over the cap.

        Callers hold ``self._lock``."""
        key = _label_key(labels)
        if key not in self._series and len(self._series) >= MAX_SERIES_PER_FAMILY:
            self.dropped_series += 1
            return None
        return key

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set of the family."""
        with self._lock:
            return sum(self._series.values())

    def series(self) -> dict[tuple[tuple[str, str], ...], float]:
        with self._lock:
            return dict(self._series)


class _BoundCounter:
    """One pre-resolved (counter, label set) series for hot paths.

    Binding pays the label-key construction and cardinality check once;
    every ``inc`` after that is a lock plus one dict write.  The series is
    materialized at bind time, so it renders (as 0) before the first
    increment — same visibility rule as an unlabeled counter view.
    """

    __slots__ = ("_lock", "_series", "_key", "name")

    def __init__(self, counter: "Counter", key):
        self._lock = counter._lock
        self._series = counter._series
        self._key = key
        self.name = counter.name
        with self._lock:
            self._series.setdefault(key, 0.0)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._series[self._key] += amount


class _BoundGauge:
    """One pre-resolved (gauge, label set) series for hot paths."""

    __slots__ = ("_lock", "_series", "_key", "name")

    def __init__(self, gauge: "Gauge", key):
        self._lock = gauge._lock
        self._series = gauge._series
        self._key = key
        self.name = gauge.name
        with self._lock:
            self._series.setdefault(key, 0.0)

    def set(self, value: float) -> None:
        with self._lock:
            self._series[self._key] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._series[self._key] += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class _BoundHistogram:
    """One pre-resolved (histogram, label set) series for hot paths."""

    __slots__ = ("_lock", "_entry", "_bounds", "_exemplars", "name")

    def __init__(self, histogram: "Histogram", entry):
        self._lock = histogram._lock
        self._entry = entry
        self._bounds = histogram.bounds
        self._exemplars = histogram.exemplars
        self.name = histogram.name

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self._bounds, value)
        # the contextvar read happens outside the lock; it is the only
        # exemplar cost a request without an active request id pays.
        request_id = current_request_id() if self._exemplars else None
        with self._lock:
            entry = self._entry
            entry[0][index] += 1
            entry[1] += value
            entry[2] += 1
            if request_id is not None:
                entry[3][index] = (request_id, value)


class Counter(_Instrument):
    """A monotonically increasing total (optionally per label set)."""

    kind = "counter"

    def labels(self, **labels: str) -> _BoundCounter | "_NullInstrument":
        """A bound child for this label set; over the cap, a no-op."""
        with self._lock:
            key = self._slot(labels)
        if key is None:
            return _NULL_INSTRUMENT
        return _BoundCounter(self, key)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        series = self._series
        with self._lock:
            if key in series:
                series[key] += amount
            elif len(series) < MAX_SERIES_PER_FAMILY:
                series[key] = amount
            else:
                self.dropped_series += 1


class Gauge(_Instrument):
    """A point-in-time value that can move both ways."""

    kind = "gauge"

    def labels(self, **labels: str) -> _BoundGauge | "_NullInstrument":
        """A bound child for this label set; over the cap, a no-op."""
        with self._lock:
            key = self._slot(labels)
        if key is None:
            return _NULL_INSTRUMENT
        return _BoundGauge(self, key)

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            key = self._slot(labels)
            if key is None:
                return
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        with self._lock:
            key = self._slot(labels)
            if key is None:
                return
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)


class Histogram(_Instrument):
    """A fixed-bucket distribution; percentiles derive from the buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS,
        exemplars: bool = False,
    ):
        super().__init__(name, help_text)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {self.name} needs at least one bucket")
        #: finite upper bounds; the +Inf bucket is implicit (the last slot).
        self.bounds: tuple[float, ...] = tuple(bounds)
        #: capture the current request id per bucket (latest-wins).
        self.exemplars = exemplars
        #: label key -> [per-bucket counts incl. +Inf, sum, count] — plus a
        #: parallel per-bucket exemplar slot list when ``exemplars`` is on.
        self._hist: dict[tuple[tuple[str, str], ...], list] = {}

    def _new_entry(self) -> list:
        entry: list = [[0] * (len(self.bounds) + 1), 0.0, 0]
        if self.exemplars:
            entry.append([None] * (len(self.bounds) + 1))
        return entry

    def labels(self, **labels: str) -> _BoundHistogram | "_NullInstrument":
        """A bound child for this label set; over the cap, a no-op."""
        with self._lock:
            key = self._slot_hist(labels)
            if key is None:
                return _NULL_INSTRUMENT
            entry = self._hist[key]
        return _BoundHistogram(self, entry)

    def observe(self, value: float, **labels: str) -> None:
        value = float(value)
        key = _label_key(labels)
        # bisect: the first bound >= value is exactly the bucket whose
        # ``value <= le`` predicate holds; past-the-end lands in +Inf.
        index = bisect_left(self.bounds, value)
        request_id = current_request_id() if self.exemplars else None
        with self._lock:
            entry = self._hist.get(key)
            if entry is None:
                if len(self._hist) >= MAX_SERIES_PER_FAMILY:
                    self.dropped_series += 1
                    return
                entry = self._hist[key] = self._new_entry()
            entry[0][index] += 1
            entry[1] += value
            entry[2] += 1
            if request_id is not None:
                entry[3][index] = (request_id, value)

    def _slot_hist(self, labels: Mapping[str, str]):
        key = _label_key(labels)
        if key not in self._hist:
            if len(self._hist) >= MAX_SERIES_PER_FAMILY:
                self.dropped_series += 1
                return None
            self._hist[key] = self._new_entry()
        return key

    # -- reads -------------------------------------------------------------------
    def count(self, **labels: str) -> int:
        with self._lock:
            if labels:
                entry = self._hist.get(_label_key(labels))
                return entry[2] if entry is not None else 0
            return sum(entry[2] for entry in self._hist.values())

    def sum(self, **labels: str) -> float:
        with self._lock:
            if labels:
                entry = self._hist.get(_label_key(labels))
                return entry[1] if entry is not None else 0.0
            return sum(entry[1] for entry in self._hist.values())

    def merged(self) -> dict:
        """The family's distribution aggregated across every label set, as a
        JSON-able dict — this is what ``stats()`` views ship so a gateway can
        re-merge per-worker histograms and derive fleet-level percentiles."""
        with self._lock:
            counts = [0] * (len(self.bounds) + 1)
            total_sum, total_count = 0.0, 0
            for entry in self._hist.values():
                for index, count in enumerate(entry[0]):
                    counts[index] += count
                total_sum += entry[1]
                total_count += entry[2]
        cumulative, running = [], 0
        for index, bound in enumerate((*self.bounds, float("inf"))):
            running += counts[index]
            cumulative.append([_format_le(bound), running])
        return {"count": total_count, "sum": total_sum, "buckets": cumulative}

    def percentile(self, q: float, **labels: str) -> float:
        """The q-th percentile (0..100) from the bucketed counts.

        Linear interpolation inside the bucket that crosses the target rank;
        the +Inf bucket reports the largest finite bound (there is no upper
        edge to interpolate toward).
        """
        with self._lock:
            if labels:
                entry = self._hist.get(_label_key(labels))
                if entry is None:
                    return 0.0
                counts, _sum, total = list(entry[0]), entry[1], entry[2]
            else:
                counts = [0] * (len(self.bounds) + 1)
                total = 0
                for entry in self._hist.values():
                    for index, count in enumerate(entry[0]):
                        counts[index] += count
                    total += entry[2]
        return percentile_from_buckets(self.bounds, counts, total, q)

    def percentiles(self, qs: Iterable[float] = (50, 90, 99), **labels: str) -> dict:
        return {f"p{_format_value(q)}": self.percentile(q, **labels) for q in qs}


def percentile_from_buckets(
    bounds: tuple[float, ...], counts: list, total: int, q: float
) -> float:
    """Percentile of a bucketed distribution (counts per bucket incl. +Inf)."""
    if total <= 0:
        return 0.0
    target = (max(0.0, min(100.0, q)) / 100.0) * total
    cumulative = 0
    lower = 0.0
    for index, bound in enumerate((*bounds, float("inf"))):
        in_bucket = counts[index]
        if cumulative + in_bucket >= target and in_bucket > 0:
            if bound == float("inf"):
                return bounds[-1]
            fraction = (target - cumulative) / in_bucket
            return lower + (bound - lower) * fraction
        cumulative += in_bucket
        lower = bound if bound != float("inf") else lower
    return bounds[-1]


def merge_bucket_lists(payloads: Iterable[Mapping]) -> dict:
    """Merge several :meth:`Histogram.merged` payloads (e.g. one per worker)
    into one distribution with fleet-level percentiles.

    Workers running the same build share bucket bounds; a payload with a
    different shape is skipped rather than mis-merged.
    """
    merged_counts: dict[str, int] = {}
    order: list[str] = []
    total_count, total_sum = 0, 0.0
    for payload in payloads:
        buckets = payload.get("buckets")
        if not isinstance(buckets, list) or not buckets:
            continue
        les = [str(le) for le, _count in buckets]
        if order and les != order:
            continue
        if not order:
            order = les
        previous = 0
        for le, cumulative in buckets:
            merged_counts[str(le)] = (
                merged_counts.get(str(le), 0) + int(cumulative) - previous
            )
            previous = int(cumulative)
        total_count += int(payload.get("count", 0))
        total_sum += float(payload.get("sum", 0.0))
    if not order:
        return {"count": 0, "sum": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
    bounds = tuple(float("inf") if le == "+Inf" else float(le) for le in order)
    counts = [merged_counts[le] for le in order]
    finite = tuple(b for b in bounds if b != float("inf"))
    return {
        "count": total_count,
        "sum": total_sum,
        "p50": percentile_from_buckets(finite, counts, total_count, 50),
        "p90": percentile_from_buckets(finite, counts, total_count, 90),
        "p99": percentile_from_buckets(finite, counts, total_count, 99),
    }


class _NullInstrument:
    """A do-nothing instrument shared by every family of a disabled registry."""

    kind = "null"
    name = "null"
    help = ""
    dropped_series = 0
    bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS
    exemplars = False

    def labels(self, **labels: str) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def set(self, value: float, **labels: str) -> None:
        pass

    def observe(self, value: float, **labels: str) -> None:
        pass

    def value(self, **labels: str) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def count(self, **labels: str) -> int:
        return 0

    def sum(self, **labels: str) -> float:
        return 0.0

    def series(self) -> dict:
        return {}

    def merged(self) -> dict:
        return {"count": 0, "sum": 0.0, "buckets": []}

    def percentile(self, q: float, **labels: str) -> float:
        return 0.0

    def percentiles(self, qs: Iterable[float] = (50, 90, 99), **labels: str) -> dict:
        return {f"p{_format_value(q)}": 0.0 for q in qs}


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Owns named metric families and renders them for exposition.

    One registry per serving process-facade (service or gateway); components
    that can also live standalone (cache, registry, provider)
    accept a registry and default to a private one so unit tests stay
    isolated.  ``enabled=False`` turns every instrument into a shared no-op
    (the benchmark baseline mode).
    """

    def __init__(
        self,
        enabled: bool = True,
        const_labels: Mapping[str, str] | None = None,
    ):
        self.enabled = enabled
        #: labels stamped on every rendered series (e.g. dataset fingerprint).
        self.const_labels: dict[str, str] = dict(const_labels or {})
        self._lock = threading.Lock()
        self._families: dict[str, _Instrument] = {}

    # -- family accessors ----------------------------------------------------------
    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._family(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._family(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS,
        exemplars: bool = False,
    ) -> Histogram:
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        with self._lock:
            family = self._families.get(name)
            if family is None:
                _check_name(name)
                family = Histogram(
                    name, help_text, buckets=buckets, exemplars=exemplars
                )
                self._families[name] = family
            elif not isinstance(family, Histogram):
                raise ValueError(
                    f"metric {name!r} is already registered as a {family.kind}"
                )
            return family

    def _family(self, cls, name: str, help_text: str):
        if not self.enabled:
            return _NULL_INSTRUMENT
        with self._lock:
            family = self._families.get(name)
            if family is None:
                _check_name(name)
                family = cls(name, help_text)
                self._families[name] = family
            elif type(family) is not cls:
                raise ValueError(
                    f"metric {name!r} is already registered as a {family.kind}"
                )
            return family

    # -- exposition ----------------------------------------------------------------
    def families(self) -> list[_Instrument]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def render_prometheus(self) -> str:
        """The whole registry in the Prometheus text exposition format."""
        const = _label_key(self.const_labels)
        lines: list[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}".rstrip())
            lines.append(f"# TYPE {family.name} {family.kind}")
            if isinstance(family, Histogram):
                self._render_histogram(family, const, lines)
                continue
            series = family.series()
            if not series:
                lines.append(f"{family.name}{_render_labels(const)} 0")
                continue
            for key in sorted(series):
                labels = _render_labels(const + key)
                lines.append(f"{family.name}{labels} {_format_value(series[key])}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_histogram(
        family: Histogram, const: tuple, lines: list[str]
    ) -> None:
        with family._lock:
            entries = {
                key: (list(v[0]), v[1], v[2], list(v[3]) if len(v) > 3 else None)
                for key, v in family._hist.items()
            }
        for key in sorted(entries):
            counts, series_sum, series_count, exemplars = entries[key]
            cumulative = 0
            for index, bound in enumerate((*family.bounds, float("inf"))):
                cumulative += counts[index]
                labels = _render_labels(const + key + (("le", _format_le(bound)),))
                line = f"{family.name}_bucket{labels} {cumulative}"
                if exemplars is not None and exemplars[index] is not None:
                    request_id, observed = exemplars[index]
                    line += (
                        f' # {{request_id="{_escape_label_value(request_id)}"}}'
                        f" {_format_value(observed)}"
                    )
                lines.append(line)
            labels = _render_labels(const + key)
            lines.append(f"{family.name}_sum{labels} {_format_value(series_sum)}")
            lines.append(f"{family.name}_count{labels} {series_count}")


def _check_name(name: str) -> None:
    if not name or set(name.lower()) - _VALID_NAME_CHARS or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")
