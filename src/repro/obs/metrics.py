"""Lightweight labelled metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` is the mutable, per-run collector; a
:class:`MetricsSnapshot` is its immutable export — JSON-serialisable,
mergeable (how per-shard registries fold into one campaign view), and
comparable, which is what lets a sequential campaign be diffed against a
sharded one metric-by-metric.

Merge semantics: counters and histograms are additive across shards;
gauges keep the maximum (they record levels such as per-shard durations,
where the campaign-level truth is the worst shard).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.util.codec import NUMBER, check_fields, located, read_json_object

#: Default histogram bucket upper bounds, in simulated seconds.
DEFAULT_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 30, 60, 300, 1800)

#: Canonical label encoding: sorted (key, value) pairs.
LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: dict[str, object]) -> LabelSet:
    # Most hot-path metrics are unlabelled; skip the genexp+sort for them.
    if not labels:
        return ()
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape per the Prometheus exposition format: ``\\``, ``"``, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def format_series(name: str, labels: LabelSet) -> str:
    """Prometheus-style rendering: ``name{key="value",...}``."""
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in labels
    )
    return f"{name}{{{inner}}}"


#: HELP text per known metric family; unknown families get a generic line.
METRIC_HELP: dict[str, str] = {
    "browser_visits_total": "Completed browser visits by outcome and phase.",
    "topics_calls_total": "Topics API invocations by call type and gating decision.",
    "crawl_failures_total": "Failed visits by failure kind.",
    "crawl_banners_total": "Priv-Accept banner interactions by result.",
    "attestation_probes_total": "Well-known attestation fetches by result.",
    "crawl_duration_seconds": "Campaign wall-clock in simulated seconds.",
    "shard_visits": "Successful visits per shard.",
    "shard_duration_seconds": "Per-shard wall-clock in simulated seconds.",
    "visit_seconds": "Visit latency distribution in simulated seconds.",
    "stage_seconds": "Per-stage latency distribution in simulated seconds.",
}


def _format_value(value: float) -> str:
    """Prometheus sample value: integral floats render without the dot."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, "g")


def _family_header(name: str, kind: str) -> list[str]:
    help_text = METRIC_HELP.get(name, f"{name} ({kind}).")
    return [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]


def render_exposition(snapshot: "MetricsSnapshot") -> str:
    """Full Prometheus text exposition of one snapshot.

    Every metric family is preceded by its ``# HELP``/``# TYPE`` header
    pair — scrapers reject (or silently mistype) headerless families, so
    the headers are part of the output contract, not decoration.
    Histograms expand into the standard cumulative ``_bucket{le=...}``
    series plus ``_sum`` and ``_count``.  Families and series are sorted,
    so the exposition is deterministic for a given snapshot.
    """
    lines: list[str] = []

    by_name: dict[str, list[tuple[LabelSet, float]]] = {}
    for (name, labels), value in snapshot.counters.items():
        by_name.setdefault(name, []).append((labels, value))
    for name in sorted(by_name):
        lines.extend(_family_header(name, "counter"))
        for labels, value in sorted(by_name[name]):
            lines.append(f"{format_series(name, labels)} {_format_value(value)}")

    by_name = {}
    for (name, labels), value in snapshot.gauges.items():
        by_name.setdefault(name, []).append((labels, value))
    for name in sorted(by_name):
        lines.extend(_family_header(name, "gauge"))
        for labels, value in sorted(by_name[name]):
            lines.append(f"{format_series(name, labels)} {_format_value(value)}")

    histograms: dict[str, list[tuple[LabelSet, HistogramData]]] = {}
    for (name, labels), data in snapshot.histograms.items():
        histograms.setdefault(name, []).append((labels, data))
    for name in sorted(histograms):
        lines.extend(_family_header(name, "histogram"))
        for labels, data in sorted(histograms[name]):
            cumulative = 0
            for bound, bucket in zip(
                tuple(data.bounds) + (float("inf"),), data.bucket_counts
            ):
                cumulative += bucket
                le = "+Inf" if bound == float("inf") else format(bound, "g")
                series = format_series(f"{name}_bucket", labels + (("le", le),))
                lines.append(f"{series} {cumulative}")
            lines.append(
                f"{format_series(f'{name}_sum', labels)} "
                f"{_format_value(data.total)}"
            )
            lines.append(f"{format_series(f'{name}_count', labels)} {data.count}")

    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True, slots=True)
class HistogramData:
    """One histogram series: cumulative-free bucket counts plus summary."""

    bounds: tuple[float, ...]
    bucket_counts: tuple[int, ...]  # len(bounds) + 1, last is +Inf
    count: int
    total: float
    min: float
    max: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear bucket interpolation.

        Standard Prometheus-style ``histogram_quantile``: find the
        bucket where the cumulative count crosses ``q * count`` and
        interpolate inside it.  The first bucket's lower edge is the
        observed ``min``; the +Inf bucket's upper edge is the observed
        ``max`` (both clamp the estimate into the observed range).
        """
        if self.count <= 0:
            return 0.0
        if q <= 0:
            return self.min
        if q >= 1:
            return self.max
        target = q * self.count
        cumulative = 0
        for index, bucket in enumerate(self.bucket_counts):
            if bucket == 0:
                cumulative += bucket
                continue
            if cumulative + bucket >= target:
                lower = self.min if index == 0 else self.bounds[index - 1]
                upper = (
                    self.max if index == len(self.bounds) else self.bounds[index]
                )
                lower = min(lower, upper)
                fraction = (target - cumulative) / bucket
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.min), self.max)
            cumulative += bucket
        return self.max

    def merge(self, other: "HistogramData") -> "HistogramData":
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with bounds {self.bounds} and {other.bounds}"
            )
        return HistogramData(
            bounds=self.bounds,
            bucket_counts=tuple(
                a + b for a, b in zip(self.bucket_counts, other.bucket_counts)
            ),
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable export of a registry at one moment."""

    counters: dict
    gauges: dict
    histograms: dict

    # Keys of the three dicts are (name, labelset) pairs; values are
    # float / float / HistogramData respectively.

    # -- reading --------------------------------------------------------------

    def counter_value(self, name: str, **labels) -> float:
        return self.counters.get((name, _labelset(labels)), 0.0)

    def gauge_value(self, name: str, **labels) -> float | None:
        return self.gauges.get((name, _labelset(labels)))

    def histogram(self, name: str, **labels) -> HistogramData | None:
        return self.histograms.get((name, _labelset(labels)))

    def counter_series(self, name: str) -> dict[LabelSet, float]:
        """All label combinations of one counter."""
        return {
            labels: value
            for (series, labels), value in self.counters.items()
            if series == name
        }

    def gauge_series(self, name: str) -> dict[LabelSet, float]:
        return {
            labels: value
            for (series, labels), value in self.gauges.items()
            if series == name
        }

    def counter_total(self, name: str) -> float:
        """One counter summed over every label combination."""
        return sum(self.counter_series(name).values())

    def histogram_series(self, name: str) -> dict[LabelSet, HistogramData]:
        """All label combinations of one histogram."""
        return {
            labels: data
            for (series, labels), data in self.histograms.items()
            if series == name
        }

    def histogram_total(self, name: str) -> HistogramData | None:
        """One histogram merged over every label combination."""
        merged: HistogramData | None = None
        for _, data in sorted(self.histogram_series(name).items()):
            merged = data if merged is None else merged.merge(data)
        return merged

    # -- combining ------------------------------------------------------------

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold two snapshots: counters/histograms add, gauges keep max."""
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0.0) + value
        gauges = dict(self.gauges)
        for key, value in other.gauges.items():
            gauges[key] = max(gauges[key], value) if key in gauges else value
        histograms = dict(self.histograms)
        for key, data in other.histograms.items():
            histograms[key] = (
                histograms[key].merge(data) if key in histograms else data
            )
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

    @classmethod
    def merge_all(cls, snapshots: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        merged = cls.empty()
        for snapshot in snapshots:
            merged = merged.merge(snapshot)
        return merged

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        return cls(counters={}, gauges={}, histograms={})

    # -- persistence ----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_dict(self) -> dict:
        """The snapshot as plain JSON data (what :meth:`to_json` writes)."""

        def entry(name: str, labels: LabelSet, payload) -> dict:
            return {"name": name, "labels": dict(labels), **payload}

        return {
            "counters": [
                entry(name, labels, {"value": value})
                for (name, labels), value in sorted(self.counters.items())
            ],
            "gauges": [
                entry(name, labels, {"value": value})
                for (name, labels), value in sorted(self.gauges.items())
            ],
            "histograms": [
                entry(
                    name,
                    labels,
                    {
                        "bounds": list(data.bounds),
                        "bucket_counts": list(data.bucket_counts),
                        "count": data.count,
                        "total": data.total,
                        "min": data.min,
                        "max": data.max,
                    },
                )
                for (name, labels), data in sorted(self.histograms.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: object) -> "MetricsSnapshot":
        """The inverse of :meth:`to_dict`; ``ValueError`` on a bad payload.

        Each section may be absent; each entry must hold exactly its
        kind's fields, with string label values.
        """
        check_fields(data, {}, dict.fromkeys(_SECTIONS, (list,)))

        def series(section: str, fields: dict) -> Iterator[tuple]:
            for item in data.get(section, ()):
                check_fields(item, fields)
                if not all(type(value) is str for value in item["labels"].values()):
                    raise ValueError(f"{section}: a label value is not a string")
                yield (item["name"], _labelset(item["labels"])), item

        counters, gauges = (
            {key: float(item["value"]) for key, item in series(name, _VALUE_FIELDS)}
            for name in ("counters", "gauges")
        )
        histograms = {}
        for key, item in series("histograms", _HISTOGRAM_FIELDS):
            bounds, buckets = item["bounds"], item["bucket_counts"]
            if not all(type(bound) in NUMBER for bound in bounds):
                raise ValueError("field 'bounds' holds a non-number")
            if len(buckets) != len(bounds) + 1 or {type(n) for n in buckets} - {int}:
                raise ValueError("field 'bucket_counts' is not one count per bucket")
            histograms[key] = HistogramData(
                tuple(bounds), tuple(buckets), *(item[k] for k in _SUMMARY)
            )
        return cls(counters=counters, gauges=gauges, histograms=histograms)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "MetricsSnapshot":
        """Read a snapshot file; :class:`~repro.util.codec.FormatError`
        naming it on a corrupt one."""
        data = read_json_object(path)
        with located(path):
            return cls.from_dict(data)


#: The sections of a stored snapshot, and the fields of their entries.
_SECTIONS = ("counters", "gauges", "histograms")
_VALUE_FIELDS = {"name": (str,), "labels": (dict,), "value": NUMBER}
_SUMMARY = ("count", "total", "min", "max")
_HISTOGRAM_FIELDS = {
    "name": (str,),
    "labels": (dict,),
    "bounds": (list,),
    "bucket_counts": (list,),
    "count": (int,),
    **dict.fromkeys(_SUMMARY[1:], NUMBER),
}


class MetricsRegistry:
    """Mutable collector behind every instrumented component."""

    #: Hot paths check this before computing metric values.
    enabled: bool = True

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelSet], float] = {}
        self._gauges: dict[tuple[str, LabelSet], float] = {}
        self._histograms: dict[tuple[str, LabelSet], _LiveHistogram] = {}

    def counter(self, name: str, value: float = 1.0, **labels) -> None:
        """Increment a monotonically growing count."""
        key = (name, _labelset(labels))
        self._counters[key] = self._counters.get(key, 0.0) + value

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a level (last write wins within one registry)."""
        self._gauges[(name, _labelset(labels))] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels,
    ) -> None:
        """Record one histogram observation."""
        key = (name, _labelset(labels))
        live = self._histograms.get(key)
        if live is None:
            live = self._histograms[key] = _LiveHistogram(buckets)
        live.observe(value)

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot into this registry (same rules as merge)."""
        for (name, labels), value in snapshot.counters.items():
            key = (name, labels)
            self._counters[key] = self._counters.get(key, 0.0) + value
        for (name, labels), value in snapshot.gauges.items():
            key = (name, labels)
            self._gauges[key] = (
                max(self._gauges[key], value) if key in self._gauges else value
            )
        for (name, labels), data in snapshot.histograms.items():
            key = (name, labels)
            live = self._histograms.get(key)
            if live is None:
                live = self._histograms[key] = _LiveHistogram(data.bounds)
            live.absorb(data)

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            histograms={
                key: live.freeze() for key, live in self._histograms.items()
            },
        )


class _LiveHistogram:
    """Mutable histogram state inside a registry."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                index = position
                break
        self.bucket_counts[index] += 1
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def absorb(self, data: HistogramData) -> None:
        if data.bounds != self.bounds:
            raise ValueError(
                f"cannot absorb histogram with bounds {data.bounds} "
                f"into one with {self.bounds}"
            )
        for index, bucket in enumerate(data.bucket_counts):
            self.bucket_counts[index] += bucket
        self.count += data.count
        self.total += data.total
        self.min = min(self.min, data.min)
        self.max = max(self.max, data.max)

    def freeze(self) -> HistogramData:
        return HistogramData(
            bounds=self.bounds,
            bucket_counts=tuple(self.bucket_counts),
            count=self.count,
            total=self.total,
            min=self.min,
            max=self.max,
        )


class NullMetrics(MetricsRegistry):
    """The do-nothing default registry."""

    enabled = False

    def counter(self, name, value=1.0, **labels) -> None:  # noqa: ARG002
        pass

    def gauge(self, name, value, **labels) -> None:  # noqa: ARG002
        pass

    def observe(self, name, value, buckets=DEFAULT_BUCKETS, **labels) -> None:  # noqa: ARG002
        pass

    def absorb(self, snapshot) -> None:  # noqa: ARG002
        pass


#: Shared no-op instance used as the default everywhere.
NULL_METRICS = NullMetrics()
