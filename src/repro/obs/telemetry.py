"""One telemetry handle: the recorder and the metrics registry.

Every instrumented component takes one :class:`Telemetry` bundle.  Each
handle defaults to its no-op instance — the CLI turns the recorder on
for ``--trace-out``/``--span-out``/``--chrome-trace-out`` and metrics
on for ``--trace-out``/``--metrics-out``; the crawl service keeps
metrics only — so :data:`Telemetry.OFF` costs a hot path one
``enabled`` check.

The bundle also owns how a sharded crawl's telemetry comes together:
:meth:`Telemetry.child` gives each shard attempt fresh private handles,
:meth:`Telemetry.export` flattens them into a picklable
:class:`TelemetryExport` (the one shape shard telemetry travels in, from
a worker thread or process alike), and :meth:`Telemetry.fold` merges
the exports deterministically, so the merged bytes never depend on the
backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Sequence

from repro.obs.metrics import NULL_METRICS, MetricsRegistry, MetricsSnapshot
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.obs.spans import SPAN_CAMPAIGN

if TYPE_CHECKING:
    from repro.crawler.campaign import CrawlReport

    #: ``(shard_index, shard report, export)`` per shard, in plan order.
    ShardTelemetry = Sequence[tuple[int, CrawlReport, "TelemetryExport"]]


@dataclass(frozen=True, slots=True)
class TelemetryExport:
    """A bundle's recordings, picklable (``None`` per handle off)."""

    recorder: Recorder | None = None
    metrics: MetricsSnapshot | None = None


@dataclass(frozen=True, slots=True)
class Telemetry:
    """The recorder and metrics registry, as one value."""

    recorder: Recorder = NULL_RECORDER
    metrics: MetricsRegistry = NULL_METRICS

    #: Every handle off: the default everywhere.
    OFF: ClassVar["Telemetry"]

    def child(self, shard: int | None = None) -> "Telemetry":
        """Fresh private handles, live wherever this bundle's are.

        Spans are tagged with ``shard`` (when given).  A ``child()``
        pickles, so it is the stand-in a worker process derives its
        shard children from.
        """
        return Telemetry(
            recorder=Recorder(shard=shard) if self.recorder.enabled else NULL_RECORDER,
            metrics=MetricsRegistry() if self.metrics.enabled else NULL_METRICS,
        )

    def export(self) -> TelemetryExport:
        """This bundle's recordings, picklable (``None`` per handle off)."""
        return TelemetryExport(
            recorder=self.recorder if self.recorder.enabled else None,
            metrics=self.metrics.snapshot() if self.metrics.enabled else None,
        )

    def fold(self, shards: "ShardTelemetry", report: "CrawlReport") -> None:
        """Merge the shards' telemetry into this bundle.

        ``report`` is the merged campaign report.  The shard recordings
        fold under a campaign root span that is left open: the caller
        closes it once the merged survey has recorded its moments.
        """
        metrics = self.metrics
        for shard_index, shard_report, export in shards:
            if export.metrics is not None:
                metrics.absorb(export.metrics)
            metrics.gauge(
                "shard_duration_seconds",
                shard_report.duration_seconds,
                shard=shard_index,
            )
            metrics.gauge("shard_visits", shard_report.ok, shard=shard_index)
        metrics.gauge("crawl_targets", report.targets)
        metrics.gauge("crawl_duration_seconds", report.duration_seconds)
        metrics.gauge("shard_count", len(shards))

        self.recorder.enter(
            SPAN_CAMPAIGN,
            at=float(report.started_at),
            targets=report.targets,
            shards=len(shards),
        )
        self.recorder.fold(
            [
                (shard_index, export.recorder or NULL_RECORDER, shard_report)
                for shard_index, shard_report, export in shards
            ]
        )


Telemetry.OFF = Telemetry()
