"""One telemetry handle: the tracer, metrics registry and span recorder.

Every instrumented component takes one :class:`Telemetry` bundle.  Each
handle stays independently switchable — the CLI turns tracing and
metrics on together, the crawl service keeps metrics only — and
defaults to its no-op instance, so :data:`Telemetry.OFF` costs a hot
path one ``enabled`` check per handle.

The bundle also owns how a sharded crawl's telemetry comes together:
:meth:`Telemetry.child` gives each shard attempt fresh private handles,
:meth:`Telemetry.export` flattens them into a picklable
:class:`TelemetryExport` (the one shape shard telemetry travels in, from
a worker thread or process alike), and :meth:`Telemetry.fold` merges the
exports deterministically, so the merged bytes never depend on the
backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Sequence

from repro.obs.metrics import NULL_METRICS, MetricsRegistry, MetricsSnapshot
from repro.obs.spans import NULL_RECORDER, SPAN_CAMPAIGN, Span, SpanRecorder
from repro.obs.tracer import NULL_TRACER, EventKind, TraceEvent, Tracer

if TYPE_CHECKING:
    from repro.crawler.campaign import CrawlReport

    #: ``(shard_index, shard report, export)`` per shard, in plan order.
    ShardTelemetry = Sequence[tuple[int, CrawlReport, "TelemetryExport"]]


@dataclass(frozen=True, slots=True)
class TelemetryExport:
    """A bundle's recordings as plain, picklable data.

    Each field is ``None`` when its handle was off.  Trace events keep
    their shard-local order (the fold's ``(at, shard, seq)`` sort only
    needs relative order within a shard); spans keep their original ids
    so the fold's parent remapping works unchanged.
    """

    events: tuple[TraceEvent, ...] | None = None
    metrics: MetricsSnapshot | None = None
    spans: tuple[Span, ...] | None = None


@dataclass(frozen=True, slots=True)
class Telemetry:
    """The tracer, metrics registry and span recorder, as one value."""

    tracer: Tracer = NULL_TRACER
    metrics: MetricsRegistry = NULL_METRICS
    spans: SpanRecorder = NULL_RECORDER

    #: Every handle off: the default everywhere.
    OFF: ClassVar["Telemetry"]

    def child(self, shard: int | None = None) -> "Telemetry":
        """Fresh private handles, live wherever this bundle's are.

        Spans are tagged with ``shard`` (when given).  A ``child()``
        pickles, so it is the stand-in a worker process derives its
        shard children from.
        """
        spans: SpanRecorder = NULL_RECORDER
        if self.spans.enabled:
            spans = SpanRecorder(
                common_fields=None if shard is None else {"shard": shard}
            )
        return Telemetry(
            tracer=Tracer() if self.tracer.enabled else NULL_TRACER,
            metrics=MetricsRegistry() if self.metrics.enabled else NULL_METRICS,
            spans=spans,
        )

    def export(self) -> TelemetryExport:
        """This bundle's recordings as plain data (``None`` per handle off)."""
        return TelemetryExport(
            events=tuple(self.tracer) if self.tracer.enabled else None,
            metrics=self.metrics.snapshot() if self.metrics.enabled else None,
            spans=tuple(self.spans) if self.spans.enabled else None,
        )

    def fold(self, shards: "ShardTelemetry", report: "CrawlReport") -> None:
        """Merge the shards' telemetry into this bundle.

        ``report`` is the merged campaign report.  With spans on, the
        shard trees are grafted under a campaign root span that is left
        open: the caller closes it once the merged survey has recorded
        its spans.
        """
        if self.tracer.enabled or self.metrics.enabled:
            self._fold_instrumentation(shards)
            self.metrics.gauge("crawl_targets", report.targets)
            self.metrics.gauge("crawl_duration_seconds", report.duration_seconds)
            self.metrics.gauge("shard_count", len(shards))
        if self.spans.enabled:
            self._fold_spans(shards, report)

    def _fold_instrumentation(self, shards: "ShardTelemetry") -> None:
        """Fold shard events and metrics into this tracer and registry.

        Shard events interleave in *time* order — sorted by
        ``(at, shard_index, seq)`` — so the merged trace reads as one
        chronological campaign rather than shard 0's full history
        followed by shard 1's.  Per-shard gauges and the ``shard-merged``
        lifecycle events follow the replayed history.
        """
        entries = []
        for shard_index, _report, export in shards:
            for event in export.events or ():
                entries.append((event.at, shard_index, event.seq, event))
        entries.sort(key=lambda entry: entry[:3])
        for at, shard_index, _seq, event in entries:
            self.tracer.emit(
                event.kind, at, **{**event.fields, "shard": shard_index}
            )

        for shard_index, report, export in shards:
            if export.metrics is not None:
                self.metrics.absorb(export.metrics)
            self.metrics.gauge(
                "shard_duration_seconds",
                report.duration_seconds,
                shard=shard_index,
            )
            self.metrics.gauge("shard_visits", report.ok, shard=shard_index)
            self.tracer.emit(
                EventKind.SHARD_MERGED,
                at=report.finished_at,
                shard=shard_index,
                ok=report.ok,
                failed=report.failed,
                accepted=report.accepted,
                duration_seconds=report.duration_seconds,
            )

    def _fold_spans(self, shards: "ShardTelemetry", report: "CrawlReport") -> None:
        """Graft shard span trees under one campaign-level root.

        Shard spans fold sorted by ``(start, shard_index, span_id)`` —
        within a shard a parent never sorts after its child, so ids can
        be remapped in one pass.
        """
        root_id = self.spans.enter(
            SPAN_CAMPAIGN,
            at=float(report.started_at),
            targets=report.targets,
            shards=len(shards),
        )
        entries = []
        for shard_index, _report, export in shards:
            for span in export.spans or ():
                entries.append((span.start, shard_index, span.span_id, span))
        entries.sort(key=lambda entry: entry[:3])
        id_map: dict[tuple[int, int], int] = {}
        for _start, shard_index, old_id, span in entries:
            parent = id_map.get((shard_index, span.parent_id), root_id)
            id_map[(shard_index, old_id)] = self.spans.adopt(
                span, parent_id=parent
            )


Telemetry.OFF = Telemetry()
