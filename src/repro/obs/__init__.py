"""Observability: tracing, metrics, spans and profiling for the crawl pipeline.

The paper's findings hinge on the crawler producing *exactly* the same
dataset however it is executed — sequentially, sharded, resumed.  This
package makes execution differences visible by construction:

* :mod:`repro.obs.tracer` — typed trace events (visit lifecycle, banner
  interaction, Topics calls with caller classification, attestation
  fetches, shard lifecycle, injected failures) collected in a bounded
  ring buffer with JSONL export;
* :mod:`repro.obs.metrics` — counters / gauges / histograms with labels,
  snapshottable and mergeable across shards, so a sequential campaign
  and a sharded one can be diffed metric-by-metric;
* :mod:`repro.obs.spans` — nested, timed intervals over the simulated
  clock (campaign → shard → visit → per-stage), with Chrome trace-event
  export for visual inspection;
* :mod:`repro.obs.profile` — the critical-path profiler over recorded
  spans: stage breakdowns, the shard straggler report, slow visits;
* :mod:`repro.obs.progress` — a live stderr progress line fed by the
  campaign's per-shard target and visit counts;
* :mod:`repro.obs.bridge` — blocking delivery from crawl worker threads
  into an asyncio loop;
* :mod:`repro.obs.telemetry` — :class:`Telemetry`, the one handle
  instrumented components take, and the one fold of shard telemetry.

:data:`Telemetry.OFF` bundles the three no-op recorders, so
instrumentation-off adds nothing to the hot path beyond one attribute
check.  Stored telemetry is read through :mod:`repro.util.codec`: a
corrupt trace, span or metrics file raises its
:class:`~repro.util.codec.FormatError` naming the file and the line.
"""

from repro.obs.bridge import BlockingLoopBridge
from repro.obs.metrics import (
    HistogramData,
    MetricsRegistry,
    MetricsSnapshot,
    NULL_METRICS,
    NullMetrics,
    render_exposition,
)
from repro.obs.profile import (
    CampaignProfile,
    SlowVisitReport,
    StageStat,
    StragglerReport,
    build_profile,
    critical_path,
    stage_breakdown,
    straggler_report,
)
from repro.obs.progress import ProgressTracker
from repro.obs.spans import (
    NULL_RECORDER,
    NullSpanRecorder,
    Span,
    SpanMeta,
    SpanRecorder,
)
from repro.obs.telemetry import Telemetry, TelemetryExport
from repro.obs.tracer import (
    EventKind,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    TraceMeta,
    Tracer,
)

__all__ = [
    "BlockingLoopBridge",
    "CampaignProfile",
    "EventKind",
    "HistogramData",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_METRICS",
    "NULL_RECORDER",
    "NULL_TRACER",
    "NullMetrics",
    "NullSpanRecorder",
    "NullTracer",
    "ProgressTracker",
    "SlowVisitReport",
    "Span",
    "SpanMeta",
    "SpanRecorder",
    "StageStat",
    "StragglerReport",
    "Telemetry",
    "TelemetryExport",
    "TraceEvent",
    "TraceMeta",
    "Tracer",
    "build_profile",
    "critical_path",
    "render_exposition",
    "stage_breakdown",
    "straggler_report",
]
