"""Observability: one recorder, metrics and profiling for the crawl pipeline.

The paper's findings hinge on the crawler producing *exactly* the same
dataset however it is executed — sequentially, sharded, resumed.  This
package makes execution differences visible by construction:

* :mod:`repro.obs.recorder` — the one recorder: each telemetry moment
  (visit attempt, banner interaction, checkpoint, shard retry,
  attestation fetch, sweep cell) is recorded once, as one row, and the
  trace, span and Chrome-trace files are derived from the rows;
* :mod:`repro.obs.trace` — the trace file format: typed events stamped
  with simulated time, with a meta line counting ring-buffer drops;
* :mod:`repro.obs.spans` — the span file formats: nested, timed
  intervals over the simulated clock (campaign → shard → visit →
  per-stage), as JSONL and as Chrome trace-event JSON;
* :mod:`repro.obs.metrics` — counters / gauges / histograms with labels,
  snapshottable and mergeable across shards, so a sequential campaign
  and a sharded one can be diffed metric-by-metric;
* :mod:`repro.obs.profile` — the critical-path profiler over recorded
  spans: stage breakdowns, the shard straggler report, slow visits;
* :mod:`repro.obs.progress` — a live stderr progress line fed by the
  campaign's per-shard target and visit counts;
* :mod:`repro.obs.bridge` — blocking delivery from crawl worker threads
  into an asyncio loop;
* :mod:`repro.obs.telemetry` — :class:`Telemetry`, the one handle
  instrumented components take, and the one fold of shard telemetry.

:data:`Telemetry.OFF` bundles the no-op recorder and metrics, so
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
from repro.obs.recorder import NULL_RECORDER, NullRecorder, Recorder
from repro.obs.spans import Span, SpanMeta, read_span_meta, read_spans
from repro.obs.telemetry import Telemetry, TelemetryExport
from repro.obs.trace import (
    EventKind,
    TraceEvent,
    TraceMeta,
    read_trace,
    read_trace_meta,
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
    "NullMetrics",
    "NullRecorder",
    "ProgressTracker",
    "Recorder",
    "SlowVisitReport",
    "Span",
    "SpanMeta",
    "StageStat",
    "StragglerReport",
    "Telemetry",
    "TelemetryExport",
    "TraceEvent",
    "TraceMeta",
    "build_profile",
    "critical_path",
    "read_span_meta",
    "read_spans",
    "read_trace",
    "read_trace_meta",
    "render_exposition",
    "stage_breakdown",
    "straggler_report",
]
