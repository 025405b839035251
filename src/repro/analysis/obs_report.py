"""Campaign metrics report and the sequential-vs-sharded cross-check.

Two consumers of :class:`repro.obs.MetricsSnapshot`:

* :func:`build_metrics_report` turns one campaign's snapshot into the
  operational numbers a crawl operator watches — visits/sec, Topics
  calls/sec, failure and banner breakdowns, per-shard skew;
* :func:`diff_snapshots` compares two snapshots counter-by-counter.
  Every counter the pipeline emits counts *protocol work* (visits,
  banner interactions, Topics calls by type and gating decision,
  attestation probes), which a correct executor produces identically
  however the campaign is scheduled — so any divergence between a
  sequential and a sharded run of the same world is a merge bug.  This
  is the check that catches a sharded merge dropping After-Accept
  parties from the attestation survey.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import MetricsSnapshot, format_series
from repro.obs.trace import TraceMeta, read_trace_meta


@dataclass(frozen=True)
class MetricsReport:
    """Operational summary of one campaign's metrics snapshot."""

    duration_seconds: float
    visits_total: int
    visits_per_second: float
    topics_calls_total: int
    calls_per_second: float
    #: Visit latency quantiles from the ``visit_seconds`` histogram
    #: (merged over outcomes); ``None`` when nothing was observed.
    visit_mean: float | None = None
    visit_p50: float | None = None
    visit_p95: float | None = None
    visit_p99: float | None = None
    failures_by_kind: dict = field(default_factory=dict)
    banners_by_result: dict = field(default_factory=dict)
    probes_by_result: dict = field(default_factory=dict)
    shard_visits: dict = field(default_factory=dict)
    shard_durations: dict = field(default_factory=dict)

    @property
    def shard_skew(self) -> float | None:
        """Load imbalance: (max - min) / mean successful visits per shard."""
        if len(self.shard_visits) < 2:
            return None
        values = list(self.shard_visits.values())
        mean = sum(values) / len(values)
        if mean == 0:
            return None
        return (max(values) - min(values)) / mean


def _breakdown(snapshot: MetricsSnapshot, name: str, label: str) -> dict:
    return {
        dict(labels)[label]: int(value)
        for labels, value in sorted(snapshot.counter_series(name).items())
    }


def _per_shard(snapshot: MetricsSnapshot, name: str) -> dict:
    return {
        int(dict(labels)["shard"]): value
        for labels, value in snapshot.gauge_series(name).items()
    }


def build_metrics_report(snapshot: MetricsSnapshot) -> MetricsReport:
    """Digest one campaign snapshot into a :class:`MetricsReport`."""
    duration = snapshot.gauge_value("crawl_duration_seconds") or 0.0
    visits = int(snapshot.counter_total("browser_visits_total"))
    calls = int(snapshot.counter_total("topics_calls_total"))
    latency = snapshot.histogram_total("visit_seconds")
    return MetricsReport(
        duration_seconds=duration,
        visits_total=visits,
        visits_per_second=visits / duration if duration else 0.0,
        topics_calls_total=calls,
        calls_per_second=calls / duration if duration else 0.0,
        visit_mean=latency.mean if latency else None,
        visit_p50=latency.quantile(0.50) if latency else None,
        visit_p95=latency.quantile(0.95) if latency else None,
        visit_p99=latency.quantile(0.99) if latency else None,
        failures_by_kind=_breakdown(snapshot, "crawl_failures_total", "kind"),
        banners_by_result=_breakdown(snapshot, "crawl_banners_total", "result"),
        probes_by_result=_breakdown(snapshot, "attestation_probes_total", "result"),
        shard_visits=_per_shard(snapshot, "shard_visits"),
        shard_durations=_per_shard(snapshot, "shard_duration_seconds"),
    )


def load_snapshot(path: str | Path | None) -> MetricsSnapshot | None:
    """Load a metrics snapshot, tolerating absent artefacts.

    Returns ``None`` when ``path`` is ``None``, the file does not exist,
    or it is empty — the cases an uninstrumented (or interrupted)
    campaign leaves behind.  A file that exists but holds malformed JSON
    still raises: that is corruption, not a missing artefact.
    """
    if path is None:
        return None
    path = Path(path)
    if not path.exists() or path.stat().st_size == 0:
        return None
    return MetricsSnapshot.load(path)


def render_metrics_section(snapshot: MetricsSnapshot | None) -> str:
    """The metrics report, or an explicit note when nothing was captured.

    Operators diffing two campaign outputs need to see *that* metrics
    were absent, not a crash — so the missing-artefact case renders a
    section of its own instead of raising.
    """
    if snapshot is None or (
        not snapshot.counters and not snapshot.gauges and not snapshot.histograms
    ):
        return (
            "Campaign metrics\n"
            "  not captured (no metrics snapshot was exported; "
            "re-run with --metrics-out)"
        )
    return render_metrics_report(build_metrics_report(snapshot))


def load_trace_meta(path: str | Path | None) -> tuple[bool, TraceMeta | None]:
    """``(captured, meta)`` for a trace file that may not exist.

    ``captured`` is ``False`` when the path is ``None``, missing, or
    empty; ``meta`` may still be ``None`` for a captured legacy trace
    without a meta line.
    """
    if path is None:
        return False, None
    path = Path(path)
    if not path.exists() or path.stat().st_size == 0:
        return False, None
    return True, read_trace_meta(path)


def render_trace_section(path: str | Path | None) -> str:
    """Trace-health line for a file path, absent artefacts included."""
    captured, meta = load_trace_meta(path)
    if not captured:
        return (
            "trace health: not captured (no event trace was exported; "
            "re-run with --trace-out)"
        )
    return render_trace_health(meta)


def render_metrics_report(report: MetricsReport) -> str:
    """Text rendering of the operational summary."""
    lines = [
        "Campaign metrics",
        f"  duration:        {report.duration_seconds:,.0f} simulated seconds",
        f"  visits:          {report.visits_total:,} "
        f"({report.visits_per_second:.2f}/s)",
        f"  topics calls:    {report.topics_calls_total:,} "
        f"({report.calls_per_second:.2f}/s)",
    ]
    if report.visit_mean is not None:
        lines.append(
            f"  visit latency:   mean={report.visit_mean:.2f}s "
            f"p50={report.visit_p50:.2f}s "
            f"p95={report.visit_p95:.2f}s "
            f"p99={report.visit_p99:.2f}s"
        )
    if report.failures_by_kind:
        lines.append("  failures:")
        for kind, count in sorted(
            report.failures_by_kind.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"    {kind:<26} {count:>6,}")
    if report.banners_by_result:
        banners = ", ".join(
            f"{result}={count:,}"
            for result, count in sorted(report.banners_by_result.items())
        )
        lines.append(f"  banners:         {banners}")
    if report.probes_by_result:
        probes = ", ".join(
            f"{result}={count:,}"
            for result, count in sorted(report.probes_by_result.items())
        )
        lines.append(f"  attestations:    {probes}")
    if report.shard_visits:
        lines.append(f"  shards:          {len(report.shard_visits)}")
        for shard in sorted(report.shard_visits):
            duration = report.shard_durations.get(shard, 0.0)
            lines.append(
                f"    shard {shard}: {int(report.shard_visits[shard]):,} visits "
                f"over {duration:,.0f}s"
            )
        skew = report.shard_skew
        if skew is not None:
            lines.append(f"  shard skew:      {skew:.1%} (max-min over mean)")
    return "\n".join(lines)


@dataclass(frozen=True)
class CounterDivergence:
    """One counter whose value differs between two snapshots."""

    series: str
    left: float
    right: float

    def __str__(self) -> str:
        return f"{self.series}: {self.left:g} != {self.right:g}"


def diff_snapshots(
    left: MetricsSnapshot,
    right: MetricsSnapshot,
    ignore_prefixes: tuple[str, ...] = (),
) -> list[CounterDivergence]:
    """Counters that differ between two campaign snapshots.

    Counters measure schedule-invariant protocol work, so a sequential
    and a sharded run of the same world must agree on every one; gauges
    and histograms (durations, per-shard levels, paced load times) are
    execution-shape-dependent and deliberately excluded.
    """
    keys = set(left.counters) | set(right.counters)
    divergences = []
    for name, labels in sorted(keys):
        if ignore_prefixes and name.startswith(ignore_prefixes):
            continue
        left_value = left.counters.get((name, labels), 0.0)
        right_value = right.counters.get((name, labels), 0.0)
        if left_value != right_value:
            divergences.append(
                CounterDivergence(
                    series=format_series(name, labels),
                    left=left_value,
                    right=right_value,
                )
            )
    return divergences


def render_trace_health(meta: TraceMeta | None) -> str:
    """One-line trace completeness summary, loud when events were lost.

    A ring buffer that overflowed silently truncates the oldest history;
    surfacing the drop rate is what stops an operator from diffing a
    partial trace against a complete one.
    """
    if meta is None:
        return "trace health: unknown (legacy trace without a meta line)"
    if meta.dropped == 0:
        return f"trace health: complete ({meta.emitted:,} events)"
    return (
        f"WARNING: trace dropped {meta.dropped:,} of {meta.emitted:,} "
        f"events ({meta.drop_rate:.1%}) — ring buffer capacity "
        f"{meta.capacity:,} exceeded; the oldest events are missing."
    )


def render_divergences(
    divergences: list[CounterDivergence],
    left_name: str = "left",
    right_name: str = "right",
) -> str:
    if not divergences:
        return f"{left_name} and {right_name} agree on every counter."
    lines = [
        f"{len(divergences)} counter(s) diverge between "
        f"{left_name} and {right_name}:"
    ]
    for divergence in divergences:
        lines.append(
            f"  {divergence.series}: "
            f"{left_name}={divergence.left:g} {right_name}={divergence.right:g}"
        )
    return "\n".join(lines)
