"""Render a campaign's span profile as an operator-facing report.

Companion to :mod:`repro.analysis.obs_report`: where that module digests
the *metrics* snapshot, this one digests the *span tree* — the
per-stage latency breakdown, the critical path bounding the campaign's
wall-clock, the shard straggler (the shard whose finish time **is** the
merged ``finished_at``, and why), and the most expensive visits.

Usage from the CLI (``repro crawl --span-out spans.jsonl`` writes the
input) or programmatically::

    spans = read_spans("spans.jsonl")
    print(render_profile(build_profile(spans)))
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterable

from repro.obs.profile import (
    CampaignProfile,
    build_profile,
)
from repro.obs.spans import Span, SpanMeta, read_span_meta, read_spans


def _fmt_seconds(value: float) -> str:
    return f"{value:,.2f}s"


def render_profile(profile: CampaignProfile) -> str:
    """Text rendering of a :class:`~repro.obs.profile.CampaignProfile`."""
    lines = [
        "Campaign profile",
        f"  spans:           {profile.span_count:,}",
        f"  wall clock:      {profile.wall_seconds:,.0f} simulated seconds",
    ]

    if profile.stages:
        lines.append("  stage breakdown (by total time):")
        header = (
            f"    {'stage':<20} {'count':>8} {'total':>12} "
            f"{'mean':>9} {'p50':>9} {'p95':>9} {'p99':>9}"
        )
        lines.append(header)
        for stat in profile.stages:
            lines.append(
                f"    {stat.name:<20} {stat.count:>8,} "
                f"{_fmt_seconds(stat.total):>12} "
                f"{_fmt_seconds(stat.mean):>9} "
                f"{_fmt_seconds(stat.p50):>9} "
                f"{_fmt_seconds(stat.p95):>9} "
                f"{_fmt_seconds(stat.p99):>9}"
            )

    if profile.critical_path:
        lines.append("  critical path (the chain that finished last):")
        for depth, span in enumerate(profile.critical_path):
            label = str(span.fields.get("domain", span.fields.get("shard", "")))
            suffix = f" [{label}]" if label != "" else ""
            lines.append(
                f"    {'  ' * depth}{span.name}{suffix}: "
                f"{span.start:,.1f} → {span.end:,.1f} "
                f"({_fmt_seconds(span.duration)})"
            )

    straggler = profile.straggler
    if straggler is not None:
        lines.append("  shards:")
        for timing in straggler.shards:
            marker = " <- straggler" if timing.shard == straggler.straggler.shard else ""
            lines.append(
                f"    shard {timing.shard}: {timing.visits:,} visits, "
                f"finished at {timing.finished_at:,.0f}s "
                f"(mean visit {timing.mean_visit:.2f}s, "
                f"{timing.retries} retries){marker}"
            )
        lines.append(
            f"  straggler:       shard {straggler.straggler.shard} bounds the "
            f"campaign's finished_at ({straggler.straggler.finished_at:,.0f}s); "
            f"cause: {straggler.reason}"
            + (
                f" (+{straggler.severity:.0%} vs other shards)"
                if straggler.severity > 0
                else ""
            )
        )

    if profile.slow.visits:
        lines.append(
            f"  slowest visits (top {len(profile.slow.visits)} "
            f"of {profile.slow.considered:,}):"
        )
        for visit in profile.slow.visits:
            shard = f" shard {visit.shard}" if visit.shard is not None else ""
            stage = (
                f" — dominated by {visit.dominant_stage} "
                f"({_fmt_seconds(visit.dominant_seconds)})"
                if visit.dominant_stage
                else ""
            )
            lines.append(
                f"    {visit.domain:<28} {visit.phase or '?':<13} "
                f"{_fmt_seconds(visit.duration):>8}{shard}{stage}"
            )

    return "\n".join(lines)


def profile_spans(spans: Iterable[Span], top_n: int = 10) -> str:
    """One-call convenience: spans in, rendered report out."""
    return render_profile(build_profile(spans, top_n=top_n))


#: Rendered when a campaign recorded no spans at all.
NOT_CAPTURED_PROFILE = (
    "Campaign profile\n"
    "  not captured (no spans were recorded; re-run with --span-out)"
)


def load_spans(
    path: str | Path | None,
) -> tuple[list[Span] | None, SpanMeta | None]:
    """``(spans, meta)`` for a span file that may not exist.

    ``spans`` is ``None`` when the path is ``None``, the file is
    missing, or it is empty — an uninstrumented campaign, not an error.
    A present-but-corrupt file still raises.
    """
    if path is None:
        return None, None
    path = Path(path)
    if not path.exists() or path.stat().st_size == 0:
        return None, None
    return read_spans(path), read_span_meta(path)


def render_profile_section(spans: Iterable[Span] | None, top_n: int = 10) -> str:
    """The profile report, or an explicit note when nothing was recorded."""
    spans = None if spans is None else list(spans)
    if not spans:
        return NOT_CAPTURED_PROFILE
    return profile_spans(spans, top_n=top_n)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.analysis.profile_report spans.jsonl``"""
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: profile_report.py <spans.jsonl>", file=sys.stderr)
        return 2
    spans, meta = load_spans(argv[0])
    print(render_profile_section(spans))
    if meta is not None and meta.dropped:
        print(
            f"WARNING: span buffer dropped {meta.dropped:,} of "
            f"{meta.recorded:,} spans (capacity {meta.capacity:,}); "
            "the profile under-counts early stages.",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
