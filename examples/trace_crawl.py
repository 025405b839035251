#!/usr/bin/env python3
"""Observability walkthrough: trace a crawl, diff sequential vs. sharded.

Runs the same campaign twice — once sequentially, once sharded across
four workers — with full instrumentation on, then:

1. prints the operational metrics report (visits/sec, Topics calls/sec,
   failure breakdown, per-shard skew);
2. cross-checks the two metric snapshots counter-by-counter (any
   divergence means the sharded merge changed the protocol — the class
   of bug this layer exists to catch);
3. peeks at the structured event trace and writes it to JSONL.

Usage::

    python examples/trace_crawl.py [site_count]
"""

import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.obs_report import (
    build_metrics_report,
    diff_snapshots,
    render_divergences,
    render_metrics_report,
)
from repro.crawler.campaign import CrawlCampaign
from repro.crawler.crawl import Crawl
from repro.obs import EventKind, MetricsRegistry, Tracer
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator


def main() -> None:
    site_count = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000
    print(f"Generating a {site_count:,}-site world ...")
    world = WebGenerator(WorldConfig.small(site_count, seed=1)).generate()

    print("Sequential campaign (instrumented) ...")
    seq_tracer, seq_metrics = Tracer(), MetricsRegistry()
    started = time.time()
    CrawlCampaign(
        world, corrupt_allowlist=True, tracer=seq_tracer, metrics=seq_metrics
    ).run()
    print(f"  done in {time.time() - started:.1f}s wall-clock")

    print("Sharded campaign, 4 shards (instrumented) ...")
    shard_tracer, shard_metrics = Tracer(), MetricsRegistry()
    started = time.time()
    Crawl(
        world, shard_count=4, tracer=shard_tracer, metrics=shard_metrics
    ).run()
    print(f"  done in {time.time() - started:.1f}s wall-clock")

    print()
    print(render_metrics_report(build_metrics_report(shard_metrics.snapshot())))

    print()
    print("Cross-check (counters must be execution-shape invariant):")
    divergences = diff_snapshots(
        seq_metrics.snapshot(),
        shard_metrics.snapshot(),
        ignore_prefixes=("shard_",),
    )
    print(render_divergences(divergences, "sequential", "sharded"))

    print()
    print("Event trace sample (sharded run):")
    for kind in (
        EventKind.SHARD_STARTED,
        EventKind.VISIT_FINISHED,
        EventKind.TOPICS_CALL,
        EventKind.BANNER_INTERACTION,
        EventKind.SHARD_MERGED,
    ):
        events = shard_tracer.events(kind)
        if events:
            print(f"  {kind.value:<20} x{len(events):<6} e.g. {events[0].fields}")

    trace_path = Path(tempfile.gettempdir()) / "repro_trace.jsonl"
    shard_tracer.to_jsonl(trace_path)
    print()
    print(
        f"Wrote {len(shard_tracer):,} events to {trace_path} "
        f"({shard_tracer.dropped:,} dropped by the ring buffer)."
    )


if __name__ == "__main__":
    main()
