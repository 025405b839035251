#!/usr/bin/env python3
"""Profiling walkthrough: span-trace a sharded crawl and explain its time.

Runs one campaign sharded across four workers with the recorder on,
then:

1. prints the campaign profile — per-stage latency breakdown
   (mean/p50/p95/p99), the critical path bounding the wall-clock, the
   shard straggler report, and the most expensive visits;
2. writes the span tree the recorder derives to JSONL (round-trips via
   ``repro.obs.read_spans``) and to Chrome trace-event JSON —
   load the latter in ``chrome://tracing`` or https://ui.perfetto.dev
   to scrub through the campaign visually;
3. shows that the straggler shard's finish time is exactly the merged
   report's ``finished_at`` — the profiler names the shard that bounds
   the campaign.

Usage::

    python examples/profile_crawl.py [site_count]
"""

import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.profile_report import render_profile
from repro.crawler.crawl import Crawl
from repro.obs import Recorder, Telemetry, build_profile
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator


def main() -> None:
    site_count = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000
    print(f"Generating a {site_count:,}-site world ...")
    world = WebGenerator(WorldConfig.small(site_count, seed=1)).generate()

    print("Sharded campaign, 4 shards (recorder on) ...")
    recorder = Recorder()
    started = time.time()
    result = Crawl(world, shard_count=4, telemetry=Telemetry(recorder)).run().result
    print(f"  done in {time.time() - started:.1f}s wall-clock")

    spans = recorder.spans()
    profile = build_profile(spans)
    print()
    print(render_profile(profile))

    out_dir = Path(tempfile.gettempdir())
    span_path = out_dir / "repro_spans.jsonl"
    chrome_path = out_dir / "repro_chrome_trace.json"
    recorder.write(spans=span_path, chrome=chrome_path)
    print()
    print(f"Wrote {len(spans):,} spans to {span_path}")
    print(f"Wrote Chrome trace to {chrome_path} (chrome://tracing / Perfetto)")

    if profile.straggler is not None:
        straggler = profile.straggler.straggler
        print()
        print(
            f"Straggler shard {straggler.shard} finished at "
            f"{straggler.finished_at:,.0f}s; merged report finished_at is "
            f"{result.report.finished_at:,}s — "
            + (
                "they match."
                if straggler.finished_at == result.report.finished_at
                else "MISMATCH (merge bug)!"
            )
        )


if __name__ == "__main__":
    main()
