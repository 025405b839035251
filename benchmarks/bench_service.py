"""Service benchmarks: streamed campaign throughput and event latency.

Measures the crawl service against the batch path it wraps: a submitted,
event-streamed campaign should pay a small, bounded overhead over a
checkpointed batch ``Crawl`` of the same spec — the blocking loop bridge and
the bounded event queues are on the visit hot path by design (that is
what backpressure means), so their cost is pinned here.

``service_visits_per_second`` rides the regression-gate trajectory next
to the batch plane's ``visits_per_second``.
"""

import asyncio
import tempfile
import time
from pathlib import Path

from conftest import BENCH_SITES, show

from repro.crawler.crawl import Crawl
from repro.service import CrawlService, JobSpec
from repro.web.generator import WebGenerator

#: Campaign size: the smoke scale caps it; full runs use the crawl
#: bench's steady-state slice.
SERVICE_SITES = min(BENCH_SITES, 2_000)


def _spec() -> JobSpec:
    return JobSpec(
        sites=SERVICE_SITES,
        seed=1,
        shards=4,
        backend="serial",
        checkpoint_every=1_000,
        progress_every=500,
    )


def test_service_throughput(benchmark):
    """Submit-to-done throughput of a streamed service campaign.

    The warm-up job populates the service's world cache and the world's
    visit-plan caches, so the timed job measures the steady state a
    long-lived service actually runs in: submit, stream, archive.
    """
    spec = _spec()
    root = Path(tempfile.mkdtemp(prefix="bench-service-"))
    measured: dict[str, float] = {}

    async def session() -> None:
        service = CrawlService(root / "svc", backend="serial")
        await service.start()
        warm = await service.submit(spec)
        await service.wait(warm)

        submitted_at = time.perf_counter()
        job_id = await service.submit(spec)
        replay, sub = service.subscribe(job_id)
        events = list(replay)
        first_live_at = None
        while not (events and events[-1].terminal):
            events.append(await sub.get())
            if first_live_at is None:
                first_live_at = time.perf_counter()
        finished_at = time.perf_counter()
        service.unsubscribe(sub)
        record = await service.wait(job_id)
        await service.close()

        summary = record.summary
        measured["visits"] = summary["targets"] + summary["accepted"]
        measured["elapsed"] = finished_at - submitted_at
        measured["first_event"] = (first_live_at or finished_at) - submitted_at
        measured["events"] = len(events)

    benchmark.pedantic(
        lambda: asyncio.run(session()), rounds=1, iterations=1
    )

    # The batch plane on the same spec: what the service's streaming
    # front-end is allowed to cost against.
    world = WebGenerator(spec.world_config()).generate()
    Crawl(  # warm the visit-plan caches identically
        world,
        root / "warm-ckpt",
        shard_count=spec.shards,
        checkpoint_every=spec.checkpoint_every,
        backend="serial",
    ).run()
    batch_started = time.perf_counter()
    batch = Crawl(
        world,
        root / "batch-ckpt",
        shard_count=spec.shards,
        checkpoint_every=spec.checkpoint_every,
        backend="serial",
    ).run()
    batch_elapsed = time.perf_counter() - batch_started
    batch_report = batch.result.report
    batch_visits = batch_report.targets + batch_report.accepted

    service_rate = (
        measured["visits"] / measured["elapsed"] if measured["elapsed"] else 0.0
    )
    batch_rate = batch_visits / batch_elapsed if batch_elapsed else 0.0
    overhead = service_rate / batch_rate - 1.0 if batch_rate else 0.0

    benchmark.extra_info["service_visits"] = measured["visits"]
    benchmark.extra_info["service_visits_per_second"] = service_rate
    benchmark.extra_info["submit_to_first_event_seconds"] = measured[
        "first_event"
    ]
    benchmark.extra_info["batch_visits_per_second"] = batch_rate
    show(
        "Service throughput",
        f"{measured['visits']:,.0f} visits streamed over "
        f"{measured['events']:,.0f} events at {service_rate:,.0f} visits/sec "
        f"({overhead:+.1%} vs the batch plane's {batch_rate:,.0f}); "
        f"submit-to-first-event latency "
        f"{measured['first_event'] * 1000:,.1f} ms",
    )
    assert measured["visits"] > 0
    assert measured["first_event"] < measured["elapsed"]
