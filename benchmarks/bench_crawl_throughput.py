"""System benchmarks: crawl throughput and Topics API call latency.

Not a paper artefact — these measure the simulator itself, so regressions
in the substrate are visible independent of the analyses.
"""

import time

from conftest import bench_config, show

from repro.browser.browser import Browser
from repro.browser.context import root_context_for
from repro.browser.topics.api import TopicsApi
from repro.crawler.campaign import CrawlCampaign
from repro.crawler.crawl import Crawl
from repro.obs import MetricsRegistry, SpanRecorder, Telemetry, Tracer
from repro.util.urls import https
from repro.web.generator import WebGenerator


def test_crawl_throughput(benchmark, world):
    """Steady-state crawl throughput (visits/sec) over the shared world.

    ``warmup_rounds=1`` runs one untimed campaign first, so the timed
    round replays visit plans the warm-up already compiled: the gated
    figure is a *warm* figure.  A cold crawl — every CLI run, where each
    of ~50k domains is visited once per phase — compiles nearly every
    visit's plan on the spot; the repository benchmark's ``paper-study``
    workload measures that cold path.
    """
    campaign = CrawlCampaign(world, corrupt_allowlist=True, limit=2_000)
    result = benchmark.pedantic(
        campaign.run, rounds=1, iterations=1, warmup_rounds=1
    )
    visits = result.report.ok + result.report.failed + result.report.accepted
    elapsed = benchmark.stats.stats.total
    benchmark.extra_info["visits"] = visits
    benchmark.extra_info["visits_per_second"] = visits / elapsed if elapsed else 0.0
    show(
        "Crawl throughput",
        f"{visits} visits over the top-2,000 ranks at "
        f"{visits / elapsed if elapsed else 0.0:,.0f} visits/sec "
        f"(paper: 50k sites in about one day of wall-clock crawling)",
    )
    assert result.report.ok > 0


def test_crawl_throughput_cold(benchmark):
    """A cold 4-shard crawl against a warm replay of the same world.

    A fresh world has no compiled visit plans, so the timed crawl pays
    every plan compile, as each CLI run and each ``paper-study``
    operation does; the replay that follows reuses them all.  The
    ``cold_warm_ratio`` in ``extra_info`` is how much plan compilation
    costs on top of replay; it is reported, not gated.
    """
    world = WebGenerator(bench_config(seed=3)).generate()
    crawl = Crawl(world, shard_count=4, backend="serial")
    result = benchmark.pedantic(crawl.run, rounds=1, iterations=1).result
    cold_seconds = benchmark.stats.stats.total

    warm_started = time.perf_counter()
    warm = crawl.run().result
    warm_seconds = time.perf_counter() - warm_started

    ratio = cold_seconds / warm_seconds if warm_seconds else 0.0
    visits = result.report.ok + result.report.failed + result.report.accepted
    benchmark.extra_info["visits"] = visits
    benchmark.extra_info["cold_seconds"] = cold_seconds
    benchmark.extra_info["warm_seconds"] = warm_seconds
    benchmark.extra_info["cold_warm_ratio"] = ratio
    show(
        "Crawl throughput, cold vs warm plans",
        f"{visits} visits over {len(world.websites):,} sites: cold "
        f"{cold_seconds:.2f}s, warm replay {warm_seconds:.2f}s "
        f"(cold/warm {ratio:.2f}x)",
    )
    assert result.report.ok > 0
    assert warm.d_ba.records == result.d_ba.records


def test_crawl_throughput_instrumented(benchmark, world):
    """Same crawl with full tracing + metrics on, vs. the no-op default.

    Both runs replay the same compiled visit plans — telemetry only
    observes a visit, it never changes its path — so the printed overhead
    is the cost of emitting events and metrics.  The untraced baseline
    runs first and compiles any plan the world lacks; after
    ``test_crawl_throughput`` (file order) both runs are warm.  The
    overhead is reported, not gated.
    """
    baseline_started = time.perf_counter()
    CrawlCampaign(world, corrupt_allowlist=True, limit=2_000).run()
    baseline_seconds = time.perf_counter() - baseline_started

    tracer, metrics = Tracer(), MetricsRegistry()
    campaign = CrawlCampaign(
        world,
        corrupt_allowlist=True,
        limit=2_000,
        telemetry=Telemetry(tracer=tracer, metrics=metrics),
    )
    instrumented_started = time.perf_counter()
    result = benchmark.pedantic(campaign.run, rounds=1, iterations=1)
    instrumented_seconds = time.perf_counter() - instrumented_started

    overhead = (
        instrumented_seconds / baseline_seconds - 1 if baseline_seconds else 0.0
    )
    snapshot = metrics.snapshot()
    show(
        "Crawl throughput, instrumented",
        f"uninstrumented {baseline_seconds:.2f}s vs instrumented "
        f"{instrumented_seconds:.2f}s ({overhead:+.1%} with tracing ON; "
        f"tracing OFF is the no-op default measured above)\n"
        f"{tracer.emitted:,} events emitted ({tracer.dropped:,} dropped), "
        f"{int(snapshot.counter_total('topics_calls_total')):,} topics calls, "
        f"{int(snapshot.counter_total('attestation_probes_total')):,} "
        f"attestation probes",
    )
    assert result.report.ok > 0
    assert tracer.emitted > 0
    assert snapshot.counter_total("browser_visits_total") > 0


def test_crawl_throughput_with_spans(benchmark, world):
    """Span recording overhead: the no-op recorder vs a live one.

    With the default ``Telemetry.OFF`` every span site costs one ``if``,
    so throughput must sit within noise of the uninstrumented crawl;
    this pins the enabled-mode overhead next to that baseline.
    """
    baseline_started = time.perf_counter()
    CrawlCampaign(world, corrupt_allowlist=True, limit=2_000).run()
    baseline_seconds = time.perf_counter() - baseline_started

    spans = SpanRecorder()
    campaign = CrawlCampaign(
        world, corrupt_allowlist=True, limit=2_000, telemetry=Telemetry(spans=spans)
    )
    recorded_started = time.perf_counter()
    result = benchmark.pedantic(campaign.run, rounds=1, iterations=1)
    recorded_seconds = time.perf_counter() - recorded_started

    overhead = (
        recorded_seconds / baseline_seconds - 1 if baseline_seconds else 0.0
    )
    show(
        "Crawl throughput, span recording",
        f"spans off {baseline_seconds:.2f}s vs recording "
        f"{recorded_seconds:.2f}s ({overhead:+.1%} with spans ON; "
        f"spans OFF is the no-op default)\n"
        f"{spans.recorded:,} spans recorded ({spans.dropped:,} dropped)",
    )
    assert result.report.ok > 0
    assert spans.recorded > 0
    assert spans.open_depth == 0


def test_world_generation(benchmark):
    config = bench_config(seed=2)
    config.site_count = min(config.site_count, 10_000)
    world = benchmark.pedantic(
        WebGenerator(config).generate, rounds=1, iterations=1
    )
    assert len(world.websites) == config.site_count


def test_browsing_topics_call_latency(benchmark, world):
    browser = Browser(world, corrupt_allowlist=True)
    api = TopicsApi(browser.topics_manager)
    context = root_context_for(https("www.bench-page.com"))
    frame = context.open_iframe(https("frame.criteo.com", "/topics.html"))

    def one_call():
        return api.document_browsing_topics(frame, browser.clock.now())

    benchmark(one_call)
    assert browser.topics_manager.call_count > 0
