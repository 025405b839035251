"""System benchmark — checkpointing overhead over a plain sharded crawl.

Quantifies the durability tax: a campaign writing periodic per-shard
checkpoints must cost only a small constant factor over one that keeps
everything in memory, and resuming a finished campaign from its final
checkpoints must be far cheaper than re-crawling.
"""

from conftest import BENCH_SITES, show, world  # noqa: F401 - pytest fixture

from repro.crawler.crawl import Crawl

SHARDS = 8

#: Checkpoint cadence scaled so every bench size writes several per shard.
CHECKPOINT_EVERY = max(50, BENCH_SITES // (SHARDS * 8))


def test_checkpointed_crawl(benchmark, world, tmp_path):  # noqa: F811
    baseline = Crawl(world, shard_count=SHARDS).run().result
    outcome = benchmark.pedantic(
        Crawl(
            world,
            tmp_path / "checkpoints",
            shard_count=SHARDS,
            checkpoint_every=CHECKPOINT_EVERY,
        ).run,
        rounds=1,
        iterations=1,
    )
    files = sorted((tmp_path / "checkpoints").rglob("checkpoint-*.jsonl"))
    total_bytes = sum(path.stat().st_size for path in files)
    show(
        f"Checkpointed campaign ({SHARDS} shards, every {CHECKPOINT_EVERY:,} visits)",
        f"checkpoints written: {len(files)} files, {total_bytes / 1e6:.1f} MB\n"
        f"plain:        ok={baseline.report.ok:,} accepted={baseline.report.accepted:,}\n"
        f"checkpointed: ok={outcome.result.report.ok:,} "
        f"accepted={outcome.result.report.accepted:,}",
    )
    assert outcome.result.report.ok == baseline.report.ok
    assert outcome.result.report.accepted == baseline.report.accepted
    assert files


def test_resume_from_complete_checkpoints(benchmark, world, tmp_path):  # noqa: F811
    """Re-running a finished campaign should reload, not re-crawl."""
    directory = tmp_path / "checkpoints"
    first = Crawl(
        world,
        directory,
        shard_count=SHARDS,
        checkpoint_every=CHECKPOINT_EVERY,
    ).run()
    resumed = benchmark.pedantic(
        Crawl(
            world,
            directory,
            shard_count=SHARDS,
            checkpoint_every=CHECKPOINT_EVERY,
            resume=True,
        ).run,
        rounds=1,
        iterations=1,
    )
    show(
        "Resume of a complete campaign (loads final checkpoints)",
        f"resumed shards: {sorted(resumed.resumed_shards)}\n"
        f"records: first={len(first.result.d_ba.records):,} "
        f"resumed={len(resumed.result.d_ba.records):,}",
    )
    assert sorted(resumed.resumed_shards) == list(range(SHARDS))
    assert resumed.result.report.ok == first.result.report.ok
    assert len(resumed.result.d_ba.records) == len(first.result.d_ba.records)
