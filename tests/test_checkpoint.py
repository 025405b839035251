"""Unit tests for the checkpoint layer: format, store, policies.

These cover the durability plumbing in isolation — serialisation
round-trips, crash-safe write ordering, corruption detection, campaign
fingerprinting — while ``test_resumable_crawl.py`` exercises the full
kill-and-resume story end to end.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.browser.browser import Browser, state_digest_of
from repro.crawler.campaign import CrawlCampaign, CrawlReport
from repro.crawler.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointStore,
    MANIFEST_FILE,
    MissingRange,
    PartialManifest,
    RetryPolicy,
    ShardCheckpoint,
    campaign_fingerprint,
)
from repro.crawler.columnar import VisitBuffers
from repro.util.timeline import SimClock
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator


@pytest.fixture(scope="module")
def tiny_world():
    return WebGenerator(WorldConfig.small(200, seed=5)).generate()


def _browser_after_visits(world, count: int) -> Browser:
    """A browser with some real accumulated state."""
    clock = SimClock()
    browser = Browser(world, clock=clock, user_seed=0)
    for domain in world.tranco.domains[:count]:
        browser.visit(domain)
        clock.advance(2)
    return browser


def _checkpoint_for(browser: Browser, visits_done: int = 10) -> ShardCheckpoint:
    snapshot = browser.state_snapshot()
    return ShardCheckpoint(
        shard_index=1,
        visits_done=visits_done,
        targets=50,
        complete=False,
        clock_now=snapshot["clock_now"],
        browser_state=snapshot,
        state_digest=state_digest_of(snapshot),
        report=CrawlReport(targets=50, ok=visits_done, started_at=0),
        d_ba=VisitBuffers(),
        d_aa=VisitBuffers(),
    )


class TestBrowserStateSnapshot:
    def test_snapshot_restore_round_trip(self, tiny_world):
        original = _browser_after_visits(tiny_world, 25)
        snapshot = original.state_snapshot()

        clone = Browser(tiny_world, clock=SimClock(), user_seed=0)
        clone.restore_state(snapshot)

        assert clone.state_digest() == original.state_digest()
        assert clone.state_snapshot() == snapshot

    def test_restored_browser_continues_identically(self, tiny_world):
        targets = tiny_world.tranco.domains[:30]
        reference = _browser_after_visits(tiny_world, 20)
        resumed = Browser(tiny_world, clock=SimClock(), user_seed=0)
        resumed.restore_state(_browser_after_visits(tiny_world, 20).state_snapshot())

        for domain in targets[20:]:
            left = reference.visit(domain)
            right = resumed.visit(domain)
            assert left.topics_calls == right.topics_calls
            assert (left.ok, left.error) == (right.ok, right.error)
            reference.clock.advance(2)
            resumed.clock.advance(2)

        assert resumed.state_digest() == reference.state_digest()

    def test_snapshot_is_json_serialisable(self, tiny_world):
        snapshot = _browser_after_visits(tiny_world, 15).state_snapshot()
        round_tripped = json.loads(json.dumps(snapshot))
        assert state_digest_of(round_tripped) == state_digest_of(snapshot)

    def test_allowlist_mode_mismatch_rejected(self, tiny_world):
        corrupt = Browser(
            tiny_world, clock=SimClock(), user_seed=0, corrupt_allowlist=True
        )
        corrupt.visit(tiny_world.tranco.domains[0])
        healthy = Browser(
            tiny_world, clock=SimClock(), user_seed=0, corrupt_allowlist=False
        )
        with pytest.raises(ValueError, match="allow-list"):
            healthy.restore_state(corrupt.state_snapshot())


class TestShardCheckpointFormat:
    def test_lines_round_trip(self, tiny_world):
        checkpoint = _checkpoint_for(_browser_after_visits(tiny_world, 10))
        restored = ShardCheckpoint.from_lines(checkpoint.to_lines())
        assert restored == checkpoint

    def test_rows_round_trip_and_bad_row_names_its_line(self, tiny_world):
        rows = CrawlCampaign(tiny_world, limit=30, survey=False).run()
        checkpoint = dataclasses.replace(
            _checkpoint_for(_browser_after_visits(tiny_world, 10)),
            d_ba=rows.d_ba.buffers,
            d_aa=rows.d_aa.buffers,
        )
        lines = checkpoint.to_lines()
        assert ShardCheckpoint.from_lines(lines) == checkpoint
        record = json.loads(lines[5])
        del record["record"]["rank"]
        lines[5] = json.dumps(record)
        with pytest.raises(CheckpointError, match=":6: malformed.*'rank'"):
            ShardCheckpoint.from_lines(lines, source="ck.jsonl")

    def test_truncated_file_rejected(self, tiny_world):
        checkpoint = _checkpoint_for(_browser_after_visits(tiny_world, 10))
        with pytest.raises(CheckpointError, match="truncated"):
            ShardCheckpoint.from_lines(checkpoint.to_lines()[:2])

    def test_garbage_rejected(self):
        with pytest.raises(CheckpointError, match="malformed"):
            ShardCheckpoint.from_lines(["not json", "{}", "{}", "{}"])

    def test_newer_version_rejected(self, tiny_world):
        checkpoint = _checkpoint_for(_browser_after_visits(tiny_world, 10))
        lines = checkpoint.to_lines()
        header = json.loads(lines[0])
        header["checkpoint"]["version"] = CHECKPOINT_FORMAT_VERSION + 1
        lines[0] = json.dumps(header)
        with pytest.raises(CheckpointError, match="newer"):
            ShardCheckpoint.from_lines(lines)

    def test_tampered_state_rejected(self, tiny_world):
        checkpoint = _checkpoint_for(_browser_after_visits(tiny_world, 10))
        lines = checkpoint.to_lines()
        browser_line = json.loads(lines[2])
        browser_line["browser"]["rng_cursor"] += 1
        lines[2] = json.dumps(browser_line)
        with pytest.raises(CheckpointError, match="digest"):
            ShardCheckpoint.from_lines(lines)


class TestCheckpointStore:
    def test_write_then_latest(self, tiny_world, tmp_path):
        store = CheckpointStore(tmp_path)
        checkpoint = _checkpoint_for(_browser_after_visits(tiny_world, 10))
        path = store.write(checkpoint)
        assert path.exists()
        assert store.latest(1) == checkpoint
        assert store.latest(7) is None

    def test_no_temp_files_left_behind(self, tiny_world, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(_checkpoint_for(_browser_after_visits(tiny_world, 10)))
        leftovers = [p for p in tmp_path.rglob(".*tmp*")]
        assert leftovers == []

    def test_latest_prefers_newest(self, tiny_world, tmp_path):
        store = CheckpointStore(tmp_path)
        browser = _browser_after_visits(tiny_world, 10)
        store.write(_checkpoint_for(browser, visits_done=10))
        store.write(_checkpoint_for(browser, visits_done=20))
        assert store.latest(1).visits_done == 20

    def test_scan_fallback_without_manifest(self, tiny_world, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(_checkpoint_for(_browser_after_visits(tiny_world, 10)))
        # Simulate a crash that lost the manifest between the two writes.
        (tmp_path / MANIFEST_FILE).unlink()
        assert store.latest(1).visits_done == 10

    def test_corrupt_file_raises(self, tiny_world, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.write(_checkpoint_for(_browser_after_visits(tiny_world, 10)))
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(CheckpointError):
            store.latest(1)

    def test_fingerprint_binding(self, tmp_path):
        store = CheckpointStore(tmp_path)
        fingerprint = campaign_fingerprint(["a.com", "b.com"], 2, True)
        store.initialize(fingerprint)
        store.initialize(fingerprint)  # idempotent for the same campaign
        with pytest.raises(CheckpointError, match="different campaign"):
            store.initialize(campaign_fingerprint(["a.com", "c.com"], 2, True))
        with pytest.raises(CheckpointError, match="different campaign"):
            store.initialize(campaign_fingerprint(["a.com", "b.com"], 4, True))

    def test_shards_listing(self, tiny_world, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(_checkpoint_for(_browser_after_visits(tiny_world, 10)))
        assert store.shards() == [1]


class TestRetryPolicy:
    def test_exponential_with_cap(self):
        policy = RetryPolicy(base_backoff_seconds=30, backoff_cap_seconds=600)
        assert [policy.backoff_seconds(n) for n in (1, 2, 3, 4, 5, 6)] == [
            30,
            60,
            120,
            240,
            480,
            600,
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_seconds=0)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_seconds(0)


class TestPartialManifest:
    def test_round_trip(self, tmp_path):
        manifest = PartialManifest(
            missing=[
                MissingRange(2, 501, 750, "RuntimeError('boom')"),
                MissingRange(0, 51, 250, "RuntimeError('boom')"),
            ]
        )
        assert manifest.missing_targets == 250 + 200
        path = manifest.save(tmp_path / "partial.json")
        loaded = PartialManifest.load(path)
        assert sorted(loaded.missing, key=lambda m: m.from_rank) == sorted(
            manifest.missing, key=lambda m: m.from_rank
        )

    def test_range_count_inclusive(self):
        assert MissingRange(0, 10, 10, "x").count == 1
        assert MissingRange(0, 1, 100, "x").count == 100
