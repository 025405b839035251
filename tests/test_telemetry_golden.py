"""Golden telemetry pin: an instrumented crawl's trace, spans and metrics.

Two instrumented campaigns over one small world — the paper's corrupted
allow-list in the default EMBEDDER attribution mode, and the
``SCRIPT_URL`` counterfactual — must export the exact same trace JSONL,
span JSONL and Prometheus exposition bytes.  Any change to what a visit
emits (event fields, event order, metric labels, stage-span boundaries)
shows up here as a digest mismatch.
"""

import hashlib

import pytest

from repro.browser.context import ScriptOriginMode
from repro.crawler.campaign import CrawlCampaign
from repro.crawler.crawl import Crawl
from repro.obs import MetricsRegistry, Recorder, Telemetry
from repro.obs.metrics import render_exposition
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator

GOLDEN = {
    ScriptOriginMode.EMBEDDER: {
        "trace": "4985f9ee1751f43c895b64a4c97beb341f4ac34d44dc48c13425642e693e8a88",
        "spans": "a47c179f5c68ebe1781a887fd592120bca105a620f86e9ceca52672e6c687880",
        "metrics": "d2c8c50095eb803abf546fee99f25fa96f45750afc048cd95e93f2eb5a6ffb13",
        "chrome": "469f36749ac459ea46e36c59f29a5c21cc442f515863795edea599074348491e",
    },
    ScriptOriginMode.SCRIPT_URL: {
        "trace": "7117d573b2cb8176d423e4985265c74e3360731a6307ca7480bc09e9aa65792c",
        "spans": "a521ad2a23edc909f52c65f732a9c6dc480c33a1c22ad523ecbd33fa2fce7764",
        "metrics": "defcb4fb3903bc6d6c147cc7d07ca5238b516ee0506c9861e4631e3fda220226",
        "chrome": "c7b93af5be4c9e6de9fb1c017066c57782db620a12cfece0ae1b6d4938c724a1",
    },
}


@pytest.fixture(scope="module")
def world():
    return WebGenerator(WorldConfig.small(150, seed=23)).generate()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "mode, corrupt",
    [(ScriptOriginMode.EMBEDDER, True), (ScriptOriginMode.SCRIPT_URL, False)],
    ids=["embedder-corrupt", "script-url"],
)
def test_instrumented_crawl_telemetry_is_pinned(world, tmp_path, mode, corrupt):
    recorder, metrics = Recorder(), MetricsRegistry()
    CrawlCampaign(
        world,
        corrupt_allowlist=corrupt,
        script_origin_mode=mode,
        telemetry=Telemetry(recorder, metrics),
    ).run()
    recorder.write(
        trace=tmp_path / "trace.jsonl",
        spans=tmp_path / "spans.jsonl",
        chrome=tmp_path / "chrome.json",
    )
    digests = {
        "trace": _sha256((tmp_path / "trace.jsonl").read_bytes()),
        "spans": _sha256((tmp_path / "spans.jsonl").read_bytes()),
        "metrics": _sha256(render_exposition(metrics.snapshot()).encode()),
        "chrome": _sha256((tmp_path / "chrome.json").read_bytes()),
    }
    assert recorder.trace_meta().dropped == 0 and recorder.span_meta().dropped == 0
    assert digests == GOLDEN[mode]


#: A 3-shard :class:`Crawl` with a checkpoint store: the merged trace,
#: span tree and metrics after the shard fold.  One digest set for every
#: backend — process shards ship their telemetry back as plain data and
#: must fold to the same bytes as in-process ones.
SHARDED_GOLDEN = {
    "trace": "5bbe614d18a0c3e80562b8e9a952ad549ccde82e6dfaf90038587ef9711f086a",
    "spans": "083e00d3981642da5941fd5773f87a470d5233ccb8e4bdcb7d5dfb5fe9e02a2e",
    "metrics": "f1d5e7520bc57d2b8fa179a79fec478d1de0fb969c22cc39fe8895676c65a46c",
    "chrome": "b47e205bb20995ee7176b4808ca94c9d58fc8354b39487d389f4efd56120b185",
}


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_sharded_crawl_telemetry_is_pinned(world, tmp_path, backend):
    recorder, metrics = Recorder(), MetricsRegistry()
    Crawl(
        world,
        checkpoint_dir=tmp_path / "ckpt",
        shard_count=3,
        checkpoint_every=20,
        backend=backend,
        telemetry=Telemetry(recorder, metrics),
    ).run()
    recorder.write(
        trace=tmp_path / "trace.jsonl",
        spans=tmp_path / "spans.jsonl",
        chrome=tmp_path / "chrome.json",
    )
    digests = {
        "trace": _sha256((tmp_path / "trace.jsonl").read_bytes()),
        "spans": _sha256((tmp_path / "spans.jsonl").read_bytes()),
        "metrics": _sha256(render_exposition(metrics.snapshot()).encode()),
        "chrome": _sha256((tmp_path / "chrome.json").read_bytes()),
    }
    assert recorder.trace_meta().dropped == 0 and recorder.span_meta().dropped == 0
    assert digests == SHARDED_GOLDEN


#: The 3-shard crawl again, with ring capacities below its 1,058 events
#: and 1,142 spans: each file keeps its newest entries and says in its
#: meta line how many it dropped, and the per-kind counts still cover
#: every event.
OVERFLOW_GOLDEN = {
    "trace": "9c52d2ba5fb43f0c2e2e2a7bdb68cfca4c6c6b2d73807b8c303a2331bf58a90c",
    "spans": "b606aaba0dafd489baa35ea0d2566d5dae6726822ed1e37160ab3b434a5b75f0",
    "counts": {
        "attestation-fetch": 412,
        "banner-interaction": 136,
        "checkpoint-written": 9,
        "failure-injected": 14,
        "shard-merged": 3,
        "shard-started": 3,
        "topics-call": 91,
        "visit-finished": 195,
        "visit-started": 195,
    },
}


def test_overflowing_rings_are_pinned(world, tmp_path):
    recorder = Recorder(trace_capacity=600, span_capacity=900)
    Crawl(
        world,
        checkpoint_dir=tmp_path / "ckpt",
        shard_count=3,
        checkpoint_every=20,
        backend="serial",
        telemetry=Telemetry(recorder, MetricsRegistry()),
    ).run()
    recorder.write(trace=tmp_path / "trace.jsonl", spans=tmp_path / "spans.jsonl")
    pinned = {
        "trace": _sha256((tmp_path / "trace.jsonl").read_bytes()),
        "spans": _sha256((tmp_path / "spans.jsonl").read_bytes()),
        "counts": recorder.counts_by_kind(),
    }
    assert recorder.trace_meta().dropped == 458
    assert recorder.span_meta().dropped == 242
    assert pinned == OVERFLOW_GOLDEN
