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
from repro.obs import MetricsRegistry, SpanRecorder, Tracer
from repro.obs.metrics import render_exposition
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator

GOLDEN = {
    ScriptOriginMode.EMBEDDER: {
        "trace": "4985f9ee1751f43c895b64a4c97beb341f4ac34d44dc48c13425642e693e8a88",
        "spans": "a47c179f5c68ebe1781a887fd592120bca105a620f86e9ceca52672e6c687880",
        "metrics": "d2c8c50095eb803abf546fee99f25fa96f45750afc048cd95e93f2eb5a6ffb13",
    },
    ScriptOriginMode.SCRIPT_URL: {
        "trace": "7117d573b2cb8176d423e4985265c74e3360731a6307ca7480bc09e9aa65792c",
        "spans": "a521ad2a23edc909f52c65f732a9c6dc480c33a1c22ad523ecbd33fa2fce7764",
        "metrics": "defcb4fb3903bc6d6c147cc7d07ca5238b516ee0506c9861e4631e3fda220226",
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
    tracer, metrics, spans = Tracer(), MetricsRegistry(), SpanRecorder()
    CrawlCampaign(
        world,
        corrupt_allowlist=corrupt,
        script_origin_mode=mode,
        tracer=tracer,
        metrics=metrics,
        spans=spans,
    ).run()
    tracer.to_jsonl(tmp_path / "trace.jsonl")
    spans.to_jsonl(tmp_path / "spans.jsonl")
    digests = {
        "trace": _sha256((tmp_path / "trace.jsonl").read_bytes()),
        "spans": _sha256((tmp_path / "spans.jsonl").read_bytes()),
        "metrics": _sha256(render_exposition(metrics.snapshot()).encode()),
    }
    assert tracer.dropped == 0 and spans.dropped == 0
    assert digests == GOLDEN[mode]
