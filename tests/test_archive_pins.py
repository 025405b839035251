"""Byte pins for the two row streams no archive pin covers.

The archive itself is pinned elsewhere (backend, resume and service
pins, and the benchmark's archive digests).  Two other writers encode
visit rows too: the checkpoint files a checkpointed :class:`Crawl`
leaves behind, and the service's ``shard-result`` event body.  Both are
pinned here byte for byte, so a change to the row encoder, the
checkpoint layout or the rank rebasing shows up as a digest mismatch.
"""

import hashlib

import pytest

from repro.crawler.crawl import Crawl
from repro.service.runner import shard_result_payload
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator

#: ``checkpoint-*.jsonl`` path (relative to the store) -> sha256.
CHECKPOINT_GOLDEN = {
    "shard-00/checkpoint-00000050.jsonl": "64b4d7d32c7812b6b9276305b1b6384228727cba0711fa61010a6c4840bc5504",
    "shard-00/checkpoint-00000100.jsonl": "3d03253193bf86c8b403cccbb294700c0a35baf3d303ec7ad7b39200ac111440",
    "shard-00/checkpoint-00000134.jsonl": "dccbf1bdc469c1de2d5c56fe49c99842125f78fd7db8db510609554569c1155f",
    "shard-01/checkpoint-00000050.jsonl": "66a3925a8eff538e384f96eab134bad8e6cf15fc2832fec3501608bf0f3e3098",
    "shard-01/checkpoint-00000100.jsonl": "59f890e0c899f2921cff621fb85a6858b5d39d7165117d5bba852f8f9e9dcb07",
    "shard-01/checkpoint-00000133.jsonl": "f1f4c94ec0690c4f582f6571f89009887531315fd464a2e9569b62fc0ca7f2ce",
    "shard-02/checkpoint-00000050.jsonl": "c49dd2572e9a73660471f9ba9bb89d10674428e469b515a57b173f5e26e9deaf",
    "shard-02/checkpoint-00000100.jsonl": "fc77a8341aae76c334c54665e4f31ea63b6e59d340b4a1d7aeea52cee9d43318",
    "shard-02/checkpoint-00000133.jsonl": "323fa93579bd2d0378088095f9eda9493492cce76e0225cfe804d344008da970",
}

#: Shard index -> sha256 of the newline-joined ``d_ba`` lines.
SHARD_RESULT_GOLDEN = {
    0: "1f7eedb91d4b53afdb50e6fc806a64cd97c3d4db1bcdf9d7d47f70038e57d5fe",
    1: "b355a487e98e8f6dc465d0d6831be377152b23433ecafea51e2e766f31fa2b46",
    2: "f62608a06ce22a461697231d6e41225226b8f4adff3ff20f70adfbca3b133881",
}


@pytest.fixture(scope="module")
def world():
    return WebGenerator(WorldConfig.small(400, seed=5)).generate()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_checkpoint_files_are_pinned(world, tmp_path):
    store = tmp_path / "checkpoints"
    Crawl(world, store, shard_count=3, checkpoint_every=50).run()
    digests = {
        path.relative_to(store).as_posix(): _sha256(path.read_bytes())
        for path in sorted(store.glob("shard-*/checkpoint-*.jsonl"))
    }
    assert digests == CHECKPOINT_GOLDEN


def test_shard_result_rows_are_pinned(world):
    payloads = {}

    def listener(plan, result):
        payloads[plan.shard_index] = shard_result_payload(plan, result)

    Crawl(world, shard_count=3, shard_listener=listener).run()
    digests = {
        shard: _sha256("\n".join(payload["d_ba"]).encode())
        for shard, payload in sorted(payloads.items())
    }
    assert digests == SHARD_RESULT_GOLDEN
