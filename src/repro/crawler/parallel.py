"""``ShardedCrawl``: the former plain sharded driver, now a shim over
:class:`repro.crawler.crawl.Crawl`.

Its only reason to exist is ``perfbench/workloads.py``, which imports
it; new code calls :class:`~repro.crawler.crawl.Crawl` directly, and
this module goes once perfbench does too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.crawler.campaign import CrawlResult
from repro.crawler.crawl import Crawl

if TYPE_CHECKING:
    from repro.web.generator import SyntheticWeb


class ShardedCrawl(Crawl):
    """A store-less :class:`Crawl` whose ``run()`` returns the result only."""

    def __init__(self, world: "SyntheticWeb", shard_count: int = 4, **options) -> None:
        super().__init__(world, shard_count=shard_count, **options)

    def run(self) -> CrawlResult:  # type: ignore[override]
        return super().run().result
