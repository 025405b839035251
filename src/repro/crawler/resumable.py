"""``ResumableCrawl``: the former checkpointing driver's name for
:class:`repro.crawler.crawl.Crawl`.

Its only reason to exist is ``perfbench/workloads.py``, which imports
it; new code calls :class:`~repro.crawler.crawl.Crawl` directly, and
this module goes once perfbench does too.
"""

from repro.crawler.crawl import Crawl as ResumableCrawl

__all__ = ["ResumableCrawl"]
