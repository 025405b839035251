"""The measurement instrument (paper §2.2–§2.3).

* :mod:`repro.crawler.privaccept` — consent-banner detection and accept-
  click simulation (the Priv-Accept methodology, five languages);
* :mod:`repro.crawler.dataset` — the D_BA / D_AA visit datasets with
  JSONL round-tripping;
* :mod:`repro.crawler.wellknown` — the attestation-file survey over every
  encountered party;
* :mod:`repro.crawler.campaign` — the full Before-Accept / After-Accept
  crawl over a Tranco-style ranking;
* :mod:`repro.crawler.crawl` — :class:`~repro.crawler.crawl.Crawl`, the
  one crawl driver: the campaign as merged shards on any backend, made
  durable (checkpoints, retries, resume) by a checkpoint directory;
* :mod:`repro.crawler.executor` — the one shard executor every backend
  runs;
* :mod:`repro.crawler.repeats` — repeated-visit probing used to detect
  time-alternating A/B tests (§3).
"""

from repro.crawler.campaign import CrawlCampaign, CrawlResult
from repro.crawler.dataset import CallRecord, Dataset, VisitRecord
from repro.crawler.privaccept import BannerDetection, PrivAccept
from repro.crawler.repeats import RepeatedVisitProbe
from repro.crawler.wellknown import AttestationSurvey, survey_attestations

__all__ = [
    "AttestationSurvey",
    "BannerDetection",
    "CallRecord",
    "CrawlCampaign",
    "CrawlResult",
    "Dataset",
    "PrivAccept",
    "RepeatedVisitProbe",
    "VisitRecord",
    "survey_attestations",
]
