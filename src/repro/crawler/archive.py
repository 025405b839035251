"""Campaign archives: save/load a full crawl to a directory.

The paper releases its crawl as a dataset; this module defines the same
artefact for our campaigns — the two JSONL datasets, the attestation
survey, the allow-list snapshot and the campaign report — so analyses can
run long after (and far away from) the crawl itself.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.crawler.campaign import CrawlReport, CrawlResult
from repro.crawler.dataset import Dataset
from repro.crawler.wellknown import AttestationSurvey
from repro.util.codec import located, numbered_lines, read_json_object
from repro.util.fsio import atomic_write_text

_D_BA_FILE = "d_ba.jsonl"
_D_AA_FILE = "d_aa.jsonl"
_SURVEY_FILE = "attestation_survey.jsonl"
_ALLOWED_FILE = "allowed_domains.txt"
_REPORT_FILE = "report.json"


def save_crawl(result: CrawlResult, directory: str | Path) -> Path:
    """Write every campaign artefact under ``directory``; returns it."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    result.d_ba.to_jsonl(target / _D_BA_FILE)
    result.d_aa.to_jsonl(target / _D_AA_FILE)
    result.survey.to_jsonl(target / _SURVEY_FILE)
    atomic_write_text(
        target / _ALLOWED_FILE, "\n".join(sorted(result.allowed_domains)) + "\n"
    )
    # sort_keys keeps the archive canonical: a resumed campaign rebuilds
    # failure_kinds in checkpoint order, not first-seen order, and the
    # two must still archive byte-identically.
    atomic_write_text(
        target / _REPORT_FILE,
        json.dumps(result.report.to_dict(), indent=2, sort_keys=True),
    )
    return target


def load_crawl(directory: str | Path) -> CrawlResult:
    """Load a campaign previously written by :func:`save_crawl`.

    Fails closed: a file that does not parse as its format raises
    :class:`~repro.util.codec.FormatError` naming the file and line.
    """
    source = Path(directory)
    missing = [
        name
        for name in (_D_BA_FILE, _D_AA_FILE, _SURVEY_FILE, _ALLOWED_FILE, _REPORT_FILE)
        if not (source / name).exists()
    ]
    if missing:
        raise FileNotFoundError(f"{source}: missing campaign files {missing}")

    allowed = frozenset(
        line.strip() for _, line in numbered_lines(source / _ALLOWED_FILE)
    )
    report_path = source / _REPORT_FILE
    payload = read_json_object(report_path)
    with located(report_path):
        report = CrawlReport.from_dict(payload)
    return CrawlResult(
        d_ba=Dataset.from_jsonl("D_BA", source / _D_BA_FILE),
        d_aa=Dataset.from_jsonl("D_AA", source / _D_AA_FILE),
        report=report,
        allowed_domains=allowed,
        survey=AttestationSurvey.from_jsonl(source / _SURVEY_FILE),
    )
