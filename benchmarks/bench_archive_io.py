"""System benchmark — archive write and read, straight from and into columns.

A ``save_crawl`` + ``load_crawl`` round trip of the bench world's crawl:
the two datasets, the attestation survey, the allow-list snapshot and
the report.  The reloaded crawl must equal the original, and the run
records archive rows per second (dataset rows plus survey probes, each
written once and read once) into ``extra_info``, with the survey's own
write and read times and their shares of the save and the load.
Reported, not gated.
"""

import time

from conftest import crawl, show, world  # noqa: F401 - pytest fixtures

from repro.crawler.archive import load_crawl, save_crawl
from repro.crawler.wellknown import AttestationSurvey


def test_archive_round_trip(benchmark, crawl, tmp_path):  # noqa: F811
    timings = {}

    def round_trip():
        start = time.perf_counter()
        directory = save_crawl(crawl, tmp_path / "archive")
        saved = time.perf_counter()
        loaded = load_crawl(directory)
        timings["save"] = saved - start
        timings["load"] = time.perf_counter() - saved
        return loaded

    loaded = benchmark.pedantic(round_trip, rounds=1, iterations=1)
    # The survey file alone, written and read once more outside the round
    # trip: its share of the save and of the load.
    survey_path = tmp_path / "attestation_survey.jsonl"
    start = time.perf_counter()
    crawl.survey.to_jsonl(survey_path)
    written = time.perf_counter()
    AttestationSurvey.from_jsonl(survey_path)
    timings["survey_save"] = written - start
    timings["survey_load"] = time.perf_counter() - written

    rows = len(crawl.d_ba) + len(crawl.d_aa) + len(crawl.survey)
    elapsed = timings["save"] + timings["load"]
    info = benchmark.extra_info
    info["archive_rows"] = rows
    info["archive_rows_per_second"] = rows / elapsed if elapsed else 0.0
    for step in ("save", "load"):
        info[f"survey_{step}_s"] = timings[f"survey_{step}"]
        info[f"survey_{step}_share"] = (
            timings[f"survey_{step}"] / timings[step] if timings[step] else 0.0
        )
    show(
        "Archive round trip",
        f"rows: {rows:,} (D_BA {len(crawl.d_ba):,}, D_AA {len(crawl.d_aa):,}, "
        f"survey {len(crawl.survey):,})\n"
        f"save_crawl: {timings['save']:.3f} s   load_crawl: {timings['load']:.3f} s\n"
        f"survey write: {timings['survey_save']:.3f} s "
        f"({info['survey_save_share']:.0%} of the save)   "
        f"survey read: {timings['survey_load']:.3f} s "
        f"({info['survey_load_share']:.0%} of the load)",
    )
    assert loaded.report == crawl.report
    assert loaded.allowed_domains == crawl.allowed_domains
    assert loaded.d_ba.buffers == crawl.d_ba.buffers
    assert loaded.d_aa.buffers == crawl.d_aa.buffers
    assert loaded.survey == crawl.survey
