"""Tests for campaign archives and CSV exporters."""

import csv
import json

import pytest

from repro.analysis.export import export_study
from repro.crawler.archive import load_crawl, save_crawl
from repro.crawler.wellknown import AttestationProbe, AttestationSurvey


class TestArchive:
    @pytest.fixture(scope="class")
    def loaded(self, crawl, tmp_path_factory):
        directory = tmp_path_factory.mktemp("campaign")
        save_crawl(crawl, directory)
        return load_crawl(directory)

    def test_datasets_round_trip(self, crawl, loaded):
        assert loaded.d_ba.records == crawl.d_ba.records
        assert loaded.d_aa.records == crawl.d_aa.records

    def test_allowed_round_trip(self, crawl, loaded):
        assert loaded.allowed_domains == crawl.allowed_domains

    def test_report_round_trip(self, crawl, loaded):
        assert loaded.report == crawl.report

    def test_survey_round_trip(self, crawl, loaded):
        assert loaded.survey.attested_domains() == crawl.survey.attested_domains()
        assert loaded.survey.issue_dates() == crawl.survey.issue_dates()

    def test_load_builds_probes_only_for_nonabsent_lines(
        self, crawl, tmp_path, monkeypatch
    ):
        path = tmp_path / "attestation_survey.jsonl"
        crawl.survey.to_jsonl(path)
        # An absent line: no file, not valid, no issue date, no enrolment site.
        nonabsent = [
            row["domain"]
            for row in map(json.loads, path.read_text().splitlines())
            if row["served"] or row["valid"] or row["issued"] is not None
            or row["has_enrollment_site"]
        ]
        built = []
        init = AttestationProbe.__init__

        def counting_init(self, domain, *args, **kwargs):
            built.append(domain)
            init(self, domain, *args, **kwargs)

        monkeypatch.setattr(AttestationProbe, "__init__", counting_init)
        loaded = AttestationSurvey.from_jsonl(path)
        monkeypatch.undo()
        assert 0 < len(nonabsent) < len(crawl.survey) // 10
        assert sorted(built) == sorted(nonabsent)
        assert loaded == crawl.survey

    def test_analysis_identical_after_round_trip(self, crawl, loaded, study):
        from repro.analysis.classify import build_table1

        table = build_table1(
            loaded.d_ba, loaded.d_aa, loaded.allowed_domains, loaded.survey
        )
        assert table == study.table1

    def test_missing_files_detected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_crawl(tmp_path)

    def test_full_result_equality_after_round_trip(self, crawl, loaded):
        # The loaded archive is the same CrawlResult, not merely
        # field-by-field similar: every survey probe included.
        assert loaded.survey == crawl.survey
        reloaded_jsonl = "\n".join(r.to_json() for r in loaded.d_ba.records)
        original_jsonl = "\n".join(r.to_json() for r in crawl.d_ba.records)
        assert reloaded_jsonl == original_jsonl

    def test_save_is_atomic_and_canonical(self, crawl, tmp_path):
        first = save_crawl(crawl, tmp_path / "one")
        second = save_crawl(crawl, tmp_path / "two")
        # No write-to-temp artefacts survive a successful save.
        assert [p for p in first.rglob(".*tmp*")] == []
        # Saving the same campaign twice produces byte-identical files.
        for name in sorted(p.name for p in first.iterdir()):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_resaved_loaded_archive_is_byte_identical(self, crawl, tmp_path):
        original = save_crawl(crawl, tmp_path / "original")
        resaved = save_crawl(load_crawl(original), tmp_path / "resaved")
        for name in sorted(p.name for p in original.iterdir()):
            assert (original / name).read_bytes() == (resaved / name).read_bytes()


class TestExport:
    @pytest.fixture(scope="class")
    def exported(self, study, tmp_path_factory):
        directory = tmp_path_factory.mktemp("csv")
        return {path.name: path for path in export_study(study, directory)}

    def test_all_artefacts_written(self, exported):
        assert set(exported) == {
            "table1.csv",
            "figure2.csv",
            "figure3.csv",
            "figure5.csv",
            "figure6.csv",
            "figure7.csv",
            "anomalous.csv",
            "enrollment_timeline.csv",
        }

    def _rows(self, path):
        with path.open() as handle:
            return list(csv.DictReader(handle))

    def test_table1_rows(self, exported, study):
        rows = self._rows(exported["table1.csv"])
        assert len(rows) == 7
        allowed = next(r for r in rows if r["status"] == "Allowed")
        assert int(allowed["count"]) == study.table1.allowed_total

    def test_figure2_matches_study(self, exported, study):
        rows = self._rows(exported["figure2.csv"])
        assert [r["caller"] for r in rows] == [row.caller for row in study.fig2]
        assert all(
            int(r["called_on"]) <= int(r["present_on"]) for r in rows
        )

    def test_figure6_has_all_regions(self, exported):
        rows = self._rows(exported["figure6.csv"])
        regions = {r["region"] for r in rows}
        assert regions == {"com", "jp", "ru", "EU", "Other"}

    def test_figure7_probabilities(self, exported):
        rows = self._rows(exported["figure7.csv"])
        assert len(rows) == 15
        for row in rows:
            assert 0.0 <= float(row["p_cmp"]) <= 1.0

    def test_enrollment_monotone_months(self, exported):
        rows = self._rows(exported["enrollment_timeline.csv"])
        months = [r["month"] for r in rows]
        assert months == sorted(months)
