"""Failure injection: malformed inputs must fail loudly, not corrupt state."""

import json

import pytest

from repro.attestation.allowlist import (
    AllowList,
    AllowListCorruptError,
    AllowListDatabase,
    parse_allowlist,
)
from repro.attestation.wellknown import (
    AttestationValidationError,
    validate_attestation_json,
)
from repro.crawler.archive import load_crawl, save_crawl
from repro.crawler.dataset import Dataset, VisitRecord
from repro.util.codec import FormatError
from repro.web.tranco import TrancoList


class TestDatasetCorruption:
    def test_truncated_jsonl_line(self, tmp_path, crawl):
        path = tmp_path / "d.jsonl"
        crawl.d_ba.to_jsonl(path)
        content = path.read_text()
        path.write_text(content[: len(content) - 40])  # cut mid-record
        with pytest.raises(json.JSONDecodeError):
            Dataset.from_jsonl("D_BA", path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"rank": 1, "domain": "a.com"}\n')
        with pytest.raises(FormatError, match="missing field") as caught:
            Dataset.from_jsonl("D_BA", path)
        assert caught.value.line == 1

    def test_garbage_call_record(self):
        record_json = json.dumps(
            {
                "rank": 1,
                "domain": "a.com",
                "final_domain": "a.com",
                "url": "https://www.a.com/",
                "final_url": "https://www.a.com/",
                "phase": "before-accept",
                "banner_present": False,
                "banner_language": None,
                "accept_clicked": False,
                "cmp": None,
                "third_parties": [],
                "calls": [{"not": "a call"}],
            }
        )
        with pytest.raises(FormatError, match="a call has missing field"):
            VisitRecord.from_json(record_json)


class TestArchiveCorruption:
    def test_partial_archive_detected(self, tmp_path, crawl):
        directory = save_crawl(crawl, tmp_path / "campaign")
        (directory / "attestation_survey.jsonl").unlink()
        with pytest.raises(FileNotFoundError):
            load_crawl(directory)

    def test_corrupted_report_json(self, tmp_path, crawl):
        directory = save_crawl(crawl, tmp_path / "campaign")
        (directory / "report.json").write_text("{broken")
        with pytest.raises(json.JSONDecodeError):
            load_crawl(directory)


class TestAllowlistCorruptionModes:
    @pytest.fixture
    def payload(self) -> str:
        return AllowList.of(["a.com", "b.net", "c.org"]).serialize()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: "",  # empty file
            lambda p: p.replace("PSAT", "TSAP"),  # flipped magic
            lambda p: p + "trailing.com\n",  # count mismatch
            lambda p: p.replace("a.com", "A com"),  # malformed entry
            lambda p: p.replace("sum=", "sum=dead"),  # broken checksum field
            lambda p: "\x00" + p,  # binary garbage prefix
        ],
    )
    def test_all_corruptions_detected(self, payload, mutate):
        with pytest.raises(AllowListCorruptError):
            parse_allowlist(mutate(payload))

    def test_corrupt_database_still_serves_decisions(self, payload):
        # The Chromium bug: corruption must not crash the browser — it
        # silently default-allows, which is exactly the paper's finding.
        database = AllowListDatabase()
        database.update("\x00garbage")
        decision = database.check_caller("anyone.example")
        assert decision.allowed


class TestAttestationCorruptionModes:
    @pytest.mark.parametrize(
        "payload",
        [
            "",  # empty body (404-ish)
            "<html>Not Found</html>",
            "null",
            '{"attestation_parser_version": "2", "attestations": "no"}',
            '{"attestation_parser_version": "2", "attestations": [{}]}',
            json.dumps(
                {
                    "attestation_parser_version": "2",
                    "attestations": [
                        {"attestation_group_1": {"platform_attestations": []}}
                    ],
                }
            ),
        ],
    )
    def test_invalid_payloads_rejected(self, payload):
        with pytest.raises(AttestationValidationError):
            validate_attestation_json("x.com", payload)


class TestTrancoCorruption:
    @pytest.mark.parametrize(
        "content",
        [
            "0,a.com\n",  # rank starts at 0
            "1,a.com\n1,b.com\n",  # duplicate rank
            "2,a.com\n",  # gap at the start
            "1;a.com\n",  # wrong separator leaves no domain
        ],
    )
    def test_malformed_csv_rejected(self, tmp_path, content):
        path = tmp_path / "list.csv"
        path.write_text(content)
        with pytest.raises(ValueError):
            TrancoList.from_csv(path)
