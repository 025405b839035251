"""Unit tests for dataset records, queries and JSONL persistence."""

import pytest

from repro.attestation.allowlist import GatingDecision
from repro.browser.topics.manager import TopicsApiCall
from repro.browser.topics.types import ApiCallType
from repro.crawler.dataset import (
    AmbiguousDomainError,
    CallRecord,
    Dataset,
    PHASE_AFTER,
    PHASE_BEFORE,
    VisitRecord,
)


def make_call(caller="criteo.com", site="news.com", decision="allowed-enrolled"):
    return CallRecord(
        caller=caller,
        caller_host=f"bid.{caller}",
        site=site,
        call_type="fetch",
        at=100,
        decision=decision,
        topics_returned=0,
    )


def make_record(domain="news.com", calls=(), third_parties=("criteo.com",), **kw):
    defaults = dict(
        rank=1,
        domain=domain,
        final_domain=domain,
        url=f"https://www.{domain}/",
        final_url=f"https://www.{domain}/",
        phase=PHASE_BEFORE,
        banner_present=True,
        banner_language="en",
        accept_clicked=False,
        cmp="OneTrust",
        third_parties=tuple(third_parties),
        calls=tuple(calls),
    )
    defaults.update(kw)
    return VisitRecord(**defaults)


class TestCallRecord:
    def test_from_api_call(self):
        api_call = TopicsApiCall(
            caller="criteo.com",
            caller_host="bid.criteo.com",
            site="news.com",
            call_type=ApiCallType.FETCH,
            at=42,
            decision=GatingDecision.ALLOWED_ENROLLED,
            topics_returned=2,
        )
        record = CallRecord.from_api_call(api_call)
        assert record.caller == "criteo.com"
        assert record.call_type == "fetch"
        assert record.allowed
        assert record.api_call_type is ApiCallType.FETCH

    def test_blocked_decision(self):
        record = make_call(decision="blocked-not-enrolled")
        assert not record.allowed

    def test_corrupt_decision_allowed(self):
        record = make_call(decision="allowed-database-corrupt")
        assert record.allowed


class TestVisitRecord:
    def test_redirected(self):
        record = make_record(final_domain="other.com")
        assert record.redirected
        assert not make_record().redirected

    def test_has_topics_call(self):
        assert make_record(calls=[make_call()]).has_topics_call
        assert not make_record().has_topics_call

    def test_json_round_trip(self):
        record = make_record(calls=[make_call()], phase=PHASE_AFTER)
        assert VisitRecord.from_json(record.to_json()) == record

    def test_json_round_trip_none_fields(self):
        record = make_record(banner_language=None, cmp=None)
        assert VisitRecord.from_json(record.to_json()) == record


class TestDataset:
    @pytest.fixture
    def dataset(self) -> Dataset:
        ds = Dataset("D_BA")
        ds.add(make_record("a.com", calls=[make_call("criteo.com", "a.com")]))
        ds.add(
            make_record(
                "b.com",
                calls=[
                    make_call("criteo.com", "b.com"),
                    make_call("taboola.com", "b.com"),
                ],
                third_parties=("criteo.com", "taboola.com"),
            )
        )
        ds.add(make_record("c.com", third_parties=("gtm.com",)))
        return ds

    def test_len_and_iter(self, dataset):
        assert len(dataset) == 3
        assert [r.domain for r in dataset] == ["a.com", "b.com", "c.com"]

    def test_unique_third_parties(self, dataset):
        assert dataset.unique_third_parties() == {
            "criteo.com",
            "taboola.com",
            "gtm.com",
        }

    def test_calling_parties(self, dataset):
        assert dataset.calling_parties() == {"criteo.com", "taboola.com"}

    def test_sites_with_calls(self, dataset):
        assert dataset.sites_with_calls() == {"a.com", "b.com"}

    def test_presence_of(self, dataset):
        assert dataset.presence_of("criteo.com") == {"a.com", "b.com"}
        assert dataset.presence_of("nobody.com") == set()

    def test_callers_by_site_count(self, dataset):
        counts = dataset.callers_by_site_count()
        assert counts == {"criteo.com": 2, "taboola.com": 1}

    def test_by_domain_index(self, dataset):
        assert dataset.by_domain("b.com").domain == "b.com"
        assert dataset.by_domain("zzz.com") is None

    def test_by_domain_index_refreshes_after_add(self, dataset):
        assert dataset.by_domain("new.com") is None
        dataset.add(make_record("new.com"))
        assert dataset.by_domain("new.com") is not None

    def test_by_domain_ambiguous_raises(self, dataset):
        """Regression: repeat-visit campaigns put several records under
        one domain; silently returning the first made analyses quietly
        wrong.  The single-record lookup now refuses to guess."""
        dataset.add(make_record("b.com", phase=PHASE_AFTER))
        with pytest.raises(AmbiguousDomainError, match="b.com"):
            dataset.by_domain("b.com")
        # Unambiguous domains keep working through the same index.
        assert dataset.by_domain("a.com").domain == "a.com"

    def test_all_by_domain_returns_every_record_in_order(self, dataset):
        repeat = make_record("b.com", phase=PHASE_AFTER)
        dataset.add(repeat)
        records = dataset.all_by_domain("b.com")
        assert len(records) == 2
        assert [r.phase for r in records] == [PHASE_BEFORE, PHASE_AFTER]
        assert dataset.all_by_domain("zzz.com") == ()

    def test_iter_calls(self, dataset):
        pairs = list(dataset.iter_calls())
        assert len(pairs) == 3
        assert all(call.site == record.domain for record, call in pairs)

    def test_iter_calls_by_callers_builds_only_their_rows(self, tmp_path):
        dataset = Dataset("D_BA")
        dataset.add(make_record("a.com", calls=[make_call("criteo.com", "a.com")]))
        dataset.add(make_record("b.com", calls=[make_call("taboola.com", "b.com")]))
        dataset.to_jsonl(tmp_path / "d_ba.jsonl")
        loaded = Dataset.from_jsonl("D_BA", tmp_path / "d_ba.jsonl")
        pairs = list(loaded.iter_calls({"taboola.com"}))
        assert [(r.domain, c.caller) for r, c in pairs] == [("b.com", "taboola.com")]
        assert list(loaded._memo) == [1]

    def test_column_reads_match_records(self, dataset):
        records = dataset.records
        for name in ("rank", "domain", "phase", "cmp", "banner_language"):
            assert list(dataset.column(name)) == [getattr(r, name) for r in records]
        assert [bool(flag) for flag in dataset.column("accept_clicked")] == [
            r.accept_clicked for r in records
        ]
        assert [tuple(tps) for tps in dataset.third_parties_by_row()] == [
            r.third_parties for r in records
        ]
        assert [(i, list(c)) for i, c in dataset.calls_by_row("caller")] == [
            (i, [call.caller for call in r.calls])
            for i, r in enumerate(records)
            if r.calls
        ]
        assert list(dataset.call_values("domain", "caller", "at")) == [
            (record.domain, call.caller, call.at)
            for record, call in dataset.iter_calls()
        ]
        assert dataset.call_count() == 3
        with pytest.raises(KeyError):
            dataset.column("calls")
        with pytest.raises(KeyError):
            list(dataset.call_values("rank"))

    def test_jsonl_round_trip(self, dataset, tmp_path):
        path = tmp_path / "d_ba.jsonl"
        dataset.to_jsonl(path)
        loaded = Dataset.from_jsonl("D_BA", path)
        assert loaded.records == dataset.records
