"""Unit tests for the enrolment registry and its timeline."""

import datetime

import pytest

from repro.attestation.registry import (
    Enrollment,
    EnrollmentRegistry,
    FIRST_ENROLLMENT_AT,
    MIGRATION_AT,
)
from repro.attestation.wellknown import (
    AttestationValidationError,
    validate_attestation_json,
)
from repro.util.rng import RngStream
from repro.util.timeline import date_of, timestamp_from_date


@pytest.fixture
def registry() -> EnrollmentRegistry:
    return EnrollmentRegistry.build(
        rng=RngStream(3, "enroll"),
        allowed_domains=[f"svc{i}.com" for i in range(20)],
        unattested_allowed=["svc0.com", "svc1.com"],
        attested_not_allowed=["distillery.com"],
    )


class TestConstruction:
    def test_counts(self, registry):
        assert len(registry.allowed_domains()) == 20
        # 18 allowed-and-attested plus the one attested-not-allowed party.
        assert len(registry.attested_domains()) == 19

    def test_unattested_must_be_subset(self):
        with pytest.raises(ValueError):
            EnrollmentRegistry.build(
                rng=RngStream(1),
                allowed_domains=["a.com"],
                unattested_allowed=["other.com"],
            )

    def test_duplicate_enrollment_rejected(self):
        record = Enrollment("a.com", 0, True, True)
        with pytest.raises(ValueError):
            EnrollmentRegistry([record, record])

    def test_lookup(self, registry):
        assert "svc3.com" in registry
        assert registry.enrollment("svc3.com").in_allowlist
        assert registry.enrollment("nope.com") is None


class TestStatusFlags:
    def test_allowed_and_attested(self, registry):
        assert registry.is_allowed("svc5.com")
        assert registry.is_attested("svc5.com")

    def test_unattested_allowed(self, registry):
        assert registry.is_allowed("svc0.com")
        assert not registry.is_attested("svc0.com")

    def test_distillery_case(self, registry):
        # The paper's footnote-9 party: attestation file from Nov 2023 yet
        # never in the allow-list.
        assert not registry.is_allowed("distillery.com")
        assert registry.is_attested("distillery.com")
        record = registry.enrollment("distillery.com")
        assert date_of(record.enrolled_at).year == 2023
        assert date_of(record.enrolled_at).month == 11

    def test_allowlist_artifact(self, registry):
        allowlist = registry.allowlist()
        assert "svc7.com" in allowlist
        assert "distillery.com" not in allowlist


class TestServedPayloads:
    def test_attested_party_serves_valid_file(self, registry):
        payload = registry.attestation_payload("svc5.com", now=0)
        assert payload is not None
        summary = validate_attestation_json("svc5.com", payload)
        assert summary["attests_topics"]

    def test_unattested_party_serves_nothing(self, registry):
        # The paper's 12 erroneous enrollees simply expose no file.
        assert registry.attestation_payload("svc0.com", now=0) is None

    def test_invalid_attestation_rejected_by_validator(self):
        # A party can also serve a structurally broken file; the survey
        # must not count it as Attested.
        registry = EnrollmentRegistry(
            [Enrollment("broken.com", 0, True, True, attestation_valid=False)]
        )
        payload = registry.attestation_payload("broken.com", now=0)
        assert payload is not None
        with pytest.raises(AttestationValidationError):
            validate_attestation_json("broken.com", payload)
        assert not registry.is_attested("broken.com")

    def test_unknown_party_serves_nothing(self, registry):
        assert registry.attestation_payload("unknown.com", now=0) is None

    def test_payload_cache_holds_only_enrolled_domains(self, registry):
        # A paper-scale survey asks about ~63k domains, ~200 enrolled.
        for now in (0, MIGRATION_AT):
            for domain in [f"unknown{i}.com" for i in range(50)] + ["svc5.com"]:
                registry.attestation_payload(domain, now=now)
        assert registry._payload_cache.keys() == {  # noqa: SLF001
            ("svc5.com", False),
            ("svc5.com", True),
        }

    def test_migration_adds_enrollment_site(self, registry):
        before = registry.attestation_payload("svc5.com", now=MIGRATION_AT - 1)
        after = registry.attestation_payload("svc5.com", now=MIGRATION_AT)
        assert "enrollment_site" not in before
        assert "enrollment_site" in after


class TestTimeline:
    def test_first_enrollment_date(self, registry):
        records = registry.all_enrollments()
        first_allowed = next(r for r in records if r.in_allowlist)
        assert first_allowed.enrolled_at == FIRST_ENROLLMENT_AT
        assert date_of(FIRST_ENROLLMENT_AT) == datetime.date(2023, 6, 16)

    def test_dates_monotonic_for_allowed(self, registry):
        allowed = [r for r in registry.all_enrollments() if r.in_allowlist]
        dates = [r.enrolled_at for r in allowed]
        assert dates == sorted(dates)

    def test_pace_roughly_configured(self):
        registry = EnrollmentRegistry.build(
            rng=RngStream(5),
            allowed_domains=[f"d{i}.com" for i in range(160)],
            per_month=16.0,
        )
        records = [r for r in registry.all_enrollments() if r.in_allowlist]
        span_months = (records[-1].enrolled_at - records[0].enrolled_at) / (
            30 * 24 * 3600
        )
        assert 7 <= span_months <= 14  # 160 enrolments at ~16/month

    def test_migration_constant(self):
        assert date_of(MIGRATION_AT) == datetime.date(2024, 10, 17)
        assert MIGRATION_AT == timestamp_from_date(2024, 10, 17)
