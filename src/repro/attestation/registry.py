"""The enrolment registry: who enrolled, when, and what they serve.

This models Google's onboarding pipeline as the paper observes it from the
outside: a timeline of enrolments (first attestation 2023-06-16, roughly a
dozen new services per month through May 2024), the resulting browser
allow-list, and the per-domain attestation files — including the 12
enrolled parties that *erroneously* serve no valid attestation and the one
party (``distillery.com`` in the paper) that serves an attestation without
appearing in the allow-list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, KeysView, Sequence

from repro.attestation.allowlist import AllowList
from repro.attestation.wellknown import AttestationFile
from repro.util.rng import RngStream
from repro.util.timeline import Timestamp, timestamp_from_date

#: First Topics API attestation observed by the paper (§3).
FIRST_ENROLLMENT_AT: Timestamp = timestamp_from_date(2023, 6, 16)

#: The enrollment_site schema migration date (§3).
MIGRATION_AT: Timestamp = timestamp_from_date(2024, 10, 17)

_SECONDS_PER_MONTH = 30 * 24 * 3600


@dataclass(frozen=True)
class Enrollment:
    """One party's enrolment state.

    ``in_allowlist`` — the browser-side gate (*Allowed* in the paper).
    ``serves_attestation``/``attestation_valid`` — the caller-side artefact
    (*Attested* requires both).
    """

    domain: str
    enrolled_at: Timestamp
    in_allowlist: bool
    serves_attestation: bool
    attestation_valid: bool = True

    @property
    def attested(self) -> bool:
        return self.serves_attestation and self.attestation_valid


class EnrollmentRegistry:
    """Lookup structure over a set of :class:`Enrollment` records."""

    def __init__(
        self,
        enrollments: Iterable[Enrollment],
        migration_at: Timestamp = MIGRATION_AT,
    ) -> None:
        self._by_domain: dict[str, Enrollment] = {}
        for record in enrollments:
            if record.domain in self._by_domain:
                raise ValueError(f"duplicate enrolment for {record.domain}")
            self._by_domain[record.domain] = record
        self._migration_at = migration_at
        #: (enrolled domain, post-migration era) -> served payload.  The
        #: payload depends on ``now`` only through the migration
        #: comparison, so two entries per enrolled domain cover every
        #: instant; repeated surveys skip re-serialising the same files.
        self._payload_cache: dict[tuple[str, bool], str | None] = {}

    def __len__(self) -> int:
        return len(self._by_domain)

    def __contains__(self, domain: str) -> bool:
        return domain in self._by_domain

    def domains(self) -> KeysView[str]:
        """Every enrolled domain: the only domains that can serve a file."""
        return self._by_domain.keys()

    def enrollment(self, domain: str) -> Enrollment | None:
        """The enrolment record for a domain, or None."""
        return self._by_domain.get(domain)

    def all_enrollments(self) -> list[Enrollment]:
        """All records, by enrolment date then domain."""
        return sorted(
            self._by_domain.values(), key=lambda e: (e.enrolled_at, e.domain)
        )

    # -- derived sets ---------------------------------------------------------

    def allowed_domains(self) -> frozenset[str]:
        """Domains present in the browser allow-list (*Allowed*)."""
        return frozenset(
            d for d, e in self._by_domain.items() if e.in_allowlist
        )

    def attested_domains(self) -> frozenset[str]:
        """Domains serving a valid attestation file (*Attested*)."""
        return frozenset(d for d, e in self._by_domain.items() if e.attested)

    def allowlist(self) -> AllowList:
        """The allow-list payload the browser preloads."""
        return AllowList.of(self.allowed_domains())

    def is_allowed(self, domain: str) -> bool:
        record = self._by_domain.get(domain)
        return bool(record and record.in_allowlist)

    def is_attested(self, domain: str) -> bool:
        record = self._by_domain.get(domain)
        return bool(record and record.attested)

    # -- served artefacts ------------------------------------------------------

    def attestation_payload(self, domain: str, now: Timestamp) -> str | None:
        """The attestation JSON ``domain`` serves at time ``now``.

        Returns None when the party serves no file; returns a deliberately
        *invalid* payload when ``attestation_valid`` is False (modelling the
        erroneous deployments the paper found).  Files regenerated at or
        after the migration date carry the ``enrollment_site`` field.
        """
        if domain not in self._by_domain:
            return None
        key = (domain, now >= self._migration_at)
        if key in self._payload_cache:
            return self._payload_cache[key]
        payload = self._payload_cache[key] = self._build_payload(*key)
        return payload

    def _build_payload(self, domain: str, migrated: bool) -> str | None:
        record = self._by_domain[domain]
        if not record.serves_attestation:
            return None
        if not record.attestation_valid:
            return '{"attestation_parser_version": "2"}'  # missing attestations
        file = AttestationFile(
            domain=domain,
            issued_at=record.enrolled_at,
            attests_topics=True,
            has_enrollment_site=migrated,
        )
        return file.to_json()

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls,
        rng: RngStream,
        allowed_domains: Sequence[str],
        unattested_allowed: Sequence[str] = (),
        attested_not_allowed: Sequence[str] = (),
        first_enrollment_at: Timestamp = FIRST_ENROLLMENT_AT,
        per_month: float = 16.0,
    ) -> "EnrollmentRegistry":
        """Build a registry with a paper-shaped enrolment timeline.

        ``allowed_domains`` all enter the allow-list; those also listed in
        ``unattested_allowed`` serve no valid file.  ``attested_not_allowed``
        serve a valid file but never reach the allow-list (the
        distillery.com case).  Issue dates march forward from
        ``first_enrollment_at`` at ``per_month`` enrolments per month with
        jittered spacing.
        """
        unattested = set(unattested_allowed)
        unknown = unattested - set(allowed_domains)
        if unknown:
            raise ValueError(f"unattested domains not in allowed set: {unknown}")

        spacing = _SECONDS_PER_MONTH / per_month
        records: list[Enrollment] = []
        cursor = float(first_enrollment_at)
        for domain in allowed_domains:
            issue = int(cursor)
            cursor += spacing * rng.uniform(0.4, 1.6)
            records.append(
                Enrollment(
                    domain=domain,
                    enrolled_at=issue,
                    in_allowlist=True,
                    serves_attestation=domain not in unattested,
                    attestation_valid=domain not in unattested,
                )
            )
        for domain in attested_not_allowed:
            records.append(
                Enrollment(
                    domain=domain,
                    enrolled_at=timestamp_from_date(2023, 11, 15),
                    in_allowlist=False,
                    serves_attestation=True,
                    attestation_valid=True,
                )
            )
        return cls(records)
