"""Attestation-file survey.

"For every first and third party we encounter (i.e., for every domain), we
verify whether a valid attestation file is present.  If so, we label the
party as Attested." (paper §2.3).  This module performs that probe over a
set of encountered domains against the synthetic web's well-known
endpoints, recording validity and the issue date used for the enrolment
timeline of §3.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable
from weakref import WeakKeyDictionary

from repro.attestation.wellknown import (
    AttestationValidationError,
    validate_attestation_json,
)
from repro.obs import EventKind, Telemetry
from repro.obs.spans import SPAN_ATTESTATION_FETCH, SPAN_ATTESTATION_SURVEY
from repro.util.codec import (
    FormatError,
    encode_line,
    json_type,
    jsonl_values,
    key_defect,
    type_defect,
)
from repro.util.fsio import atomic_write_lines
from repro.util.timeline import Timestamp

if TYPE_CHECKING:
    from repro.web.generator import SyntheticWeb


@dataclass(frozen=True)
class AttestationProbe:
    """Result of probing one domain's well-known path."""

    domain: str
    served: bool
    valid: bool
    issued: str | None = None  # ISO date from the attestation, when valid
    has_enrollment_site: bool = False

    @property
    def attested(self) -> bool:
        return self.served and self.valid

    def to_json(self) -> str:
        """This probe's survey line: its fields in declaration order."""
        return encode_line(
            {
                "domain": self.domain,
                "served": self.served,
                "valid": self.valid,
                "issued": self.issued,
                "has_enrollment_site": self.has_enrollment_site,
            }
        )

    @classmethod
    def from_dict(cls, row: object) -> "AttestationProbe":
        """Build a probe from a decoded survey line; ``ValueError`` on a bad one."""
        if type(row) is not dict:
            raise ValueError(f"expected a JSON object, got {json_type(row)}")
        try:
            if len(row) != len(_PROBE_KEYS):
                raise KeyError
            values = _probe_values(row)
        except KeyError:
            raise ValueError(key_defect(row.keys(), _PROBE_KEYS)) from None
        if tuple(map(type, values)) not in _PROBE_SIGNATURES:
            raise ValueError(type_defect(_PROBE_TYPES, row))
        return cls(*values)


_PROBE_TYPES = (
    ("domain", (str,)),
    ("served", (bool,)),
    ("valid", (bool,)),
    ("issued", (str, type(None))),
    ("has_enrollment_site", (bool,)),
)
_PROBE_KEYS = frozenset(name for name, _ in _PROBE_TYPES)
_probe_values = itemgetter(*(name for name, _ in _PROBE_TYPES))
_PROBE_SIGNATURES = frozenset(product(*(types for _, types in _PROBE_TYPES)))


class AttestationSurvey:
    """Probe results over every encountered domain."""

    def __init__(self, probes: Iterable[AttestationProbe]) -> None:
        self._by_domain = {probe.domain: probe for probe in probes}

    def __len__(self) -> int:
        return len(self._by_domain)

    def __contains__(self, domain: str) -> bool:
        return domain in self._by_domain

    def probe(self, domain: str) -> AttestationProbe | None:
        return self._by_domain.get(domain)

    def is_attested(self, domain: str) -> bool:
        probe = self._by_domain.get(domain)
        return bool(probe and probe.attested)

    def attested_domains(self) -> set[str]:
        return {d for d, probe in self._by_domain.items() if probe.attested}

    def domains(self) -> list[str]:
        """Every surveyed domain, sorted (the audit iterates these)."""
        return sorted(self._by_domain)

    def issue_dates(self) -> dict[str, str]:
        """Attested domain → ISO issue date (the enrolment timeline input)."""
        return {
            domain: probe.issued
            for domain, probe in self._by_domain.items()
            if probe.attested and probe.issued
        }

    def to_jsonl(self, path: str | Path) -> None:
        """Archive the survey (one probe per line) next to the datasets."""
        atomic_write_lines(
            path,
            (self._by_domain[domain].to_json() for domain in sorted(self._by_domain)),
        )

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "AttestationSurvey":
        """Read an archived survey; :class:`FormatError` on a bad line."""
        probes = []
        for number, row in jsonl_values(path):
            try:
                probes.append(AttestationProbe.from_dict(row))
            except ValueError as exc:
                raise FormatError(path, number, str(exc)) from None
        return cls(probes)


#: Probe results keyed by registry: a probe is a pure function of the
#: (immutable) enrolment registry, the domain and the schema era — the
#: served payload varies with ``now`` only through the migration-date
#: comparison — so repeated surveys over one world (shard merges,
#: repeated campaigns) reuse their probes instead of re-serialising and
#: re-validating the same attestation files.  Weak keys let a discarded
#: world's registry take its probe cache with it.
_PROBE_CACHES: "WeakKeyDictionary[object, dict[tuple[str, bool], AttestationProbe]]" = (
    WeakKeyDictionary()
)


def probe_domain(world: "SyntheticWeb", domain: str, now: Timestamp) -> AttestationProbe:
    """Fetch and validate one domain's attestation file."""
    registry = world.registry
    cache = _PROBE_CACHES.get(registry)
    if cache is None:
        cache = _PROBE_CACHES[registry] = {}
    key = (domain, registry.migrated(now))
    probe = cache.get(key)
    if probe is None:
        probe = cache[key] = _probe_uncached(world, domain, now)
    return probe


def _probe_uncached(
    world: "SyntheticWeb", domain: str, now: Timestamp
) -> AttestationProbe:
    payload = world.well_known_payload(domain, now)
    if payload is None:
        return AttestationProbe(domain=domain, served=False, valid=False)
    try:
        summary = validate_attestation_json(domain, payload)
    except AttestationValidationError:
        return AttestationProbe(domain=domain, served=True, valid=False)
    return AttestationProbe(
        domain=domain,
        served=True,
        valid=True,
        issued=summary["issued"] or None,
        has_enrollment_site=summary["has_enrollment_site"],
    )


def survey_attestations(
    world: "SyntheticWeb",
    domains: Iterable[str],
    now: Timestamp,
    telemetry: Telemetry = Telemetry.OFF,
) -> AttestationSurvey:
    """Probe every domain in ``domains`` at time ``now``.

    With instrumentation on, every probe emits an ``attestation-fetch``
    event and lands in the ``attestation_probes_total{result=...}``
    counter (result is one of ``attested`` / ``invalid`` / ``absent``);
    with span recording on, the survey wraps its probes in an
    ``attestation-survey`` span (the probes are instants — the simulated
    clock does not advance during the survey).
    """
    tracer, metrics, spans = telemetry.tracer, telemetry.metrics, telemetry.spans
    if not (tracer.enabled or metrics.enabled or spans.enabled):
        return AttestationSurvey(
            probe_domain(world, domain, now) for domain in set(domains)
        )

    recording = spans.enabled
    targets = sorted(set(domains))
    if recording:
        spans.enter(SPAN_ATTESTATION_SURVEY, at=now, domains=len(targets))
    probes = []
    # Sorted order keeps the trace deterministic for a given domain set.
    for domain in targets:
        probe = probe_domain(world, domain, now)
        result = (
            "attested" if probe.attested else "invalid" if probe.served else "absent"
        )
        metrics.counter("attestation_probes_total", result=result)
        tracer.emit(
            EventKind.ATTESTATION_FETCH,
            at=now,
            domain=domain,
            served=probe.served,
            valid=probe.valid,
            issued=probe.issued,
        )
        if recording:
            spans.record(
                SPAN_ATTESTATION_FETCH, now, now, domain=domain, result=result
            )
        probes.append(probe)
    if recording:
        spans.exit(at=now)
    return AttestationSurvey(probes)
