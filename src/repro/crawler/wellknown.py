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
from itertools import chain, product
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, AbstractSet, Iterable

from repro.attestation.wellknown import (
    AttestationValidationError,
    validate_attestation_json,
)
from repro.obs import EventKind, Telemetry
from repro.obs.spans import SPAN_ATTESTATION_FETCH, SPAN_ATTESTATION_SURVEY
from repro.util.codec import (
    FormatError,
    decode_line,
    encode_line,
    json_type,
    key_defect,
    numbered_lines,
    scan_value,
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


#: The survey line of a domain that serves no file, split around the
#: encoded domain: ``f"{_ABSENT_HEAD}{encoded domain}{_ABSENT_TAIL}"`` is
#: exactly ``AttestationProbe(domain, served=False, valid=False).to_json()``.
_ABSENT_HEAD = '{"domain": '
_ABSENT_TAIL = (
    ', "served": false, "valid": false, "issued": null, '
    '"has_enrollment_site": false}'
)
_ABSENT_TAIL_LINE = _ABSENT_TAIL + "\n"


def _is_absent(probe: AttestationProbe) -> bool:
    return not (
        probe.served or probe.valid or probe.issued is not None
        or probe.has_enrollment_site
    )


class AttestationSurvey:
    """Probe results over every encountered domain, stored as two columns.

    At paper scale only 182 of 63,696 surveyed domains serve any file
    (world seed 1), so the survey keeps the *absent* rows (no file, not
    valid, no issue date, no enrolment site) as a set of domains and a
    probe only for every other row; :meth:`probe` builds an absent
    row's probe on demand.
    """

    def __init__(self, probes: Iterable[AttestationProbe] = ()) -> None:
        self._absent: set[str] = set()
        self._probes: dict[str, AttestationProbe] = {}
        for probe in probes:
            if probe.domain in self:
                raise ValueError(f"survey repeats domain {probe.domain!r}")
            if _is_absent(probe):
                self._absent.add(probe.domain)
            else:
                self._probes[probe.domain] = probe

    @classmethod
    def _of_columns(
        cls, absent: set[str], probes: dict[str, AttestationProbe]
    ) -> "AttestationSurvey":
        survey = cls.__new__(cls)
        survey._absent, survey._probes = absent, probes
        return survey

    def __len__(self) -> int:
        return len(self._absent) + len(self._probes)

    def __contains__(self, domain: str) -> bool:
        return domain in self._absent or domain in self._probes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttestationSurvey):
            return NotImplemented
        return self._absent == other._absent and self._probes == other._probes

    def probe(self, domain: str) -> AttestationProbe | None:
        probe = self._probes.get(domain)
        if probe is None and domain in self._absent:
            probe = AttestationProbe(domain=domain, served=False, valid=False)
        return probe

    def is_attested(self, domain: str) -> bool:
        probe = self._probes.get(domain)
        return bool(probe and probe.attested)

    def attested_domains(self) -> set[str]:
        return {d for d, probe in self._probes.items() if probe.attested}

    def domains(self) -> list[str]:
        """Every surveyed domain, sorted."""
        return sorted(chain(self._absent, self._probes))

    def nonabsent_probes(self) -> list[AttestationProbe]:
        """The probe of every row that is not absent, by domain."""
        return [self._probes[domain] for domain in sorted(self._probes)]

    def unexpected(self, domains: AbstractSet[str]) -> set[str]:
        """The surveyed domains that are not in ``domains``."""
        return (self._absent - domains) | (self._probes.keys() - domains)

    def issue_dates(self) -> dict[str, str]:
        """Attested domain → ISO issue date (the enrolment timeline input)."""
        return {
            domain: probe.issued
            for domain, probe in self._probes.items()
            if probe.attested and probe.issued
        }

    def to_jsonl(self, path: str | Path) -> None:
        """Archive the survey (one probe per line) next to the datasets."""
        probes = self._probes
        atomic_write_lines(
            path,
            (
                probes[domain].to_json()
                if domain in probes
                else f"{_ABSENT_HEAD}{encode_basestring_ascii(domain)}{_ABSENT_TAIL}"
                for domain in self.domains()
            ),
        )

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "AttestationSurvey":
        """Read an archived survey; :class:`FormatError` on a bad line.

        A line that is exactly the absent template around one JSON string
        takes a fast path that decodes only that string; every other line
        is decoded and checked in full.  A domain on two lines is an error.
        """
        absent: set[str] = set()
        probes: dict[str, AttestationProbe] = {}
        for number, line in numbered_lines(path):
            domain = _absent_domain(line)
            probe = None
            if domain is None:
                row = decode_line(path, number, line)
                try:
                    probe = AttestationProbe.from_dict(row)
                except ValueError as exc:
                    raise FormatError(path, number, str(exc)) from None
                domain = probe.domain
            if domain in absent or domain in probes:
                raise FormatError(path, number, f"repeats domain {domain!r}")
            if probe is None or _is_absent(probe):
                absent.add(domain)
            else:
                probes[domain] = probe
        return cls._of_columns(absent, probes)


def _absent_domain(line: str) -> str | None:
    """The domain of a line that is exactly the absent template, else None.

    Only the domain literal is decoded, and only a literal that spans
    the whole gap between the template's head and tail and decodes to a
    string is accepted; any other line goes through the checked decoder.
    """
    if not line.startswith(_ABSENT_HEAD):
        return None
    if line.endswith(_ABSENT_TAIL_LINE):
        stop = len(line) - len(_ABSENT_TAIL_LINE)
    elif line.endswith(_ABSENT_TAIL):
        stop = len(line) - len(_ABSENT_TAIL)
    else:
        return None
    try:
        value, end = scan_value(line, len(_ABSENT_HEAD))
    except (StopIteration, ValueError):
        return None
    return value if end == stop and type(value) is str else None


def probe_domain(world: "SyntheticWeb", domain: str, now: Timestamp) -> AttestationProbe:
    """Fetch and validate one domain's attestation file."""
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

    A domain serves a file only if the world's enrolment registry holds
    a record for it, so only those domains are fetched and validated;
    every other domain is an absent row without a fetch.

    With metrics on, every probe lands in the
    ``attestation_probes_total{result=...}`` counter (result is one of
    ``attested`` / ``invalid`` / ``absent``).  With the recorder on,
    every probe is one moment — an ``attestation-fetch`` event and span —
    inside an ``attestation-survey`` span (the probes are instants: the
    simulated clock does not advance during the survey).
    """
    absent = set(domains)
    probes = {}
    for domain in absent.intersection(world.registry.domains()):
        probe = probe_domain(world, domain, now)
        if not _is_absent(probe):
            probes[domain] = probe
    absent.difference_update(probes)
    survey = AttestationSurvey._of_columns(absent, probes)

    recorder, metrics = telemetry.recorder, telemetry.metrics
    if not (recorder.enabled or metrics.enabled):
        return survey
    traced = recorder.enabled
    recorder.enter(SPAN_ATTESTATION_SURVEY, at=now, domains=len(survey))
    # Sorted order keeps the trace deterministic for a given domain set.
    for domain in survey.domains():
        probe = probes.get(domain)
        if probe is None:
            result, served, valid, issued = "absent", False, False, None
        else:
            served, valid, issued = probe.served, probe.valid, probe.issued
            result = "attested" if probe.attested else "invalid" if served else "absent"
        metrics.counter("attestation_probes_total", result=result)
        if not traced:
            continue
        recorder.twin(
            EventKind.ATTESTATION_FETCH,
            now,
            {"domain": domain, "served": served, "valid": valid, "issued": issued},
            SPAN_ATTESTATION_FETCH,
            now,
            now,
            {"domain": domain, "result": result},
        )
    recorder.exit(at=now)
    return survey
