"""Crawl datasets: visit records, call records, JSONL persistence.

``D_BA`` holds one record per successful Before-Accept visit; ``D_AA`` one
per After-Accept visit (only sites whose banner Priv-Accept accepted).
Records carry everything the analysis needs — embedded third parties, the
detected CMP, and every Topics API call with its type and gating outcome —
and round-trip losslessly through JSONL so campaigns can be archived and
re-analysed, as the paper's released dataset is.

Storage is columnar: a :class:`Dataset` owns a
:class:`repro.crawler.columnar.VisitBuffers`.  The crawl hot loop
appends plain scalars; archives, checkpoints and the service's
``shard-result`` events encode their JSONL lines straight from the
columns and decode them straight back; and the analysis and validation
scans that walk every row or every call read columns through
:meth:`Dataset.column`, :meth:`Dataset.third_parties_by_row`,
:meth:`Dataset.calls_by_row` and :meth:`Dataset.call_values`.
:class:`VisitRecord` objects are built lazily (memoised per row) only
where a consumer asks for records: iteration, :meth:`Dataset.iter_calls`
(only rows holding a wanted call) and the by-domain lookups.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Sequence

from repro.attestation.allowlist import GatingDecision
from repro.browser.topics.manager import TopicsApiCall
from repro.browser.topics.types import ApiCallType
from repro.crawler.columnar import CallBuffers, VisitBuffers
from repro.util.codec import FormatError, jsonl_values
from repro.util.fsio import atomic_write_lines
from repro.util.timeline import Timestamp

#: Visit-phase labels, matching the paper's dataset names.
PHASE_BEFORE = "before-accept"
PHASE_AFTER = "after-accept"

#: The per-row scalar columns :meth:`Dataset.column` hands out.
_SCALAR_COLUMNS = frozenset(
    (
        "rank",
        "domain",
        "final_domain",
        "url",
        "final_url",
        "phase",
        "banner_present",
        "banner_language",
        "accept_clicked",
        "cmp",
    )
)


@dataclass(frozen=True)
class CallRecord:
    """One Topics API call as the dataset stores it."""

    caller: str
    caller_host: str
    site: str
    call_type: str
    at: Timestamp
    decision: str
    topics_returned: int

    @classmethod
    def from_api_call(cls, call: TopicsApiCall) -> "CallRecord":
        return cls(
            caller=call.caller,
            caller_host=call.caller_host,
            site=call.site,
            call_type=call.call_type.value,
            at=call.at,
            decision=call.decision.value,
            topics_returned=call.topics_returned,
        )

    @property
    def allowed(self) -> bool:
        return GatingDecision(self.decision).allowed

    @property
    def api_call_type(self) -> ApiCallType:
        return ApiCallType(self.call_type)


@dataclass(frozen=True)
class VisitRecord:
    """One successful visit (one row of D_BA or D_AA)."""

    rank: int
    domain: str
    final_domain: str
    url: str
    final_url: str
    phase: str
    banner_present: bool
    banner_language: str | None
    accept_clicked: bool
    cmp: str | None
    third_parties: tuple[str, ...]
    calls: tuple[CallRecord, ...]

    @property
    def redirected(self) -> bool:
        return self.final_domain != self.domain

    @property
    def has_topics_call(self) -> bool:
        return bool(self.calls)

    def to_json(self) -> str:
        """This record's JSONL line, from the one row encoder."""
        buffers = VisitBuffers()
        buffers.append_record(self)
        return next(buffers.iter_lines())

    @classmethod
    def from_json(cls, line: str) -> "VisitRecord":
        """Decode one JSONL line; :class:`FormatError` on a bad one."""
        buffers = VisitBuffers()
        try:
            buffers.append_row(json.loads(line))
        except ValueError as exc:
            raise FormatError("<record>", None, str(exc)) from None
        return buffers.record_at(0)


class AmbiguousDomainError(LookupError):
    """A single-record lookup hit a domain with multiple records.

    Repeat-visit campaigns legitimately produce several records per
    domain; silently returning one of them (the pre-columnar behaviour)
    made such analyses quietly wrong.  Call :meth:`Dataset.all_by_domain`
    when multiple records are expected.
    """


class Dataset:
    """An append-only collection of visit records with common queries.

    A lazy materialisation facade: rows live in columnar
    :class:`VisitBuffers`.  Aggregates and full-row scans read the
    columns; a ``VisitRecord`` is built (and memoised) only for a row a
    consumer asks for by record: iteration, :meth:`iter_calls`,
    :meth:`by_domain` and :meth:`all_by_domain`.
    """

    def __init__(self, name: str, records: Iterable[VisitRecord] = ()) -> None:
        self.name = name
        self._buffers = VisitBuffers()
        #: row index -> its materialised record, for rows asked for so far
        self._memo: dict[int, VisitRecord] = {}
        self._domain_rows: dict[str, list[int]] | None = None
        for record in records:
            self.add(record)

    @classmethod
    def from_buffers(cls, name: str, buffers: VisitBuffers) -> "Dataset":
        """Wrap already-built columns (shard results, loaded archives)."""
        dataset = cls(name)
        dataset._buffers = buffers
        return dataset

    @property
    def buffers(self) -> VisitBuffers:
        """The underlying columns (shared, not copied)."""
        return self._buffers

    def add(self, record: VisitRecord) -> None:
        # The caller's object IS the new row's materialisation.
        self._memo[len(self._buffers)] = record
        self._buffers.append_record(record)
        self._domain_rows = None

    def append_visit(
        self,
        *,
        rank: int,
        domain: str,
        final_domain: str,
        url: str,
        final_url: str,
        phase: str,
        banner_present: bool,
        banner_language: str | None,
        accept_clicked: bool,
        cmp: str | None,
        third_parties: Iterable[str],
        api_calls: Iterable[TopicsApiCall] = (),
    ) -> None:
        """Append one row straight from live visit state — no record object."""
        self._buffers.append_visit(
            rank=rank,
            domain=domain,
            final_domain=final_domain,
            url=url,
            final_url=final_url,
            phase=phase,
            banner_present=banner_present,
            banner_language=banner_language,
            accept_clicked=accept_clicked,
            cmp=cmp,
            third_parties=third_parties,
            api_calls=api_calls,
        )
        self._domain_rows = None

    def extend_rebased(self, other: "Dataset", rank_offset: int) -> None:
        """Splice another dataset's columns in, rebasing ranks (shard merge)."""
        self._buffers.extend(other._buffers, rank_offset)
        self._domain_rows = None

    def _record_at(self, index: int) -> VisitRecord:
        record = self._memo.get(index)
        if record is None:
            record = self._memo[index] = self._buffers.record_at(index)
        return record

    def __len__(self) -> int:
        return len(self._buffers)

    def __iter__(self) -> Iterator[VisitRecord]:
        for index in range(len(self._buffers)):
            yield self._record_at(index)

    @property
    def records(self) -> tuple[VisitRecord, ...]:
        return tuple(self)

    def _rows_by_domain(self) -> dict[str, list[int]]:
        if self._domain_rows is None:
            rows: dict[str, list[int]] = {}
            for index, domain in enumerate(self._buffers.domain):
                rows.setdefault(domain, []).append(index)
            self._domain_rows = rows
        return self._domain_rows

    def by_domain(self, domain: str) -> VisitRecord | None:
        """The unique record for ``domain``, or None when absent.

        Raises :class:`AmbiguousDomainError` when several records share
        the domain (repeat-visit campaigns) — use :meth:`all_by_domain`
        for those.
        """
        rows = self._rows_by_domain().get(domain)
        if rows is None:
            return None
        if len(rows) > 1:
            raise AmbiguousDomainError(
                f"{len(rows)} records share domain {domain!r} in dataset"
                f" {self.name!r}; use all_by_domain() for repeat-visit data"
            )
        return self._record_at(rows[0])

    def all_by_domain(self, domain: str) -> tuple[VisitRecord, ...]:
        """Every record for ``domain``, in append order (possibly empty)."""
        return tuple(
            self._record_at(index)
            for index in self._rows_by_domain().get(domain, ())
        )

    # -- column reads (no records built) -------------------------------------------

    def column(self, name: str) -> Sequence:
        """One per-row scalar field, in row order (shared: do not mutate).

        Any ``VisitRecord`` field but ``third_parties`` and ``calls``;
        the two flags read as 0/1.
        """
        if name not in _SCALAR_COLUMNS:
            raise KeyError(f"no per-row column {name!r}")
        return getattr(self._buffers, name)

    def third_parties_by_row(self) -> Iterator[list[str]]:
        """Each row's third parties, in row order."""
        flat = self._buffers.tp_flat
        for lo, hi in pairwise(self._buffers.tp_offsets):
            yield flat[lo:hi]

    def calls_by_row(self, field: str = "caller") -> Iterator[tuple[int, Sequence]]:
        """``(row, that row's values of one call field)`` for rows with calls."""
        values = self._call_column(field)
        for index, (lo, hi) in enumerate(pairwise(self._buffers.call_offsets)):
            if lo != hi:
                yield index, values[lo:hi]

    def call_values(self, *fields: str) -> Iterator[tuple]:
        """Each call's values of ``fields``, in row order, building no records.

        A field is a ``CallRecord`` field, or ``"domain"`` for the domain
        of the row the call belongs to.
        """
        columns = []
        for field in fields:
            if field == "domain":
                domains = self._buffers.domain
                offsets = self._buffers.call_offsets
                columns.append(
                    [
                        domains[index]
                        for index, (lo, hi) in enumerate(pairwise(offsets))
                        for _ in range(hi - lo)
                    ]
                )
            else:
                columns.append(self._call_column(field))
        return zip(*columns)

    def _call_column(self, field: str) -> Sequence:
        if field not in CallBuffers.__slots__:
            raise KeyError(f"no call field {field!r}")
        return getattr(self._buffers.calls, field)

    def call_count(self) -> int:
        """Topics calls across every row."""
        return len(self._buffers.calls)

    # -- common aggregates ---------------------------------------------------------

    def site_count(self) -> int:
        return len(self._buffers)

    def unique_third_parties(self) -> set[str]:
        """Distinct third-party registrable domains observed."""
        return set(self._buffers.tp_flat)

    def iter_calls(
        self, callers: AbstractSet[str] | None = None
    ) -> Iterator[tuple[VisitRecord, CallRecord]]:
        """``(record, call)`` for every call, or for those by ``callers``.

        Builds the records of the rows that hold such a call, and no
        others.
        """
        for index, row_callers in self.calls_by_row():
            if callers is not None and callers.isdisjoint(row_callers):
                continue
            record = self._record_at(index)
            for call in record.calls:
                if callers is None or call.caller in callers:
                    yield record, call

    def calling_parties(self) -> set[str]:
        """Distinct CPs (caller registrable domains) across all calls."""
        return set(self._buffers.calls.caller)

    def sites_with_calls(self) -> set[str]:
        domains = self._buffers.domain
        return {domains[index] for index, _ in self.calls_by_row()}

    def presence_of(self, party: str) -> set[str]:
        """Sites on which ``party`` appears among loaded third parties."""
        return {
            domain
            for domain, parties in zip(
                self._buffers.domain, self.third_parties_by_row()
            )
            if party in parties
        }

    def callers_by_site_count(self) -> dict[str, int]:
        """CP → number of distinct sites where it called."""
        sites: dict[str, set[str]] = {}
        for domain, caller in self.call_values("domain", "caller"):
            sites.setdefault(caller, set()).add(domain)
        return {caller: len(site_set) for caller, site_set in sites.items()}

    # -- persistence ---------------------------------------------------------------

    def to_jsonl(self, path: str | Path) -> None:
        atomic_write_lines(path, self._buffers.iter_lines())

    @classmethod
    def from_jsonl(cls, name: str, path: str | Path) -> "Dataset":
        """Decode a JSONL dataset straight into columns, failing closed.

        A line that is not JSON, not a visit object, or has a missing,
        extra or mistyped field raises :class:`FormatError` naming the
        file and line.
        """
        buffers = VisitBuffers()
        for number, row in jsonl_values(path):
            try:
                buffers.append_row(row)
            except ValueError as exc:
                raise FormatError(path, number, str(exc)) from None
        return cls.from_buffers(name, buffers)
