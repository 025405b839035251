"""Columnar (struct-of-arrays) storage for crawl visit data.

The shard inner loop used to materialise a frozen ``VisitRecord`` (plus
one ``CallRecord`` per Topics call) for every visit, ship those object
trees through pickle between worker processes, and walk them again for
every aggregate.  At paper scale — tens of thousands of visits, each
with a handful of calls and third parties — the per-object allocation,
hashing and pickling dominates the shard wall-clock.

:class:`VisitBuffers` keeps the same information as flat parallel
columns built from stdlib primitives only:

* one scalar column per visit field (``array('q')`` for ints, a
  ``bytearray`` per boolean flag, plain lists of interned-ish ``str``
  references for text — pickle stores each distinct string once, so a
  column of repeated caller names costs a machine word per row);
* variable-length per-visit sequences (third parties, Topics calls) as
  a flat value column plus a CSR-style offsets array — row ``i`` owns
  the half-open slice ``offsets[i]:offsets[i + 1]``.

Rows append in O(1), buffers concatenate in O(rows) without touching
per-call objects, and the whole structure pickles as a few flat
buffers.  The JSONL codec works on the columns too:
:meth:`VisitBuffers.iter_lines` is the one row encoder (archives,
checkpoints, the service's ``shard-result`` events,
``VisitRecord.to_json``), and :meth:`VisitBuffers.append_row` checks a
decoded line and appends it straight into the columns.
``repro.crawler.dataset`` wraps these buffers in the ``Dataset``
facade, whose full-row scans read the columns and which materialises
``VisitRecord`` objects only for the rows a consumer asks for.

The row layout mirrors ``VisitRecord`` exactly; see
:meth:`VisitBuffers.record_at` for the authoritative column ↔ field
mapping.
"""

from __future__ import annotations

from array import array
from itertools import pairwise, product
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.util.codec import encode_line, json_type, key_defect, type_defect

if TYPE_CHECKING:  # imported late at materialisation time (cycle with dataset)
    from repro.browser.topics.manager import TopicsApiCall
    from repro.crawler.dataset import VisitRecord

_OPTIONAL_STR = (str, type(None))

#: A JSONL row's keys and the types its columns hold (``type(value)`` must
#: be one of them: ``bool`` is not an ``int`` here).
_ROW_TYPES = (
    ("accept_clicked", (bool,)),
    ("banner_language", _OPTIONAL_STR),
    ("banner_present", (bool,)),
    ("calls", (list,)),
    ("cmp", _OPTIONAL_STR),
    ("domain", (str,)),
    ("final_domain", (str,)),
    ("final_url", (str,)),
    ("phase", (str,)),
    ("rank", (int,)),
    ("third_parties", (list,)),
    ("url", (str,)),
)
_CALL_TYPES = (
    ("at", (int,)),
    ("call_type", (str,)),
    ("caller", (str,)),
    ("caller_host", (str,)),
    ("decision", (str,)),
    ("site", (str,)),
    ("topics_returned", (int,)),
)
_ROW_KEYS = frozenset(name for name, _ in _ROW_TYPES)
_CALL_KEYS = frozenset(name for name, _ in _CALL_TYPES)

#: Each field's value, in the tables' (sorted) order, in one C call.
_row_values = itemgetter(*(name for name, _ in _ROW_TYPES))
_call_values = itemgetter(*(name for name, _ in _CALL_TYPES))
#: Every well-typed row's ``tuple(map(type, values))``.
_ROW_SIGNATURES = frozenset(product(*(types for _, types in _ROW_TYPES)))
(_CALL_SIGNATURE,) = product(*(types for _, types in _CALL_TYPES))
_STR_ONLY = frozenset((str,))

#: What an ``array('q')`` column can hold.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class CallBuffers:
    """Flat columns for Topics API call rows (the per-visit call lists).

    Enum-valued fields (``call_type``, ``decision``) are stored as their
    string values — exactly what ``CallRecord`` carries after
    ``from_api_call`` — so materialisation is a plain column read.
    """

    __slots__ = (
        "caller",
        "caller_host",
        "site",
        "call_type",
        "at",
        "decision",
        "topics_returned",
    )

    def __init__(self) -> None:
        self.caller: list[str] = []
        self.caller_host: list[str] = []
        self.site: list[str] = []
        self.call_type: list[str] = []
        self.at = array("q")
        self.decision: list[str] = []
        self.topics_returned = array("q")

    def __len__(self) -> int:
        return len(self.caller)

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CallBuffers):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def extend(self, other: "CallBuffers") -> None:
        self.caller.extend(other.caller)
        self.caller_host.extend(other.caller_host)
        self.site.extend(other.site)
        self.call_type.extend(other.call_type)
        self.at.extend(other.at)
        self.decision.extend(other.decision)
        self.topics_returned.extend(other.topics_returned)


class VisitBuffers:
    """Columnar store of visit rows; the crawl data plane's wire format."""

    __slots__ = (
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
        "tp_flat",
        "tp_offsets",
        "calls",
        "call_offsets",
    )

    def __init__(self) -> None:
        self.rank = array("q")
        self.domain: list[str] = []
        self.final_domain: list[str] = []
        self.url: list[str] = []
        self.final_url: list[str] = []
        self.phase: list[str] = []
        self.banner_present = bytearray()
        self.banner_language: list[str | None] = []
        self.accept_clicked = bytearray()
        self.cmp: list[str | None] = []
        #: flat third-party column; row i owns tp_offsets[i]:tp_offsets[i+1]
        self.tp_flat: list[str] = []
        self.tp_offsets = array("q", (0,))
        #: flat call columns; row i owns call_offsets[i]:call_offsets[i+1]
        self.calls = CallBuffers()
        self.call_offsets = array("q", (0,))

    def __len__(self) -> int:
        return len(self.rank)

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VisitBuffers):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def copy(self) -> "VisitBuffers":
        """An independent copy of every column."""
        clone = VisitBuffers()
        clone.extend(self)
        return clone

    # -- building --------------------------------------------------------------

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
        api_calls: Iterable["TopicsApiCall"] = (),
    ) -> None:
        """Append one row straight from live visit state (the hot path).

        ``api_calls`` are the browser's raw ``TopicsApiCall`` objects;
        their enum fields are flattened to values here, matching what
        ``CallRecord.from_api_call`` would have produced.
        """
        self.rank.append(rank)
        self.domain.append(domain)
        self.final_domain.append(final_domain)
        self.url.append(url)
        self.final_url.append(final_url)
        self.phase.append(phase)
        self.banner_present.append(banner_present)
        self.banner_language.append(banner_language)
        self.accept_clicked.append(accept_clicked)
        self.cmp.append(cmp)
        self.tp_flat.extend(third_parties)
        self.tp_offsets.append(len(self.tp_flat))
        calls = self.calls
        for call in api_calls:
            calls.caller.append(call.caller)
            calls.caller_host.append(call.caller_host)
            calls.site.append(call.site)
            calls.call_type.append(call.call_type.value)
            calls.at.append(call.at)
            calls.decision.append(call.decision.value)
            calls.topics_returned.append(call.topics_returned)
        self.call_offsets.append(len(calls))

    def append_record(self, record: "VisitRecord") -> None:
        """Append one row from an already-materialised record.

        Serves datasets built from records in memory (``Dataset.add``)
        and ``VisitRecord.to_json``; loaded archives and checkpoints
        come in through :meth:`append_row` instead.
        """
        self.rank.append(record.rank)
        self.domain.append(record.domain)
        self.final_domain.append(record.final_domain)
        self.url.append(record.url)
        self.final_url.append(record.final_url)
        self.phase.append(record.phase)
        self.banner_present.append(record.banner_present)
        self.banner_language.append(record.banner_language)
        self.accept_clicked.append(record.accept_clicked)
        self.cmp.append(record.cmp)
        self.tp_flat.extend(record.third_parties)
        self.tp_offsets.append(len(self.tp_flat))
        calls = self.calls
        for call in record.calls:
            calls.caller.append(call.caller)
            calls.caller_host.append(call.caller_host)
            calls.site.append(call.site)
            calls.call_type.append(call.call_type)
            calls.at.append(call.at)
            calls.decision.append(call.decision)
            calls.topics_returned.append(call.topics_returned)
        self.call_offsets.append(len(calls))

    def append_row(self, row: object) -> None:
        """Append one decoded JSONL row: the inverse of :meth:`iter_lines`.

        ``row`` must be an object with exactly a visit's keys, each value
        of the type its column holds, and so must each of its calls.
        Raises ``ValueError`` naming the first defect, before anything is
        appended.
        """
        if type(row) is not dict:
            raise ValueError(f"expected a JSON object, got {json_type(row)}")
        try:
            if len(row) != len(_ROW_KEYS):
                raise KeyError
            values = _row_values(row)
        except KeyError:
            raise ValueError(key_defect(row.keys(), _ROW_KEYS)) from None
        if tuple(map(type, values)) not in _ROW_SIGNATURES:
            raise ValueError(type_defect(_ROW_TYPES, row))
        (
            accept_clicked,
            banner_language,
            banner_present,
            call_rows,
            cmp,
            domain,
            final_domain,
            final_url,
            phase,
            rank,
            third_parties,
            url,
        ) = values
        if not _INT64_MIN <= rank <= _INT64_MAX:
            raise ValueError("field 'rank' is out of range")
        if not _STR_ONLY.issuperset(map(type, third_parties)):
            raise ValueError("field 'third_parties' holds a non-string")
        call_values = []
        for call in call_rows:
            if type(call) is not dict:
                raise ValueError(f"a call is {json_type(call)}, expected an object")
            try:
                if len(call) != len(_CALL_KEYS):
                    raise KeyError
                fields = _call_values(call)
            except KeyError:
                defect = key_defect(call.keys(), _CALL_KEYS)
                raise ValueError(f"a call has {defect}") from None
            if tuple(map(type, fields)) != _CALL_SIGNATURE:
                raise ValueError(type_defect(_CALL_TYPES, call, "calls."))
            at, topics_returned = fields[0], fields[-1]  # the table's two ints
            if not (
                _INT64_MIN <= at <= _INT64_MAX
                and _INT64_MIN <= topics_returned <= _INT64_MAX
            ):
                raise ValueError("a call's integer field is out of range")
            call_values.append(fields)

        self.rank.append(rank)
        self.domain.append(domain)
        self.final_domain.append(final_domain)
        self.url.append(url)
        self.final_url.append(final_url)
        self.phase.append(phase)
        self.banner_present.append(banner_present)
        self.banner_language.append(banner_language)
        self.accept_clicked.append(accept_clicked)
        self.cmp.append(cmp)
        self.tp_flat.extend(third_parties)
        self.tp_offsets.append(len(self.tp_flat))
        calls = self.calls
        for at, call_type, caller, caller_host, decision, site, topics in call_values:
            calls.caller.append(caller)
            calls.caller_host.append(caller_host)
            calls.site.append(site)
            calls.call_type.append(call_type)
            calls.at.append(at)
            calls.decision.append(decision)
            calls.topics_returned.append(topics)
        self.call_offsets.append(len(calls))

    def extend(self, other: "VisitBuffers", rank_offset: int = 0) -> None:
        """Concatenate ``other``'s rows, optionally rebasing their ranks.

        This is the shard-merge primitive: whole columns splice in O(rows)
        with no per-record object churn.
        """
        if rank_offset:
            self.rank.extend(rank + rank_offset for rank in other.rank)
        else:
            self.rank.extend(other.rank)
        self.domain.extend(other.domain)
        self.final_domain.extend(other.final_domain)
        self.url.extend(other.url)
        self.final_url.extend(other.final_url)
        self.phase.extend(other.phase)
        self.banner_present.extend(other.banner_present)
        self.banner_language.extend(other.banner_language)
        self.accept_clicked.extend(other.accept_clicked)
        self.cmp.extend(other.cmp)
        self.tp_flat.extend(other.tp_flat)
        tp_base = self.tp_offsets[-1]
        self.tp_offsets.extend(tp_base + offset for offset in other.tp_offsets[1:])
        call_base = self.call_offsets[-1]
        self.calls.extend(other.calls)
        self.call_offsets.extend(
            call_base + offset for offset in other.call_offsets[1:]
        )

    # -- materialisation -------------------------------------------------------

    def record_at(self, index: int) -> "VisitRecord":
        """Materialise row ``index`` back into a ``VisitRecord``."""
        from repro.crawler.dataset import CallRecord, VisitRecord

        calls = self.calls
        lo, hi = self.call_offsets[index], self.call_offsets[index + 1]
        call_records = tuple(
            CallRecord(
                caller=calls.caller[j],
                caller_host=calls.caller_host[j],
                site=calls.site[j],
                call_type=calls.call_type[j],
                at=calls.at[j],
                decision=calls.decision[j],
                topics_returned=calls.topics_returned[j],
            )
            for j in range(lo, hi)
        )
        tp_lo, tp_hi = self.tp_offsets[index], self.tp_offsets[index + 1]
        return VisitRecord(
            rank=self.rank[index],
            domain=self.domain[index],
            final_domain=self.final_domain[index],
            url=self.url[index],
            final_url=self.final_url[index],
            phase=self.phase[index],
            banner_present=bool(self.banner_present[index]),
            banner_language=self.banner_language[index],
            accept_clicked=bool(self.accept_clicked[index]),
            cmp=self.cmp[index],
            third_parties=tuple(self.tp_flat[tp_lo:tp_hi]),
            calls=call_records,
        )

    def iter_records(self) -> Iterator["VisitRecord"]:
        for index in range(len(self)):
            yield self.record_at(index)

    # -- JSONL encoding --------------------------------------------------------

    def iter_lines(self, rank_offset: int = 0) -> Iterator[str]:
        """Each row's JSONL line, its rank shifted by ``rank_offset``.

        The one row encoder: archives, checkpoints, the service's
        ``shard-result`` event and ``VisitRecord.to_json`` all write
        these lines.  Keys go in sorted order, so a line is exactly
        ``json.dumps(dataclasses.asdict(record), sort_keys=True)``.
        """
        calls = self.calls
        caller, caller_host, site = calls.caller, calls.caller_host, calls.site
        call_type, at, decision = calls.call_type, calls.at, calls.decision
        topics_returned = calls.topics_returned
        tp_flat = self.tp_flat
        encode = encode_line
        rows = zip(
            self.rank,
            self.domain,
            self.final_domain,
            self.url,
            self.final_url,
            self.phase,
            self.banner_present,
            self.banner_language,
            self.accept_clicked,
            self.cmp,
            pairwise(self.tp_offsets),
            pairwise(self.call_offsets),
        )
        for (
            rank,
            domain,
            final_domain,
            url,
            final_url,
            phase,
            banner_present,
            banner_language,
            accept_clicked,
            cmp,
            (tp_lo, tp_hi),
            (call_lo, call_hi),
        ) in rows:
            yield encode(
                {
                    "accept_clicked": bool(accept_clicked),
                    "banner_language": banner_language,
                    "banner_present": bool(banner_present),
                    "calls": [
                        {
                            "at": at[j],
                            "call_type": call_type[j],
                            "caller": caller[j],
                            "caller_host": caller_host[j],
                            "decision": decision[j],
                            "site": site[j],
                            "topics_returned": topics_returned[j],
                        }
                        for j in range(call_lo, call_hi)
                    ],
                    "cmp": cmp,
                    "domain": domain,
                    "final_domain": final_domain,
                    "final_url": final_url,
                    "phase": phase,
                    "rank": rank + rank_offset,
                    "third_parties": tp_flat[tp_lo:tp_hi],
                    "url": url,
                }
            )

    # -- column-native views (aggregate helpers) -------------------------------

    def call_span(self, index: int) -> tuple[int, int]:
        """Half-open call-column slice owned by row ``index``."""
        return self.call_offsets[index], self.call_offsets[index + 1]

    def third_parties_at(self, index: int) -> tuple[str, ...]:
        lo, hi = self.tp_offsets[index], self.tp_offsets[index + 1]
        return tuple(self.tp_flat[lo:hi])
