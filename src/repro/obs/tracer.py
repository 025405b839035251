"""Structured trace events over a bounded ring buffer.

A :class:`Tracer` collects :class:`TraceEvent`\\ s — typed records of what
the pipeline did, stamped with simulated time — into a fixed-capacity
ring buffer (oldest events are dropped, and counted, once the buffer is
full).  Traces export to JSONL and load back losslessly, so two runs of
the "same" campaign can be diffed event-by-event.  Loading fails closed:
a line that is not a well-formed event raises
:class:`~repro.util.codec.FormatError` naming the file and the line.

The default tracer everywhere is :data:`NULL_TRACER`, whose ``emit`` is
a bare ``pass`` and whose ``enabled`` flag lets hot paths skip building
event fields altogether.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator

from repro.util.codec import NUMBER, check_fields, read_header, read_records
from repro.util.fsio import BufferedLineWriter
from repro.util.timeline import Timestamp

#: Default ring-buffer capacity — bounds memory on 50k-site campaigns
#: (a full crawl emits a few events per visit).
DEFAULT_CAPACITY = 262_144


class EventKind(str, Enum):
    """Every event type the pipeline emits."""

    VISIT_STARTED = "visit-started"
    VISIT_FINISHED = "visit-finished"
    FAILURE_INJECTED = "failure-injected"
    BANNER_INTERACTION = "banner-interaction"
    TOPICS_CALL = "topics-call"
    ATTESTATION_FETCH = "attestation-fetch"
    SHARD_STARTED = "shard-started"
    SHARD_MERGED = "shard-merged"
    SHARD_EMPTY = "shard-empty"
    CHECKPOINT_WRITTEN = "checkpoint-written"
    CHECKPOINT_RESTORED = "checkpoint-restored"
    SHARD_RETRIED = "shard-retried"
    SWEEP_STARTED = "sweep-started"
    CELL_COMPLETED = "cell-completed"


@dataclass(frozen=True, slots=True)
class TraceMeta:
    """Ring-buffer bookkeeping persisted as the JSONL leading line.

    Without it, a trace file that silently lost its oldest events to the
    ring buffer is indistinguishable from a complete one.
    """

    emitted: int
    dropped: int
    capacity: int

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.emitted if self.emitted else 0.0


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One traced occurrence.

    ``seq`` orders events within a tracer, ``at`` is the simulated
    timestamp the emitter stamped, and ``fields`` carries the
    kind-specific payload (JSON-serialisable values only).
    """

    seq: int
    at: Timestamp
    kind: str
    fields: dict

    def to_json(self) -> str:
        return json.dumps(
            {"seq": self.seq, "at": self.at, "kind": self.kind, **self.fields},
            sort_keys=True,
        )

    @classmethod
    def from_dict(cls, data: object) -> "TraceEvent":
        """The inverse of :meth:`to_json`'s object; ``ValueError`` on a bad one."""
        fields = dict(check_fields(data, _EVENT_FIELDS, extra=True))
        seq, at, kind = map(fields.pop, _EVENT_FIELDS)
        return cls(seq, at, kind, fields)


_EVENT_FIELDS = {"seq": (int,), "at": NUMBER, "kind": (str,)}
_META_FIELDS = {"emitted": (int,), "dropped": (int,), "capacity": (int,)}


class Tracer:
    """In-memory event collector with a bounded ring buffer."""

    #: Hot paths check this before building event fields.
    enabled: bool = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = 0
        self._emitted_by_kind: Counter[str] = Counter()

    def emit(self, kind: EventKind | str, at: Timestamp, **fields) -> None:
        """Record one event; oldest events fall out once at capacity."""
        kind_value = kind.value if isinstance(kind, EventKind) else str(kind)
        self._buffer.append(
            TraceEvent(seq=self._seq, at=at, kind=kind_value, fields=fields)
        )
        self._seq += 1
        self._emitted_by_kind[kind_value] += 1

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(tuple(self._buffer))

    @property
    def capacity(self) -> int:
        return self._buffer.maxlen or 0

    @property
    def emitted(self) -> int:
        """Total events ever emitted (including ones the ring dropped)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events that fell out of the ring buffer."""
        return self._seq - len(self._buffer)

    def counts_by_kind(self) -> dict[str, int]:
        """Lifetime event counts per kind (drop-proof, unlike the buffer)."""
        return dict(self._emitted_by_kind)

    def events(self, kind: EventKind | str | None = None) -> list[TraceEvent]:
        """Buffered events, optionally filtered to one kind."""
        if kind is None:
            return list(self._buffer)
        kind_value = kind.value if isinstance(kind, EventKind) else str(kind)
        return [event for event in self._buffer if event.kind == kind_value]

    # -- persistence ----------------------------------------------------------

    def meta(self) -> TraceMeta:
        return TraceMeta(
            emitted=self._seq, dropped=self.dropped, capacity=self.capacity
        )

    def to_jsonl(self, path: str | Path) -> None:
        """Write a meta line, then the buffered events one per line.

        The leading ``{"meta": ...}`` line records emitted/dropped/
        capacity so readers can tell a complete trace from one whose
        oldest events fell out of the ring buffer.  Lines are batched
        through :class:`~repro.util.fsio.BufferedLineWriter` so a full
        campaign export issues a few large writes, not two per event.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = self.meta()
        with path.open("w", encoding="utf-8") as handle:
            with BufferedLineWriter(handle) as writer:
                writer.write_line(
                    json.dumps(
                        {
                            "meta": {
                                "emitted": meta.emitted,
                                "dropped": meta.dropped,
                                "capacity": meta.capacity,
                            }
                        }
                    )
                )
                for event in self._buffer:
                    writer.write_line(event.to_json())

    @staticmethod
    def read_jsonl(path: str | Path) -> list[TraceEvent]:
        """Load a trace previously written by :meth:`to_jsonl`.

        Accepts traces with or without the leading meta line (the first
        trace format wrote none); use :meth:`read_meta` for the
        bookkeeping.  Raises :class:`~repro.util.codec.FormatError` on
        a malformed line.
        """
        return read_records(path, TraceEvent.from_dict, skip='{"meta"')

    @staticmethod
    def read_meta(path: str | Path) -> TraceMeta | None:
        """The meta line of a trace file, or ``None`` for legacy traces."""
        meta = read_header(path, "meta", _META_FIELDS)
        return TraceMeta(**meta) if meta is not None else None


class NullTracer(Tracer):
    """The do-nothing default: instrumentation off costs one ``if``."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def emit(self, kind, at, **fields) -> None:  # noqa: ARG002 - intentional no-op
        pass


#: Shared no-op instance used as the default everywhere.
NULL_TRACER = NullTracer()
