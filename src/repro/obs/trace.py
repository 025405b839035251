"""The trace file format: typed events stamped with simulated time.

A trace is a JSONL file: a ``{"meta": ...}`` line recording how many
events were emitted, how many the ring buffer dropped and its capacity,
then one :class:`TraceEvent` per line.  Traces load back losslessly, so
two runs of the "same" campaign can be diffed event by event.  Loading
fails closed: a line that is not a well-formed event raises
:class:`~repro.util.codec.FormatError` naming the file and the line.

Events are derived from a :class:`~repro.obs.recorder.Recorder`'s rows
when it writes its files; nothing here records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from repro.util.codec import NUMBER, check_fields, read_header, read_records
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

    ``seq`` orders events within a trace, ``at`` is the simulated
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


def read_trace(path: str | Path) -> list[TraceEvent]:
    """Load a trace: its ``{"meta": ...}`` line, then one event per line.

    Accepts traces with or without the leading meta line (the first
    trace format wrote none); use :func:`read_trace_meta` for the
    bookkeeping.  Raises :class:`~repro.util.codec.FormatError` on a
    malformed line.
    """
    return read_records(path, TraceEvent.from_dict, skip='{"meta"')


def read_trace_meta(path: str | Path) -> TraceMeta | None:
    """The meta line of a trace file, or ``None`` for legacy traces."""
    meta = read_header(path, "meta", _META_FIELDS)
    return TraceMeta(**meta) if meta is not None else None
