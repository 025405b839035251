"""Hierarchical timed spans over the simulated clock.

Where :mod:`repro.obs.tracer` answers *what happened*, this module
answers *where the time went*: a :class:`SpanRecorder` collects nested,
timed intervals (campaign → shard → visit → navigate / banner /
script-exec / topics-call / attestation-fetch → retries) with explicit
parent/child ids, deterministic ordering, a JSONL round-trip and an
export to Chrome trace-event JSON so a full campaign can be inspected in
``chrome://tracing`` / Perfetto.

Timestamps are floats on the *simulated* timebase (seconds since the
simulation origin): spans never read the wall clock, so two runs of the
same campaign produce identical trees.  The default recorder everywhere
is :data:`NULL_RECORDER`, whose ``enter``/``exit`` are bare no-ops, and
whose ``enabled`` flag lets hot paths skip building span fields.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator

from repro.util.codec import NUMBER, check_fields, read_header, read_records
from repro.util.fsio import BufferedLineWriter

#: Default span-buffer capacity — a 50k-site double crawl records a
#: handful of spans per visit, comfortably under this bound.
DEFAULT_SPAN_CAPACITY = 1_048_576

#: Canonical span names the crawl pipeline records.
SPAN_CAMPAIGN = "campaign"
SPAN_SHARD = "shard"
SPAN_VISIT = "visit"
SPAN_RETRY = "retry"
SPAN_NAVIGATE = "navigate"
SPAN_BANNER = "banner"
SPAN_SCRIPT_EXEC = "script-exec"
SPAN_TOPICS_CALL = "topics-call"
SPAN_ATTESTATION_SURVEY = "attestation-survey"
SPAN_ATTESTATION_FETCH = "attestation-fetch"
SPAN_CHECKPOINT_WRITE = "checkpoint-write"
SPAN_CHECKPOINT_RESTORE = "checkpoint-restore"
SPAN_SHARD_RETRY = "shard-retry"
SPAN_SWEEP = "sweep"
SPAN_CELL = "sweep-cell"
SPAN_REID_TRACES = "reid-traces"
SPAN_REID_LINKAGE = "reid-linkage"


@dataclass(frozen=True, slots=True)
class Span:
    """One completed interval in the span tree.

    ``span_id`` is unique within a recorder and assigned in enter order;
    ``parent_id`` is ``None`` for roots.  ``start``/``end`` are simulated
    seconds; ``fields`` carries the name-specific payload
    (JSON-serialisable values only).
    """

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    fields: dict

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> str:
        return json.dumps(
            {
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "name": self.name,
                "start": self.start,
                "end": self.end,
                **self.fields,
            },
            sort_keys=True,
        )

    @classmethod
    def from_dict(cls, data: object) -> "Span":
        """The inverse of :meth:`to_json`'s object; ``ValueError`` on a bad one."""
        fields = dict(check_fields(data, _SPAN_FIELDS, extra=True))
        span_id, parent_id, name, start, end = map(fields.pop, _SPAN_FIELDS)
        return cls(span_id, parent_id, name, start, end, fields)


_SPAN_FIELDS = {
    "span_id": (int,),
    "parent_id": (int, type(None)),
    "name": (str,),
    "start": NUMBER,
    "end": NUMBER,
}
_META_FIELDS = {"recorded": (int,), "dropped": (int,), "capacity": (int,)}


@dataclass(frozen=True, slots=True)
class SpanMeta:
    """Recorder bookkeeping persisted as the JSONL leading line."""

    recorded: int
    dropped: int
    capacity: int


class _OpenSpan:
    """Mutable state of a span between enter and exit."""

    __slots__ = ("span_id", "parent_id", "name", "start", "fields")

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        fields: dict,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.fields = fields


class SpanRecorder:
    """Collects a well-nested tree of timed spans.

    ``enter``/``exit`` maintain an explicit stack, so nesting follows
    call structure; ``record`` captures an already-bounded leaf interval
    (how the browser retro-fits per-stage spans once a visit's work mix
    is known).  ``common_fields`` are merged into every span's fields
    (shard recorders use this to tag their whole tree with the shard
    index).
    """

    #: Hot paths check this before building span fields.
    enabled: bool = True

    def __init__(
        self,
        capacity: int = DEFAULT_SPAN_CAPACITY,
        common_fields: dict | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._completed: deque[Span] = deque(maxlen=capacity)
        self._stack: list[_OpenSpan] = []
        self._next_id = 0
        self._recorded = 0
        self._common = dict(common_fields or {})

    # -- recording ------------------------------------------------------------

    def enter(self, name: str, at: float, **fields) -> int:
        """Open a span at simulated time ``at``; returns its id."""
        parent_id = self._stack[-1].span_id if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        merged = {**self._common, **fields} if self._common else fields
        self._stack.append(_OpenSpan(span_id, parent_id, name, float(at), merged))
        return span_id

    def exit(self, at: float, **fields) -> Span | None:
        """Close the innermost open span at ``at``; extra fields merge in."""
        if not self._stack:
            raise RuntimeError("exit() with no open span")
        open_span = self._stack.pop()
        if fields:
            open_span.fields.update(fields)
        span = Span(
            span_id=open_span.span_id,
            parent_id=open_span.parent_id,
            name=open_span.name,
            start=open_span.start,
            end=float(at),
            fields=open_span.fields,
        )
        self._finish(span)
        return span

    def record(self, name: str, start: float, end: float, **fields) -> Span:
        """Capture a completed leaf under the currently open span."""
        parent_id = self._stack[-1].span_id if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        merged = {**self._common, **fields} if self._common else fields
        span = Span(
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            start=float(start),
            end=float(end),
            fields=merged,
        )
        self._finish(span)
        return span

    @contextmanager
    def span(self, name: str, clock, **fields) -> Iterator[int]:
        """Context manager reading enter/exit times from ``clock.now()``."""
        span_id = self.enter(name, clock.now(), **fields)
        try:
            yield span_id
        finally:
            self.exit(clock.now())

    def _finish(self, span: Span) -> None:
        self._completed.append(span)
        self._recorded += 1

    def adopt(self, span: Span, parent_id: int | None) -> int:
        """Graft a foreign (e.g. shard-local) span into this recorder.

        The span gets a fresh id under ``parent_id``; the caller is
        responsible for feeding parents before their children and for
        remapping ids.
        """
        span_id = self._next_id
        self._next_id += 1
        self._completed.append(replace(span, span_id=span_id, parent_id=parent_id))
        self._recorded += 1
        return span_id

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._completed)

    def __iter__(self) -> Iterator[Span]:
        return iter(tuple(self._completed))

    @property
    def capacity(self) -> int:
        return self._completed.maxlen or 0

    @property
    def recorded(self) -> int:
        """Total spans ever completed (including ones the buffer dropped)."""
        return self._recorded

    @property
    def dropped(self) -> int:
        return self._recorded - len(self._completed)

    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def spans(self, name: str | None = None) -> list[Span]:
        """Completed spans in completion order, optionally by name."""
        if name is None:
            return list(self._completed)
        return [span for span in self._completed if span.name == name]

    def spans_by_start(self) -> list[Span]:
        """Deterministic chronological order: ``(start, span_id)``.

        Within one recorder a parent never sorts after its child — it
        starts no later and was assigned the smaller id.
        """
        return sorted(self._completed, key=lambda s: (s.start, s.span_id))

    # -- persistence ----------------------------------------------------------

    def meta(self) -> SpanMeta:
        return SpanMeta(
            recorded=self._recorded,
            dropped=self.dropped,
            capacity=self.capacity,
        )

    def to_jsonl(self, path: str | Path) -> None:
        """Write a meta line followed by spans in ``(start, span_id)`` order.

        Lines are batched through
        :class:`~repro.util.fsio.BufferedLineWriter` so a campaign-sized
        export issues a few large writes, not two per span.
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
                                "recorded": meta.recorded,
                                "dropped": meta.dropped,
                                "capacity": meta.capacity,
                            }
                        }
                    )
                )
                for span in self.spans_by_start():
                    writer.write_line(span.to_json())

    @staticmethod
    def read_jsonl(path: str | Path) -> list[Span]:
        """Load spans written by :meth:`to_jsonl`; fails closed like traces."""
        return read_records(path, Span.from_dict, skip='{"meta"')

    @staticmethod
    def read_meta(path: str | Path) -> SpanMeta | None:
        meta = read_header(path, "meta", _META_FIELDS)
        return SpanMeta(**meta) if meta is not None else None

    def to_chrome_trace(self, path: str | Path) -> None:
        """Export the tree as Chrome trace-event JSON (B/E duration pairs).

        Loadable in ``chrome://tracing`` and Perfetto.  Timestamps are
        microseconds on the simulated timebase; each shard renders as its
        own thread (``tid`` = shard index + 1, merge-level spans on 0).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.spans()
        by_id = {span.span_id: span for span in spans}
        children: dict[int | None, list[Span]] = {}
        for span in spans:
            parent = span.parent_id if span.parent_id in by_id else None
            children.setdefault(parent, []).append(span)
        for bucket in children.values():
            bucket.sort(key=lambda s: (s.start, s.span_id))

        events: list[dict] = []

        def emit(span: Span) -> None:
            # B, then the whole subtree, then E: each thread's stream
            # closes inner spans before outer ones, as trace viewers
            # require for same-timestamp boundaries.
            tid = span.fields.get("shard")
            tid = int(tid) + 1 if tid is not None else 0
            args = {k: v for k, v in span.fields.items() if k != "shard"}
            begin = {
                "ph": "B",
                "ts": round(span.start * 1_000_000),
                "pid": 0,
                "tid": tid,
                "name": span.name,
                "cat": "crawl",
            }
            if args:
                begin["args"] = args
            events.append(begin)
            for child in children.get(span.span_id, ()):
                emit(child)
            events.append(
                {
                    "ph": "E",
                    "ts": round(span.end * 1_000_000),
                    "pid": 0,
                    "tid": tid,
                    "name": span.name,
                    "cat": "crawl",
                }
            )

        for root in children.get(None, ()):
            emit(root)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
            encoding="utf-8",
        )


def iter_span_tree(spans: Iterable[Span]) -> Iterator[Span]:
    """Depth-first pre-order walk of a span forest.

    Children are visited in ``(start, span_id)`` order, so consuming the
    emitted B/E pairs in this order yields balanced, properly nested
    Chrome trace streams.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: (s.start, s.span_id))

    def walk(parent: int | None) -> Iterator[Span]:
        for span in children.get(parent, ()):
            yield span
            yield from walk(span.span_id)

    yield from walk(None)


class NullSpanRecorder(SpanRecorder):
    """The do-nothing default: recording off costs one ``if``."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def enter(self, name, at, **fields) -> int:  # noqa: ARG002 - intentional no-op
        return -1

    def exit(self, at, **fields):  # noqa: ARG002 - intentional no-op
        return None

    def record(self, name, start, end, **fields):  # noqa: ARG002 - intentional no-op
        return None

    def adopt(self, span, parent_id) -> int:  # noqa: ARG002 - intentional no-op
        return -1

    @contextmanager
    def span(self, name, clock, **fields):  # noqa: ARG002 - intentional no-op
        yield -1


#: Shared no-op instance used as the default everywhere.
NULL_RECORDER = NullSpanRecorder()
