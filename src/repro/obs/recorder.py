"""One recorder: each telemetry moment is recorded once, as one row.

A :class:`Recorder` holds one row per moment — a visit attempt, a
checkpoint write, a banner interaction, a visit span closing — in flat
columns.  Nothing is formatted while a crawl runs: the trace JSONL, the
span JSONL and the Chrome trace are derived from the rows when written.
Each file keeps its own ring (the newest ``trace_capacity`` events, the
newest ``span_capacity`` spans), and a row is let go once everything it
derives has left both, so held memory stays bounded.  The default
everywhere is :data:`NULL_RECORDER`, whose ``enabled`` flag lets hot
paths skip building payloads altogether.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.obs.spans import DEFAULT_SPAN_CAPACITY, Span, SpanMeta, write_chrome_trace
from repro.obs.trace import DEFAULT_CAPACITY, EventKind, TraceEvent, TraceMeta
from repro.util.codec import write_records


@dataclass(slots=True)
class Row:
    """One recorded moment, as its derive function sees it.

    ``event`` and ``span`` append the row's next trace event and span,
    numbered on from the row's first ``seq`` and ``span_id``; spans nest
    under ``parent`` (unless given their own) and carry the recorder's
    ``shard`` tag.
    """

    start: object
    end: object
    parent: int | None
    payload: object
    seq: int
    span_id: int
    shard: int | None
    events: list[TraceEvent]
    spans: list[Span]

    def event(self, kind: str, at, fields: dict) -> None:
        self.events.append(TraceEvent(self.seq, at, kind, fields))
        self.seq += 1

    def span(self, name: str, start, end, fields: dict, parent=None) -> None:
        if self.shard is not None:
            fields = {"shard": self.shard, **fields}
        parent = self.parent if parent is None else parent
        self.spans.append(
            Span(self.span_id, parent, name, float(start), float(end), fields)
        )
        self.span_id += 1


#: Turns one :class:`Row` into its trace events and spans, in order.
Derive = Callable[[Row], None]


def _kind(kind: EventKind | str) -> str:
    return kind.value if isinstance(kind, EventKind) else str(kind)


def _derive_span(row: Row) -> None:
    name, fields = row.payload
    row.span(name, row.start, row.end, fields)


def _derive_moment(row: Row) -> None:
    """An event, and its span twin when the moment has one."""
    kind, at, fields, name, span_fields = row.payload
    row.event(_kind(kind), at, fields)
    if span_fields is not None:
        row.span(name, row.start, row.end, span_fields)


def _derive_fold(row: Row) -> None:
    """Shard recorders' output, merged in time order under the row's parent.

    Within a shard a parent span never sorts after its child, so the
    span ids are remapped in one pass.
    """
    events, spans = [], []
    for shard, recorder, _report in row.payload:
        shard_events, shard_spans = recorder.held()
        events.extend((e.at, shard, e.seq, e) for e in shard_events)
        spans.extend((s.start, shard, s.span_id, s) for s in shard_spans)
    events.sort(key=lambda entry: entry[:3])
    for at, shard, _seq, event in events:
        row.event(event.kind, at, {**event.fields, "shard": shard})
    for shard, _recorder, report in row.payload:
        row.event(
            EventKind.SHARD_MERGED.value,
            report.finished_at,
            {
                "shard": shard,
                "ok": report.ok,
                "failed": report.failed,
                "accepted": report.accepted,
                "duration_seconds": report.duration_seconds,
            },
        )
    spans.sort(key=lambda entry: entry[:3])
    ids: dict[tuple[int, int | None], int] = {}
    for _start, shard, old_id, span in spans:
        parent = ids.get((shard, span.parent_id), row.parent)
        ids[(shard, old_id)] = row.span_id
        row.span(span.name, span.start, span.end, span.fields, parent)


class Recorder:
    """Records telemetry moments as rows; see the module docstring.

    ``shard`` tags every span this recorder derives; the fold tags the
    shard's events.  A finished recorder pickles, so it is also the form
    shard telemetry travels back in.
    """

    #: Hot paths check this before building a row's payload.
    enabled: bool = True

    def __init__(
        self,
        trace_capacity: int = DEFAULT_CAPACITY,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
        shard: int | None = None,
    ) -> None:
        if trace_capacity <= 0 or span_capacity <= 0:
            raise ValueError("capacity must be positive")
        self._trace_capacity = trace_capacity
        self._span_capacity = span_capacity
        self._shard = shard
        # The row columns, in completion order, held from ``_head`` on:
        # derive, start, end, parent, payload, first seq, first span id,
        # and the spans completed before the row (where its spans enter
        # the span ring).
        self._columns: tuple[list, ...] = tuple([] for _ in range(8))
        self._head = 0
        #: Open spans: ``(span_id, name, start, fields)``.
        self._stack: list[tuple[int, str, object, dict]] = []
        self._emitted = 0
        self._next_id = 0
        self._completed = 0
        self._evicted: Counter[str] = Counter()

    # -- recording ----------------------------------------------------------------

    def moment(
        self,
        derive: Derive,
        start,
        end,
        payload,
        events: int,
        spans: int,
        span_id: int | None = None,
    ) -> None:
        """Record one row that derives ``events`` events and ``spans`` spans.

        The row nests under the innermost open span.  ``span_id`` is the
        id an :meth:`enter` reserved; other rows number their spans from
        the next free id.
        """
        if span_id is None:
            span_id = self._next_id
            self._next_id += spans
        derives, starts, ends, parents, payloads, seqs, ids, done = self._columns
        derives.append(derive)
        starts.append(start)
        ends.append(end)
        parents.append(self._stack[-1][0] if self._stack else None)
        payloads.append(payload)
        seqs.append(self._emitted)
        ids.append(span_id)
        done.append(self._completed)
        self._emitted += events
        self._completed += spans
        if (
            self._emitted > self._trace_capacity
            or self._completed > self._span_capacity
        ):
            self._evict()

    def event(self, kind: EventKind | str, at, **fields) -> None:
        """A moment with a trace event and no span."""
        self.twin(kind, at, fields, None, at, at, None)

    def twin(
        self, kind: EventKind | str, at, fields: dict, name, start, end, span
    ) -> None:
        """A moment with an event at ``at`` and, unless ``span`` is ``None``,
        a span named ``name`` from ``start`` to ``end`` with ``span`` fields."""
        payload = (kind, at, fields, name, span)
        self.moment(_derive_moment, start, end, payload, 1, span is not None)

    def record(self, name: str, start, end, **fields) -> int:
        """A completed leaf span under the open span; returns its id."""
        span_id = self._next_id
        self.moment(_derive_span, start, end, (name, fields), 0, 1)
        return span_id

    def enter(self, name: str, at, **fields) -> int:
        """Open a span at simulated time ``at``; returns its id."""
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, name, at, fields))
        return span_id

    def exit(self, at, **fields) -> None:
        """Close the innermost open span at ``at``; extra fields merge in."""
        if not self._stack:
            raise RuntimeError("exit() with no open span")
        span_id, name, start, opened = self._stack.pop()
        payload = (name, {**opened, **fields} if fields else opened)
        self.moment(_derive_span, start, at, payload, 0, 1, span_id)

    def fold(self, shards: Sequence[tuple]) -> None:
        """Merge finished shard recorders as one row under the open span.

        ``shards`` holds ``(shard_index, recorder, report)`` per shard.
        The row derives the shard events sorted by ``(at, shard, seq)``,
        then each shard's ``shard-merged`` event from its report, and
        grafts the shard span trees in ``(start, shard, span_id)`` order.
        """
        metas = [(r.trace_meta(), r.span_meta()) for _, r, _ in shards]
        events = sum(t.emitted - t.dropped + 1 for t, _ in metas)
        spans = sum(s.recorded - s.dropped for _, s in metas)
        self.moment(_derive_fold, None, None, tuple(shards), events, spans)

    def _evict(self) -> None:
        """Let go of the oldest rows whose output left both rings."""
        seqs, done = self._columns[5], self._columns[7]
        events_floor = self._emitted - self._trace_capacity
        spans_floor = self._completed - self._span_capacity
        head = self._head
        # Row ``head`` derives events ``seqs[head]:seqs[head + 1]`` and
        # the spans completed ``done[head]:done[head + 1]``.
        while head + 1 < len(seqs):
            if seqs[head + 1] > max(seqs[head], events_floor):
                break  # an event of this row is still in the trace ring
            if done[head + 1] > max(done[head], spans_floor):
                break  # a span of this row is still in the span ring
            head += 1
        if head > self._head:
            gone = self._derive(self._head, head)[0]
            self._evicted.update(event.kind for event in gone)
            self._head = head
        if head > 4096 and head * 2 > len(seqs):
            for column in self._columns:
                del column[:head]
            self._head = 0

    # -- derived output -----------------------------------------------------------

    def _derive(
        self, head: int, stop: int | None = None
    ) -> tuple[list[TraceEvent], list[Span]]:
        """Every event and span rows ``head:stop`` derive, oldest first.

        The collector is paused meanwhile: the derived objects hold no
        cycles, so collecting would only rescan the heap."""
        events: list[TraceEvent] = []
        spans: list[Span] = []
        collecting = gc.isenabled()
        gc.disable()
        try:
            for derive, *row in zip(*(c[head:stop] for c in self._columns[:7])):
                derive(Row(*row, self._shard, events, spans))
        finally:
            if collecting:
                gc.enable()
        return events, spans

    def held(self) -> tuple[list[TraceEvent], list[Span]]:
        """The newest ``trace_capacity`` events and ``span_capacity`` spans."""
        events, spans = self._derive(self._head)
        return events[-self._trace_capacity :], spans[-self._span_capacity :]

    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def events(self, kind: EventKind | str | None = None) -> list[TraceEvent]:
        """Held events in ``seq`` order, optionally filtered to one kind."""
        events = self.held()[0]
        kind = None if kind is None else _kind(kind)
        return [e for e in events if kind is None or e.kind == kind]

    def spans(self, name: str | None = None) -> list[Span]:
        """Held spans in completion order, optionally filtered by name."""
        return [s for s in self.held()[1] if name is None or s.name == name]

    def counts_by_kind(self) -> dict[str, int]:
        """Lifetime event counts per kind (drop-proof, unlike the ring)."""
        counts = self._evicted.copy()
        counts.update(event.kind for event in self._derive(self._head)[0])
        return dict(counts)

    def trace_meta(self) -> TraceMeta:
        dropped = max(self._emitted - self._trace_capacity, 0)
        return TraceMeta(self._emitted, dropped, self._trace_capacity)

    def span_meta(self) -> SpanMeta:
        dropped = max(self._completed - self._span_capacity, 0)
        return SpanMeta(self._completed, dropped, self._span_capacity)

    def write(
        self,
        trace: str | Path | None = None,
        spans: str | Path | None = None,
        chrome: str | Path | None = None,
    ) -> None:
        """Derive the rows once; write the trace, span and Chrome-trace files.

        Each JSONL file leads with its meta line; spans are written in
        ``(start, span_id)`` order.
        """
        held_events, held_spans = self.held()
        if trace is not None:
            write_records(trace, self.trace_meta(), held_events)
        if spans is not None:
            by_start = sorted(held_spans, key=lambda s: (s.start, s.span_id))
            write_records(spans, self.span_meta(), by_start)
        if chrome is not None:
            write_chrome_trace(chrome, held_spans)


class NullRecorder(Recorder):
    """The do-nothing default: recording off costs one ``if``."""

    enabled = False

    def moment(self, *args, **kwargs) -> None:  # noqa: ARG002 - intentional no-op
        pass

    def enter(self, name, at, **fields) -> int:  # noqa: ARG002 - intentional no-op
        return -1

    def exit(self, at, **fields) -> None:  # noqa: ARG002 - intentional no-op
        pass


#: Shared no-op instance used as the default everywhere.
NULL_RECORDER = NullRecorder()
