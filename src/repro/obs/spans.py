"""The span file formats: nested, timed intervals over the simulated clock.

Where a trace answers *what happened*, spans answer *where the time
went*: nested intervals (campaign → shard → visit → navigate / banner /
script-exec / topics-call / attestation-fetch → retries) with explicit
parent/child ids.  They are written two ways: a JSONL file (a meta line,
then one :class:`Span` per line in ``(start, span_id)`` order) that
loads back losslessly and fails closed like traces, and Chrome
trace-event JSON for ``chrome://tracing`` / Perfetto.

Timestamps are floats on the *simulated* timebase (seconds since the
simulation origin): spans never read the wall clock, so two runs of the
same campaign produce identical trees.  Spans are derived from a
:class:`~repro.obs.recorder.Recorder`'s rows when it writes its files;
nothing here records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.util.codec import NUMBER, check_fields, read_header, read_records

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


def read_spans(path: str | Path) -> list[Span]:
    """Load a span file (meta line, then one span per line); fails closed."""
    return read_records(path, Span.from_dict, skip='{"meta"')


def read_span_meta(path: str | Path) -> SpanMeta | None:
    """The meta line of a span file, or ``None`` for one without."""
    meta = read_header(path, "meta", _META_FIELDS)
    return SpanMeta(**meta) if meta is not None else None


def write_chrome_trace(path: str | Path, spans: Iterable[Span]) -> None:
    """Write ``spans`` as Chrome trace-event JSON (B/E duration pairs).

    Loadable in ``chrome://tracing`` and Perfetto.  Timestamps are
    microseconds on the simulated timebase; each shard renders as its
    own thread (``tid`` = shard index + 1, merge-level spans on 0).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    events: list[dict] = []
    for phase, span in _walk_span_tree(spans):
        # B, then the whole subtree, then E: each thread's stream
        # closes inner spans before outer ones, as trace viewers
        # require for same-timestamp boundaries.
        tid = span.fields.get("shard")
        event = {
            "ph": phase,
            "ts": round((span.start if phase == "B" else span.end) * 1_000_000),
            "pid": 0,
            "tid": int(tid) + 1 if tid is not None else 0,
            "name": span.name,
            "cat": "crawl",
        }
        args = {k: v for k, v in span.fields.items() if k != "shard"}
        if phase == "B" and args:
            event["args"] = args
        events.append(event)
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
        encoding="utf-8",
    )


def _walk_span_tree(spans: Iterable[Span]) -> Iterator[tuple[str, Span]]:
    """``("B", span)`` and ``("E", span)`` pairs of a depth-first walk.

    A span whose parent is absent (dropped by the ring, or a root) is a
    root.  Children are visited in ``(start, span_id)`` order, so the
    pairs nest properly.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: (s.start, s.span_id))

    stack = [("B", span) for span in reversed(children.get(None, ()))]
    while stack:
        kind, span = stack.pop()
        yield kind, span
        if kind == "B":
            stack.append(("E", span))
            stack.extend(
                ("B", child) for child in reversed(children.get(span.span_id, ()))
            )


def iter_span_tree(spans: Iterable[Span]) -> Iterator[Span]:
    """Depth-first pre-order walk of a span forest.

    Children are visited in ``(start, span_id)`` order, so consuming the
    emitted B/E pairs in this order yields balanced, properly nested
    Chrome trace streams.
    """
    return (span for kind, span in _walk_span_tree(spans) if kind == "B")
