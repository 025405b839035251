"""Hypothesis corruption sweep over every stored format read by the codec.

Each format starts from a valid instance written by its own writer.  A
mutation then truncates it at a random byte, flips a byte, drops a key,
adds a key, or changes a field's JSON type.  Two properties hold:

* whatever the mutation, the reader returns normally or raises
  :class:`FormatError` — never any other exception;
* a dropped required key, an added key in a closed record, or a field
  retyped outside its allowed types raises :class:`FormatError` naming
  the file and, for JSONL formats, the line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.browser.browser import Browser, state_digest_of
from repro.crawler.campaign import CrawlCampaign
from repro.crawler.checkpoint import (
    CheckpointStore,
    MissingRange,
    PartialManifest,
    ShardCheckpoint,
    campaign_fingerprint,
)
from repro.obs import (
    EventKind,
    MetricsRegistry,
    MetricsSnapshot,
    Recorder,
    read_span_meta,
    read_spans,
    read_trace,
    read_trace_meta,
)
from repro.report.bench import load_history
from repro.service import FaultSpec, JobRecord, JobSpec, JobTable
from repro.util.codec import FormatError
from repro.util.timeline import SimClock
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator

INT, NUM, STR, BOOL = (int,), (int, float), (str,), (bool,)
LIST, OBJ, NULL = (list,), (dict,), (type(None),)

#: One value of each JSON type; a retype picks one its field does not allow.
JSON_SAMPLES = ("s", 7, 1.5, True, None, [1], {"k": 1})


@dataclass(frozen=True)
class Record:
    """One checked object inside a valid instance.

    ``line`` is its 1-based JSONL line (``None`` for a whole-file JSON
    document), ``pointer`` the keys and indexes leading to it from the
    decoded value, ``fields`` its typed fields, ``optional`` the fields
    it may lack, and ``closed`` whether any other key is a defect.
    """

    line: int | None
    pointer: tuple
    fields: dict
    optional: frozenset = frozenset()
    closed: bool = True


@dataclass(frozen=True)
class Format:
    name: str
    relative: str  # where the file sits under its directory
    text: str  # the valid instance
    read: Callable[[Path], object]
    records: tuple[Record, ...]

    @property
    def jsonl(self) -> bool:
        return self.records[0].line is not None


# -- valid instances --------------------------------------------------------------


def _trace_text(tmp: Path) -> str:
    recorder = Recorder()
    recorder.event(EventKind.VISIT_STARTED, at=1, domain="a.com")
    recorder.event(EventKind.VISIT_FINISHED, at=2.5, domain="a.com", ok=True)
    recorder.write(trace=tmp / "trace.jsonl")
    return (tmp / "trace.jsonl").read_text()


def _span_text(tmp: Path) -> str:
    recorder = Recorder()
    recorder.enter("campaign", at=0.0)
    recorder.record("visit", 0.0, 1.0, domain="a.com")
    recorder.exit(at=2.0)
    recorder.write(spans=tmp / "spans.jsonl")
    return (tmp / "spans.jsonl").read_text()


def _snapshot() -> MetricsSnapshot:
    registry = MetricsRegistry()
    registry.counter("visits", outcome="ok")
    registry.gauge("targets", 3)
    registry.observe("visit_seconds", 2.0)
    return registry.snapshot()


def _checkpoint_text() -> str:
    world = WebGenerator(WorldConfig.small(120, seed=3)).generate()
    rows = CrawlCampaign(world, limit=3, survey=False).run()
    browser = Browser(world, clock=SimClock(), user_seed=0)
    browser.visit(world.tranco.domains[0])
    state = browser.state_snapshot()
    checkpoint = ShardCheckpoint(
        shard_index=0,
        visits_done=3,
        targets=10,
        complete=False,
        clock_now=state["clock_now"],
        browser_state=state,
        state_digest=state_digest_of(state),
        report=rows.report,
        d_ba=rows.d_ba.buffers,
        d_aa=rows.d_aa.buffers,
        metrics=_snapshot(),
    )
    return "\n".join(checkpoint.to_lines()) + "\n"


def _manifest_text() -> str:
    return json.dumps(
        {
            "fingerprint": campaign_fingerprint(["a.com", "b.com"], 1, True),
            "shards": {
                "0": {
                    "latest": "shard-00/checkpoint-00000002.jsonl",
                    "visits_done": 2,
                    "targets": 2,
                    "complete": True,
                }
            },
        },
        indent=2,
        sort_keys=True,
    )


def _job_text() -> str:
    spec = JobSpec(sites=50, fault=FaultSpec(1, ((1, 5),), True))
    record = JobRecord(job_id="job-000001", spec=spec, error="boom")
    return json.dumps(record.to_dict(), indent=2, sort_keys=True)


def _history_text() -> str:
    lines = [
        {"benchmark": "b", "visits_per_second": 50.0, "baseline": 40.0,
         "commit": "abc", "metric": "visits_per_second"},
        {"benchmark": "c", "visits_per_second": 52.5, "baseline": None,
         "commit": None},
    ]
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


_SERIES = {"name": STR, "labels": OBJ}
_VALUE = {**_SERIES, "value": NUM}
_HISTOGRAM = {
    **_SERIES,
    "bounds": LIST,
    "bucket_counts": LIST,
    "count": INT,
    "total": NUM,
    "min": NUM,
    "max": NUM,
}
_SECTIONS = {"counters": LIST, "gauges": LIST, "histograms": LIST}
_REPORT = {
    name: INT
    for name in (
        "targets", "ok", "failed", "banners_seen", "accepted", "started_at",
        "finished_at", "retried", "recovered",
    )
} | {"failure_kinds": OBJ}
_ROW = {
    "rank": INT,
    "domain": STR,
    "final_domain": STR,
    "url": STR,
    "final_url": STR,
    "phase": STR,
    "banner_present": BOOL,
    "banner_language": STR + NULL,
    "accept_clicked": BOOL,
    "cmp": STR + NULL,
    "third_parties": LIST,
    "calls": LIST,
}


def _metrics_records(line: int | None, prefix: tuple) -> tuple[Record, ...]:
    return (
        Record(line, prefix, _SECTIONS, frozenset(_SECTIONS)),
        Record(line, prefix + ("counters", 0), _VALUE),
        Record(line, prefix + ("gauges", 0), _VALUE),
        Record(line, prefix + ("histograms", 0), _HISTOGRAM),
    )


def _jsonl_records(text: str, first: int, fields: dict, **kwargs) -> tuple:
    count = len(text.splitlines())
    return tuple(
        Record(number, (), fields, **kwargs) for number in range(first, count + 1)
    )


@pytest.fixture(scope="module")
def formats(tmp_path_factory) -> dict[str, Format]:
    tmp = tmp_path_factory.mktemp("valid")
    trace, spans, checkpoint = _trace_text(tmp), _span_text(tmp), _checkpoint_text()
    history = _history_text()
    meta = {name: INT for name in ("emitted", "dropped", "capacity")}
    span_meta = {name: INT for name in ("recorded", "dropped", "capacity")}
    span = {
        "span_id": INT, "parent_id": INT + NULL, "name": STR, "start": NUM, "end": NUM
    }
    rows = len(checkpoint.splitlines())
    found = [
        Format(
            "trace",
            "trace.jsonl",
            trace,
            lambda path: (read_trace_meta(path), read_trace(path)),
            (Record(1, ("meta",), meta),)
            + _jsonl_records(
                trace, 2, {"seq": INT, "at": NUM, "kind": STR}, closed=False
            ),
        ),
        Format(
            "spans",
            "spans.jsonl",
            spans,
            lambda path: (read_span_meta(path), read_spans(path)),
            (Record(1, ("meta",), span_meta),)
            + _jsonl_records(spans, 2, span, closed=False),
        ),
        Format(
            "metrics",
            "metrics.json",
            _snapshot().to_json(),
            MetricsSnapshot.load,
            _metrics_records(None, ()),
        ),
        Format(
            "checkpoint",
            "checkpoint-00000003.jsonl",
            checkpoint,
            lambda path: CheckpointStore(path.parent).load(path),
            (
                Record(
                    1,
                    ("checkpoint",),
                    {
                        "version": INT,
                        "shard_index": INT,
                        "visits_done": INT,
                        "targets": INT,
                        "complete": BOOL,
                        "clock_now": INT,
                        "state_digest": STR,
                    },
                ),
                Record(2, ("report",), _REPORT),
            )
            + _metrics_records(4, ("metrics",))
            + tuple(
                Record(number, pointer, fields)
                for number in range(5, rows + 1)
                for pointer, fields in (
                    ((), {"dataset": STR, "record": OBJ}),
                    (("record",), _ROW),
                )
            ),
        ),
        Format(
            "manifest",
            "MANIFEST.json",
            _manifest_text(),
            lambda path: CheckpointStore(path.parent).manifest(),
            (
                Record(None, (), {"fingerprint": OBJ + NULL, "shards": OBJ}),
                Record(
                    None,
                    ("fingerprint",),
                    {
                        "targets": INT,
                        "ranking_digest": STR,
                        "shard_count": INT,
                        "corrupt_allowlist": BOOL,
                    },
                ),
                Record(
                    None,
                    ("shards", "0"),
                    {
                        "latest": STR,
                        "visits_done": INT,
                        "targets": INT,
                        "complete": BOOL,
                    },
                ),
            ),
        ),
        Format(
            "partial",
            "partial.json",
            PartialManifest([MissingRange(0, 5, 9, "RuntimeError('x')")]).to_json(),
            PartialManifest.load,
            (
                Record(None, (), {"missing_targets": INT, "missing_ranges": LIST}),
                Record(
                    None,
                    ("missing_ranges", 0),
                    {"shard": INT, "from_rank": INT, "to_rank": INT, "error": STR},
                ),
            ),
        ),
        Format(
            "job",
            "job-000001/job.json",
            _job_text(),
            lambda path: JobTable(path.parent.parent).load(path.parent.name),
            (
                Record(
                    None,
                    (),
                    {
                        "job_id": STR,
                        "spec": OBJ,
                        "state": STR,
                        "error": STR + NULL,
                        "resumed": INT,
                        "archive_dir": STR + NULL,
                        "summary": OBJ,
                    },
                    frozenset(
                        ("spec", "state", "error", "resumed", "archive_dir", "summary")
                    ),
                ),
                Record(
                    None,
                    ("spec", "fault"),
                    {"shard_index": INT, "points": LIST, "kill_service": BOOL},
                    frozenset(("shard_index", "points", "kill_service")),
                ),
            ),
        ),
        Format(
            "history",
            "history.jsonl",
            history,
            load_history,
            _jsonl_records(
                history,
                1,
                {
                    "benchmark": STR,
                    "visits_per_second": NUM,
                    "baseline": NUM + NULL,
                    "commit": STR + NULL,
                },
                optional=frozenset(("visits_per_second", "baseline", "commit")),
                closed=False,
            ),
        ),
    ]
    return {fmt.name: fmt for fmt in found}


FORMATS = (
    "trace", "spans", "metrics", "checkpoint", "manifest", "partial", "job", "history"
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("corrupt")


def _write(scratch: Path, fmt: Format, data: bytes) -> Path:
    path = scratch / fmt.name / fmt.relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def test_valid_instances_load(formats, scratch):
    for fmt in formats.values():
        fmt.read(_write(scratch, fmt, fmt.text.encode()))


# -- property 1: any byte-level or structural mutation ----------------------------

byte_mutations = st.tuples(
    st.sampled_from(("truncate", "flip")),
    st.floats(0, 1, exclude_max=True),
    st.integers(1, 255),
)


@pytest.mark.parametrize("name", FORMATS)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutation=byte_mutations)
def test_byte_mutation_loads_or_raises_format_error(formats, scratch, name, mutation):
    fmt = formats[name]
    kind, where, mask = mutation
    data = bytearray(fmt.text.encode())
    index = int(where * len(data))
    if kind == "truncate":
        del data[index:]
    else:
        data[index] ^= mask
    path = _write(scratch, fmt, bytes(data))
    try:
        fmt.read(path)
    except FormatError as exc:
        assert exc.path == str(path)


# -- property 2: a schema defect in a record is named -----------------------------


def _target(value: object, pointer: tuple) -> dict:
    for step in pointer:
        value = value[step]
    return value


@st.composite
def structural_mutations(draw, fmt: Format):
    """``(record, kind, key, replacement)`` of one schema defect."""
    record = draw(st.sampled_from(fmt.records))
    kinds = ["retype"]
    if set(record.fields) - record.optional:
        kinds.append("drop")
    if record.closed:
        kinds.append("add")
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        required = sorted(set(record.fields) - record.optional)
        return record, kind, draw(st.sampled_from(required)), None
    if kind == "add":
        return record, kind, draw(st.sampled_from(("zz", "extra", "Seq"))), 0
    key = draw(st.sampled_from(sorted(record.fields)))
    wrong = [v for v in JSON_SAMPLES if type(v) not in record.fields[key]]
    return record, kind, key, draw(st.sampled_from(wrong))


def _mutated(fmt: Format, record: Record, kind: str, key: str, value) -> bytes:
    if fmt.jsonl:
        lines = fmt.text.splitlines()
        document = json.loads(lines[record.line - 1])
    else:
        document = json.loads(fmt.text)
    target = _target(document, record.pointer)
    if kind == "drop":
        del target[key]
    else:
        target[key] = value
    if not fmt.jsonl:
        return json.dumps(document, indent=2).encode()
    lines[record.line - 1] = json.dumps(document, sort_keys=True)
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("name", FORMATS)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_schema_defect_names_file_and_line(formats, scratch, name, data):
    fmt = formats[name]
    record, kind, key, value = data.draw(structural_mutations(fmt))
    path = _write(scratch, fmt, _mutated(fmt, record, kind, key, value))
    with pytest.raises(FormatError) as caught:
        fmt.read(path)
    assert (caught.value.path, caught.value.line) == (str(path), record.line)
