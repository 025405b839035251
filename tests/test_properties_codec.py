"""Property-based tests (hypothesis) for the archive row and probe codec.

The one row encoder must write exactly the line the record's
``dataclasses.asdict`` payload dumps to with sorted keys, and the
column decoder must give the record back.  Every corrupted line must
raise :class:`FormatError` naming its line.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.crawler.columnar import VisitBuffers
from repro.crawler.dataset import CallRecord, Dataset, VisitRecord
from repro.crawler.wellknown import AttestationProbe, AttestationSurvey, _absent_domain
from repro.util.codec import FormatError

# -- strategies -----------------------------------------------------------------

#: Any text: non-ASCII, quotes, backslashes and control characters included.
text = st.text(max_size=12) | st.sampled_from(['"', "\\", "\x00\x1f", "é😀", " "])
optional_text = st.none() | text
int64 = st.integers(-(2**63), 2**63 - 1)

calls = st.builds(
    CallRecord,
    caller=text,
    caller_host=text,
    site=text,
    call_type=text,
    at=int64 | st.integers(2**53, 2**53 + 10),
    decision=text,
    topics_returned=int64,
)
records = st.builds(
    VisitRecord,
    rank=st.integers(0, 2**62 - 1),
    domain=text,
    final_domain=text,
    url=text,
    final_url=text,
    phase=text,
    banner_present=st.booleans(),
    banner_language=optional_text,
    accept_clicked=st.booleans(),
    cmp=optional_text,
    third_parties=st.lists(text, max_size=4).map(tuple),
    calls=st.lists(calls, max_size=3).map(tuple),
)
rank_offsets = st.integers(0, 2**62 - 1)  # rank + offset stays an int64
probes = st.builds(
    AttestationProbe,
    domain=text,
    served=st.booleans(),
    valid=st.booleans(),
    issued=optional_text,
    has_enrollment_site=st.booleans(),
)
#: Domains whose JSON literal needs escapes: quote, backslash, non-ASCII.
escaped_domains = text | st.sampled_from(
    ['a"b.com', "a\\b.com", "\\", '"', "ex\u00e4mple.de", "\u4f8b.jp", "😀.com"]
)
#: Surveys mixing absent rows (no file, no date) with every other kind.
survey_rows = st.lists(
    st.builds(
        AttestationProbe,
        domain=escaped_domains,
        served=st.just(False),
        valid=st.just(False),
    )
    | st.builds(
        AttestationProbe,
        domain=escaped_domains,
        served=st.booleans(),
        valid=st.booleans(),
        issued=optional_text,
        has_enrollment_site=st.booleans(),
    ),
    max_size=8,
    unique_by=lambda probe: probe.domain,
)

#: The absent template around a domain literal: ``_ABSENT_HEAD`` + literal
#: + ``_ABSENT_TAIL`` in the survey module.
ABSENT_HEAD = '{"domain": '
ABSENT_TAIL = (
    ', "served": false, "valid": false, "issued": null, "has_enrollment_site": false}'
)


PLAIN_RECORD = VisitRecord(
    rank=1,
    domain="b.com",
    final_domain="b.com",
    url="https://b.com/",
    final_url="https://b.com/",
    phase="before-accept",
    banner_present=False,
    banner_language=None,
    accept_clicked=False,
    cmp=None,
    third_parties=(),
    calls=(),
)


def _line_of(record: VisitRecord, rank_offset: int = 0) -> str:
    buffers = VisitBuffers()
    buffers.append_record(record)
    return next(buffers.iter_lines(rank_offset))


def _compact_line(probe: AttestationProbe) -> bytes:
    """A probe line that matches no template, so it is always fully checked."""
    return json.dumps(dataclasses.asdict(probe), separators=(",", ":")).encode()


def _write_and_read(lines: list[bytes], read):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "rows.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        return read(path)


# -- round trips ----------------------------------------------------------------


class TestRowCodec:
    @given(records, rank_offsets)
    def test_line_is_the_sorted_asdict_dump(self, record, rank_offset):
        rebased = dataclasses.replace(record, rank=record.rank + rank_offset)
        expected = json.dumps(dataclasses.asdict(rebased), sort_keys=True)
        assert _line_of(record, rank_offset) == expected
        assert rebased.to_json() == expected

    @given(records, rank_offsets)
    def test_decoding_gives_the_record_back(self, record, rank_offset):
        rebased = dataclasses.replace(record, rank=record.rank + rank_offset)
        assert VisitRecord.from_json(_line_of(record, rank_offset)) == rebased

    @settings(max_examples=40)
    @given(st.lists(records, max_size=6))
    def test_dataset_file_round_trip(self, rows):
        dataset = Dataset("D_BA", rows)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "d_ba.jsonl"
            dataset.to_jsonl(path)
            loaded = Dataset.from_jsonl("D_BA", path)
        assert loaded.records == tuple(rows)
        assert loaded.buffers == dataset.buffers


class TestProbeCodec:
    @given(probes)
    def test_line_is_the_asdict_dump(self, probe):
        assert probe.to_json() == json.dumps(dataclasses.asdict(probe))

    @settings(max_examples=40)
    @given(st.lists(probes, max_size=6, unique_by=lambda probe: probe.domain))
    def test_survey_file_round_trip(self, rows):
        survey = AttestationSurvey(rows)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "survey.jsonl"
            survey.to_jsonl(path)
            loaded = AttestationSurvey.from_jsonl(path)
        assert [loaded.probe(d) for d in loaded.domains()] == sorted(
            rows, key=lambda probe: probe.domain
        )

    @settings(max_examples=60)
    @given(survey_rows)
    def test_columnar_lines_are_the_per_probe_lines(self, rows):
        survey = AttestationSurvey(rows)
        expected = "".join(
            probe.to_json() + "\n" for probe in sorted(rows, key=lambda p: p.domain)
        )
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "survey.jsonl"
            survey.to_jsonl(path)
            assert path.read_bytes() == expected.encode()

    @given(escaped_domains)
    def test_absent_line_is_the_template(self, domain):
        line = AttestationProbe(domain=domain, served=False, valid=False).to_json()
        assert line == ABSENT_HEAD + json.dumps(domain) + ABSENT_TAIL
        assert _absent_domain(line) == domain
        assert _absent_domain(line + "\n") == domain

    @settings(max_examples=60)
    @given(survey_rows)
    def test_fast_path_and_checked_decoder_agree(self, rows):
        templated = [probe.to_json().encode() for probe in rows]
        compact = [_compact_line(probe) for probe in rows]
        fast = _write_and_read(templated, AttestationSurvey.from_jsonl)
        checked = _write_and_read(compact, AttestationSurvey.from_jsonl)
        assert fast == checked == AttestationSurvey(rows)
        assert [fast.probe(d) for d in fast.domains()] == sorted(
            rows, key=lambda probe: probe.domain
        )


# -- corruption -----------------------------------------------------------------


def _drop_key(payload: dict, data) -> None:
    del payload[data.draw(st.sampled_from(sorted(payload)))]


def _add_key(payload: dict, data) -> None:
    payload[data.draw(text.filter(lambda key: key not in payload))] = 0


def _mistype_rank(payload: dict, data) -> None:
    payload["rank"] = data.draw(
        st.booleans() | st.floats(allow_nan=False) | text | st.none() | st.just([1])
    )


#: Corruptions of one decoded row, each keeping the line valid JSON.
ROW_DEFECTS = {
    "missing-key": _drop_key,
    "extra-key": _add_key,
    "mistyped-rank": _mistype_rank,
}


class TestCorruption:
    @staticmethod
    def _lines(rows) -> list[bytes]:
        return [_line_of(row).encode() for row in rows]

    @given(st.lists(records, min_size=1, max_size=4), st.data())
    def test_truncated_line(self, rows, data):
        lines = self._lines(rows)
        index = data.draw(st.integers(0, len(lines) - 1))
        cut = data.draw(st.integers(1, len(lines[index]) - 1))
        lines[index] = lines[index][:cut]
        with pytest.raises(FormatError, match="malformed JSON") as caught:
            _write_and_read(lines, lambda path: Dataset.from_jsonl("D_BA", path))
        assert caught.value.line == index + 1

    @given(
        st.lists(records, min_size=1, max_size=4),
        st.data(),
        st.sampled_from(["[1, 2]", "42", "null", '"row"', "true"]),
    )
    def test_non_object_row(self, rows, data, value):
        lines = self._lines(rows)
        index = data.draw(st.integers(0, len(lines)))
        lines.insert(index, value.encode())
        with pytest.raises(FormatError, match="expected a JSON object") as caught:
            _write_and_read(lines, lambda path: Dataset.from_jsonl("D_BA", path))
        assert caught.value.line == index + 1

    @pytest.mark.parametrize("defect", sorted(ROW_DEFECTS))
    @given(rows=st.lists(records, min_size=1, max_size=4), data=st.data())
    def test_key_and_type_defects(self, defect, rows, data):
        lines = self._lines(rows)
        index = data.draw(st.integers(0, len(lines) - 1))
        payload = json.loads(lines[index])
        ROW_DEFECTS[defect](payload, data)
        lines[index] = json.dumps(payload).encode()
        with pytest.raises(FormatError) as caught:
            _write_and_read(lines, lambda path: Dataset.from_jsonl("D_BA", path))
        assert caught.value.line == index + 1

    @given(st.lists(records, min_size=1, max_size=4), st.data())
    def test_non_utf8_bytes(self, rows, data):
        lines = self._lines(rows)
        index = data.draw(st.integers(0, len(lines) - 1))
        at = data.draw(st.integers(0, len(lines[index])))
        lines[index] = lines[index][:at] + b"\xff" + lines[index][at:]
        with pytest.raises(FormatError, match="not UTF-8") as caught:
            _write_and_read(lines, lambda path: Dataset.from_jsonl("D_BA", path))
        assert caught.value.line == index + 1

    @pytest.mark.parametrize(
        "call",
        [
            {"not": "a call"},
            "call",
            {
                "at": 1.5,
                "call_type": "javascript",
                "caller": "a.com",
                "caller_host": "a.com",
                "decision": "allowed",
                "site": "b.com",
                "topics_returned": 1,
            },
        ],
        ids=["wrong-keys", "not-object", "float-at"],
    )
    def test_bad_call(self, call):
        payload = json.loads(_line_of(PLAIN_RECORD))
        payload["calls"] = [call]
        lines = [b"", json.dumps(payload).encode()]
        with pytest.raises(FormatError, match="call") as caught:
            _write_and_read(lines, lambda path: Dataset.from_jsonl("D_BA", path))
        assert caught.value.line == 2

    @given(
        st.lists(probes, min_size=1, max_size=4, unique_by=lambda probe: probe.domain),
        st.data(),
    )
    def test_probe_defects(self, rows, data):
        lines = [probe.to_json().encode() for probe in rows]
        index = data.draw(st.integers(0, len(lines) - 1))
        payload = json.loads(lines[index])
        data.draw(st.sampled_from([_drop_key, _add_key]))(payload, data)
        lines[index] = json.dumps(payload).encode()
        with pytest.raises(FormatError) as caught:
            _write_and_read(lines, AttestationSurvey.from_jsonl)
        assert caught.value.line == index + 1


def _absent_line(literal: str) -> bytes:
    return (ABSENT_HEAD + literal + ABSENT_TAIL).encode()


class TestSurveyCorruption:
    @given(
        st.lists(probes, max_size=3, unique_by=lambda probe: probe.domain), st.data()
    )
    def test_truncated_domain_literal(self, rows, data):
        lines = [probe.to_json().encode() for probe in rows]
        literal = json.dumps(data.draw(escaped_domains))
        cut = data.draw(st.integers(1, len(literal) - 1))
        index = data.draw(st.integers(0, len(lines)))
        lines.insert(index, _absent_line(literal[:cut]))
        with pytest.raises(FormatError, match="malformed JSON") as caught:
            _write_and_read(lines, AttestationSurvey.from_jsonl)
        assert caught.value.line == index + 1

    @pytest.mark.parametrize(
        "line",
        [
            ABSENT_HEAD.encode() + b'"a.com',  # unterminated, no tail
            ABSENT_HEAD.encode() + b'"a.com' + ABSENT_TAIL.encode()[:-1],
            _absent_line('"a.com') + b" ",
            _absent_line('"a.com" "b.com"'),
            _absent_line('"a.com"') + b"x",
            _absent_line('"a.com"') + b"{}",
        ],
        ids=[
            "unterminated",
            "unterminated-in-tail",
            "unterminated-trailing-blank",
            "two-literals",
            "trailing-data",
            "trailing-object",
        ],
    )
    def test_malformed_absent_line(self, line):
        lines = [_absent_line('"z.com"'), line, _absent_line('"y.com"')]
        with pytest.raises(FormatError) as caught:
            _write_and_read(lines, AttestationSurvey.from_jsonl)
        assert caught.value.line == 2

    @pytest.mark.parametrize(
        "literal,kind",
        [
            ("42", "number"),
            ("null", "null"),
            ("true", "boolean"),
            ('["a.com"]', "array"),
            ("{}", "object"),
        ],
    )
    def test_non_string_domain(self, literal, kind):
        lines = [_absent_line('"a.com"'), _absent_line(literal)]
        wrong_type = f"'domain' has the wrong type \\({kind}\\)"
        with pytest.raises(FormatError, match=wrong_type) as caught:
            _write_and_read(lines, AttestationSurvey.from_jsonl)
        assert caught.value.line == 2

    ATTESTED = AttestationProbe("a.com", True, True, "2023-06-16", False)
    ABSENT = AttestationProbe("a.com", False, False)

    @pytest.mark.parametrize(
        "first,second",
        [
            (ATTESTED.to_json(), ABSENT.to_json()),  # then the fast path
            (ABSENT.to_json(), ATTESTED.to_json()),  # then the checked path
            (ABSENT.to_json(), ABSENT.to_json()),
            # compact separators: the absent row takes the checked path
            (ATTESTED.to_json(), _compact_line(ABSENT).decode()),
        ],
        ids=[
            "attested-then-absent",
            "absent-then-attested",
            "absent-twice",
            "attested-then-checked-absent",
        ],
    )
    def test_repeated_domain(self, first, second):
        # Before the columnar survey the last line won: a.com loaded as absent.
        lines = [_absent_line('"0.com"'), first.encode(), second.encode()]
        with pytest.raises(FormatError, match="repeats domain 'a.com'") as caught:
            _write_and_read(lines, AttestationSurvey.from_jsonl)
        assert caught.value.line == 3
