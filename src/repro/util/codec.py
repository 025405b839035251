"""Fail-closed reading of stored JSON and JSONL.

Every reader of a stored file — archives, the survey, telemetry,
checkpoints, job records, bench history — raises one typed
:class:`FormatError` naming the file, the line and the defect, instead
of whatever the decoder or a constructor happened to raise.  The
helpers here do the parts every such reader shares: splitting a file
into numbered lines, decoding each line exactly once, checking a
decoded object's fields against a ``(name, JSON types)`` table, and
placing a decoder's ``ValueError`` at its file and line.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from pathlib import Path
from typing import AbstractSet, Callable, Iterable, Iterator

from repro.util.fsio import BufferedLineWriter


class FormatError(json.JSONDecodeError):
    """A stored file that does not parse as the format it claims to be.

    ``line`` is 1-based, or ``None`` when the failure is not tied to one
    line.  A :class:`json.JSONDecodeError` (and so a ``ValueError``), so
    callers that caught the decoder's own error keep working.
    """

    def __init__(self, path: str | Path, line: int | None, reason: str) -> None:
        where = str(path) if line is None else f"{path}:{line}"
        ValueError.__init__(self, f"{where}: {reason}")
        self.path, self.line, self.reason = str(path), line, reason
        self.msg, self.doc, self.pos = reason, "", 0
        self.lineno, self.colno = line or 0, 0

    def __reduce__(self):
        return type(self), (self.path, self.line, self.reason)


#: One line of canonical JSON: the default separators, ASCII-only, keys in
#: the order the caller inserted them.  A writer that inserts keys in
#: sorted order gets exactly ``json.dumps(value, sort_keys=True)``.
encode_line = json.JSONEncoder(check_circular=False).encode


def json_type(value: object) -> str:
    """The JSON name of a decoded value's type, for error messages."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    return "object"


#: A record's fields: each name with the types its value may have.  A
#: value matches when ``type(value) in types``, so a boolean is never an
#: integer and an integer is never a string.
Fields = dict[str, tuple[type, ...]]

#: The types of a JSON number, and of any JSON value.
NUMBER = (int, float)
ANY_JSON = (dict, list, str, int, float, bool, type(None))


def check_fields(
    value: object, required: Fields, optional: Fields | None = None, *, extra=False
) -> dict:
    """``value``, if it is an object with every ``required`` field, any
    ``optional`` one, each of its table's types, and (unless ``extra``)
    no other key; else ``ValueError`` naming the first defect."""
    if type(value) is not dict:
        raise ValueError(f"expected a JSON object, got {json_type(value)}")
    present = {name: optional[name] for name in optional or () if name in value}
    table = {**required, **present}
    if not (table.keys() <= value.keys() if extra else value.keys() == table.keys()):
        raise ValueError(key_defect(value.keys(), table.keys()))
    if any(type(value[name]) not in types for name, types in table.items()):
        raise ValueError(type_defect(tuple(table.items()), value))
    return value


@contextmanager
def located(
    path: str | Path, line: int | None = None, error: type[FormatError] = FormatError
) -> Iterator[None]:
    """Report a ``ValueError`` raised inside as ``error(path, line, reason)``;
    a :class:`FormatError` already names its place and passes through."""
    try:
        yield
    except FormatError:
        raise
    except ValueError as exc:
        raise error(path, line, str(exc)) from None


def type_defect(table: tuple, data: dict, prefix: str = "") -> str:
    """Why ``data`` does not match ``table``'s ``(field, allowed types)``."""
    for name, types in table:
        if type(data[name]) not in types:
            return f"field '{prefix}{name}' has the wrong type ({json_type(data[name])})"
    return "a field has the wrong type"


def key_defect(found: AbstractSet[str], expected: AbstractSet[str]) -> str:
    """Why a decoded object's key set is not ``expected``."""
    missing = sorted(expected - found)
    if missing:
        return f"missing field {missing[0]!r}"
    return f"unexpected field {sorted(found - expected)[0]!r}"


def numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` for each non-blank line of a UTF-8 file.

    Bytes that are not UTF-8 raise :class:`FormatError` on their line.
    """
    try:
        with Path(path).open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.isspace():
                    yield number, line
    except UnicodeDecodeError:
        line = _first_undecodable_line(path)
        raise FormatError(path, line, "not UTF-8 text") from None


def _first_undecodable_line(path: str | Path) -> int | None:
    with Path(path).open("rb") as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return None


#: The C scanner behind ``json.loads``, called directly: ``scan_value(text,
#: index)`` decodes the one JSON value that starts at ``index`` and returns
#: it with the index after it, without ``loads``' per-call argument handling.
scan_value = json.JSONDecoder().scan_once


def jsonl_values(path: str | Path) -> Iterator[tuple[int, object]]:
    """``(line number, decoded value)`` for each non-blank JSONL line."""
    for number, line in numbered_lines(path):
        yield number, decode_line(path, number, line)


def read_records(path: str | Path, parse: Callable, skip: str | None = None) -> list:
    """``parse(value)`` of each JSONL line but those starting with ``skip``
    (a header), in file order; a ``ValueError`` is placed at its line."""
    records = []
    for number, line in numbered_lines(path):
        if skip is None or not line.startswith(skip):
            with located(path, number):
                records.append(parse(decode_line(path, number, line)))
    return records


def write_records(path: str | Path, meta: object, records: Iterable) -> None:
    """Write ``{"meta": <meta's fields>}``, then each record's ``to_json()``
    line, in a few large writes: the inverse of :func:`read_header` and
    :func:`read_records`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        with BufferedLineWriter(handle) as writer:
            writer.write_line(json.dumps({"meta": dataclasses.asdict(meta)}))
            for record in records:
                writer.write_line(record.to_json())


def read_header(path: str | Path, key: str, fields: Fields) -> dict | None:
    """The ``fields`` object a file's first line wraps as ``{key: {...}}``,
    or ``None`` when there is no such line (files written before it)."""
    for number, line in numbered_lines(path):
        if not line.startswith(f'{{"{key}"'):
            return None
        with located(path, number):
            wrapper = check_fields(decode_line(path, number, line), {key: ANY_JSON})
            return check_fields(wrapper[key], fields)
    return None


def decode_line(
    path: str | Path, number: int, line: str, error: type[FormatError] = FormatError
) -> object:
    """The value of line ``number`` of ``path``; ``error`` if malformed."""
    try:
        value, end = scan_value(line, 0)
    except (StopIteration, ValueError):
        end = -1
    if end != len(line) and not (end == len(line) - 1 and line[end] == "\n"):
        # Leading blanks, trailing data or a defect: json.loads either
        # decodes the line after all or names what is wrong with it.
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(path, number, f"malformed JSON ({exc.msg})") from None
    return value


def read_text(path: str | Path, error: type[FormatError] = FormatError) -> str:
    """A whole UTF-8 file; ``error`` naming the first line that is not UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise error(path, _first_undecodable_line(path), "not UTF-8 text") from None


def read_json_object(path: str | Path, error: type[FormatError] = FormatError) -> dict:
    """A whole-file JSON document that must be one object."""
    text = read_text(path, error)
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(path, exc.lineno, f"malformed JSON ({exc.msg})") from None
    if type(value) is not dict:
        raise error(path, 1, f"expected a JSON object, got {json_type(value)}")
    return value
