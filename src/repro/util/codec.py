"""Fail-closed reading of stored JSON and JSONL.

Every reader of an archive, survey or telemetry file raises one typed
:class:`FormatError` naming the file, the line and the defect, instead
of whatever the decoder or a constructor happened to raise.  The
helpers here do the parts every such reader shares: splitting a file
into numbered lines, decoding each line exactly once, and describing a
wrong key set.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import AbstractSet, Iterator


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


def numbered_lines(
    path: str | Path, error: type[FormatError] = FormatError
) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` for each non-blank line of a UTF-8 file.

    Bytes that are not UTF-8 raise ``error`` on the line that holds them.
    """
    try:
        with Path(path).open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.isspace():
                    yield number, line
    except UnicodeDecodeError:
        raise error(path, _first_undecodable_line(path), "not UTF-8 text") from None


def _first_undecodable_line(path: str | Path) -> int | None:
    with Path(path).open("rb") as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return None


#: The C scanner behind ``json.loads``, called directly: one line decodes
#: in one call, without ``loads``' per-call argument handling.
_scan = json.JSONDecoder().scan_once


def jsonl_values(path: str | Path) -> Iterator[tuple[int, object]]:
    """``(line number, decoded value)`` for each non-blank JSONL line."""
    for number, line in numbered_lines(path):
        try:
            value, end = _scan(line, 0)
        except (StopIteration, ValueError):
            end = -1
        if end != len(line) and not (end == len(line) - 1 and line[end] == "\n"):
            # Leading blanks, trailing data or a defect: json.loads either
            # decodes the line after all or names what is wrong with it.
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(
                    path, number, f"malformed JSON ({exc.msg})"
                ) from None
        yield number, value


def read_json_object(path: str | Path) -> dict:
    """A whole-file JSON document that must be one object."""
    try:
        value = json.loads(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError:
        raise FormatError(path, None, "not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise FormatError(path, exc.lineno, f"malformed JSON ({exc.msg})") from None
    if not isinstance(value, dict):
        raise FormatError(path, 1, f"expected a JSON object, got {json_type(value)}")
    return value
