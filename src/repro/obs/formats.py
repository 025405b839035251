"""Fail-closed parsing for stored telemetry: traces, spans and metrics.

Every reader of a telemetry file goes through these helpers, so a
truncated, mistyped or non-UTF-8 file raises one typed
:class:`TelemetryFormatError` that names the file, the line and the
reason, instead of a bare decoder traceback.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterator, TypeVar

_T = TypeVar("_T")

#: What a malformed document can raise while it is parsed.
_PARSE_ERRORS = (ValueError, KeyError, TypeError, AttributeError)


class TelemetryFormatError(json.JSONDecodeError):
    """A trace, span or metrics file that does not parse.

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


def _failure(
    path: str | Path, line: int | None, exc: Exception
) -> TelemetryFormatError:
    if isinstance(exc, json.JSONDecodeError):
        reason = f"malformed JSON ({exc.msg})"
    elif isinstance(exc, KeyError):
        reason = f"missing field {exc.args[0]!r}"
    else:
        reason = str(exc)
    return TelemetryFormatError(path, line, reason)


def is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_str(value: object) -> bool:
    return isinstance(value, str)


def as_object(value: object) -> dict:
    """``value``, which must be a decoded JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {type(value).__name__}")
    return value


def pop_fields(data: dict, checks: dict[str, Callable[[object], bool]]) -> list:
    """Pop each field named in ``checks`` from ``data``, checking its type."""
    values = []
    for name, valid in checks.items():
        value = data.pop(name)
        if not valid(value):
            raise ValueError(f"field {name!r} has the wrong type")
        values.append(value)
    return values


def _jsonl_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for the non-blank lines of a JSONL file."""
    with Path(path).open("r", encoding="utf-8") as handle:
        try:
            for number, line in enumerate(handle, start=1):
                if line.strip():
                    yield number, line
        except UnicodeDecodeError as exc:
            raise TelemetryFormatError(path, None, "not UTF-8 text") from exc


def read_jsonl_records(path: str | Path, parse: Callable[[str], _T]) -> list[_T]:
    """Parse every line of a telemetry JSONL file but its meta line."""
    records: list[_T] = []
    for number, line in _jsonl_lines(path):
        if line.startswith('{"meta"'):
            continue
        try:
            records.append(parse(line))
        except _PARSE_ERRORS as exc:
            raise _failure(path, number, exc) from exc
    return records


def read_jsonl_meta(path: str | Path, fields: tuple[str, ...]) -> list | None:
    """The integer ``fields`` of a JSONL file's leading meta line.

    ``None`` when the first line is not a meta line (legacy files).
    """
    for number, line in _jsonl_lines(path):
        if not line.startswith('{"meta"'):
            return None
        try:
            meta = as_object(as_object(json.loads(line))["meta"])
            return pop_fields(meta, dict.fromkeys(fields, is_int))
        except _PARSE_ERRORS as exc:
            raise _failure(path, number, exc) from exc
    return None


def read_json_file(path: str | Path, parse: Callable[[str], _T]) -> _T:
    """Parse a whole-file JSON document with ``parse``."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise _failure(path, exc.lineno, exc) from exc
    except _PARSE_ERRORS as exc:
        raise _failure(path, None, exc) from exc
