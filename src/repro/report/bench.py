"""Bench-trajectory data for the portal.

``scripts/check_bench_regression.py`` appends one JSON record per gated
run to ``benchmarks/history.jsonl``; this module parses that file into
per-benchmark series the bench page can chart.  Records are kept in file
order (append order == run order), so the page needs no timestamps to
sequence them — which also keeps the rendering deterministic for a given
history file.
"""

from __future__ import annotations

from pathlib import Path

from repro.util.codec import NUMBER, check_fields, read_records


def load_history(path: str | Path | None) -> list[dict]:
    """Parse a ``history.jsonl`` file into its records, file order kept.

    Returns ``[]`` when the path is ``None``, missing, or empty.  Lines
    that are blank are skipped; a malformed line raises
    :class:`~repro.util.codec.FormatError` naming it (corruption, not
    absence).
    """
    if path is None or not Path(path).exists():
        return []
    return read_records(path, _history_record)


def _history_record(value: object) -> dict:
    """A decoded history line, if it holds a benchmark's typed record."""
    record = check_fields(value, {"benchmark": (str,)}, _RECORD_FIELDS, extra=True)
    return check_fields(record, {}, {metric_of(record): NUMBER}, extra=True)


#: What the bench page reads of a record besides its benchmark and figure.
_RECORD_FIELDS = {
    "metric": (str,), "baseline": (int, float, type(None)), "commit": (str, type(None))
}


#: Throughput keys a history record may carry, in probe order.  Older
#: records predate the ``metric`` field and only carry the crawl key.
METRIC_KEYS = ("visits_per_second", "reid_users_per_second")


def metric_of(record: dict) -> str:
    """The throughput metric a history record carries.

    New records name it in their ``metric`` field; for older ones the
    known keys are probed, defaulting to the crawl plane's visits/sec.
    """
    metric = record.get("metric")
    if metric:
        return str(metric)
    for key in METRIC_KEYS:
        if key in record:
            return key
    return "visits_per_second"


def rate_of(record: dict) -> float:
    """A history record's throughput figure (0.0 when absent)."""
    value = record.get(metric_of(record))
    return float(value) if value is not None else 0.0


def history_series(records: list[dict]) -> dict[str, list[dict]]:
    """Group history records per benchmark name, run order preserved."""
    series: dict[str, list[dict]] = {}
    for record in records:
        name = str(record.get("benchmark", "unknown"))
        series.setdefault(name, []).append(record)
    return dict(sorted(series.items()))
