"""Sweep-level invariants: does a sweep directory hold together?

Where :mod:`repro.validate.rules` audits one campaign archive,
this module audits the *whole sweep*: the manifest's cell list must be
exactly the expansion of its embedded spec (partition completeness),
the declared baseline cell must exist, cell fingerprints must be unique
and reproducible from the spec, every cell's archive must be complete
and hash to its recorded digest, and every cell marker must agree with
the manifest.  The result reuses the campaign auditor's
:class:`~repro.validate.engine.AuditReport` shape so ``repro validate
--sweep`` renders and serialises exactly like a single-archive audit.
"""

from __future__ import annotations

from pathlib import Path

from repro.scenarios.engine import (
    ARCHIVE_FILES,
    CELL_MARKER_FILE,
    CELLS_DIR,
    MANIFEST_FILE,
    archive_digest,
    read_cell_marker,
)
from repro.scenarios.matrix import baseline_cell, expand
from repro.scenarios.spec import ScenarioSpec, ScenarioSpecError
from repro.util.codec import FormatError, check_fields, located, read_json_object
from repro.validate.engine import STATUS_OK, STATUS_VIOLATED, AuditReport, RuleOutcome
from repro.validate.rules import Severity, Violation

#: Sweep rules in evaluation order: (name, description).
SWEEP_RULES = (
    (
        "sweep-manifest-readable",
        "sweep.json exists, parses, and embeds a valid scenario spec",
    ),
    (
        "sweep-cell-partition",
        "manifest cells are exactly the expansion of the embedded spec",
    ),
    (
        "sweep-baseline-cell",
        "the declared baseline cell is present in the manifest",
    ),
    (
        "sweep-fingerprint-unique",
        "cell fingerprints are unique and reproducible from the spec",
    ),
    (
        "sweep-archive-integrity",
        "every cell directory holds a complete archive matching its digest",
    ),
    (
        "sweep-marker-consistency",
        "every cell marker agrees with the manifest entry",
    ),
)


def audit_sweep(directory: str | Path) -> AuditReport:
    """Audit one sweep output directory end-to-end."""
    root = Path(directory)
    collected: dict[str, list[Violation]] = {name: [] for name, _ in SWEEP_RULES}

    manifest, spec = _load_manifest(root, collected["sweep-manifest-readable"])
    if manifest is not None and spec is not None:
        _check_partition(spec, manifest, collected["sweep-cell-partition"])
        _check_baseline(spec, manifest, collected["sweep-baseline-cell"])
        _check_fingerprints(spec, manifest, collected["sweep-fingerprint-unique"])
        _check_archives(root, manifest, collected["sweep-archive-integrity"])
        _check_markers(root, manifest, collected["sweep-marker-consistency"])

    outcomes = tuple(
        RuleOutcome(
            rule=name,
            description=description,
            severity=Severity.ERROR,
            status=STATUS_VIOLATED if collected[name] else STATUS_OK,
            violations=tuple(collected[name]),
        )
        for name, description in SWEEP_RULES
    )
    available = ("sweep-manifest",) if manifest is not None else ()
    return AuditReport(
        archive=str(root), outcomes=outcomes, artifacts_available=available
    )


def _violation(rule: str, message: str, **context) -> Violation:
    return Violation(
        rule=rule, severity=Severity.ERROR, message=message, context=context
    )


def _load_manifest(
    root: Path, sink: list[Violation]
) -> tuple[dict | None, ScenarioSpec | None]:
    rule = "sweep-manifest-readable"
    path = root / MANIFEST_FILE
    try:
        manifest = read_json_object(path)
        with located(path):
            check_fields(manifest, _MANIFEST_FIELDS, extra=True)
            for entry in manifest["cells"]:
                check_fields(entry, _CELL_FIELDS, extra=True)
    except FileNotFoundError:
        sink.append(_violation(rule, f"missing {MANIFEST_FILE}", path=str(path)))
        return None, None
    except (OSError, FormatError) as exc:
        sink.append(
            _violation(rule, f"unreadable {MANIFEST_FILE}: {exc}", path=str(path))
        )
        return None, None
    try:
        spec = ScenarioSpec.from_dict(manifest["spec"])
    except ScenarioSpecError as exc:
        sink.append(_violation(rule, f"embedded spec is invalid: {exc}"))
        return manifest, None
    if spec.digest() != manifest["spec_digest"]:
        sink.append(
            _violation(
                rule,
                "spec_digest does not match the embedded spec",
                recorded=manifest["spec_digest"],
                recomputed=spec.digest(),
            )
        )
    return manifest, spec


#: What the sweep rules read of ``sweep.json`` and of each cell entry;
#: the report carries more, which the rules do not need.
_MANIFEST_FIELDS = {
    "spec": (dict,), "spec_digest": (str,), "baseline": (str,), "cells": (list,)
}
_CELL_FIELDS = {
    "cell_id": (str,),
    "fingerprint": (str,),
    "archive_digest": (str,),
    "metrics": (dict,),
}


def _check_partition(
    spec: ScenarioSpec, manifest: dict, sink: list[Violation]
) -> None:
    rule = "sweep-cell-partition"
    expected = [cell.cell_id for cell in expand(spec)]
    recorded = [entry["cell_id"] for entry in manifest["cells"]]
    for cell_id in expected:
        if cell_id not in recorded:
            sink.append(
                _violation(rule, f"expanded cell missing: {cell_id}", cell=cell_id)
            )
    for cell_id in recorded:
        if cell_id not in expected:
            sink.append(
                _violation(
                    rule,
                    f"manifest cell not in the spec expansion: {cell_id}",
                    cell=cell_id,
                )
            )
    if recorded != sorted(set(recorded)):
        sink.append(
            _violation(rule, "manifest cells are not unique and sorted by id")
        )


def _check_baseline(
    spec: ScenarioSpec, manifest: dict, sink: list[Violation]
) -> None:
    rule = "sweep-baseline-cell"
    recorded = manifest["baseline"]
    cells = {entry["cell_id"] for entry in manifest["cells"]}
    if recorded not in cells:
        sink.append(
            _violation(
                rule,
                f"baseline cell {recorded!r} is not in the manifest",
                baseline=recorded,
            )
        )
        return
    try:
        declared = baseline_cell(spec, expand(spec)).cell_id
    except ScenarioSpecError as exc:
        sink.append(_violation(rule, f"spec baseline unresolvable: {exc}"))
        return
    if declared != recorded:
        sink.append(
            _violation(
                rule,
                "manifest baseline disagrees with the spec",
                recorded=recorded,
                declared=declared,
            )
        )


def _check_fingerprints(
    spec: ScenarioSpec, manifest: dict, sink: list[Violation]
) -> None:
    rule = "sweep-fingerprint-unique"
    recorded = {entry["cell_id"]: entry["fingerprint"] for entry in manifest["cells"]}
    seen: dict[str, str] = {}
    for cell_id, fingerprint in recorded.items():
        if fingerprint in seen:
            sink.append(
                _violation(
                    rule,
                    f"fingerprint collision: {seen[fingerprint]} and {cell_id}",
                    fingerprint=fingerprint,
                )
            )
        seen[fingerprint] = cell_id
    for cell in expand(spec):
        fingerprint = recorded.get(cell.cell_id)
        if fingerprint is not None and fingerprint != cell.fingerprint:
            sink.append(
                _violation(
                    rule,
                    f"fingerprint of {cell.cell_id} does not reproduce "
                    "from the spec",
                    cell=cell.cell_id,
                    recorded=fingerprint,
                    recomputed=cell.fingerprint,
                )
            )


def _check_archives(root: Path, manifest: dict, sink: list[Violation]) -> None:
    rule = "sweep-archive-integrity"
    for entry in manifest["cells"]:
        cell_id = entry["cell_id"]
        cell_dir = root / CELLS_DIR / str(cell_id)
        missing = [
            name for name in ARCHIVE_FILES if not (cell_dir / name).exists()
        ]
        if missing:
            sink.append(
                _violation(
                    rule,
                    f"cell {cell_id}: archive incomplete "
                    f"(missing {', '.join(missing)})",
                    cell=cell_id,
                )
            )
            continue
        recomputed = archive_digest(cell_dir)
        if recomputed != entry["archive_digest"]:
            sink.append(
                _violation(
                    rule,
                    f"cell {cell_id}: archive bytes do not match the "
                    "recorded digest",
                    cell=cell_id,
                    recorded=entry["archive_digest"],
                    recomputed=recomputed,
                )
            )


def _check_markers(root: Path, manifest: dict, sink: list[Violation]) -> None:
    rule = "sweep-marker-consistency"
    for entry in manifest["cells"]:
        cell_id = entry["cell_id"]
        path = root / CELLS_DIR / str(cell_id) / CELL_MARKER_FILE
        try:
            marker = read_cell_marker(path)
        except (OSError, FormatError) as exc:
            sink.append(
                _violation(
                    rule,
                    f"cell {cell_id}: marker missing or unreadable",
                    cell=cell_id,
                    reason=str(exc),
                )
            )
            continue
        for field_name in ("fingerprint", "archive_digest", "metrics"):
            if marker.get(field_name) != entry[field_name]:
                sink.append(
                    _violation(
                        rule,
                        f"cell {cell_id}: marker {field_name} disagrees "
                        "with the manifest",
                        cell=cell_id,
                        field=field_name,
                    )
                )
