"""Sweep-level audit: the six rules over pristine and defective sweeps."""

import json

import pytest

from repro.scenarios.engine import run_sweep
from repro.scenarios.spec import ScenarioSpec
from repro.validate import SWEEP_RULES, audit_sweep
from repro.validate.engine import STATUS_OK, render_audit


def small_spec() -> ScenarioSpec:
    return ScenarioSpec.from_dict(
        {
            "name": "audit-me",
            "world": {"sites": 300, "seed": 5},
            "axes": [
                {
                    "name": "allowlist",
                    "values": [
                        {"name": "corrupted", "allowlist": "corrupted"},
                        {"name": "healthy", "allowlist": "healthy"},
                    ],
                }
            ],
            "baseline": {"allowlist": "corrupted"},
        }
    )


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep-audit") / "sweep"
    run_sweep(small_spec(), out, backend="serial")
    return out


def outcome_of(audit, rule: str):
    for outcome in audit.outcomes:
        if outcome.rule == rule:
            return outcome
    raise AssertionError(f"no outcome for rule {rule!r}")


def manifest_of(sweep_dir) -> dict:
    return json.loads((sweep_dir / "sweep.json").read_text())


def rewrite_manifest(sweep_dir, manifest: dict) -> None:
    (sweep_dir / "sweep.json").write_text(json.dumps(manifest))


class TestPristineSweep:
    def test_all_rules_pass(self, sweep_dir):
        audit = audit_sweep(sweep_dir)
        assert audit.ok
        assert audit.artifacts_available == ("sweep-manifest",)
        assert {outcome.rule for outcome in audit.outcomes} == {
            name for name, _ in SWEEP_RULES
        }
        assert all(
            outcome.status == STATUS_OK for outcome in audit.outcomes
        )

    def test_render_audit_names_the_rules(self, sweep_dir):
        text = render_audit(audit_sweep(sweep_dir))
        for name, _ in SWEEP_RULES:
            assert name in text
        assert "PASS" in text


class TestDefectiveSweeps:
    def test_missing_manifest(self, sweep_dir, tmp_path):
        audit = audit_sweep(tmp_path / "nowhere")
        assert not audit.ok
        assert audit.artifacts_available == ()
        bad = outcome_of(audit, "sweep-manifest-readable")
        assert bad.status != STATUS_OK
        # Downstream rules can't run without a manifest; they stay OK
        # (no violations) rather than inventing phantom failures.
        assert outcome_of(audit, "sweep-cell-partition").status == STATUS_OK

    def test_corrupt_manifest_json(self, sweep_dir, tmp_path):
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "sweep.json").write_text("{torn")
        audit = audit_sweep(out)
        bad = outcome_of(audit, "sweep-manifest-readable")
        assert bad.status != STATUS_OK

    @pytest.mark.parametrize(
        "content", [b"[]", b'{"spec": "\xff"}'], ids=["array", "not-utf8"]
    )
    def test_unreadable_manifest_is_a_violation(self, tmp_path, content):
        (tmp_path / "sweep.json").write_bytes(content)
        audit = audit_sweep(tmp_path)
        bad = outcome_of(audit, "sweep-manifest-readable")
        assert bad.status != STATUS_OK
        assert f"{tmp_path / 'sweep.json'}:1: " in bad.violations[0].message
        assert audit.artifacts_available == ()

    def test_non_object_cell_entry_is_a_violation(self, sweep_dir, tmp_path):
        manifest = manifest_of(sweep_dir)
        manifest["cells"][0] = 1
        out = _copy_sweep(sweep_dir, tmp_path / "tampered")
        rewrite_manifest(out, manifest)
        audit = audit_sweep(out)
        bad = outcome_of(audit, "sweep-manifest-readable")
        assert bad.status != STATUS_OK
        assert "expected a JSON object, got number" in bad.violations[0].message

    def test_spec_digest_mismatch(self, sweep_dir, tmp_path):
        manifest = manifest_of(sweep_dir)
        manifest["spec_digest"] = "0" * 16
        out = _copy_sweep(sweep_dir, tmp_path / "tampered")
        rewrite_manifest(out, manifest)
        audit = audit_sweep(out)
        bad = outcome_of(audit, "sweep-manifest-readable")
        assert bad.status != STATUS_OK
        assert any(
            "spec_digest" in violation.message
            for violation in bad.violations
        )

    def test_dropped_cell_breaks_partition(self, sweep_dir, tmp_path):
        manifest = manifest_of(sweep_dir)
        dropped = manifest["cells"].pop(0)
        out = _copy_sweep(sweep_dir, tmp_path / "tampered")
        rewrite_manifest(out, manifest)
        audit = audit_sweep(out)
        bad = outcome_of(audit, "sweep-cell-partition")
        assert bad.status != STATUS_OK
        assert any(
            dropped["cell_id"] in violation.message
            for violation in bad.violations
        )

    def test_foreign_baseline_rejected(self, sweep_dir, tmp_path):
        manifest = manifest_of(sweep_dir)
        manifest["baseline"] = "allowlist=imaginary"
        out = _copy_sweep(sweep_dir, tmp_path / "tampered")
        rewrite_manifest(out, manifest)
        audit = audit_sweep(out)
        assert outcome_of(audit, "sweep-baseline-cell").status != STATUS_OK

    def test_unreproducible_fingerprint(self, sweep_dir, tmp_path):
        manifest = manifest_of(sweep_dir)
        manifest["cells"][0]["fingerprint"] = "f" * 16
        out = _copy_sweep(sweep_dir, tmp_path / "tampered")
        rewrite_manifest(out, manifest)
        audit = audit_sweep(out)
        assert (
            outcome_of(audit, "sweep-fingerprint-unique").status != STATUS_OK
        )

    def test_tampered_archive_bytes(self, sweep_dir, tmp_path):
        out = _copy_sweep(sweep_dir, tmp_path / "tampered")
        cell_id = manifest_of(out)["cells"][0]["cell_id"]
        victim = out / "cells" / cell_id / "d_aa.jsonl"
        victim.write_text(victim.read_text() + "\n")
        audit = audit_sweep(out)
        assert (
            outcome_of(audit, "sweep-archive-integrity").status != STATUS_OK
        )

    def test_missing_archive_file(self, sweep_dir, tmp_path):
        out = _copy_sweep(sweep_dir, tmp_path / "tampered")
        cell_id = manifest_of(out)["cells"][0]["cell_id"]
        (out / "cells" / cell_id / "allowed_domains.txt").unlink()
        audit = audit_sweep(out)
        bad = outcome_of(audit, "sweep-archive-integrity")
        assert bad.status != STATUS_OK
        assert any(
            "allowed_domains.txt" in violation.message
            for violation in bad.violations
        )

    def test_marker_disagreeing_with_manifest(self, sweep_dir, tmp_path):
        out = _copy_sweep(sweep_dir, tmp_path / "tampered")
        cell_id = manifest_of(out)["cells"][0]["cell_id"]
        marker_path = out / "cells" / cell_id / "cell.json"
        marker = json.loads(marker_path.read_text())
        marker["metrics"]["targets"] = -1
        marker_path.write_text(json.dumps(marker))
        audit = audit_sweep(out)
        bad = outcome_of(audit, "sweep-marker-consistency")
        assert bad.status != STATUS_OK
        assert any(
            violation.context.get("field") == "metrics"
            for violation in bad.violations
        )

    def test_audit_report_saves_json(self, sweep_dir, tmp_path):
        audit = audit_sweep(sweep_dir)
        path = tmp_path / "audit.json"
        audit.save(path)
        saved = json.loads(path.read_text())
        assert saved["ok"] is True


def _copy_sweep(src, dst):
    import shutil

    shutil.copytree(src, dst)
    return dst
