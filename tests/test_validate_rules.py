"""The invariant engine: zero violations on a pristine archive, and one
seeded-defect fixture per registered rule proving the rule fires.

The pristine fixture is a fully instrumented resumable campaign — every
artefact class present (datasets, survey, allow-list, report, trace,
metrics, checkpoints) — so the audit exercises the whole catalogue.
Each defect test copies the archive, corrupts exactly one artefact the
way a real bug would, and asserts the matching rule reports a
violation.  A coverage meta-test fails if any registered rule has no
defect fixture.
"""

import json
import shutil

import pytest

from repro.crawler.archive import save_crawl
from repro.crawler.resumable import ResumableCrawl
from repro.crawler.wellknown import AttestationProbe
from repro.obs import MetricsRegistry, Recorder, Telemetry
from repro.validate import (
    RULE_REGISTRY,
    CrawlArtifacts,
    Severity,
    audit_archive,
    audit_artifacts,
    render_audit,
)
from repro.validate.engine import STATUS_SKIPPED, STATUS_VIOLATED
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator

RULES_SITES = 240


@pytest.fixture(scope="module")
def pristine_archive(tmp_path_factory):
    """One instrumented, checkpointed campaign archived with every artefact."""
    world = WebGenerator(WorldConfig.small(RULES_SITES, seed=13)).generate()
    recorder, metrics = Recorder(), MetricsRegistry()
    archive = tmp_path_factory.mktemp("pristine") / "archive"
    outcome = ResumableCrawl(
        world,
        checkpoint_dir=archive / "checkpoints",
        shard_count=3,
        checkpoint_every=25,
        backend="serial",
        telemetry=Telemetry(recorder, metrics),
    ).run()
    save_crawl(outcome.result, archive)
    recorder.write(trace=archive / "trace.jsonl")
    metrics.snapshot().save(archive / "metrics.json")
    assert outcome.partial is None  # campaign completed
    return archive


@pytest.fixture
def archive(pristine_archive, tmp_path):
    """A private, corruptible copy of the pristine archive."""
    copy = tmp_path / "archive"
    shutil.copytree(pristine_archive, copy)
    return copy


# -- corruption helpers --------------------------------------------------------


def _load_jsonl(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def _dump_jsonl(path, rows):
    path.write_text(
        "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    )


def _edit_json(path, mutate):
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data, indent=2, sort_keys=True))


def _first_call(rows, predicate=lambda row, call: True):
    for row in rows:
        for call in row["calls"]:
            if predicate(row, call):
                return row, call
    raise AssertionError("fixture archive has no matching call")


# -- the seeded defects, one per rule ------------------------------------------


def _defect_report_accounting(archive):
    _edit_json(archive / "report.json", lambda d: d.update(ok=d["ok"] + 5))


def _defect_rank_partition(archive):
    rows = _load_jsonl(archive / "d_ba.jsonl")
    rows[1]["rank"] = rows[0]["rank"]
    _dump_jsonl(archive / "d_ba.jsonl", rows)


def _defect_after_accept_subset(archive):
    rows = _load_jsonl(archive / "d_aa.jsonl")
    rows[0]["domain"] = "never-visited.example"
    _dump_jsonl(archive / "d_aa.jsonl", rows)


def _defect_gating_decisions(archive):
    rows = _load_jsonl(archive / "d_ba.jsonl")
    _, call = _first_call(rows)
    call["decision"] = "blocked-not-enrolled"
    call["topics_returned"] = 2
    _dump_jsonl(archive / "d_ba.jsonl", rows)


def _defect_anomalous_not_allowed(archive):
    allowed = set(
        (archive / "allowed_domains.txt").read_text().split()
    )
    rows = _load_jsonl(archive / "d_ba.jsonl")
    _, call = _first_call(rows, lambda row, c: c["caller"] not in allowed)
    call["decision"] = "allowed-enrolled"
    _dump_jsonl(archive / "d_ba.jsonl", rows)


def _defect_questionable_before_accept(archive):
    aa_domains = {
        row["domain"]
        for row in _load_jsonl(archive / "d_aa.jsonl")
        if row["calls"]
    }
    rows = _load_jsonl(archive / "d_ba.jsonl")
    _, call = _first_call(rows, lambda row, c: row["domain"] in aa_domains)
    call["at"] = 10**9  # Before-Accept call after every After-Accept call
    _dump_jsonl(archive / "d_ba.jsonl", rows)


def _defect_fraction_bounds(archive):
    _edit_json(
        archive / "report.json",
        lambda d: d.update(accepted=d["ok"] + 5),  # accept_rate > 1
    )


def _defect_taxonomy_resolves(archive):
    rows = _load_jsonl(archive / "d_ba.jsonl")
    _, call = _first_call(
        rows, lambda row, c: c["decision"] != "blocked-not-enrolled"
    )
    call["topics_returned"] = 99
    _dump_jsonl(archive / "d_ba.jsonl", rows)


def _defect_survey_coverage(archive):
    path = archive / "attestation_survey.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[1:]) + "\n")  # drop one surveyed party


def _defect_trace_consistency(archive):
    path = archive / "trace.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-5]) + "\n")  # truncated export


def _defect_trace_drop_free(archive):
    path = archive / "trace.jsonl"
    lines = path.read_text().splitlines()
    meta = json.loads(lines[0])["meta"]
    meta["dropped"] = 3
    meta["emitted"] += 3  # bookkeeping stays consistent; only drops appear
    lines[0] = json.dumps({"meta": meta}, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


def _defect_metrics_consistency(archive):
    def mutate(data):
        for entry in data["counters"]:
            if entry["name"] == "crawl_visits_total" and entry["labels"] == {
                "phase": "before-accept",
                "outcome": "ok",
            }:
                entry["value"] -= 1
                return
        raise AssertionError("expected counter missing from metrics.json")

    _edit_json(archive / "metrics.json", mutate)


def _defect_checkpoint_partition(archive):
    _edit_json(
        archive / "checkpoints" / "MANIFEST.json",
        lambda d: d["shards"]["1"].update(
            targets=d["shards"]["1"]["targets"] + 10
        ),  # rank ranges now overlap shard 2's slice
    )


def _defect_partial_consistency(archive):
    (archive / "partial.json").write_text(
        json.dumps(
            {
                "missing_targets": 10,
                "missing_ranges": [
                    {"shard": 0, "from_rank": 5, "to_rank": 9, "error": "x"},
                    {"shard": 1, "from_rank": 8, "to_rank": 12, "error": "y"},
                ],
            }
        )
    )


DEFECTS = [
    ("report-accounting", _defect_report_accounting),
    ("rank-partition", _defect_rank_partition),
    ("after-accept-subset", _defect_after_accept_subset),
    ("gating-decisions", _defect_gating_decisions),
    ("anomalous-not-allowed", _defect_anomalous_not_allowed),
    ("questionable-before-accept", _defect_questionable_before_accept),
    ("fraction-bounds", _defect_fraction_bounds),
    ("taxonomy-resolves", _defect_taxonomy_resolves),
    ("survey-coverage", _defect_survey_coverage),
    ("trace-consistency", _defect_trace_consistency),
    ("trace-drop-free", _defect_trace_drop_free),
    ("metrics-consistency", _defect_metrics_consistency),
    ("checkpoint-partition", _defect_checkpoint_partition),
    ("partial-consistency", _defect_partial_consistency),
]


class TestPristineArchive:
    def test_zero_violations(self, pristine_archive):
        report = audit_archive(pristine_archive)
        assert report.ok, render_audit(report)
        assert report.violations == []

    def test_only_partial_rule_skipped(self, pristine_archive):
        """Every artefact except the partial manifest is present, so only
        its rule may be skipped — proof the fixture exercises the rest."""
        report = audit_archive(pristine_archive)
        skipped = {outcome.rule for outcome in report.skipped()}
        assert skipped == {"partial-consistency"}

    def test_json_report_roundtrips(self, pristine_archive, tmp_path):
        report = audit_archive(pristine_archive)
        out = tmp_path / "audit.json"
        report.save(out)
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["errors"] == 0
        assert len(payload["outcomes"]) == len(RULE_REGISTRY)


class TestSeededDefects:
    @pytest.mark.parametrize(
        "rule_name,corrupt", DEFECTS, ids=[name for name, _ in DEFECTS]
    )
    def test_rule_fires_on_its_defect(self, archive, rule_name, corrupt):
        corrupt(archive)
        report = audit_archive(archive)
        fired = {
            outcome.rule
            for outcome in report.outcomes
            if outcome.status == STATUS_VIOLATED
        }
        assert rule_name in fired, render_audit(report)
        if RULE_REGISTRY[rule_name].severity is Severity.ERROR:
            assert not report.ok
        else:
            # WARNING-severity rules surface without failing the audit.
            assert report.ok

    def test_every_registered_rule_has_a_defect_fixture(self):
        assert {name for name, _ in DEFECTS} == set(RULE_REGISTRY)

    def test_violations_carry_structured_context(self, archive):
        _defect_rank_partition(archive)
        report = audit_archive(archive)
        (outcome,) = [
            o for o in report.outcomes if o.rule == "rank-partition"
        ]
        assert outcome.violations
        violation = outcome.violations[0]
        assert violation.context["rank"] >= 1
        assert violation.to_dict()["severity"] == "error"


class TestSurveyCoverage:
    def test_unexpected_and_unserved_rows_in_domain_order(self, archive):
        path = archive / "attestation_survey.jsonl"
        rows = _load_jsonl(path)
        absent = [row for row in rows if not (row["served"] or row["valid"])]
        never_met = [
            "aaa-never-met.example",
            "mmm-never-met.example",
            "zzz-never-met.example",
        ]
        unserved = [absent[len(absent) // 3]["domain"], absent[-1]["domain"]]
        unserved.append(never_met[1])  # both defects on one row
        rows += [
            {
                "domain": domain,
                "served": False,
                "valid": False,
                "issued": None,
                "has_enrollment_site": False,
            }
            for domain in never_met
        ]
        for row in rows:
            if row["domain"] in unserved:
                row["valid"] = True
        rows.sort(key=lambda row: row["domain"])
        path.write_text(
            "".join(AttestationProbe(**row).to_json() + "\n" for row in rows)
        )

        report = audit_archive(archive)
        (outcome,) = [o for o in report.outcomes if o.rule == "survey-coverage"]
        # Domain order; per domain the unexpected finding comes first.
        findings = sorted(
            [(domain, 0) for domain in never_met]
            + [(domain, 1) for domain in unserved]
        )
        assert [v.message for v in outcome.violations] == [
            f"survey probes {domain!r}, which the campaign never encountered"
            if kind == 0
            else f"probe of {domain!r} is valid but was never served"
            for domain, kind in findings
        ]
        assert [v.context for v in outcome.violations] == [
            {"domain": domain} for domain, _ in findings
        ]


class TestTaxonomyInjection:
    def test_orphan_taxonomy_entries_fail_construction(self, pristine_archive):
        from repro.taxonomy.tree import TopicNode

        artifacts = CrawlArtifacts.load(
            pristine_archive,
            taxonomy_entries=(
                TopicNode(topic_id=1, path="/Arts & Entertainment"),
                TopicNode(topic_id=2, path="/Orphans/Deep/Child"),
            ),
        )
        report = audit_artifacts(artifacts)
        (outcome,) = [
            o for o in report.outcomes if o.rule == "taxonomy-resolves"
        ]
        assert outcome.status == STATUS_VIOLATED
        assert "taxonomy does not construct" in outcome.violations[0].message


class TestRuleRegistry:
    def test_duplicate_rule_names_rejected(self):
        from repro.validate.rules import rule

        with pytest.raises(ValueError, match="duplicate rule name"):
            rule("report-accounting", "clash")(lambda artifacts: iter(()))

    def test_rules_skip_when_artifacts_missing(self, pristine_archive, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        for name in (
            "report.json",
            "d_ba.jsonl",
            "d_aa.jsonl",
            "allowed_domains.txt",
            "attestation_survey.jsonl",
        ):
            shutil.copy(pristine_archive / name, bare / name)
        report = audit_archive(bare)
        assert report.ok
        skipped = {o.rule for o in report.skipped()}
        assert skipped == {
            "checkpoint-partition",
            "metrics-consistency",
            "partial-consistency",
            "trace-consistency",
            "trace-drop-free",
        }
        for outcome in report.skipped():
            assert outcome.status == STATUS_SKIPPED
            assert outcome.missing
