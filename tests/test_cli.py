"""Tests for the command-line interface (invoking main() in-process)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["not-a-command"])

    def test_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.sites == 50_000 and args.seed == 1


class TestCommands:
    def test_study_small(self, capsys, tmp_path):
        code = main(
            ["study", "--sites", "1500", "--out", str(tmp_path / "out")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out
        assert "Figure 7" in out
        assert "Paper vs measured" in out
        assert (tmp_path / "out" / "table1.csv").exists()
        assert (tmp_path / "out" / "d_ba.jsonl").exists()

    def test_crawl_then_analyze(self, capsys, tmp_path):
        out_dir = str(tmp_path / "campaign")
        assert main(["crawl", "--sites", "1200", "--out", out_dir]) == 0
        capsys.readouterr()
        assert main(["analyze", "--data", out_dir]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "distillery.com" in out

    def test_crawl_sharded(self, tmp_path):
        out_dir = str(tmp_path / "campaign")
        assert main(
            ["crawl", "--sites", "1200", "--out", out_dir, "--shards", "3"]
        ) == 0

    def test_crawl_sharded_honours_limit(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "campaign"
        assert main(
            [
                "crawl", "--sites", "1200", "--out", str(out_dir),
                "--shards", "3", "--limit", "100",
            ]
        ) == 0
        assert "/100 sites" in capsys.readouterr().out
        report = json.loads((out_dir / "report.json").read_text())
        assert report["targets"] == 100

    def test_crawl_healthy_allowlist(self, capsys, tmp_path):
        out_dir = str(tmp_path / "campaign")
        assert main(
            [
                "crawl", "--sites", "1200", "--out", out_dir,
                "--healthy-allowlist",
            ]
        ) == 0
        capsys.readouterr()
        assert main(["analyze", "--data", out_dir]) == 0
        out = capsys.readouterr().out
        # With gating intact, no !Allowed caller gets through.
        assert "!Allowed                    0" in out

    def test_crawl_span_out_round_trips(self, capsys, tmp_path):
        out_dir = str(tmp_path / "campaign")
        span_path = tmp_path / "spans.jsonl"
        assert main(
            [
                "crawl", "--sites", "1200", "--out", out_dir,
                "--span-out", str(span_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "spans to" in out
        assert "Campaign profile" in out
        assert "stage breakdown" in out

        from repro.obs import SpanRecorder

        spans = SpanRecorder.read_jsonl(span_path)
        assert spans
        assert SpanRecorder.read_meta(span_path).dropped == 0
        assert any(s.name == "campaign" for s in spans)

    def test_crawl_chrome_trace_is_valid(self, capsys, tmp_path):
        """Acceptance pin: --chrome-trace-out emits loadable trace JSON
        where every event has ph/ts/name and B/E pairs balance."""
        import json

        out_dir = str(tmp_path / "campaign")
        trace_path = tmp_path / "trace.json"
        assert main(
            [
                "crawl", "--sites", "1200", "--out", out_dir, "--shards", "3",
                "--chrome-trace-out", str(trace_path),
            ]
        ) == 0
        capsys.readouterr()
        data = json.loads(trace_path.read_text())
        events = data["traceEvents"]
        assert events
        stacks = {}
        for event in events:
            assert event["ph"] in ("B", "E")
            assert "ts" in event and "name" in event
            stack = stacks.setdefault((event["pid"], event["tid"]), [])
            if event["ph"] == "B":
                stack.append(event["name"])
            else:
                assert stack and stack[-1] == event["name"]
                stack.pop()
        assert all(not stack for stack in stacks.values())

    def test_crawl_progress_line(self, capsys, tmp_path):
        out_dir = str(tmp_path / "campaign")
        assert main(
            [
                "crawl", "--sites", "1200", "--out", out_dir, "--shards", "2",
                "--progress",
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "crawl:" in err
        assert "visits/s" in err
        assert "shards 0:" in err
        assert err.endswith("\n")

    def test_crawl_sharded_profile_names_straggler(self, capsys, tmp_path):
        out_dir = str(tmp_path / "campaign")
        assert main(
            [
                "crawl", "--sites", "1500", "--out", out_dir, "--shards", "3",
                "--span-out", str(tmp_path / "spans.jsonl"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "straggler:" in out
        assert "bounds the campaign's finished_at" in out

    def test_crawl_checkpointed_resume_is_byte_identical(self, capsys, tmp_path):
        """Acceptance pin: --resume over the same checkpoint directory
        re-archives the campaign byte-for-byte."""
        first = tmp_path / "first"
        second = tmp_path / "second"
        checkpoints = str(tmp_path / "checkpoints")
        base = [
            "crawl", "--sites", "1200", "--shards", "2",
            "--checkpoint-dir", checkpoints, "--checkpoint-every", "100",
        ]
        assert main(base + ["--out", str(first)]) == 0
        capsys.readouterr()
        assert main(base + ["--out", str(second), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed shards 0, 1" in out
        for name in sorted(p.name for p in first.iterdir()):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_crawl_checkpoint_dir_created(self, capsys, tmp_path):
        checkpoints = tmp_path / "checkpoints"
        assert main(
            [
                "crawl", "--sites", "1200", "--out", str(tmp_path / "c"),
                "--checkpoint-dir", str(checkpoints),
                "--checkpoint-every", "150",
            ]
        ) == 0
        assert (checkpoints / "MANIFEST.json").exists()
        shard_files = list((checkpoints / "shard-00").glob("checkpoint-*.jsonl"))
        assert shard_files

    def test_analyze_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["analyze", "--data", str(tmp_path / "nope")])

    def test_probe_attested(self, capsys):
        code = main(["probe", "--sites", "800", "distillery.com"])
        out = capsys.readouterr().out
        assert code == 0
        assert "valid attestation: True" in out
        assert "Allowed:           False" in out

    def test_probe_unknown_domain_fails(self, capsys):
        code = main(["probe", "--sites", "800", "no-such-party.example"])
        assert code == 1

    def test_reident(self, capsys):
        code = main(
            ["reident", "--population", "15", "--epochs", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "observation epochs" in out or "epochs" in out
        assert "uplift" in out

    def test_monitor(self, capsys):
        code = main(
            [
                "monitor", "--sites", "1000",
                "--dates", "2023-10-01,2024-06-01",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2023-10-01" in out and "2024-06-01" in out

    def test_crawl_us_vantage_sees_fewer_banners(self, capsys, tmp_path):
        eu_dir = str(tmp_path / "eu")
        us_dir = str(tmp_path / "us")
        main(["crawl", "--sites", "2000", "--out", eu_dir])
        eu_line = capsys.readouterr().out.splitlines()[0]
        main(["crawl", "--sites", "2000", "--out", us_dir, "--vantage", "us"])
        us_line = capsys.readouterr().out.splitlines()[0]

        import re

        def accepted(line: str) -> int:
            match = re.search(r"([\d,]+) After-Accept", line)
            assert match is not None, line
            return int(match.group(1).replace(",", ""))

        assert accepted(us_line) < accepted(eu_line)

    def test_robustness(self, capsys):
        code = main(["robustness", "--sites", "1200", "--seeds", "2,5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Seed grid" in out
        assert "within their paper bands" in out

    def test_diff_identical_campaigns(self, capsys, tmp_path):
        out_dir = str(tmp_path / "c")
        main(["crawl", "--sites", "1200", "--out", out_dir])
        capsys.readouterr()
        code = main(["diff", "--before", out_dir, "--after", out_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "(none)" in out

    def test_targeting(self, capsys):
        code = main(["targeting", "--population", "15", "--epochs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cookie-profile" in out and "topics" in out

    def test_audit_cmp(self, capsys):
        code = main(["audit-cmp", "--sites", "2500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "HubSpot" in out
        assert "flagged CMPs" in out


class TestValidateCommand:
    def test_crawl_with_validate_flag_audits_archive(self, capsys, tmp_path):
        out_dir = str(tmp_path / "campaign")
        code = main(["crawl", "--sites", "300", "--out", out_dir, "--validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"audit of {out_dir}" in out
        assert "RESULT: PASS" in out

    def test_validate_archive_passes_and_writes_json(self, capsys, tmp_path):
        out_dir = str(tmp_path / "campaign")
        assert main(["crawl", "--sites", "300", "--out", out_dir]) == 0
        capsys.readouterr()
        json_out = str(tmp_path / "audit.json")
        code = main(["validate", out_dir, "--json-out", json_out])
        out = capsys.readouterr().out
        assert code == 0
        assert "RESULT: PASS" in out
        import json

        payload = json.loads((tmp_path / "audit.json").read_text())
        assert payload["ok"] is True

    def test_validate_corrupted_archive_fails(self, capsys, tmp_path):
        out_dir = tmp_path / "campaign"
        assert main(["crawl", "--sites", "300", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        import json

        report = json.loads((out_dir / "report.json").read_text())
        report["ok"] += 5
        (out_dir / "report.json").write_text(json.dumps(report))
        code = main(["validate", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL report-accounting" in out
        assert "RESULT: FAIL" in out

    @pytest.mark.parametrize("command", ["validate", "report"])
    @pytest.mark.parametrize(
        "line", ['{"seq": 9, "at"', "[1,2]"], ids=["truncated", "array"]
    )
    def test_corrupt_trace_fails_closed(self, capsys, tmp_path, command, line):
        out_dir = tmp_path / "campaign"
        trace = out_dir / "trace.jsonl"
        args = ["crawl", "--sites", "120", "--out", str(out_dir)]
        assert main([*args, "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        lines = len(trace.read_text().splitlines())
        with trace.open("a") as handle:
            handle.write(line + "\n")
        code = main([command, str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {trace}:{lines + 1}: ")

    @pytest.mark.parametrize(
        "name, line, reason",
        [
            ("d_ba.jsonl", '{"rank": 9, "dom', "malformed JSON"),
            ("d_ba.jsonl", "[1,2]", "expected a JSON object, got array"),
            ("attestation_survey.jsonl", '{"domain": "x.com"}', "missing field"),
        ],
        ids=["truncated-row", "array-row", "short-probe"],
    )
    def test_corrupt_archive_line_fails_closed(
        self, capsys, tmp_path, name, line, reason
    ):
        out_dir = tmp_path / "campaign"
        assert main(["crawl", "--sites", "300", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        target = out_dir / name
        lines = len(target.read_text().splitlines())
        with target.open("a") as handle:
            handle.write(line + "\n")
        code = main(["validate", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {target}:{lines + 1}: {reason}")

    def test_extra_report_key_fails_closed(self, capsys, tmp_path):
        out_dir = tmp_path / "campaign"
        assert main(["crawl", "--sites", "300", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        import json

        report = json.loads((out_dir / "report.json").read_text())
        report["bogus"] = 1
        (out_dir / "report.json").write_text(json.dumps(report))
        code = main(["validate", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(
            f"error: {out_dir / 'report.json'}: unexpected field 'bogus'"
        )

    def test_validate_without_archive_errors(self, capsys):
        code = main(["validate"])
        out = capsys.readouterr().out
        assert code == 2
        assert "archive directory is required" in out

    def test_validate_metamorphic(self, capsys, tmp_path):
        json_out = str(tmp_path / "meta.json")
        code = main(
            [
                "validate",
                "--metamorphic",
                "--sites",
                "160",
                "--shard-counts",
                "1,2",
                "--backends",
                "serial",
                "--json-out",
                json_out,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "RESULT: PASS" in out
        import json

        payload = json.loads((tmp_path / "meta.json").read_text())
        assert payload["ok"] is True
        assert len(payload["relations"]) == 6


_TINY_SWEEP_TOML = """\
name = "cli-tiny"

[world]
sites = 300
seed = 5

[[axes]]
name = "allowlist"
[[axes.values]]
name = "corrupted"
allowlist = "corrupted"
[[axes.values]]
name = "healthy"
allowlist = "healthy"

[baseline]
allowlist = "corrupted"

[[assertions]]
kind = "bound"
metric = "anomalous_calls"
where.allowlist = "healthy"
equals = 0
"""


class TestSweepCommand:
    def test_sweep_list_prints_cell_table(self, capsys):
        code = main(["sweep", "ci_smoke", "--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 cell(s)" in out
        assert "allowlist=corrupted,vantage=eu *baseline" in out
        assert "allowlist=healthy,vantage=us" in out

    def test_sweep_requires_out(self, capsys):
        code = main(["sweep", "ci_smoke"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--out is required" in err

    def test_sweep_unknown_scenario_errors(self, capsys):
        code = main(["sweep", "nope_not_a_scenario", "--out", "x"])
        err = capsys.readouterr().err
        assert code == 2
        assert "declared" in err

    def test_sweep_runs_and_audit_passes(self, capsys, tmp_path):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(_TINY_SWEEP_TOML)
        out_dir = tmp_path / "sweep"
        json_out = tmp_path / "sweep-report.json"
        code = main(
            [
                "sweep",
                str(spec_path),
                "--out",
                str(out_dir),
                "--backend",
                "serial",
                "--json-out",
                str(json_out),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "result: OK" in out
        assert "[PASS] anomalous_calls == 0 where allowlist=healthy" in out
        assert (out_dir / "sweep.json").exists()
        assert (out_dir / "report" / "index.html").exists()
        import json

        payload = json.loads(json_out.read_text())
        assert payload["ok"] is True
        assert payload["scenario"] == "cli-tiny"
        assert len(payload["cells"]) == 2

        code = main(["validate", str(out_dir), "--sweep"])
        audit_out = capsys.readouterr().out
        assert code == 0
        assert "RESULT: PASS" in audit_out
        assert "sweep-archive-integrity" in audit_out

    def test_validate_sweep_requires_directory(self, capsys):
        code = main(["validate", "--sweep"])
        out = capsys.readouterr().out + capsys.readouterr().err
        assert code == 2

    def test_sweep_sites_override(self, capsys, tmp_path):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(_TINY_SWEEP_TOML)
        code = main(
            ["sweep", str(spec_path), "--sites", "250", "--list"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 cell(s)" in out
