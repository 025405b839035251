"""The report portal: determinism, degradation, self-containment, CLI.

The portal's contract has four legs:

* **byte-determinism** — the same archive renders the same site, twice
  in a row and across execution backends (serial vs process), because
  the archives themselves are byte-identical;
* **graceful degradation** — a bare archive (no trace, metrics, spans,
  checkpoints, or metamorphic verdicts) renders a complete site whose
  optional pages carry explicit "not captured" notes, never a crash;
* **self-containment** — every href/src resolves inside the output
  directory and nothing references the network;
* **CLI** — ``repro report`` and ``repro crawl --report-out`` both
  produce the site in-process.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.cli import main
from repro.crawler.archive import save_crawl
from repro.crawler.parallel import ShardedCrawl
from repro.report.bench import history_series, load_history
from repro.report.html import NAV_PAGES
from repro.report.site import build_site, generate_report, resolve_history
from repro.util.codec import FormatError
from repro.validate.artifacts import CrawlArtifacts
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator

TINY_SITES = 240

_PAGES = tuple(filename for filename, _ in NAV_PAGES)


def _load_script(name: str):
    path = Path(__file__).resolve().parent.parent / "scripts" / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny_world():
    return WebGenerator(WorldConfig.small(TINY_SITES, seed=11)).generate()


@pytest.fixture(scope="module")
def instrumented_archive(tmp_path_factory):
    """A fully instrumented campaign archived with every optional artefact."""
    out = tmp_path_factory.mktemp("portal") / "arc"
    assert main(
        [
            "crawl", "--sites", str(TINY_SITES), "--seed", "11",
            "--shards", "3", "--out", str(out),
            "--trace-out", str(out / "trace.jsonl"),
            "--metrics-out", str(out / "metrics.json"),
            "--span-out", str(out / "spans.jsonl"),
            "--checkpoint-dir", str(out / "checkpoints"),
        ]
    ) == 0
    return out


@pytest.fixture(scope="module")
def bare_archive(tiny_world, tmp_path_factory):
    """The same campaign archived with no optional artefacts at all."""
    out = tmp_path_factory.mktemp("bare") / "arc"
    save_crawl(ShardedCrawl(tiny_world, shard_count=3).run(), out)
    return out


def _site_bytes(directory: Path) -> dict[str, bytes]:
    return {
        page.name: page.read_bytes() for page in sorted(directory.glob("*.html"))
    }


class TestDeterminism:
    def test_two_builds_are_byte_identical(self, instrumented_archive, tmp_path):
        first = generate_report(instrumented_archive, out=tmp_path / "a")
        second = generate_report(instrumented_archive, out=tmp_path / "b")
        assert set(_site_bytes(first)) == set(_PAGES)
        assert _site_bytes(first) == _site_bytes(second)

    def test_serial_and_process_backends_render_identically(
        self, tiny_world, tmp_path
    ):
        # Same archive *name* on both sides: the page title embeds it.
        for backend in ("serial", "process"):
            result = ShardedCrawl(
                tiny_world, shard_count=3, backend=backend
            ).run()
            save_crawl(result, tmp_path / backend / "arc")
            generate_report(
                tmp_path / backend / "arc", out=tmp_path / backend / "site"
            )
        assert _site_bytes(tmp_path / "serial" / "site") == _site_bytes(
            tmp_path / "process" / "site"
        )


class TestDegradation:
    def test_bare_archive_renders_every_page(self, bare_archive, tmp_path):
        # Explicit missing history: otherwise the repo-level seed
        # benchmarks/history.jsonl feeds the bench page via fallback.
        site = generate_report(
            bare_archive,
            out=tmp_path / "site",
            history=tmp_path / "no-history.jsonl",
        )
        pages = _site_bytes(site)
        assert set(pages) == set(_PAGES)
        for name in ("profile.html", "bench.html"):
            assert b"not captured" in pages[name]
        # health: trace AND metrics both absent → two notes.
        assert pages["health.html"].count(b"not captured") == 2
        # validation: the audit still runs; metamorphic is the absent leg.
        assert b"not captured" in pages["validation.html"]
        assert b"Audit verdict" in pages["validation.html"]

    @pytest.mark.parametrize(
        "removed, page_name",
        [
            ("trace.jsonl", "health.html"),
            ("metrics.json", "health.html"),
            ("spans.jsonl", "profile.html"),
        ],
    )
    def test_each_absent_artifact_renders_a_note(
        self, instrumented_archive, tmp_path, removed, page_name
    ):
        # Rebuild the bundle with one artefact pointed at a missing path
        # (equivalent to the file never having been exported).
        pruned = tmp_path / "pruned"
        pruned.mkdir()
        for artefact in instrumented_archive.iterdir():
            if artefact.name in (removed, "checkpoints", "report"):
                continue
            if artefact.is_file():
                (pruned / artefact.name).write_bytes(artefact.read_bytes())
        site = generate_report(pruned, out=tmp_path / "site")
        assert b"not captured" in (site / page_name).read_bytes()

    def test_instrumented_profile_and_health_have_no_notes(
        self, instrumented_archive, tmp_path
    ):
        site = generate_report(instrumented_archive, out=tmp_path / "site")
        assert b"not captured" not in (site / "profile.html").read_bytes()
        health = (site / "health.html").read_bytes()
        assert b"not captured" not in health
        assert b"Counter cross-checks" in health
        assert b"MISMATCH" not in health


class TestSelfContainment:
    def test_link_checker_passes(self, instrumented_archive, tmp_path):
        site = generate_report(instrumented_archive, out=tmp_path / "site")
        checker = _load_script("check_report_links.py")
        assert checker.check_site(site) == []

    def test_no_external_references_or_scripts(
        self, instrumented_archive, tmp_path
    ):
        site = generate_report(instrumented_archive, out=tmp_path / "site")
        for page in site.glob("*.html"):
            text = page.read_text()
            assert "<script" not in text
            assert 'href="http' not in text and 'src="http' not in text

    def test_link_checker_flags_external_and_broken(self, tmp_path):
        site = tmp_path / "site"
        site.mkdir()
        (site / "index.html").write_text(
            '<a href="https://example.com">x</a><img src="missing.png">'
        )
        checker = _load_script("check_report_links.py")
        problems = checker.check_site(site)
        assert any("external" in p for p in problems)
        assert any("broken" in p for p in problems)
        assert checker.main([str(site)]) == 1


class TestBenchPage:
    def test_history_feeds_the_trajectory(self, bare_archive, tmp_path):
        history = tmp_path / "history.jsonl"
        history.write_text(
            '{"benchmark": "test_crawl_throughput", "visits_per_second": '
            '50000.0, "baseline": 48000.0, "commit": "abc123"}\n'
            '{"benchmark": "test_crawl_throughput", "visits_per_second": '
            '52000.0, "baseline": 48000.0, "commit": "def456"}\n'
        )
        site = generate_report(bare_archive, out=tmp_path / "site", history=history)
        bench = (site / "bench.html").read_text()
        assert "test_crawl_throughput" in bench
        assert "not captured" not in bench
        assert "<svg" in bench

    def test_resolve_history_prefers_archive_copy(self, tmp_path):
        archive = tmp_path / "arc"
        archive.mkdir()
        assert resolve_history(archive, tmp_path / "x.jsonl") == tmp_path / "x.jsonl"
        (archive / "history.jsonl").write_text("")
        assert resolve_history(archive) == archive / "history.jsonl"

    def test_history_grouping(self):
        records = [
            {"benchmark": "b", "visits_per_second": 1.0},
            {"benchmark": "a", "visits_per_second": 2.0},
            {"benchmark": "b", "visits_per_second": 3.0},
        ]
        series = history_series(records)
        assert list(series) == ["a", "b"]
        assert [r["visits_per_second"] for r in series["b"]] == [1.0, 3.0]

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("[1, 2]", "expected a JSON object, got array"),
            ('{"benchmark": 7}', "'benchmark' has the wrong type"),
            ('{"benchmark": "b", "visits_per_second": "fast"}',
             "'visits_per_second' has the wrong type"),
            ('{"benchmark": "b", "commit": 7}', "'commit' has the wrong type"),
        ],
        ids=["array", "benchmark", "figure", "commit"],
    )
    def test_load_history_names_a_bad_line(self, tmp_path, line, reason):
        history = tmp_path / "history.jsonl"
        history.write_text(
            '{"benchmark": "b", "visits_per_second": 1.0}\n' + line + "\n"
        )
        with pytest.raises(FormatError, match=reason) as caught:
            load_history(history)
        assert (caught.value.path, caught.value.line) == (str(history), 2)

    def test_load_history_tolerates_absence(self, tmp_path):
        assert load_history(None) == []
        assert load_history(tmp_path / "missing.jsonl") == []
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert load_history(empty) == []


class TestCli:
    def test_report_command(self, capsys, instrumented_archive, tmp_path):
        out = tmp_path / "site"
        assert main(
            ["report", str(instrumented_archive), "--out", str(out)]
        ) == 0
        assert "report portal" in capsys.readouterr().out
        assert set(_site_bytes(out)) == set(_PAGES)

    def test_report_default_output_dir(self, bare_archive, capsys):
        assert main(["report", str(bare_archive)]) == 0
        capsys.readouterr()
        assert (bare_archive / "report" / "index.html").exists()

    def test_crawl_report_out(self, capsys, tmp_path):
        out_dir = tmp_path / "campaign"
        site_dir = tmp_path / "site"
        assert main(
            [
                "crawl", "--sites", str(TINY_SITES), "--seed", "11",
                "--out", str(out_dir),
                "--metrics-out", str(out_dir / "metrics.json"),
                "--span-out", str(out_dir / "spans.jsonl"),
                "--report-out", str(site_dir),
            ]
        ) == 0
        assert "report portal" in capsys.readouterr().out
        assert set(_site_bytes(site_dir)) == set(_PAGES)
        # The exported artefacts made it into the portal, not the notes.
        assert b"not captured" not in (site_dir / "profile.html").read_bytes()


class TestSiteStructure:
    def test_every_page_links_all_pages(self, bare_archive, tmp_path):
        site = generate_report(bare_archive, out=tmp_path / "site")
        for page in _PAGES:
            text = (site / page).read_text()
            for other in _PAGES:
                assert f'href="{other}"' in text

    def test_build_site_in_memory(self, bare_archive):
        artifacts = CrawlArtifacts.load(bare_archive)
        site = build_site(artifacts)
        assert set(site.pages) == set(_PAGES)
        assert site.title.endswith(bare_archive.name)
