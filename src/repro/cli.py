"""Command-line interface: ``python -m repro <command>``.

Commands mirror the measurement workflow:

* ``study``   — the full paper: world → crawl → every table and figure;
* ``crawl``   — run a campaign and archive the datasets (JSONL);
* ``analyze`` — regenerate the tables/figures from an archived campaign;
* ``audit-cmp`` — the §5 CMP compliance audit;
* ``reident`` — the re-identification risk study;
* ``monitor`` — longitudinal monthly snapshots;
* ``probe``   — fetch and validate one domain's attestation file;
* ``sweep``   — expand a declarative scenario matrix and run one full
  campaign + analysis per cell, with cross-cell assertions;
* ``validate`` — audit an archived campaign with the invariant engine,
  audit a sweep directory (``--sweep``), or (``--metamorphic``) re-run
  a small campaign under perturbations;
* ``report``  — render a self-contained static HTML report portal from
  an archived campaign and its optional observability artefacts;
* ``serve`` / ``submit`` / ``watch`` / ``jobs`` / ``cancel`` /
  ``shutdown`` — the long-lived crawl service: campaigns become
  submitted jobs with streamed progress, cancellation and
  resume-on-restart (see :mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis import report as reports
from repro.analysis.classify import build_table1
from repro.analysis.cmp_analysis import average_questionable_rate, figure7
from repro.analysis.export import export_study
from repro.analysis.questionable import figure5
from repro.crawler.archive import load_crawl, save_crawl
from repro.crawler.campaign import CrawlCampaign
from repro.crawler.checkpoint import CheckpointStore, RetryPolicy
from repro.crawler.crawl import Crawl
from repro.crawler.executor import plan_shards
from repro.crawler.wellknown import probe_domain
from repro.experiments.config import ExperimentConfig
from repro.experiments.paper import render_comparisons
from repro.experiments.runner import run_full_study
from repro.longitudinal.monitor import LongitudinalMonitor, render_trend
from repro.privacy.experiment import (
    ReidentificationConfig,
    render_sweep,
    sweep_epochs,
    sweep_noise,
)
from repro.util.codec import FormatError
from repro.util.executor import BACKEND_ENV_VAR, BACKEND_NAMES
from repro.util.timeline import timestamp_from_date
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator
from repro.web.vantage import vantage_by_name


def _world_config(args: argparse.Namespace) -> WorldConfig:
    if args.sites >= 50_000:
        config = WorldConfig(seed=args.seed)
    else:
        config = WorldConfig.small(args.sites, seed=args.seed)
    config.vantage = vantage_by_name(getattr(args, "vantage", "eu"))
    return config


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.analysis.dataset_stats import render_stats

    config = ExperimentConfig(world=_world_config(args))
    result = run_full_study(config)
    sections = [
        render_stats(result.stats),
        reports.render_table1(result.table1),
        reports.render_figure2(result.fig2),
        reports.render_figure3(result.fig3),
        reports.render_figure5(result.fig5),
        reports.render_figure6(result.fig6),
        reports.render_figure7(result.fig7),
        reports.render_anomalous(result.anomalous),
        reports.render_enrollment(result.enrollment),
        "Paper vs measured:\n" + render_comparisons(result.comparisons()),
    ]
    print("\n\n".join(sections))
    if args.out:
        paths = export_study(result, args.out)
        save_crawl(result.crawl, args.out)
        print(f"\nWrote {len(paths)} CSV artefacts and the datasets to {args.out}/")
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    from repro.analysis.obs_report import (
        build_metrics_report,
        render_metrics_report,
        render_trace_health,
    )
    from repro.analysis.profile_report import profile_spans
    from repro.obs import MetricsRegistry, ProgressTracker, Recorder, Telemetry

    # --trace-out reports metrics too; a span file or Chrome trace prints
    # the span profile.
    instrument = bool(args.trace_out or args.metrics_out)
    profiled = bool(args.span_out or args.chrome_trace_out)
    off = Telemetry.OFF
    telemetry = Telemetry(
        recorder=Recorder() if args.trace_out or profiled else off.recorder,
        metrics=MetricsRegistry() if instrument else off.metrics,
    )
    recorder, metrics = telemetry.recorder, telemetry.metrics

    world = WebGenerator(_world_config(args)).generate()
    tracker = None
    if args.progress:
        tranco = world.tranco if args.limit is None else world.tranco.top(args.limit)
        plans = plan_shards(tranco, max(args.shards, 1))
        sizes = {plan.shard_index: len(plan.domains) for plan in plans}
        tracker = ProgressTracker(
            sum(sizes.values()), shard_sizes=sizes if len(sizes) > 1 else None
        )
        if args.resume and args.checkpoint_dir:
            # Restored visits stay out of the rate and the ETA.
            store = CheckpointStore(args.checkpoint_dir)
            for shard in sizes:
                checkpoint = store.latest(shard)
                if checkpoint is not None:
                    report = checkpoint.report
                    tracker.resumed(shard, report.completed, report.visits)
    crawl = Crawl(
        world,
        checkpoint_dir=args.checkpoint_dir or None,
        shard_count=max(args.shards, 1),
        checkpoint_every=args.checkpoint_every,
        corrupt_allowlist=not args.healthy_allowlist,
        max_workers=args.max_workers,
        backend=args.backend,
        limit=args.limit,
        resume=args.resume,
        allow_partial=args.allow_partial,
        retry_policy=RetryPolicy(max_retries=args.max_shard_retries),
        telemetry=telemetry,
        progress=tracker,
    )
    outcome = crawl.run()
    result = outcome.result
    partial = outcome.partial
    if outcome.resumed_shards:
        resumed = ", ".join(str(s) for s in outcome.resumed_shards)
        print(f"resumed shards {resumed} from {args.checkpoint_dir}/")
    if outcome.retries:
        print(f"recovered from {len(outcome.retries)} shard failure(s)")
    if tracker is not None:
        tracker.finish()
    report = result.report
    print(
        f"visited {report.ok:,}/{report.targets:,} sites, "
        f"{report.accepted:,} After-Accept ({report.accept_rate:.1%})"
    )
    save_crawl(result, args.out)
    print(f"archived campaign under {args.out}/")
    if partial is not None:
        from pathlib import Path

        partial_path = partial.save(Path(args.out) / "partial.json")
        print(
            f"PARTIAL campaign: {partial.missing_targets:,} targets missing "
            f"across {len(partial.missing)} range(s); see {partial_path}"
        )
    recorder.write(
        trace=args.trace_out or None,
        spans=args.span_out or None,
        chrome=args.chrome_trace_out or None,
    )
    if args.trace_out:
        trace_meta = recorder.trace_meta()
        held = trace_meta.emitted - trace_meta.dropped
        print(f"wrote {held:,} trace events to {args.trace_out}")
        if trace_meta.dropped:
            print(render_trace_health(trace_meta))
    if args.metrics_out:
        metrics.snapshot().save(args.metrics_out)
        print(f"wrote metrics snapshot to {args.metrics_out}")
    if args.span_out:
        span_meta = recorder.span_meta()
        held = span_meta.recorded - span_meta.dropped
        print(f"wrote {held:,} spans to {args.span_out}")
    if args.chrome_trace_out:
        print(
            f"wrote Chrome trace to {args.chrome_trace_out} "
            "(load in chrome://tracing or Perfetto)"
        )
    if instrument:
        print()
        print(render_metrics_report(build_metrics_report(metrics.snapshot())))
    if profiled:
        print()
        print(profile_spans(recorder.spans()))
    if args.report_out:
        from repro.report.bench import load_history
        from repro.report.site import build_site, resolve_history
        from repro.validate.artifacts import CrawlArtifacts

        artifacts = CrawlArtifacts.load(
            args.out,
            trace=args.trace_out or None,
            metrics=args.metrics_out or None,
            spans=args.span_out or None,
            checkpoint_dir=args.checkpoint_dir or None,
        )
        site = build_site(
            artifacts, load_history(resolve_history(args.out))
        )
        site_dir = site.write(args.report_out)
        print(f"wrote report portal to {site_dir}/ (open {site_dir}/index.html)")
    if args.validate:
        from repro.validate import audit_archive, render_audit

        audit = audit_archive(
            args.out,
            trace=args.trace_out or None,
            metrics=args.metrics_out or None,
            checkpoint_dir=args.checkpoint_dir or None,
        )
        print()
        print(render_audit(audit))
        if not audit.ok:
            return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.report import generate_report

    out = generate_report(args.archive, out=args.out, history=args.history)
    print(f"wrote report portal to {out}/ (open {out}/index.html)")
    if args.open:
        import webbrowser

        webbrowser.open((Path(out) / "index.html").resolve().as_uri())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    crawl = load_crawl(args.data)
    table = build_table1(crawl.d_ba, crawl.d_aa, crawl.allowed_domains, crawl.survey)
    print(reports.render_table1(table))
    print()
    print(
        reports.render_figure5(
            figure5(crawl.d_ba, crawl.allowed_domains, crawl.survey)
        )
    )
    return 0


def _cmd_audit_cmp(args: argparse.Namespace) -> int:
    world = WebGenerator(_world_config(args)).generate()
    crawl = CrawlCampaign(world, corrupt_allowlist=True).run()
    rows = figure7(crawl.d_ba, crawl.allowed_domains, crawl.survey, world.cmps)
    baseline = average_questionable_rate(rows)
    print(reports.render_figure7(rows))
    flagged = [
        row.name
        for row in rows
        if row.sites_total > 0 and row.p_questionable_given_cmp > 1.5 * baseline
    ]
    print(f"\nflagged CMPs (>1.5x baseline): {', '.join(flagged) or 'none'}")
    return 0


def _cmd_reident(args: argparse.Namespace) -> int:
    base = ReidentificationConfig(
        population_size=args.population,
        observation_epochs=args.epochs,
        noise_probability=args.noise,
        seed=args.seed,
    )
    print("Re-identification risk vs observation epochs:")
    print(
        render_sweep(
            sweep_epochs(base, backend=args.backend, max_workers=args.max_workers),
            "epochs",
        )
    )
    print("\nRe-identification risk vs noise rate:")
    print(
        render_sweep(
            sweep_noise(base, backend=args.backend, max_workers=args.max_workers),
            "noise",
        )
    )
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    world = WebGenerator(_world_config(args)).generate()
    dates = []
    for token in args.dates.split(","):
        year, month, day = (int(part) for part in token.strip().split("-"))
        dates.append(timestamp_from_date(year, month, day))
    monitor = LongitudinalMonitor(world, limit=args.limit)
    print(render_trend(monitor.run(dates)))
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.experiments.robustness import render_robustness, run_seed_grid

    seeds = [int(token) for token in args.seeds.split(",")]
    _, summaries = run_seed_grid(args.sites, seeds)
    print(render_robustness(summaries, seeds))
    out_of_band = [
        s.description for s in summaries if s.scale_free and not s.all_within_band
    ]
    if out_of_band:
        print(f"\nOUT OF BAND: {', '.join(out_of_band)}")
        return 1
    print("\nAll scale-free quantities within their paper bands on every seed.")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.analysis.compare_campaigns import diff_campaigns, render_diff

    before = load_crawl(args.before)
    after = load_crawl(args.after)
    print(render_diff(diff_campaigns(before, after)))
    return 0


def _cmd_targeting(args: argparse.Namespace) -> int:
    from repro.adserver import TargetingStudy, render_targeting

    study = TargetingStudy(
        population_size=args.population, epochs=args.epochs, seed=args.seed
    )
    print(render_targeting(study.run()))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        CellFailedError,
        ScenarioSpecError,
        baseline_cell,
        expand,
        render_cell_table,
        render_sweep_report,
        resolve_spec,
        run_sweep,
        write_sweep_page,
    )

    try:
        spec = resolve_spec(args.spec)
        overrides = {}
        if args.sites is not None:
            overrides["sites"] = args.sites
        if args.seed is not None:
            overrides["seed"] = args.seed
        if overrides:
            spec = spec.with_world_overrides(overrides)

        if args.list_cells:
            cells = expand(spec)
            baseline = baseline_cell(spec, cells)
            print(
                f"scenario {spec.name!r} ({spec.digest()}): "
                f"{len(cells)} cell(s)"
            )
            print(render_cell_table(cells, baseline.cell_id))
            return 0

        if not args.out:
            print("error: --out is required unless --list", file=sys.stderr)
            return 2
        outcome = run_sweep(
            spec,
            args.out,
            backend=args.backend,
            max_workers=args.max_workers,
            resume=args.resume,
        )
    except ScenarioSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CellFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(render_sweep_report(outcome.report))
    if outcome.resumed_cells:
        print(f"\nresumed {len(outcome.resumed_cells)} completed cell(s)")
    print(f"wrote sweep manifest to {outcome.manifest_path}")
    print(
        f"wrote sweep report page to {outcome.report_dir}/index.html"
    )
    if args.report_out:
        page = write_sweep_page(outcome.report, args.report_out)
        print(f"wrote sweep report page to {page}")
    if args.json_out:
        from pathlib import Path

        from repro.util.fsio import atomic_write_text

        atomic_write_text(Path(args.json_out), outcome.report.to_json())
        print(f"wrote sweep JSON to {args.json_out}")
    return 0 if outcome.report.ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validate import (
        MetamorphicHarness,
        audit_archive,
        audit_sweep,
        render_audit,
        render_metamorphic,
    )

    if args.sweep:
        if args.archive is None:
            print("error: a sweep directory is required with --sweep")
            return 2
        audit = audit_sweep(args.archive)
        print(render_audit(audit))
        if args.json_out:
            audit.save(args.json_out)
            print(f"wrote audit report to {args.json_out}")
        return 0 if audit.ok else 1

    if args.metamorphic:
        import tempfile

        workdir = args.workdir
        scratch = None
        if workdir is None:
            scratch = tempfile.TemporaryDirectory(prefix="repro-metamorphic-")
            workdir = scratch.name
        try:
            harness = MetamorphicHarness(
                workdir,
                sites=args.sites,
                seed=args.seed,
                shard_counts=tuple(
                    int(token) for token in args.shard_counts.split(",")
                ),
                backends=tuple(
                    token.strip() for token in args.backends.split(",")
                ),
            )
            report = harness.run()
        finally:
            if scratch is not None:
                scratch.cleanup()
        print(render_metamorphic(report))
        if args.json_out:
            report.save(args.json_out)
            print(f"wrote metamorphic report to {args.json_out}")
        return 0 if report.ok else 1

    if args.archive is None:
        print("error: an archive directory is required unless --metamorphic")
        return 2
    audit = audit_archive(
        args.archive,
        trace=args.trace,
        metrics=args.metrics,
        checkpoint_dir=args.checkpoint_dir,
        partial=args.partial,
    )
    print(render_audit(audit))
    if args.json_out:
        audit.save(args.json_out)
        print(f"wrote audit report to {args.json_out}")
    return 0 if audit.ok else 1


def _cmd_probe(args: argparse.Namespace) -> int:
    world = WebGenerator(_world_config(args)).generate()
    probe = probe_domain(world, args.domain, now=0)
    print(f"domain:            {probe.domain}")
    print(f"serves a file:     {probe.served}")
    print(f"valid attestation: {probe.valid}")
    if probe.issued:
        print(f"issued:            {probe.issued}")
    print(f"Allowed:           {world.registry.is_allowed(args.domain)}")
    return 0 if probe.attested else 1


# -- crawl service ------------------------------------------------------------


def _service_socket(args: argparse.Namespace) -> str:
    from pathlib import Path

    if args.socket:
        return args.socket
    return str(Path(args.data_dir) / "service.sock")


def _render_event(event: dict) -> str:
    kind = event["kind"]
    payload = event.get("payload", {})
    if kind == "job-submitted":
        spec = payload.get("spec", {})
        return (
            f"[{event['seq']:>4}] submitted: {spec.get('sites')} sites, "
            f"seed {spec.get('seed')}, {spec.get('shards')} shard(s)"
        )
    if kind == "job-started":
        resumed = payload.get("resumed", 0)
        suffix = f" (resume #{resumed})" if resumed else ""
        return f"[{event['seq']:>4}] started{suffix}"
    if kind == "shard-progress":
        return (
            f"[{event['seq']:>4}] shard {payload.get('shard')}: "
            f"{payload.get('completed')} targets done "
            f"({payload.get('visits')} visits)"
        )
    if kind == "shard-result":
        return (
            f"[{event['seq']:>4}] shard {payload.get('shard')} complete: "
            f"{payload.get('ok')}/{payload.get('domains')} ok, "
            f"{payload.get('accepted')} accepted, "
            f"{len(payload.get('d_ba', ()))} rows streamed"
        )
    if kind == "job-done":
        summary = payload.get("summary", {})
        return (
            f"[{event['seq']:>4}] done: {summary.get('ok')}/"
            f"{summary.get('targets')} sites, archive at "
            f"{payload.get('archive_dir')}"
        )
    if kind == "job-failed":
        return f"[{event['seq']:>4}] FAILED: {payload.get('error')}"
    if kind == "job-cancelled":
        return f"[{event['seq']:>4}] cancelled"
    return f"[{event['seq']:>4}] {kind}: {payload}"


def _stream_watch(client, job_id: str, *, since: int, policy: str) -> int:
    terminal_kind = None
    for item in client.watch(job_id, since=since, policy=policy):
        if "dropped" in item:
            print(f"  ... {item['dropped']} event(s) dropped (slow consumer)")
            continue
        event = item.get("event")
        if event is None:
            continue
        print(_render_event(event))
        if event["kind"] in ("job-done", "job-failed", "job-cancelled"):
            terminal_kind = event["kind"]
    return 0 if terminal_kind == "job-done" else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import CrawlService, ServiceServer

    async def serve() -> None:
        service = CrawlService(
            args.data_dir,
            max_jobs=args.max_jobs,
            backend=args.backend,
            max_workers=args.max_workers,
        )
        revived = await service.start()
        if revived:
            print(f"requeued {len(revived)} interrupted job(s): "
                  + ", ".join(revived))
        server = ServiceServer(service, _service_socket(args))
        await server.start()
        print(f"crawl service listening on {server.socket_path}")
        await server.serve_until_shutdown()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("interrupted; running jobs stay resumable in "
              f"{args.data_dir}/jobs/")
        return 130
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    spec = {
        "sites": args.sites,
        "seed": args.seed,
        "vantage": args.vantage,
        "shards": args.shards,
        "backend": args.backend,
        "max_workers": args.max_workers,
        "corrupt_allowlist": not args.healthy_allowlist,
        "limit": args.limit,
        "checkpoint_every": args.checkpoint_every,
        "max_shard_retries": args.max_shard_retries,
    }
    client = ServiceClient(_service_socket(args))
    job_id = client.submit(spec)
    print(f"submitted {job_id}")
    if args.watch:
        return _stream_watch(client, job_id, since=0, policy=args.policy)
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(_service_socket(args))
    return _stream_watch(
        client, args.job_id, since=args.since, policy=args.policy
    )


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    jobs = ServiceClient(_service_socket(args)).list_jobs()
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        spec = job.get("spec", {})
        line = (
            f"{job['job_id']}  {job['state']:<9}  "
            f"{spec.get('sites')} sites / {spec.get('shards')} shard(s)"
        )
        if job.get("error"):
            line += f"  error: {job['error']}"
        print(line)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    job = ServiceClient(_service_socket(args)).cancel(args.job_id)
    print(f"{job['job_id']}: {job['state']}")
    return 0


def _cmd_shutdown(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    ServiceClient(_service_socket(args)).shutdown()
    print("service shutting down")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A First View of Topics API Usage in the Wild'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_world_args(p: argparse.ArgumentParser, default_sites: int) -> None:
        p.add_argument("--sites", type=int, default=default_sites)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument(
            "--vantage",
            choices=("eu", "us", "other"),
            default="eu",
            help="crawl location (the paper uses an EU vantage)",
        )

    study = sub.add_parser("study", help="run the full reproduction")
    add_world_args(study, 50_000)
    study.add_argument("--out", help="export CSVs and datasets to this directory")
    study.set_defaults(func=_cmd_study)

    crawl = sub.add_parser("crawl", help="run and archive a campaign")
    add_world_args(crawl, 10_000)
    crawl.add_argument("--out", required=True)
    crawl.add_argument("--shards", type=int, default=1)
    crawl.add_argument("--limit", type=int, default=None)
    crawl.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="shard execution backend: serial, thread (default), or "
        "process for multi-core parallelism; also settable via "
        f"{BACKEND_ENV_VAR}",
    )
    crawl.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="worker threads/processes for sharded crawls "
        "(default: one per shard)",
    )
    crawl.add_argument(
        "--healthy-allowlist",
        action="store_true",
        help="keep the enrolment allow-list intact (anomalous calls blocked)",
    )
    crawl.add_argument(
        "--trace-out",
        help="write the structured event trace (JSONL) to this file",
    )
    crawl.add_argument(
        "--metrics-out",
        help="write the metrics snapshot (JSON) to this file",
    )
    crawl.add_argument(
        "--span-out",
        help="write the hierarchical span tree (JSONL) to this file",
    )
    crawl.add_argument(
        "--chrome-trace-out",
        help="write a Chrome trace-event JSON (chrome://tracing / Perfetto)",
    )
    crawl.add_argument(
        "--progress",
        action="store_true",
        help="print a live progress line (visits/s, ETA, per-shard completion)",
    )
    crawl.add_argument(
        "--checkpoint-dir",
        help="write periodic per-shard checkpoints to this directory "
        "(enables crash-safe, resumable crawling)",
    )
    crawl.add_argument(
        "--checkpoint-every",
        type=int,
        default=500,
        help="checkpoint each shard every N visits (default: 500)",
    )
    crawl.add_argument(
        "--resume",
        action="store_true",
        help="resume each shard from its newest checkpoint in --checkpoint-dir",
    )
    crawl.add_argument(
        "--allow-partial",
        action="store_true",
        help="when a shard exhausts its retries, archive what exists and "
        "write a partial.json naming the missing rank ranges",
    )
    crawl.add_argument(
        "--max-shard-retries",
        type=int,
        default=3,
        help="restarts granted to each shard before the campaign fails "
        "(default: 3)",
    )
    crawl.add_argument(
        "--validate",
        action="store_true",
        help="audit the archived campaign with the invariant engine after "
        "the crawl (non-zero exit on violations)",
    )
    crawl.add_argument(
        "--report-out",
        help="render the static HTML report portal into this directory "
        "after archiving (uses the exported trace/metrics/span files)",
    )
    crawl.set_defaults(func=_cmd_crawl)

    report = sub.add_parser(
        "report",
        help="render a self-contained static HTML report portal from an "
        "archived campaign",
    )
    report.add_argument("archive", help="campaign archive directory")
    report.add_argument(
        "--out",
        default=None,
        help="output directory (default: <archive>/report)",
    )
    report.add_argument(
        "--history",
        default=None,
        help="bench history.jsonl feeding the trajectory page "
        "(default: <archive>/history.jsonl, then benchmarks/history.jsonl)",
    )
    report.add_argument(
        "--open",
        action="store_true",
        help="open the rendered portal in the default browser",
    )
    report.set_defaults(func=_cmd_report)

    analyze = sub.add_parser("analyze", help="analyse an archived campaign")
    analyze.add_argument("--data", required=True)
    analyze.set_defaults(func=_cmd_analyze)

    audit = sub.add_parser("audit-cmp", help="the §5 CMP compliance audit")
    add_world_args(audit, 10_000)
    audit.set_defaults(func=_cmd_audit_cmp)

    reident = sub.add_parser("reident", help="re-identification risk study")
    reident.add_argument("--population", type=int, default=60)
    reident.add_argument("--epochs", type=int, default=4)
    reident.add_argument("--noise", type=float, default=0.05)
    reident.add_argument("--seed", type=int, default=7)
    reident.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="execution backend for trace generation and ranking: serial, "
        "thread (default), or process for multi-core parallelism; also "
        f"settable via {BACKEND_ENV_VAR}",
    )
    reident.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="worker threads/processes for the study stages "
        "(default: one per CPU)",
    )
    reident.set_defaults(func=_cmd_reident)

    monitor = sub.add_parser("monitor", help="longitudinal monthly snapshots")
    add_world_args(monitor, 5_000)
    monitor.add_argument(
        "--dates",
        default="2023-09-01,2023-12-01,2024-03-30,2024-09-01",
        help="comma-separated ISO dates",
    )
    monitor.add_argument("--limit", type=int, default=None)
    monitor.set_defaults(func=_cmd_monitor)

    robustness = sub.add_parser(
        "robustness", help="seed-grid check of the paper bands"
    )
    robustness.add_argument("--sites", type=int, default=6_000)
    robustness.add_argument("--seeds", default="1,7,23")
    robustness.set_defaults(func=_cmd_robustness)

    diff = sub.add_parser("diff", help="diff two archived campaigns")
    diff.add_argument("--before", required=True)
    diff.add_argument("--after", required=True)
    diff.set_defaults(func=_cmd_diff)

    targeting = sub.add_parser(
        "targeting", help="targeting quality: cookies vs Topics vs nothing"
    )
    targeting.add_argument("--population", type=int, default=80)
    targeting.add_argument("--epochs", type=int, default=4)
    targeting.add_argument("--seed", type=int, default=5)
    targeting.set_defaults(func=_cmd_targeting)

    probe = sub.add_parser("probe", help="probe one domain's attestation file")
    add_world_args(probe, 2_000)
    probe.add_argument("domain")
    probe.set_defaults(func=_cmd_probe)

    sweep = sub.add_parser(
        "sweep",
        help="run a declarative scenario-matrix sweep (one campaign per cell)",
    )
    sweep.add_argument(
        "spec",
        help="declared scenario name (see scenarios/) or path to a spec TOML",
    )
    sweep.add_argument(
        "--out",
        default=None,
        help="sweep output directory (cells/, sweep.json, report/)",
    )
    sweep.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="cell execution backend: serial, thread (default), or process "
        f"for multi-core parallelism; also settable via {BACKEND_ENV_VAR}",
    )
    sweep.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="worker threads/processes for concurrent cells "
        "(default: one per cell)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip cells whose completion markers verify against the spec",
    )
    sweep.add_argument(
        "--list",
        action="store_true",
        dest="list_cells",
        help="print the expanded cell table (id, axis values, fingerprint) "
        "without running anything",
    )
    sweep.add_argument(
        "--report-out",
        default=None,
        help="also write the sweep report page into this directory "
        "(default: <out>/report)",
    )
    sweep.add_argument(
        "--json-out",
        default=None,
        help="also write the sweep manifest JSON to this file",
    )
    sweep.add_argument(
        "--sites",
        type=int,
        default=None,
        help="override the spec's base world size",
    )
    sweep.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the spec's base world seed",
    )
    sweep.set_defaults(func=_cmd_sweep)

    validate = sub.add_parser(
        "validate",
        help="audit an archived campaign, or run the metamorphic harness",
    )
    validate.add_argument(
        "archive",
        nargs="?",
        default=None,
        help="archive directory written by `repro crawl --out`",
    )
    validate.add_argument(
        "--trace",
        default=None,
        help="trace JSONL exported by `crawl --trace-out` "
        "(default: <archive>/trace.jsonl if present)",
    )
    validate.add_argument(
        "--metrics",
        default=None,
        help="metrics snapshot exported by `crawl --metrics-out` "
        "(default: <archive>/metrics.json if present)",
    )
    validate.add_argument(
        "--checkpoint-dir",
        default=None,
        help="checkpoint directory of the campaign "
        "(default: <archive>/checkpoints if present)",
    )
    validate.add_argument(
        "--partial",
        default=None,
        help="partial manifest of an --allow-partial campaign "
        "(default: <archive>/partial.json if present)",
    )
    validate.add_argument(
        "--json-out",
        default=None,
        help="also write the audit / metamorphic report as JSON",
    )
    validate.add_argument(
        "--sweep",
        action="store_true",
        help="audit a sweep output directory (written by `repro sweep`) "
        "against the sweep-level invariants instead of a campaign archive",
    )
    validate.add_argument(
        "--metamorphic",
        action="store_true",
        help="run the metamorphic relation suite on a fresh reduced-scale "
        "campaign instead of auditing an archive",
    )
    validate.add_argument(
        "--sites", type=int, default=240, help="metamorphic campaign size"
    )
    validate.add_argument(
        "--seed", type=int, default=11, help="metamorphic world seed"
    )
    validate.add_argument(
        "--shard-counts",
        default="1,2,3,5",
        help="comma-separated shard counts for the partition relation",
    )
    validate.add_argument(
        "--backends",
        default="serial,thread",
        help="comma-separated backends for the backend relation",
    )
    validate.add_argument(
        "--workdir",
        default=None,
        help="keep the metamorphic run's archives in this directory "
        "(default: a temporary directory)",
    )
    validate.set_defaults(func=_cmd_validate)

    def add_service_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--data-dir",
            default="service-data",
            help="service state directory (job table, checkpoints, archives)",
        )
        p.add_argument(
            "--socket",
            default=None,
            help="Unix socket path (default: <data-dir>/service.sock)",
        )

    serve = sub.add_parser(
        "serve",
        help="run the long-lived crawl service (submit jobs with "
        "`repro submit`, stream them with `repro watch`)",
    )
    add_service_args(serve)
    serve.add_argument(
        "--max-jobs",
        type=int,
        default=2,
        help="campaigns allowed to run concurrently (default: 2)",
    )
    serve.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="default shard execution backend for jobs that do not pick "
        f"their own; also settable via {BACKEND_ENV_VAR}",
    )
    serve.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="default worker threads/processes per job",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a campaign to a running crawl service"
    )
    add_service_args(submit)
    add_world_args(submit, 10_000)
    submit.add_argument("--shards", type=int, default=4)
    submit.add_argument("--limit", type=int, default=None)
    submit.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="shard execution backend for this job",
    )
    submit.add_argument("--max-workers", type=int, default=None)
    submit.add_argument(
        "--healthy-allowlist",
        action="store_true",
        help="keep the enrolment allow-list intact (anomalous calls blocked)",
    )
    submit.add_argument(
        "--checkpoint-every",
        type=int,
        default=200,
        help="checkpoint each shard every N visits (default: 200)",
    )
    submit.add_argument(
        "--max-shard-retries",
        type=int,
        default=3,
        help="restarts granted to each shard before the job fails",
    )
    submit.add_argument(
        "--watch",
        action="store_true",
        help="stream the job's events until it finishes",
    )
    submit.add_argument(
        "--policy",
        choices=("block", "drop"),
        default="block",
        help="backpressure policy for --watch (default: block)",
    )
    submit.set_defaults(func=_cmd_submit)

    watch = sub.add_parser(
        "watch", help="stream a submitted job's events until it finishes"
    )
    add_service_args(watch)
    watch.add_argument("job_id")
    watch.add_argument(
        "--since",
        type=int,
        default=0,
        help="replay from this sequence number (0 = full history)",
    )
    watch.add_argument(
        "--policy",
        choices=("block", "drop"),
        default="block",
        help="backpressure policy: block the service on this consumer, "
        "or drop events with a surfaced count (default: block)",
    )
    watch.set_defaults(func=_cmd_watch)

    jobs = sub.add_parser("jobs", help="list the service's jobs")
    add_service_args(jobs)
    jobs.set_defaults(func=_cmd_jobs)

    cancel = sub.add_parser(
        "cancel",
        help="cancel a job (running shards stop at the next poll; "
        "checkpoints stay durable)",
    )
    add_service_args(cancel)
    cancel.add_argument("job_id")
    cancel.set_defaults(func=_cmd_cancel)

    shutdown = sub.add_parser(
        "shutdown",
        help="stop a running crawl service (its jobs resume on next serve)",
    )
    add_service_args(shutdown)
    shutdown.set_defaults(func=_cmd_shutdown)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        # A corrupt archive, trace, span or metrics file is named, not a
        # traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
