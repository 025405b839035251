"""Page bodies for the report portal.

One ``render_*_page`` function per portal page.  Each takes the loaded
:class:`~repro.validate.artifacts.CrawlArtifacts` bundle (plus
pre-computed payloads where that avoids recomputation) and returns the
page's ``<main>`` body HTML.  Every optional artefact renders an
explicit "not captured" note when absent — a bare archive produces a
complete, honest site, never a crash.
"""

from __future__ import annotations

import hashlib

from repro.analysis.obs_report import (
    build_metrics_report,
    render_trace_health,
)
from repro.obs.profile import build_profile
from repro.report.bench import history_series, metric_of, rate_of
from repro.report.html import (
    data_table,
    detail_table,
    kv_table,
    legend,
    note,
    section,
    stat_tiles,
)
from repro.report.svg import fmt_num, hbar_chart, line_chart, paired_hbar_chart
from repro.validate.artifacts import CrawlArtifacts
from repro.validate.engine import STATUS_SKIPPED, AuditReport

#: Conventional archive contents listed in the overview inventory.
_INVENTORY = (
    ("d_ba.jsonl", "Before-Accept dataset"),
    ("d_aa.jsonl", "After-Accept dataset"),
    ("attestation_survey.jsonl", "attestation survey"),
    ("allowed_domains.txt", "enrolled-caller allow-list"),
    ("report.json", "campaign report"),
    ("trace.jsonl", "event trace (optional)"),
    ("metrics.json", "metrics snapshot (optional)"),
    ("spans.jsonl", "span profile (optional)"),
    ("partial.json", "partial-crawl manifest (optional)"),
    ("metamorphic.json", "metamorphic verdicts (optional)"),
    ("checkpoints/MANIFEST.json", "checkpoint manifest (optional)"),
)


def _pct(value: float) -> str:
    return f"{100.0 * value:.1f}%"


def _seconds(value: float) -> str:
    return f"{value:,.2f}s"


# ---------------------------------------------------------------- overview


def render_overview_page(artifacts: CrawlArtifacts) -> str:
    report = artifacts.result.report
    parts = []

    parts.append(
        section(
            "Campaign at a glance",
            stat_tiles(
                [
                    ("targets", fmt_num(report.targets), "crawl list size"),
                    ("visited ok", fmt_num(report.ok), "successful visits"),
                    ("failed", fmt_num(report.failed), "unreachable targets"),
                    (
                        "banner accept rate",
                        _pct(report.accept_rate),
                        f"{fmt_num(report.accepted)} of {fmt_num(report.ok)} ok visits",
                    ),
                    (
                        "duration",
                        f"{fmt_num(report.duration_seconds)}s",
                        "simulated wall clock",
                    ),
                ]
            ),
        )
    )

    crawl_pairs = [
        ("started at", f"{report.started_at:,}s"),
        ("finished at", f"{report.finished_at:,}s"),
        ("banners seen", fmt_num(report.banners_seen)),
        ("retried visits", fmt_num(report.retried)),
        ("recovered retries", fmt_num(report.recovered)),
    ]
    body = kv_table(crawl_pairs)
    if report.failure_kinds:
        body += data_table(
            ("failure kind", "count"),
            sorted(report.failure_kinds.items(), key=lambda kv: (-kv[1], kv[0])),
            numeric=(1,),
            caption="Failure breakdown",
        )
    parts.append(section("Crawl report", body))

    manifest = artifacts.manifest
    if manifest and manifest.get("fingerprint"):
        fingerprint = manifest["fingerprint"]
        pairs = [(key, fingerprint[key]) for key in sorted(fingerprint)]
        shards = manifest.get("shards") or {}
        if shards:
            pairs.append(("checkpointed shards", len(shards)))
        parts.append(
            section(
                "Campaign fingerprint",
                kv_table(pairs),
                "Resume identity from the checkpoint manifest: two campaigns may "
                "share checkpoints only when every field matches.",
            )
        )
    else:
        parts.append(
            section(
                "Campaign fingerprint",
                note(
                    "not captured (no checkpoint directory in the archive; "
                    "re-run with --checkpoint-dir to record the campaign "
                    "fingerprint)"
                ),
            )
        )

    shard_count = None
    if artifacts.metrics is not None:
        shards = {
            labels
            for labels, _ in artifacts.metrics.gauge_series("shard_visits").items()
        }
        shard_count = len(shards) or None
    if shard_count is None and manifest:
        shard_count = (manifest.get("fingerprint") or {}).get("shard_count")
    backend_pairs = [
        ("shards", shard_count if shard_count is not None else "unknown"),
        (
            "allow-list domains",
            fmt_num(len(artifacts.result.allowed_domains)),
        ),
        ("survey entries", fmt_num(len(artifacts.result.survey))),
    ]
    parts.append(section("Execution shape", kv_table(backend_pairs)))

    rows = []
    for name, description in _INVENTORY:
        path = artifacts.directory / name
        if path.exists():
            payload = path.read_bytes()
            digest = hashlib.sha256(payload).hexdigest()[:16]
            rows.append((name, description, fmt_num(len(payload)), digest))
        else:
            rows.append((name, description, "—", "absent"))
    parts.append(
        section(
            "Artefact inventory",
            data_table(
                ("file", "role", "bytes", "sha256 (16)"),
                rows,
                numeric=(2,),
            ),
            "Every artefact the portal was built from, with content digests "
            "so two archives can be compared at a glance.",
        )
    )
    return "".join(parts)


# ----------------------------------------------------------------- figures


def render_figures_page(figures: dict) -> str:
    parts = []
    stats = figures["stats"]
    parts.append(
        section(
            "Dataset summary (§2.4)",
            stat_tiles(
                [
                    ("first parties", fmt_num(stats["first_parties"]), ""),
                    (
                        "third parties (BA)",
                        fmt_num(stats["unique_third_parties_ba"]),
                        "Before-Accept",
                    ),
                    (
                        "third parties (AA)",
                        fmt_num(stats["unique_third_parties_aa"]),
                        "After-Accept",
                    ),
                    ("banner rate", _pct(stats["banner_rate"]), "of ok visits"),
                    ("accept rate", _pct(stats["accept_rate"]), "of ok visits"),
                ]
            ),
        )
    )

    table1 = figures["table1"]
    body = data_table(
        ("section", "measure", "count"),
        [(row["section"], row["label"], fmt_num(row["count"])) for row in table1["rows"]],
        numeric=(2,),
    )
    flagged = table1["aa_not_allowed_attested_callers"]
    if flagged:
        body += note(
            "Attested-but-not-enrolled callers observed After-Accept: "
            + ", ".join(flagged)
        )
    parts.append(
        section(
            "Table 1 — observed Topics API usage",
            body,
            "Caller counts split by enrolment and attestation status, "
            "Before-Accept vs After-Accept.",
        )
    )

    fig2 = figures["figure2"]
    chart = legend([("s1", "present on sites"), ("s2", "calls the API")])
    chart += paired_hbar_chart(
        [(row["caller"], row["present_on"], row["called_on"]) for row in fig2],
        "Figure 2 — presence vs Topics calls per enrolled caller",
        ("present on sites", "calls the API"),
    )
    chart += detail_table(
        "Figure 2 data",
        data_table(
            ("caller", "present on", "calls on", "call share"),
            [
                (
                    row["caller"],
                    fmt_num(row["present_on"]),
                    fmt_num(row["called_on"]),
                    _pct(row["call_share"]),
                )
                for row in fig2
            ],
            numeric=(1, 2, 3),
        ),
    )
    chart += note(
        "Share of sites with at least one Topics call: "
        + _pct(figures["call_share_of_sites"])
    )
    parts.append(
        section(
            "Figure 2 — pervasiveness",
            chart,
            "Top enrolled callers After-Accept: where they are embedded vs "
            "where they actually call document.browsingTopics().",
        )
    )

    fig3 = figures["figure3"]
    parts.append(
        section(
            "Figure 3 — call-when-present rate",
            hbar_chart(
                [(row["caller"], row["enabled_percent"]) for row in fig3],
                "Figure 3 — share of embedding sites where the caller invokes "
                "the API",
                unit="%",
            )
            + detail_table(
                "Figure 3 data",
                data_table(
                    ("caller", "present on", "calls on", "enabled %"),
                    [
                        (
                            row["caller"],
                            fmt_num(row["present_on"]),
                            fmt_num(row["called_on"]),
                            f"{row['enabled_percent']:.1f}%",
                        )
                        for row in fig3
                    ],
                    numeric=(1, 2, 3),
                ),
            ),
        )
    )

    fig5 = figures["figure5"]
    parts.append(
        section(
            "Figure 5 — questionable calls before consent",
            hbar_chart(
                [(row["caller"], row["websites"]) for row in fig5],
                "Figure 5 — websites with a Before-Accept Topics call per caller",
                unit="sites",
            ),
            "Callers invoking the API before any consent interaction.",
        )
    )

    fig6 = figures["figure6"]
    if fig6:
        region_names = list(fig6[0]["regions"])
        headers = ["caller"]
        for region in region_names:
            headers += [f"{region} present", f"{region} calls", f"{region} enabled"]
        rows = []
        for row in fig6:
            cells = [row["caller"]]
            for region in region_names:
                entry = row["regions"][region]
                cells += [
                    fmt_num(entry["present"]),
                    fmt_num(entry["called"]),
                    f"{entry['enabled_percent']:.1f}%",
                ]
            rows.append(cells)
        parts.append(
            section(
                "Figure 6 — questionable calls by region",
                data_table(
                    headers, rows, numeric=tuple(range(1, len(headers)))
                ),
                "Per-TLD-region presence, Before-Accept calls, and "
                "call-when-present rate.",
            )
        )
    else:
        parts.append(
            section(
                "Figure 6 — questionable calls by region",
                note("no questionable callers observed in this campaign"),
            )
        )

    fig7 = figures["figure7"]
    chart = legend(
        [("s1", "P(CMP)"), ("s2", "P(CMP | questionable call)")]
    )
    chart += paired_hbar_chart(
        [
            (
                row["name"],
                100.0 * row["p_cmp"],
                100.0 * row["p_cmp_given_questionable"],
            )
            for row in fig7["rows"]
        ],
        "Figure 7 — CMP prevalence overall vs on sites with questionable calls",
        ("P(CMP) %", "P(CMP | questionable) %"),
    )
    chart += detail_table(
        "Figure 7 data",
        data_table(
            (
                "CMP",
                "sites",
                "questionable sites",
                "P(CMP)",
                "P(CMP | questionable)",
                "P(questionable | CMP)",
                "lift",
            ),
            [
                (
                    row["name"],
                    fmt_num(row["sites_total"]),
                    fmt_num(row["sites_questionable"]),
                    _pct(row["p_cmp"]),
                    _pct(row["p_cmp_given_questionable"]),
                    _pct(row["p_questionable_given_cmp"]),
                    f"{row['lift']:.2f}×",
                )
                for row in fig7["rows"]
            ],
            numeric=(1, 2, 3, 4, 5, 6),
        ),
    )
    chart += note(
        "Average questionable-call rate across sites: "
        + _pct(fig7["average_questionable_rate"])
    )
    parts.append(
        section(
            "Figure 7 — CMPs and questionable calls",
            chart,
            "Does running a consent-management platform correlate with "
            "pre-consent Topics calls?",
        )
    )

    anomalous = figures["anomalous"]
    body = stat_tiles(
        [
            ("anomalous calls", fmt_num(anomalous["total_calls"]), ""),
            ("distinct callers", fmt_num(anomalous["distinct_callers"]), ""),
            ("affected sites", fmt_num(anomalous["affected_sites"]), ""),
            (
                "via JavaScript",
                _pct(anomalous["javascript_fraction"]),
                "of anomalous calls",
            ),
            (
                "GTM present",
                _pct(anomalous["gtm_site_fraction"]),
                "of affected sites",
            ),
        ]
    )
    body += data_table(
        ("attribution", "count"),
        sorted(
            anomalous["attribution_counts"].items(), key=lambda kv: (-kv[1], kv[0])
        ),
        numeric=(1,),
        caption="Attributed owners of not-enrolled callers (§4)",
    )
    parts.append(section("Anomalous usage (§4)", body))

    enrollment = figures["enrollment"]
    monthly = list(enrollment["monthly_counts"].items())
    body = kv_table(
        [
            ("first enrolment", enrollment["first_date"] or "—"),
            ("last enrolment", enrollment["last_date"] or "—"),
            ("total enrolled", fmt_num(enrollment["total"])),
            ("mean per month", f"{enrollment['mean_per_month']:.1f}"),
        ]
    )
    if monthly:
        body += line_chart(
            [("s1", "enrolments", monthly)],
            "Enrolment timeline — attested callers per month",
            unit="callers",
        )
    parts.append(
        section(
            "Enrolment timeline (§3)",
            body,
            "Attestation-survey enrolment dates bucketed by month.",
        )
    )
    return "".join(parts)


# ----------------------------------------------------------------- profile


def render_profile_page(artifacts: CrawlArtifacts) -> str:
    spans = artifacts.spans
    if not spans:
        return section(
            "Campaign profile",
            note(
                "not captured (no spans were recorded; re-run with --span-out "
                "to export the span profile into the archive)"
            ),
        )
    profile = build_profile(spans)
    parts = []

    meta = artifacts.span_meta
    tiles = [
        ("spans", fmt_num(profile.span_count), ""),
        ("wall clock", f"{profile.wall_seconds:,.0f}s", "simulated"),
        ("stages", fmt_num(len(profile.stages)), ""),
    ]
    parts.append(section("Profile summary", stat_tiles(tiles)))
    if meta is not None and meta.dropped:
        parts.append(
            section(
                "Span buffer",
                note(
                    f"span buffer dropped {meta.dropped:,} of {meta.recorded:,} "
                    f"spans (capacity {meta.capacity:,}); the profile "
                    "under-counts early stages."
                ),
            )
        )

    if profile.stages:
        chart = hbar_chart(
            [(stat.name, round(stat.total, 2)) for stat in profile.stages],
            "Stage breakdown — total simulated seconds per stage",
            unit="s",
        )
        chart += detail_table(
            "Stage latency quantiles",
            data_table(
                ("stage", "count", "total", "mean", "p50", "p95", "p99"),
                [
                    (
                        stat.name,
                        fmt_num(stat.count),
                        _seconds(stat.total),
                        _seconds(stat.mean),
                        _seconds(stat.p50),
                        _seconds(stat.p95),
                        _seconds(stat.p99),
                    )
                    for stat in profile.stages
                ],
                numeric=(1, 2, 3, 4, 5, 6),
            ),
        )
        parts.append(
            section(
                "Stage breakdown",
                chart,
                "Where the campaign's simulated time went, by pipeline stage.",
            )
        )

    if profile.critical_path:
        rows = []
        for depth, span in enumerate(profile.critical_path):
            label = str(span.fields.get("domain", span.fields.get("shard", "")))
            name = (" " * depth) + span.name + (f" [{label}]" if label else "")
            rows.append(
                (
                    name,
                    f"{span.start:,.1f}s",
                    f"{span.end:,.1f}s",
                    _seconds(span.duration),
                )
            )
        parts.append(
            section(
                "Critical path",
                data_table(
                    ("span", "start", "end", "duration"),
                    rows,
                    numeric=(1, 2, 3),
                ),
                "The chain of spans that finished last — the lower bound on "
                "campaign wall-clock.",
            )
        )

    straggler = profile.straggler
    if straggler is not None:
        flags = {
            f"shard {straggler.straggler.shard}": "◀ straggler",
        }
        chart = hbar_chart(
            [
                (f"shard {timing.shard}", round(timing.finished_at, 2))
                for timing in straggler.shards
            ],
            "Shard finish times — the straggler bounds the campaign",
            unit="s",
            flags=flags,
        )
        chart += detail_table(
            "Per-shard timings",
            data_table(
                ("shard", "visits", "finished at", "mean visit", "retries"),
                [
                    (
                        timing.shard,
                        fmt_num(timing.visits),
                        f"{timing.finished_at:,.0f}s",
                        _seconds(timing.mean_visit),
                        fmt_num(timing.retries),
                    )
                    for timing in straggler.shards
                ],
                numeric=(1, 2, 3, 4),
            ),
        )
        severity = (
            f" (+{straggler.severity:.0%} vs other shards)"
            if straggler.severity > 0
            else ""
        )
        chart += note(
            f"shard {straggler.straggler.shard} bounds the campaign's "
            f"finish time; cause: {straggler.reason}{severity}"
        )
        parts.append(section("Shard stragglers", chart))

    if profile.slow.visits:
        parts.append(
            section(
                f"Slowest visits (top {len(profile.slow.visits)} of "
                f"{profile.slow.considered:,})",
                data_table(
                    ("domain", "phase", "shard", "duration", "dominant stage"),
                    [
                        (
                            visit.domain,
                            visit.phase or "?",
                            visit.shard if visit.shard is not None else "—",
                            _seconds(visit.duration),
                            (
                                f"{visit.dominant_stage} "
                                f"({_seconds(visit.dominant_seconds)})"
                                if visit.dominant_stage
                                else "—"
                            ),
                        )
                        for visit in profile.slow.visits
                    ],
                    numeric=(2, 3),
                ),
            )
        )
    return "".join(parts)


# ------------------------------------------------------------------ health


def render_health_page(artifacts: CrawlArtifacts) -> str:
    parts = []

    if artifacts.trace_events is None:
        parts.append(
            section(
                "Event trace",
                note(
                    "not captured (no event trace was exported; re-run with "
                    "--trace-out to record one into the archive)"
                ),
            )
        )
    else:
        body = note(render_trace_health(artifacts.trace_meta))
        kinds: dict[str, int] = {}
        for event in artifacts.trace_events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        if kinds:
            body += hbar_chart(
                sorted(kinds.items(), key=lambda kv: (-kv[1], kv[0])),
                "Trace events by kind",
                unit="events",
            )
        parts.append(section("Event trace", body))

    snapshot = artifacts.metrics
    if snapshot is None or (
        not snapshot.counters and not snapshot.gauges and not snapshot.histograms
    ):
        parts.append(
            section(
                "Metrics",
                note(
                    "not captured (no metrics snapshot was exported; re-run "
                    "with --metrics-out to record one into the archive)"
                ),
            )
        )
        return "".join(parts)

    report = build_metrics_report(snapshot)
    tiles = [
        ("visits", fmt_num(report.visits_total), f"{report.visits_per_second:.2f}/s"),
        (
            "topics calls",
            fmt_num(report.topics_calls_total),
            f"{report.calls_per_second:.2f}/s",
        ),
        ("duration", f"{report.duration_seconds:,.0f}s", "simulated"),
    ]
    if report.visit_mean is not None:
        tiles.append(
            (
                "visit latency",
                f"{report.visit_p50:.2f}s",
                f"p50 — p95 {report.visit_p95:.2f}s, p99 {report.visit_p99:.2f}s",
            )
        )
    parts.append(section("Metrics snapshot", stat_tiles(tiles)))

    if report.failures_by_kind:
        parts.append(
            section(
                "Failures by kind",
                hbar_chart(
                    sorted(
                        report.failures_by_kind.items(),
                        key=lambda kv: (-kv[1], kv[0]),
                    ),
                    "Crawl failures by kind",
                    unit="visits",
                    series="s2",
                ),
            )
        )

    breakdown_rows = []
    for result, count in sorted(report.banners_by_result.items()):
        breakdown_rows.append(("banner", result, fmt_num(count)))
    for result, count in sorted(report.probes_by_result.items()):
        breakdown_rows.append(("attestation probe", result, fmt_num(count)))
    if breakdown_rows:
        parts.append(
            section(
                "Interaction outcomes",
                data_table(
                    ("counter", "result", "count"), breakdown_rows, numeric=(2,)
                ),
            )
        )

    if report.shard_visits:
        rows = [
            (
                f"shard {shard}",
                fmt_num(int(report.shard_visits[shard])),
                f"{report.shard_durations.get(shard, 0.0):,.0f}s",
            )
            for shard in sorted(report.shard_visits)
        ]
        body = data_table(("shard", "ok visits", "duration"), rows, numeric=(1, 2))
        skew = report.shard_skew
        if skew is not None:
            body += note(f"shard skew: {skew:.1%} (max−min over mean ok visits)")
        parts.append(section("Per-shard load", body))

    crawl = artifacts.result.report
    banners = report.banners_by_result
    checks = [
        (
            # Every accepted site is revisited After-Accept, so ok
            # browser visits exceed ok sites by exactly the accept count.
            "ok browser visits vs report ok + accepted revisits",
            int(snapshot.counter_value("browser_visits_total", outcome="ok")),
            crawl.ok + crawl.accepted,
        ),
        (
            "failed browser visits vs report failed",
            int(snapshot.counter_value("browser_visits_total", outcome="failed")),
            crawl.failed,
        ),
        (
            "crawl_failures_total vs report failed",
            int(snapshot.counter_total("crawl_failures_total")),
            crawl.failed,
        ),
        (
            "banners accepted+missed vs report banners seen",
            int(banners.get("accepted", 0)) + int(banners.get("missed", 0)),
            crawl.banners_seen,
        ),
        (
            "banners accepted vs report accepted",
            int(banners.get("accepted", 0)),
            crawl.accepted,
        ),
    ]
    rows = [
        (
            name,
            fmt_num(metric_value),
            fmt_num(archive_value),
            "ok" if metric_value == archive_value else "MISMATCH",
        )
        for name, metric_value, archive_value in checks
    ]
    mismatches = sum(1 for _, m, a in checks if m != a)
    body = data_table(
        ("cross-check", "metric", "archive", "verdict"), rows, numeric=(1, 2)
    )
    if mismatches:
        body += note(
            f"{mismatches} counter cross-check(s) disagree with the archived "
            "report — the snapshot and archive came from different runs, or a "
            "merge dropped events."
        )
    else:
        body += note(
            "every counter cross-check agrees with the archived report."
        )
    parts.append(
        section(
            "Counter cross-checks",
            body,
            "Counters measure schedule-invariant protocol work, so they must "
            "agree with the archived campaign report exactly.",
        )
    )
    return "".join(parts)


# -------------------------------------------------------------- validation


def render_validation_page(artifacts: CrawlArtifacts, audit: AuditReport) -> str:
    parts = []
    verdict = "PASS" if audit.ok else "FAIL"
    parts.append(
        section(
            "Audit verdict",
            stat_tiles(
                [
                    ("verdict", verdict, "errors fail, warnings do not"),
                    ("rules checked", fmt_num(len(audit.checked())), ""),
                    ("rules skipped", fmt_num(len(audit.skipped())), "missing artefacts"),
                    ("errors", fmt_num(len(audit.errors)), ""),
                    ("warnings", fmt_num(len(audit.warnings)), ""),
                ]
            ),
            f"{len(audit.outcomes)}-rule artefact audit over "
            f"{', '.join(sorted(audit.artifacts_available))}.",
        )
    )

    rows = []
    for outcome in audit.outcomes:
        if outcome.status == STATUS_SKIPPED:
            detail = "missing: " + ", ".join(outcome.missing)
        elif outcome.violations:
            detail = "; ".join(v.message for v in outcome.violations[:3])
            hidden = len(outcome.violations) - 3
            if hidden > 0:
                detail += f" … and {hidden} more"
        else:
            detail = "—"
        rows.append(
            (
                outcome.rule,
                outcome.severity.value,
                outcome.status,
                detail,
            )
        )
    parts.append(
        section(
            "Rule outcomes",
            data_table(("rule", "severity", "status", "detail"), rows),
        )
    )

    metamorphic = artifacts.metamorphic
    if metamorphic is None:
        parts.append(
            section(
                "Metamorphic relations",
                note(
                    "not captured (no metamorphic.json in the archive; run "
                    "repro metamorphic --json-out to record "
                    "crawl-equivalence verdicts)"
                ),
            )
        )
    else:
        # The loader checked every field the writer gives the report.
        relations = metamorphic["relations"]
        body = stat_tiles(
            [
                ("verdict", "PASS" if metamorphic["ok"] else "FAIL", ""),
                ("sites", fmt_num(metamorphic["sites"]), "harness world"),
                ("seed", str(metamorphic["seed"]), ""),
                ("relations", fmt_num(len(relations)), ""),
            ]
        )
        rows = [
            (
                relation["relation"],
                "pass" if relation["passed"] else "FAIL",
                relation["description"],
                "; ".join(relation["details"][:2]) or "—",
            )
            for relation in relations
        ]
        if rows:
            body += data_table(
                ("relation", "verdict", "description", "details"), rows
            )
        parts.append(
            section(
                "Metamorphic relations",
                body,
                "Crawl-equivalence relations recorded by the metamorphic "
                "harness for this campaign's world.",
            )
        )
    return "".join(parts)


# ------------------------------------------------------------------- bench


def render_bench_page(history: list[dict]) -> str:
    if not history:
        return section(
            "Bench trajectory",
            note(
                "not captured (no benchmarks/history.jsonl found; the bench "
                "gate appends one record per run — pass --history to point "
                "the portal at one)"
            ),
        )
    series = history_series(history)
    parts = []

    slots = ("s1", "s2", "s3")
    chart_series = []
    for i, (name, records) in enumerate(series.items()):
        if i >= len(slots):
            break
        points = [
            (str(j + 1), rate_of(record)) for j, record in enumerate(records)
        ]
        metrics = {metric_of(record) for record in records}
        label = name if len(metrics) != 1 else f"{name} ({metrics.pop()})"
        chart_series.append((slots[i], label, points))
    body = ""
    if len(chart_series) > 1:
        body += legend(
            [(slot, name) for slot, name, _ in chart_series]
        )
    body += line_chart(
        chart_series,
        "Bench trajectory — throughput by run",
        unit="per sec",
    )
    if len(series) > len(slots):
        body += note(
            f"showing the first {len(slots)} of {len(series)} benchmarks; "
            "the full history is in the table below."
        )
    parts.append(
        section(
            "Throughput trajectory",
            body,
            "throughput per gated bench run (crawl visits/sec and "
            "re-identification users/sec), in run order (append order of "
            "history.jsonl).",
        )
    )

    rows = []
    for name, records in series.items():
        for j, record in enumerate(records):
            rows.append(
                (
                    name,
                    j + 1,
                    metric_of(record),
                    f"{rate_of(record):,.1f}",
                    (
                        f"{float(record['baseline']):,.1f}"
                        if record.get("baseline") is not None
                        else "—"
                    ),
                    str(record.get("commit", "—"))[:12],
                )
            )
    parts.append(
        section(
            "Recorded runs",
            data_table(
                ("benchmark", "run", "metric", "rate", "baseline", "commit"),
                rows,
                numeric=(1, 3, 4),
            ),
        )
    )
    return "".join(parts)
