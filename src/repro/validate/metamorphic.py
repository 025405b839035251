"""Metamorphic testing of the crawl pipeline.

Instead of pinning one blessed output, the harness re-runs a small
campaign under systematic perturbations and checks the *relations*
between the runs:

* ``shard-partition-equivalence`` — splitting the Tranco slice over any
  shard count preserves every analysis-visible artefact: visit records,
  per-domain call multisets (caller, type, gating decision), surveys and
  protocol counters.  Per-shard simulated clocks legitimately shift call
  timestamps and epoch-dependent topic counts, so only the degenerate
  single-shard split must be byte-identical to the sequential campaign;
* ``backend-equivalence`` — serial, thread and process execution of the
  same shard plan archive byte-identically;
* ``instrumentation-transparency`` — tracing, metrics and span recording
  never change the campaign's results;
* ``seed-stability`` — a different world seed yields a different world
  but the same schema, and the invariant engine passes on both;
* ``consent-ablation-monotonic`` — scaling down the questionable-call
  multipliers monotonically shrinks the Questionable population
  (Before-Accept calls by legitimate CPs);
* ``allowlist-corruption-flip`` — the corrupted-allowlist world decides
  every attempt ``allowed-database-corrupt`` while the healthy world
  blocks exactly the not-enrolled callers, with identical attempt sets
  (the Chromium bug changes decisions, never attempts).

These subsume the ad-hoc byte-identity pins the equivalence tests grew
in PRs 1–4; those suites now drive this harness and keep one legacy pin
each as a canary.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.analysis.questionable import questionable_calls_by_cp
from repro.attestation.allowlist import GatingDecision
from repro.crawler.archive import save_crawl
from repro.crawler.campaign import CrawlCampaign, CrawlResult
from repro.crawler.crawl import Crawl
from repro.obs import MetricsRegistry, Recorder, Telemetry
from repro.validate.engine import audit_archive
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator

#: The files ``save_crawl`` writes — the byte-identity surface.
ARCHIVE_FILES = (
    "report.json",
    "d_ba.jsonl",
    "d_aa.jsonl",
    "allowed_domains.txt",
    "attestation_survey.jsonl",
)

#: Default perturbation grids for a reduced-scale run.
DEFAULT_SHARD_COUNTS = (1, 2, 3, 5)
DEFAULT_BACKENDS = ("serial", "thread")
#: Consent-ablation scales, largest first (1.0 = the configured world).
ABLATION_SCALES = (1.0, 0.5, 0.0)


def compare_archives(
    left: str | Path,
    right: str | Path,
    files: Sequence[str] = ARCHIVE_FILES,
) -> list[str]:
    """Byte-compare two archives; returns one message per divergence."""
    left_dir, right_dir = Path(left), Path(right)
    differences = []
    for name in files:
        left_path, right_path = left_dir / name, right_dir / name
        if not left_path.exists() or not right_path.exists():
            missing = left_path if not left_path.exists() else right_path
            differences.append(f"{name}: missing from {missing.parent}")
            continue
        left_bytes = left_path.read_bytes()
        right_bytes = right_path.read_bytes()
        if left_bytes != right_bytes:
            differences.append(
                f"{name}: differs ({len(left_bytes)} vs {len(right_bytes)} "
                "bytes)"
            )
    return differences


def _record_signature(result: CrawlResult) -> dict:
    """Visit records modulo call details — stable across shard layouts."""
    return {
        dataset.name: {
            record.domain: (
                record.rank,
                record.final_domain,
                record.banner_present,
                record.accept_clicked,
                record.cmp,
                record.third_parties,
                len(record.calls),
            )
            for record in dataset
        }
        for dataset in (result.d_ba, result.d_aa)
    }


def _call_signature(result: CrawlResult) -> dict:
    """Per-domain call multisets modulo timing and epoch-dependent counts."""
    signature: dict[str, Counter] = {}
    for dataset in (result.d_ba, result.d_aa):
        counted: Counter = Counter()
        for record, call in dataset.iter_calls():
            counted[
                (record.domain, call.caller, call.call_type, call.decision)
            ] += 1
        signature[dataset.name] = counted
    return signature


def _protocol_counters(result: CrawlResult) -> dict:
    report = result.report
    return {
        "targets": report.targets,
        "ok": report.ok,
        "failed": report.failed,
        "banners_seen": report.banners_seen,
        "accepted": report.accepted,
        "failure_kinds": dict(report.failure_kinds),
        "retried": report.retried,
        "recovered": report.recovered,
    }


def compare_semantics(left: CrawlResult, right: CrawlResult) -> list[str]:
    """Analysis-level equivalence of two campaign results.

    Everything the paper's analyses consume must agree; only call
    timestamps and epoch-history-dependent ``topics_returned`` values
    (both functions of the per-shard simulated clock) may differ.
    """
    differences = []
    if _record_signature(left) != _record_signature(right):
        differences.append("visit records differ")
    if _call_signature(left) != _call_signature(right):
        differences.append(
            "per-domain call multisets (caller, type, decision) differ"
        )
    if _protocol_counters(left) != _protocol_counters(right):
        differences.append(
            f"report counters differ: {_protocol_counters(left)} vs "
            f"{_protocol_counters(right)}"
        )
    if left.allowed_domains != right.allowed_domains:
        differences.append("allow-list snapshots differ")
    if left.survey.domains() != right.survey.domains():
        differences.append("surveys cover different domains")
    elif left.survey != right.survey:
        differences.append("survey probes differ")
    return differences


@dataclass(frozen=True)
class RelationResult:
    """One metamorphic relation's verdict."""

    relation: str
    description: str
    passed: bool
    details: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "description": self.description,
            "passed": self.passed,
            "details": list(self.details),
        }


@dataclass
class MetamorphicReport:
    """Every relation's verdict for one harness run."""

    sites: int
    seed: int
    results: tuple[RelationResult, ...]

    @property
    def ok(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> list[RelationResult]:
        return [result for result in self.results if not result.passed]

    def to_json(self) -> str:
        payload = {
            "sites": self.sites,
            "seed": self.seed,
            "ok": self.ok,
            "relations": [result.to_dict() for result in self.results],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")


def render_metamorphic(report: MetamorphicReport) -> str:
    """Human-readable relation summary."""
    lines = [
        f"metamorphic run over {report.sites} sites (seed {report.seed})"
    ]
    for result in report.results:
        marker = "ok  " if result.passed else "FAIL"
        lines.append(f"  {marker} {result.relation}")
        if not result.passed:
            for detail in result.details[:5]:
                lines.append(f"       - {detail}")
            hidden = len(result.details) - 5
            if hidden > 0:
                lines.append(f"       ... and {hidden} more")
    lines.append("RESULT: " + ("PASS" if report.ok else "FAIL"))
    return "\n".join(lines)


class MetamorphicHarness:
    """Runs one reduced-scale campaign under systematic perturbations.

    Worlds and archives are cached per perturbation, so relations that
    share a run (e.g. the sequential baseline) pay for it once.
    """

    def __init__(
        self,
        workdir: str | Path,
        sites: int = 240,
        seed: int = 11,
        shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
        backends: Sequence[str] = DEFAULT_BACKENDS,
    ) -> None:
        self.workdir = Path(workdir)
        self.sites = sites
        self.seed = seed
        self.shard_counts = tuple(shard_counts)
        self.backends = tuple(backends)
        self._worlds: dict[tuple, object] = {}
        self._results: dict[str, CrawlResult] = {}
        self._archives: dict[str, Path] = {}

    # -- run caches -----------------------------------------------------------

    def _config(self, seed: int | None = None, ablation: float = 1.0) -> WorldConfig:
        config = WorldConfig.small(self.sites, seed=self.seed if seed is None else seed)
        if ablation != 1.0:
            config = dataclasses.replace(
                config,
                questionable_multiplier_no_banner=(
                    config.questionable_multiplier_no_banner * ablation
                ),
                questionable_multiplier_leaky_cmp=(
                    config.questionable_multiplier_leaky_cmp * ablation
                ),
                questionable_multiplier_custom_banner=(
                    config.questionable_multiplier_custom_banner * ablation
                ),
            )
        return config

    def _world(self, seed: int | None = None, ablation: float = 1.0):
        key = (self.sites, self.seed if seed is None else seed, ablation)
        if key not in self._worlds:
            self._worlds[key] = WebGenerator(
                self._config(seed=seed, ablation=ablation)
            ).generate()
        return self._worlds[key]

    def _run(self, key: str, build: Callable[[], CrawlResult]) -> CrawlResult:
        if key not in self._results:
            self._results[key] = build()
        return self._results[key]

    def _archive(self, key: str, build: Callable[[], CrawlResult]) -> Path:
        if key not in self._archives:
            directory = self.workdir / key
            save_crawl(self._run(key, build), directory)
            self._archives[key] = directory
        return self._archives[key]

    def baseline_archive(self) -> Path:
        """The sequential, healthy-instrumentation-free campaign archive."""
        return self._archive(
            "sequential", lambda: CrawlCampaign(self._world()).run()
        )

    # -- relations ------------------------------------------------------------

    def check_shard_partition(self) -> RelationResult:
        baseline_archive = self.baseline_archive()
        baseline = self._results["sequential"]
        details = []
        for count in self.shard_counts:
            sharded_archive = self._archive(
                f"shards-{count}",
                lambda count=count: Crawl(
                    self._world(), shard_count=count, backend="serial"
                ).run().result,
            )
            sharded = self._results[f"shards-{count}"]
            if count == 1:
                # A single shard walks the exact sequential schedule —
                # the degenerate split must be byte-identical.
                comparisons = compare_archives(
                    baseline_archive, sharded_archive
                )
            else:
                comparisons = compare_semantics(baseline, sharded)
            for difference in comparisons:
                details.append(f"shard_count={count}: {difference}")
        return RelationResult(
            relation="shard-partition-equivalence",
            description=(
                "re-sharding preserves every analysis-visible artefact "
                "(single-shard split byte-identical to sequential)"
            ),
            passed=not details,
            details=tuple(details),
        )

    def check_backend_equivalence(self) -> RelationResult:
        reference_count = self.shard_counts[-1] if self.shard_counts else 3
        baseline = self._archive(
            f"shards-{reference_count}",
            lambda: Crawl(
                self._world(), shard_count=reference_count, backend="serial"
            ).run().result,
        )
        details = []
        for backend in self.backends:
            if backend == "serial":
                continue
            candidate = self._archive(
                f"backend-{backend}",
                lambda backend=backend: Crawl(
                    self._world(),
                    shard_count=reference_count,
                    backend=backend,
                    max_workers=2,
                ).run().result,
            )
            for difference in compare_archives(baseline, candidate):
                details.append(f"backend={backend}: {difference}")
        return RelationResult(
            relation="backend-equivalence",
            description=(
                "serial, thread and process execution archive byte-identically"
            ),
            passed=not details,
            details=tuple(details),
        )

    def check_instrumentation_transparency(self) -> RelationResult:
        baseline = self.baseline_archive()
        instrumented = self._archive(
            "instrumented",
            lambda: CrawlCampaign(
                self._world(),
                telemetry=Telemetry(Recorder(), MetricsRegistry()),
            ).run(),
        )
        details = [
            f"instrumented: {difference}"
            for difference in compare_archives(baseline, instrumented)
        ]
        return RelationResult(
            relation="instrumentation-transparency",
            description=(
                "tracing, metrics and spans never change campaign results"
            ),
            passed=not details,
            details=tuple(details),
        )

    def check_seed_stability(self) -> RelationResult:
        details = []
        baseline = self.baseline_archive()
        reseeded = self._archive(
            "reseeded",
            lambda: CrawlCampaign(self._world(seed=self.seed + 1)).run(),
        )
        for directory in (baseline, reseeded):
            missing = [
                name
                for name in ARCHIVE_FILES
                if not (directory / name).exists()
            ]
            if missing:
                details.append(f"{directory.name}: missing {missing}")
                continue
            audit = audit_archive(directory)
            for violation in audit.errors:
                details.append(
                    f"{directory.name}: {violation.rule}: {violation.message}"
                )
        base_report = json.loads((baseline / "report.json").read_text())
        new_report = json.loads((reseeded / "report.json").read_text())
        if set(base_report) != set(new_report):
            details.append(
                "report schema drifted across seeds: "
                f"{sorted(set(base_report) ^ set(new_report))}"
            )
        if new_report.get("targets") != self.sites:
            details.append(
                f"reseeded campaign covered {new_report.get('targets')} "
                f"targets, expected {self.sites}"
            )
        return RelationResult(
            relation="seed-stability",
            description=(
                "a different world seed keeps the schema and passes the "
                "invariant engine"
            ),
            passed=not details,
            details=tuple(details),
        )

    def check_consent_ablation(self) -> RelationResult:
        details = []
        pair_sets = []
        for scale in ABLATION_SCALES:
            result = self._run(
                f"ablation-{scale}",
                lambda scale=scale: CrawlCampaign(
                    self._world(ablation=scale)
                ).run(),
            )
            pairs = frozenset(
                (caller, site)
                for caller, sites in questionable_calls_by_cp(
                    result.d_ba, result.allowed_domains, result.survey
                ).items()
                for site in sites
            )
            pair_sets.append((scale, pairs))
        if pair_sets and not pair_sets[0][1]:
            details.append(
                "baseline world produced no questionable calls; the "
                "ablation relation is vacuous at this scale"
            )
        for (big_scale, big), (small_scale, small) in zip(
            pair_sets, pair_sets[1:]
        ):
            stray = small - big
            if stray:
                details.append(
                    f"scale {small_scale} produced questionable pairs absent "
                    f"at scale {big_scale}: {sorted(stray)[:5]}"
                )
            if len(small) > len(big):
                details.append(
                    f"scale {small_scale} has {len(small)} questionable "
                    f"pairs, more than {len(big)} at scale {big_scale}"
                )
        # Full ablation does not empty the population: services that
        # ignore the consent environment keep calling Before-Accept, and
        # those are exactly the paper's hard core of questionable usage.
        # The relation only demands monotone shrinkage, checked above.
        return RelationResult(
            relation="consent-ablation-monotonic",
            description=(
                "scaling down consent-violation multipliers monotonically "
                "shrinks the Questionable population"
            ),
            passed=not details,
            details=tuple(details),
        )

    def check_allowlist_flip(self) -> RelationResult:
        details = []
        corrupt = self._run(
            "sequential", lambda: CrawlCampaign(self._world()).run()
        )
        healthy = self._run(
            "healthy",
            lambda: CrawlCampaign(
                self._world(), corrupt_allowlist=False
            ).run(),
        )

        def attempts(result: CrawlResult) -> Counter:
            counted: Counter = Counter()
            for dataset in (result.d_ba, result.d_aa):
                for record, call in dataset.iter_calls():
                    counted[
                        (dataset.name, record.domain, call.caller, call.call_type)
                    ] += 1
            return counted

        if attempts(corrupt) != attempts(healthy):
            diff = attempts(corrupt) - attempts(healthy)
            missing = attempts(healthy) - attempts(corrupt)
            details.append(
                "call attempts differ between corrupt and healthy worlds "
                f"(corrupt-only {sum(diff.values())}, healthy-only "
                f"{sum(missing.values())}) — the bug must change decisions, "
                "not attempts"
            )
        for dataset in (corrupt.d_ba, corrupt.d_aa):
            for record, call in dataset.iter_calls():
                if call.decision != GatingDecision.ALLOWED_DATABASE_CORRUPT.value:
                    details.append(
                        f"corrupt world decided {call.decision!r} for "
                        f"{call.caller!r} on {record.domain!r}; expected "
                        "allowed-database-corrupt everywhere"
                    )
        healthy_decisions = {
            GatingDecision.ALLOWED_ENROLLED.value,
            GatingDecision.BLOCKED_NOT_ENROLLED.value,
        }
        blocked = 0
        for dataset in (healthy.d_ba, healthy.d_aa):
            for record, call in dataset.iter_calls():
                if call.decision not in healthy_decisions:
                    details.append(
                        f"healthy world decided {call.decision!r} for "
                        f"{call.caller!r} on {record.domain!r}"
                    )
                if call.decision == GatingDecision.BLOCKED_NOT_ENROLLED.value:
                    blocked += 1
                    if call.topics_returned:
                        details.append(
                            f"healthy world blocked {call.caller!r} on "
                            f"{record.domain!r} yet returned "
                            f"{call.topics_returned} topics"
                        )
                    if call.caller in healthy.allowed_domains:
                        details.append(
                            f"healthy world blocked allow-listed caller "
                            f"{call.caller!r}"
                        )
        if blocked == 0:
            details.append(
                "healthy world blocked no caller; the flip relation is "
                "vacuous at this scale"
            )
        return RelationResult(
            relation="allowlist-corruption-flip",
            description=(
                "allow-list corruption flips decisions to default-allow "
                "without changing which calls are attempted"
            ),
            passed=not details,
            details=tuple(details),
        )

    # -- driver ---------------------------------------------------------------

    #: The relation table: name → check method name.
    RELATIONS = (
        ("shard-partition-equivalence", "check_shard_partition"),
        ("backend-equivalence", "check_backend_equivalence"),
        ("instrumentation-transparency", "check_instrumentation_transparency"),
        ("seed-stability", "check_seed_stability"),
        ("consent-ablation-monotonic", "check_consent_ablation"),
        ("allowlist-corruption-flip", "check_allowlist_flip"),
    )

    def relation_names(self) -> list[str]:
        return [name for name, _ in self.RELATIONS]

    def run(self, relations: Iterable[str] | None = None) -> MetamorphicReport:
        """Check the selected relations (all of them by default)."""
        selected = set(relations) if relations is not None else None
        if selected is not None:
            unknown = selected - set(self.relation_names())
            if unknown:
                raise ValueError(
                    f"unknown metamorphic relation(s): {sorted(unknown)}"
                )
        results = []
        for name, method in self.RELATIONS:
            if selected is not None and name not in selected:
                continue
            results.append(getattr(self, method)())
        return MetamorphicReport(
            sites=self.sites, seed=self.seed, results=tuple(results)
        )
