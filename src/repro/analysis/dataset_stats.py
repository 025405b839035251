"""§2.4 "dataset and initial findings": the campaign summary block.

Regenerates the descriptive statistics the paper reports before its main
analyses: visit/failure counts with the footnote-7 cause breakdown, the
Priv-Accept funnel (banner seen → accepted), banner languages, first- and
third-party counts, and the regional composition of both datasets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.browser.failures import render_breakdown
from repro.crawler.campaign import CrawlReport, CrawlResult
from repro.crawler.dataset import Dataset
from repro.web.tlds import Region, region_of_domain


@dataclass(frozen=True)
class DatasetStats:
    """The §2.4 numbers for one campaign."""

    targets: int
    ok: int
    failed: int
    failure_kinds: dict[str, int]
    banners_seen: int
    accepted: int
    first_parties: int
    unique_third_parties_ba: int
    unique_third_parties_aa: int
    banner_languages: dict[str, int]
    region_counts_ba: dict[Region, int]
    region_counts_aa: dict[Region, int]

    @property
    def accept_rate(self) -> float:
        return self.accepted / self.ok if self.ok else 0.0

    @property
    def banner_rate(self) -> float:
        return self.banners_seen / self.ok if self.ok else 0.0

    @property
    def accept_rate_given_banner(self) -> float:
        """Priv-Accept's effective success rate on bannered sites."""
        return self.accepted / self.banners_seen if self.banners_seen else 0.0


def compute_stats(result: CrawlResult) -> DatasetStats:
    """Aggregate one campaign into the §2.4 block."""
    report: CrawlReport = result.report
    languages: Counter[str] = Counter(
        language for language in result.d_ba.column("banner_language") if language
    )
    regions_ba: Counter[Region] = Counter(
        region_of_domain(domain) for domain in result.d_ba.column("domain")
    )
    regions_aa: Counter[Region] = Counter(
        region_of_domain(domain) for domain in result.d_aa.column("domain")
    )
    return DatasetStats(
        targets=report.targets,
        ok=report.ok,
        failed=report.failed,
        failure_kinds=dict(report.failure_kinds),
        banners_seen=report.banners_seen,
        accepted=report.accepted,
        first_parties=len(result.d_ba),
        unique_third_parties_ba=len(result.d_ba.unique_third_parties()),
        unique_third_parties_aa=len(result.d_aa.unique_third_parties()),
        banner_languages=dict(languages),
        region_counts_ba=dict(regions_ba),
        region_counts_aa=dict(regions_aa),
    )


def render_stats(stats: DatasetStats) -> str:
    """Text rendering of the §2.4 block."""
    lines = [
        "Section 2.4 — dataset and initial findings",
        f"  targets:            {stats.targets:,}",
        f"  successful (D_BA):  {stats.ok:,}",
        f"  failed:             {stats.failed:,}",
    ]
    if stats.failure_kinds:
        for line in render_breakdown(stats.failure_kinds).splitlines()[1:]:
            lines.append("  " + line)
    lines += [
        f"  banner seen:        {stats.banners_seen:,} ({stats.banner_rate:.1%})",
        f"  accepted (D_AA):    {stats.accepted:,} ({stats.accept_rate:.1%} of OK,"
        f" {stats.accept_rate_given_banner:.1%} of bannered)",
        f"  first parties:      {stats.first_parties:,}",
        f"  third parties D_BA: {stats.unique_third_parties_ba:,}",
        f"  third parties D_AA: {stats.unique_third_parties_aa:,}",
        "  banner languages:   "
        + ", ".join(
            f"{lang}:{count}"
            for lang, count in sorted(
                stats.banner_languages.items(), key=lambda kv: -kv[1]
            )[:8]
        ),
        "  D_BA regions:       "
        + ", ".join(
            f"{region}:{stats.region_counts_ba.get(region, 0)}" for region in Region
        ),
        "  D_AA regions:       "
        + ", ".join(
            f"{region}:{stats.region_counts_aa.get(region, 0)}" for region in Region
        ),
    ]
    return "\n".join(lines)


def third_party_frequency(dataset: Dataset, top: int = 20) -> list[tuple[str, int]]:
    """Most widespread third parties (presence counts) in a dataset."""
    counts: Counter[str] = Counter()
    for third_parties in dataset.third_parties_by_row():
        counts.update(third_parties)
    return counts.most_common(top)
