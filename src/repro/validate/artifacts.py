"""Loading a campaign archive into one auditable bundle.

The mandatory artefacts are whatever :func:`repro.crawler.archive.save_crawl`
writes; the optional ones (trace, metrics snapshot, checkpoint directory,
partial manifest) are auto-discovered inside the archive directory under
their conventional names, or supplied explicitly when a campaign exported
them elsewhere (``crawl --trace-out /tmp/t.jsonl``).

Rules declare which artefacts they need via :attr:`Rule.requires`; the
engine skips a rule whose inputs are absent rather than failing the audit,
so the same rule catalogue audits a bare archive and a fully instrumented
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.crawler.archive import load_crawl
from repro.crawler.campaign import CrawlResult
from repro.crawler.checkpoint import MANIFEST_FILE, CheckpointStore, PartialManifest
from repro.obs.metrics import MetricsSnapshot
from repro.obs.spans import Span, SpanMeta, read_span_meta, read_spans
from repro.obs.trace import TraceEvent, TraceMeta, read_trace, read_trace_meta
from repro.taxonomy.tree import TaxonomyTree, TopicNode, load_default_taxonomy
from repro.util.codec import check_fields, located, read_json_object

#: Artefact keys rules can depend on.
ARTIFACT_DATASETS = "datasets"
ARTIFACT_SURVEY = "survey"
ARTIFACT_ALLOWLIST = "allowlist"
ARTIFACT_REPORT = "report"
ARTIFACT_TRACE = "trace"
ARTIFACT_METRICS = "metrics"
ARTIFACT_SPANS = "spans"
ARTIFACT_CHECKPOINTS = "checkpoints"
ARTIFACT_PARTIAL = "partial"
ARTIFACT_TAXONOMY = "taxonomy"
ARTIFACT_METAMORPHIC = "metamorphic"

#: Conventional in-archive names for the optional artefacts.
TRACE_FILE = "trace.jsonl"
METRICS_FILE = "metrics.json"
SPANS_FILE = "spans.jsonl"
PARTIAL_FILE = "partial.json"
CHECKPOINT_DIR = "checkpoints"
METAMORPHIC_FILE = "metamorphic.json"


@dataclass
class CrawlArtifacts:
    """Everything one campaign left behind, loaded for auditing."""

    directory: Path
    result: CrawlResult
    trace_meta: TraceMeta | None = None
    trace_events: tuple[TraceEvent, ...] | None = None
    metrics: MetricsSnapshot | None = None
    span_meta: SpanMeta | None = None
    spans: tuple[Span, ...] | None = None
    manifest: dict | None = None  # checkpoint MANIFEST.json payload
    partial: PartialManifest | None = None
    #: Parsed metamorphic-report JSON, when one was saved alongside.
    metamorphic: dict | None = None
    #: Taxonomy entries to validate; ``None`` audits the bundled default.
    taxonomy_entries: tuple[TopicNode, ...] | None = None

    def available(self) -> frozenset[str]:
        """The artefact keys this bundle can satisfy."""
        keys = {
            ARTIFACT_DATASETS,
            ARTIFACT_SURVEY,
            ARTIFACT_ALLOWLIST,
            ARTIFACT_REPORT,
            ARTIFACT_TAXONOMY,
        }
        if self.trace_events is not None:
            keys.add(ARTIFACT_TRACE)
        if self.metrics is not None:
            keys.add(ARTIFACT_METRICS)
        if self.spans is not None:
            keys.add(ARTIFACT_SPANS)
        if self.manifest is not None:
            keys.add(ARTIFACT_CHECKPOINTS)
        if self.partial is not None:
            keys.add(ARTIFACT_PARTIAL)
        if self.metamorphic is not None:
            keys.add(ARTIFACT_METAMORPHIC)
        return frozenset(keys)

    def taxonomy(self) -> TaxonomyTree:
        """Build the taxonomy under audit; raises ``ValueError`` on defects."""
        if self.taxonomy_entries is None:
            return load_default_taxonomy()
        return TaxonomyTree(self.taxonomy_entries)

    @classmethod
    def load(
        cls,
        directory: str | Path,
        trace: str | Path | None = None,
        metrics: str | Path | None = None,
        spans: str | Path | None = None,
        checkpoint_dir: str | Path | None = None,
        partial: str | Path | None = None,
        metamorphic: str | Path | None = None,
        taxonomy_entries: tuple[TopicNode, ...] | None = None,
    ) -> "CrawlArtifacts":
        """Load an archive plus whatever optional artefacts exist.

        Explicit paths win; otherwise each optional artefact is looked up
        under its conventional name inside ``directory``.
        """
        source = Path(directory)
        result = load_crawl(source)

        trace_path = _resolve(trace, source / TRACE_FILE)
        trace_meta = trace_events = None
        if trace_path is not None:
            trace_meta = read_trace_meta(trace_path)
            trace_events = tuple(read_trace(trace_path))

        metrics_path = _resolve(metrics, source / METRICS_FILE)
        snapshot = (
            MetricsSnapshot.load(metrics_path) if metrics_path is not None else None
        )

        span_path = _resolve(spans, source / SPANS_FILE)
        span_meta = span_records = None
        if span_path is not None:
            span_meta = read_span_meta(span_path)
            span_records = tuple(read_spans(span_path))

        store_dir = _resolve(checkpoint_dir, source / CHECKPOINT_DIR)
        manifest = None
        if store_dir is not None and (Path(store_dir) / MANIFEST_FILE).exists():
            manifest = CheckpointStore(store_dir).manifest()

        partial_path = _resolve(partial, source / PARTIAL_FILE)
        partial_manifest = (
            PartialManifest.load(partial_path) if partial_path is not None else None
        )

        metamorphic_path = _resolve(metamorphic, source / METAMORPHIC_FILE)
        metamorphic_report = (
            _read_metamorphic(metamorphic_path)
            if metamorphic_path is not None
            else None
        )

        return cls(
            directory=source,
            result=result,
            trace_meta=trace_meta,
            trace_events=trace_events,
            metrics=snapshot,
            span_meta=span_meta,
            spans=span_records,
            manifest=manifest,
            partial=partial_manifest,
            metamorphic=metamorphic_report,
            taxonomy_entries=taxonomy_entries,
        )


def _read_metamorphic(path: Path) -> dict:
    """A saved metamorphic report, with the fields its writer gives it."""
    report = read_json_object(path)
    with located(path):
        check_fields(report, _METAMORPHIC_FIELDS)
        for relation in report["relations"]:
            check_fields(relation, _RELATION_FIELDS)
            if {type(detail) for detail in relation["details"]} - {str}:
                raise ValueError("a relation detail is not a string")
    return report


#: :meth:`repro.validate.metamorphic.MetamorphicReport.to_json`'s fields.
_METAMORPHIC_FIELDS = {
    "sites": (int,), "seed": (int,), "ok": (bool,), "relations": (list,)
}
_RELATION_FIELDS = {
    "relation": (str,), "description": (str,), "passed": (bool,), "details": (list,)
}


def _resolve(explicit: str | Path | None, conventional: Path) -> Path | None:
    if explicit is not None:
        return Path(explicit)
    return conventional if conventional.exists() else None
