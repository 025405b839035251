"""Crash-safe campaign checkpoints: versioned JSONL + manifest.

A weeks-long crawl is dominated by partial failures — a browser wedges, a
worker dies, the machine reboots — and an all-or-nothing campaign throws
every completed visit away.  This module makes shard progress durable:

* a :class:`ShardCheckpoint` captures everything a shard needs to resume
  — the visit records accumulated so far, the campaign report counters,
  the full browser-state snapshot (clock, RNG cursor, consent ledger,
  cache, cookies, Topics history) with its digest, and the shard's
  metrics snapshot so observability survives the crash too;
* a :class:`CheckpointStore` persists checkpoints as versioned JSONL
  files under one directory, every write following the
  write-to-temp-then-rename protocol (:mod:`repro.util.fsio`), with a
  ``MANIFEST.json`` naming the newest checkpoint per shard and a
  campaign fingerprint so a resume cannot silently mix campaigns;
* a :class:`RetryPolicy` schedules capped exponential backoff on the
  *simulated* clock — retry pauses never leak into the browsing
  timeline, which is what keeps a resumed dataset byte-identical to an
  uninterrupted run;
* a :class:`PartialManifest` names the rank ranges a degraded campaign
  (``--allow-partial``) could not crawl, so a partial dataset is never
  mistaken for a complete one.

File layout under the checkpoint directory::

    MANIFEST.json
    shard-00/checkpoint-00000150.jsonl
    shard-00/checkpoint-00000300.jsonl
    ...

Each checkpoint file is self-contained: a header line (format version,
shard, progress, state digest), a report line, a browser-state line, a
metrics line, then one line per visit record.
"""

from __future__ import annotations

import json
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

try:  # POSIX-only; manifest locking degrades gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.browser.browser import state_digest_of
from repro.crawler.campaign import CrawlReport
from repro.crawler.columnar import VisitBuffers
from repro.obs.metrics import MetricsSnapshot
from repro.util.fsio import atomic_write_lines, atomic_write_text
from repro.util.text import stable_digest

#: Current checkpoint format version; readers reject anything newer.
CHECKPOINT_FORMAT_VERSION = 1

#: Manifest file name inside a checkpoint directory.
MANIFEST_FILE = "MANIFEST.json"

_FILE_PATTERN = re.compile(r"^checkpoint-(\d{8})\.jsonl$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be read, or does not match the campaign."""


@dataclass(frozen=True)
class ShardCheckpoint:
    """One durable snapshot of a shard's progress."""

    shard_index: int
    visits_done: int  # targets consumed (position in the shard's ranking)
    targets: int  # total targets the shard will consume
    complete: bool  # True for the final checkpoint of a finished shard
    clock_now: int  # shard-local simulated time at the snapshot
    browser_state: dict
    state_digest: str
    report: CrawlReport
    d_ba: VisitBuffers  # the shard's rows so far, in visit order
    d_aa: VisitBuffers
    metrics: MetricsSnapshot | None = None
    version: int = CHECKPOINT_FORMAT_VERSION

    @property
    def remaining(self) -> int:
        return self.targets - self.visits_done

    def to_lines(self) -> list[str]:
        """Serialise as the checkpoint file's JSONL lines."""
        lines = [
            json.dumps(
                {
                    "checkpoint": {
                        "version": self.version,
                        "shard_index": self.shard_index,
                        "visits_done": self.visits_done,
                        "targets": self.targets,
                        "complete": self.complete,
                        "clock_now": self.clock_now,
                        "state_digest": self.state_digest,
                    }
                },
                sort_keys=True,
            ),
            json.dumps({"report": self.report.to_dict()}, sort_keys=True),
            json.dumps({"browser": self.browser_state}, sort_keys=True),
            json.dumps(
                {
                    "metrics": (
                        self.metrics.to_dict() if self.metrics is not None else None
                    )
                },
                sort_keys=True,
            ),
        ]
        for name, buffers in (("ba", self.d_ba), ("aa", self.d_aa)):
            # Exactly json.dumps({"dataset": …, "record": …}, sort_keys=True).
            prefix = f'{{"dataset": "{name}", "record": '
            lines.extend(f"{prefix}{row}}}" for row in buffers.iter_lines())
        return lines

    @classmethod
    def from_lines(cls, lines: list[str], source: str = "<memory>") -> "ShardCheckpoint":
        if len(lines) < 4:
            raise CheckpointError(f"{source}: truncated checkpoint (header missing)")
        number = 1
        try:
            header = json.loads(lines[0])["checkpoint"]
            number = 2
            report = CrawlReport.from_dict(json.loads(lines[1])["report"])
            number = 3
            browser_state = json.loads(lines[2])["browser"]
            number = 4
            metrics_payload = json.loads(lines[3])["metrics"]
            datasets = {"ba": VisitBuffers(), "aa": VisitBuffers()}
            for number, line in enumerate(lines[4:], start=5):
                if not line.strip():
                    continue
                payload = json.loads(line)
                if type(payload) is not dict or payload.keys() != _RECORD_LINE_KEYS:
                    raise ValueError("expected a {dataset, record} object")
                datasets[payload["dataset"]].append_row(payload["record"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"{source}:{number}: malformed checkpoint: {exc}"
            ) from exc
        if header["version"] > CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"{source}: checkpoint format v{header['version']} is newer "
                f"than supported v{CHECKPOINT_FORMAT_VERSION}"
            )
        if state_digest_of(browser_state) != header["state_digest"]:
            raise CheckpointError(
                f"{source}: browser state does not match its recorded digest"
            )
        return cls(
            shard_index=header["shard_index"],
            visits_done=header["visits_done"],
            targets=header["targets"],
            complete=header["complete"],
            clock_now=header["clock_now"],
            browser_state=browser_state,
            state_digest=header["state_digest"],
            report=report,
            d_ba=datasets["ba"],
            d_aa=datasets["aa"],
            metrics=(
                MetricsSnapshot.from_dict(metrics_payload)
                if metrics_payload is not None
                else None
            ),
            version=header["version"],
        )


_RECORD_LINE_KEYS = frozenset(("dataset", "record"))


def campaign_fingerprint(
    domains: Iterable[str], shard_count: int, corrupt_allowlist: bool
) -> dict:
    """Identity of a campaign for resume-compatibility checks.

    Two campaigns may share a checkpoint directory only when they crawl
    the same ranking with the same shard layout and allow-list mode —
    anything else would merge records from different worlds.
    """
    domains = tuple(domains)
    return {
        "targets": len(domains),
        "ranking_digest": f"{stable_digest('tranco', *domains):016x}",
        "shard_count": shard_count,
        "corrupt_allowlist": corrupt_allowlist,
    }


class CheckpointStore:
    """Reads and writes a campaign's checkpoint directory atomically."""

    def __init__(self, directory: str | Path) -> None:
        self._directory = Path(directory)
        # Shard workers share one manifest; its read-modify-write cycle
        # must be serialised or concurrent writers lose each other's
        # "latest" entries.  Checkpoint files themselves never collide
        # (one directory per shard), so only the manifest takes the lock.
        # Worker threads serialise on the threading lock; under the
        # process execution backend each worker holds its own store on
        # the shared directory, so an advisory file lock serialises the
        # manifest across processes too.
        self._manifest_lock = threading.Lock()

    @contextmanager
    def _manifest_guard(self) -> Iterator[None]:
        with self._manifest_lock:
            if fcntl is None:
                yield
                return
            self._directory.mkdir(parents=True, exist_ok=True)
            with (self._directory / ".manifest.lock").open("a") as handle:
                fcntl.flock(handle, fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(handle, fcntl.LOCK_UN)

    @property
    def directory(self) -> Path:
        return self._directory

    # -- manifest -------------------------------------------------------------

    def manifest(self) -> dict | None:
        path = self._directory / MANIFEST_FILE
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{path}: malformed manifest: {exc}") from exc

    def initialize(self, fingerprint: dict) -> None:
        """Bind the directory to one campaign, or verify it already is.

        A fresh directory records the fingerprint; an existing one must
        match it exactly, otherwise resuming would splice checkpoints
        from a different campaign into this one.
        """
        with self._manifest_guard():
            manifest = self.manifest()
            if manifest is None:
                self._write_manifest({"fingerprint": fingerprint, "shards": {}})
                return
        if manifest.get("fingerprint") != fingerprint:
            raise CheckpointError(
                f"{self._directory}: checkpoint directory belongs to a "
                f"different campaign (fingerprint {manifest.get('fingerprint')} "
                f"!= {fingerprint})"
            )

    def _write_manifest(self, manifest: dict) -> None:
        atomic_write_text(
            self._directory / MANIFEST_FILE,
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )

    # -- writing --------------------------------------------------------------

    def shard_dir(self, shard_index: int) -> Path:
        return self._directory / f"shard-{shard_index:02d}"

    def write(self, checkpoint: ShardCheckpoint) -> Path:
        """Durably persist one checkpoint and advance the manifest.

        The checkpoint file lands first (temp + rename), the manifest
        update second — a crash between the two leaves a valid manifest
        pointing at the previous checkpoint, which is always safe.
        """
        path = self.shard_dir(checkpoint.shard_index) / (
            f"checkpoint-{checkpoint.visits_done:08d}.jsonl"
        )
        atomic_write_lines(path, checkpoint.to_lines())
        with self._manifest_guard():
            manifest = self.manifest() or {"fingerprint": None, "shards": {}}
            manifest["shards"][str(checkpoint.shard_index)] = {
                "latest": f"{path.parent.name}/{path.name}",
                "visits_done": checkpoint.visits_done,
                "targets": checkpoint.targets,
                "complete": checkpoint.complete,
            }
            self._write_manifest(manifest)
        return path

    # -- reading --------------------------------------------------------------

    def load(self, path: str | Path) -> ShardCheckpoint:
        path = Path(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from exc
        return ShardCheckpoint.from_lines(lines, source=str(path))

    def latest(self, shard_index: int) -> ShardCheckpoint | None:
        """The newest durable checkpoint for a shard, or None.

        Trusts the manifest first (it is updated after every successful
        write); falls back to a directory scan so a manifest lost to a
        crash between file-write and manifest-write still resumes from
        the newest complete file.
        """
        manifest = self.manifest()
        candidates: list[Path] = []
        if manifest is not None:
            entry = manifest.get("shards", {}).get(str(shard_index))
            if entry is not None:
                candidates.append(self._directory / entry["latest"])
        shard_dir = self.shard_dir(shard_index)
        if shard_dir.is_dir():
            scanned = [
                shard_dir / name
                for name in sorted(p.name for p in shard_dir.iterdir())
                if _FILE_PATTERN.match(name)
            ]
            candidates.extend(reversed(scanned))
        best: ShardCheckpoint | None = None
        for path in candidates:
            if not path.exists():
                continue
            checkpoint = self.load(path)
            if best is None or checkpoint.visits_done > best.visits_done:
                best = checkpoint
        return best

    def shards(self) -> list[int]:
        """Every shard with at least one checkpoint on disk."""
        found = {
            int(entry.name.split("-")[1])
            for entry in self._directory.glob("shard-*")
            if entry.is_dir()
        }
        return sorted(found)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for shard retries (simulated seconds)."""

    max_retries: int = 3
    base_backoff_seconds: int = 30
    backoff_cap_seconds: int = 600

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_backoff_seconds <= 0 or self.backoff_cap_seconds <= 0:
            raise ValueError("backoff seconds must be positive")

    def backoff_seconds(self, attempt: int) -> int:
        """Backoff before retry ``attempt`` (1-based): base·2^(n-1), capped."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(
            self.backoff_cap_seconds,
            self.base_backoff_seconds * 2 ** (attempt - 1),
        )


@dataclass(frozen=True)
class MissingRange:
    """A contiguous global-rank range a degraded campaign did not crawl."""

    shard_index: int
    from_rank: int
    to_rank: int  # inclusive
    error: str

    @property
    def count(self) -> int:
        return self.to_rank - self.from_rank + 1


@dataclass
class PartialManifest:
    """What an ``--allow-partial`` campaign could not deliver."""

    missing: list[MissingRange] = field(default_factory=list)

    @property
    def missing_targets(self) -> int:
        return sum(entry.count for entry in self.missing)

    def to_json(self) -> str:
        return json.dumps(
            {
                "missing_targets": self.missing_targets,
                "missing_ranges": [
                    {
                        "shard": entry.shard_index,
                        "from_rank": entry.from_rank,
                        "to_rank": entry.to_rank,
                        "error": entry.error,
                    }
                    for entry in sorted(
                        self.missing, key=lambda e: (e.from_rank, e.shard_index)
                    )
                ],
            },
            indent=2,
            sort_keys=True,
        )

    def save(self, path: str | Path) -> Path:
        return atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "PartialManifest":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            missing=[
                MissingRange(
                    shard_index=entry["shard"],
                    from_rank=entry["from_rank"],
                    to_rank=entry["to_rank"],
                    error=entry["error"],
                )
                for entry in data["missing_ranges"]
            ]
        )
