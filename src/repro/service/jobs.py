"""Job model for the crawl service: specs, state machine, durable table.

A *job* is one crawl campaign submitted to the long-lived service.  Its
description (:class:`JobSpec`) is plain JSON-serialisable data — the
world parameters plus the campaign knobs the batch CLI exposes — so it
travels over the newline-delimited-JSON protocol and rests in the job
table unchanged.

The job table is deliberately boring: one directory per job under
``<data_dir>/jobs/``, holding a ``job.json`` record written atomically
(:mod:`repro.util.fsio`) after every state transition, the job's
checkpoint directory and its archive.  Because the record on disk always
reflects the last *completed* transition, a service killed mid-campaign
leaves its running jobs persisted as ``running`` — exactly the marker
the next service start needs to requeue them with ``resume=True``, where
the checkpoint layer takes over and replays nothing.

State machine::

    queued ──→ running ──→ done
       │          ├──────→ failed
       └──────────┴──────→ cancelled

Any other transition raises :class:`JobStateError`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable

from repro.util.codec import check_fields, json_type, located, read_json_object
from repro.util.fsio import atomic_write_text
from repro.web.config import WorldConfig
from repro.web.vantage import vantage_by_name


class JobState(str, Enum):
    """Lifecycle states of a submitted campaign."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)

#: Legal state-machine edges; anything else is a service bug.
ALLOWED_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.QUEUED: frozenset({JobState.RUNNING, JobState.CANCELLED}),
    JobState.RUNNING: frozenset(
        {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}


class JobStateError(RuntimeError):
    """An illegal job state transition was attempted."""


class JobSpecError(ValueError):
    """A submitted job spec is malformed."""


@dataclass(frozen=True)
class FaultSpec:
    """Deterministic fault injection for one job (test / drill seam).

    Mirrors :class:`repro.crawler.executor.CrashSchedule`: ``points``
    maps a 1-based shard attempt to the visit position where it dies.
    With ``kill_service`` set, exhausting the shard's retry budget
    simulates a SIGKILL of the whole service process: the runner
    abandons the job *without* touching its durable record — on-disk
    state is left exactly as a real kill would leave it — and flags the
    service as dead.  Faults are **one-shot**: they are never persisted
    to the job table, so a restarted service resumes the job unarmed,
    just as a real killer would not survive the process it killed.
    """

    shard_index: int = 0
    points: tuple[tuple[int, int], ...] = ()
    kill_service: bool = False

    def to_dict(self) -> dict:
        return {
            "shard_index": self.shard_index,
            "points": [list(pair) for pair in self.points],
            "kill_service": self.kill_service,
        }

    @classmethod
    def from_dict(cls, data: object) -> "FaultSpec":
        """A fault from its JSON object; :class:`JobSpecError` naming the
        first unknown or mistyped field (nothing is coerced)."""
        if type(data) is not dict:
            raise JobSpecError(f"fault must be a JSON object, got {json_type(data)}")
        try:
            check_fields(data, {}, _FAULT_FIELDS)
        except ValueError as exc:
            raise JobSpecError(f"fault: {exc}") from None
        points = data.get("points", [])
        if not all(
            type(pair) is list and len(pair) == 2 and {type(n) for n in pair} == {int}
            for pair in points
        ):
            raise JobSpecError(
                "fault: field 'points' must hold [attempt, position] integer pairs"
            )
        return cls(
            shard_index=data.get("shard_index", 0),
            points=tuple((attempt, position) for attempt, position in points),
            kill_service=data.get("kill_service", False),
        )


_FAULT_FIELDS = {"shard_index": (int,), "points": (list,), "kill_service": (bool,)}


#: Every JobSpec field a submission payload may carry, with its JSON types.
#: Anything else is rejected loudly, and nothing is coerced: silent typos
#: in a campaign spec are how a week-long crawl runs with the wrong seed.
_SPEC_FIELDS = {
    "sites": (int,),
    "seed": (int,),
    "vantage": (str,),
    "shards": (int,),
    "backend": (str, type(None)),
    "max_workers": (int, type(None)),
    "corrupt_allowlist": (bool,),
    "limit": (int, type(None)),
    "checkpoint_every": (int,),
    "max_shard_retries": (int,),
    "stream_results": (bool,),
    "progress_every": (int,),
    "fault": (dict, type(None)),
}

#: How a spec error names each type set of :data:`_SPEC_FIELDS`.
_EXPECTED = {
    (int,): "an integer",
    (int, type(None)): "an integer or null",
    (str,): "a string",
    (str, type(None)): "a string or null",
    (bool,): "a boolean",
    (dict, type(None)): "a JSON object or null",
}

_VANTAGES = ("eu", "us", "other")


def _spec_defect(data: dict) -> str:
    """Why ``data`` fails the :data:`_SPEC_FIELDS` table, naming the field."""
    unknown = sorted(data.keys() - _SPEC_FIELDS.keys())
    if unknown:
        return f"unknown job spec field(s): {', '.join(unknown)}"
    for name, types in _SPEC_FIELDS.items():
        if name in data and type(data[name]) not in types:
            return f"{name} must be {_EXPECTED[types]}, got {json_type(data[name])}"
    return "job spec does not match its field table"


@dataclass(frozen=True)
class JobSpec:
    """Everything the service needs to run one campaign."""

    sites: int = 1_000
    seed: int = 1
    vantage: str = "eu"
    shards: int = 4
    backend: str | None = None
    max_workers: int | None = None
    corrupt_allowlist: bool = True
    limit: int | None = None
    checkpoint_every: int = 200
    max_shard_retries: int = 3
    stream_results: bool = True
    progress_every: int = 100
    fault: FaultSpec | None = None

    def __post_init__(self) -> None:
        if self.sites <= 0:
            raise JobSpecError(f"sites must be positive, got {self.sites}")
        if self.shards <= 0:
            raise JobSpecError(f"shards must be positive, got {self.shards}")
        if self.checkpoint_every <= 0:
            raise JobSpecError(
                f"checkpoint_every must be positive, got {self.checkpoint_every}"
            )
        if self.max_shard_retries < 0:
            raise JobSpecError(
                f"max_shard_retries must be non-negative, "
                f"got {self.max_shard_retries}"
            )
        if self.progress_every <= 0:
            raise JobSpecError(
                f"progress_every must be positive, got {self.progress_every}"
            )
        if self.vantage not in _VANTAGES:
            raise JobSpecError(
                f"unknown vantage {self.vantage!r}; expected one of "
                f"{', '.join(_VANTAGES)}"
            )

    # -- world identity ---------------------------------------------------

    def world_config(self) -> WorldConfig:
        """The deterministic world this spec crawls (CLI-equivalent)."""
        if self.sites >= 50_000:
            config = WorldConfig(seed=self.seed)
        else:
            config = WorldConfig.small(self.sites, seed=self.seed)
        config.vantage = vantage_by_name(self.vantage)
        return config

    def world_key(self) -> tuple:
        """Cache key for the service's world cache.

        The generator is deterministic, so (sites, seed, vantage) fully
        identifies a world — two jobs sharing the key share the build.
        """
        return (self.sites, self.seed, self.vantage)

    # -- serialisation ----------------------------------------------------

    def to_dict(self, *, persist: bool = False) -> dict:
        """Plain-JSON form; ``persist=True`` drops the one-shot fault."""
        data: dict = {
            "sites": self.sites,
            "seed": self.seed,
            "vantage": self.vantage,
            "shards": self.shards,
            "backend": self.backend,
            "max_workers": self.max_workers,
            "corrupt_allowlist": self.corrupt_allowlist,
            "limit": self.limit,
            "checkpoint_every": self.checkpoint_every,
            "max_shard_retries": self.max_shard_retries,
            "stream_results": self.stream_results,
            "progress_every": self.progress_every,
        }
        if self.fault is not None and not persist:
            data["fault"] = self.fault.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: object) -> "JobSpec":
        """A spec from its JSON object; :class:`JobSpecError` naming the
        first unknown or mistyped field (nothing is coerced)."""
        if type(data) is not dict:
            raise JobSpecError(
                f"job spec must be a JSON object, got {json_type(data)}"
            )
        # One pass over the table: a service start reads every stored spec.
        for name, value in data.items():
            if type(value) not in _SPEC_FIELDS.get(name, ()):
                raise JobSpecError(_spec_defect(data))
        kwargs = {key: value for key, value in data.items() if key != "fault"}
        fault = data.get("fault")
        return cls(
            fault=FaultSpec.from_dict(fault) if fault is not None else None, **kwargs
        )


@dataclass
class JobRecord:
    """One job's full lifecycle, as persisted in the job table."""

    job_id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    error: str | None = None
    resumed: int = 0  # times a restarted service picked this job back up
    archive_dir: str | None = None
    summary: dict = field(default_factory=dict)  # report digest once done

    def to_dict(self, *, persist: bool = False) -> dict:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(persist=persist),
            "state": self.state.value,
            "error": self.error,
            "resumed": self.resumed,
            "archive_dir": self.archive_dir,
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, data: object) -> "JobRecord":
        """The inverse of :meth:`to_dict`; ``ValueError`` on a bad record.

        Only ``job_id`` is required; every field present must have its
        JSON type, and no other field may be.
        """
        check_fields(data, {"job_id": (str,)}, _RECORD_FIELDS)
        return cls(
            job_id=data["job_id"],
            spec=JobSpec.from_dict(data.get("spec", {})),
            state=JobState(data.get("state", "queued")),
            error=data.get("error"),
            resumed=data.get("resumed", 0),
            archive_dir=data.get("archive_dir"),
            summary=dict(data.get("summary", {})),
        )

    def transition(self, target: JobState) -> None:
        """Advance the state machine, or raise :class:`JobStateError`."""
        if target not in ALLOWED_TRANSITIONS[self.state]:
            raise JobStateError(
                f"job {self.job_id}: illegal transition "
                f"{self.state.value} -> {target.value}"
            )
        self.state = target

    def disarm_fault(self) -> None:
        """Drop the one-shot fault spec (used when a job is requeued)."""
        if self.spec.fault is not None:
            self.spec = replace(self.spec, fault=None)


#: The optional fields of a stored job record, besides its ``job_id``.
_RECORD_FIELDS = {
    "spec": (dict,),
    "state": (str,),
    "error": (str, type(None)),
    "resumed": (int,),
    "archive_dir": (str, type(None)),
    "summary": (dict,),
}

_JOB_ID_PATTERN = re.compile(r"^job-(\d{6})$")


class JobTable:
    """Durable job records: one directory per job, atomic ``job.json``.

    Not thread-safe by itself — the service serialises access on its
    event loop.  Reads tolerate foreign directories (anything not
    matching ``job-NNNNNN`` is ignored) but a matching directory with a
    corrupt record raises :class:`~repro.util.codec.FormatError` naming
    its ``job.json``: silently skipping a half-written job record would
    orphan its checkpoints forever.
    """

    RECORD_FILE = "job.json"

    def __init__(self, directory: str | Path) -> None:
        self._directory = Path(directory)

    @property
    def directory(self) -> Path:
        return self._directory

    def job_dir(self, job_id: str) -> Path:
        return self._directory / job_id

    def next_id(self) -> str:
        """The lowest unused ``job-NNNNNN`` id (ids are never reused)."""
        highest = 0
        if self._directory.is_dir():
            for entry in self._directory.iterdir():
                match = _JOB_ID_PATTERN.match(entry.name)
                if match:
                    highest = max(highest, int(match.group(1)))
        return f"job-{highest + 1:06d}"

    def save(self, record: JobRecord) -> Path:
        path = self.job_dir(record.job_id) / self.RECORD_FILE
        atomic_write_text(
            path,
            json.dumps(record.to_dict(persist=True), indent=2, sort_keys=True)
            + "\n",
        )
        return path

    def load(self, job_id: str) -> JobRecord:
        path = self.job_dir(job_id) / self.RECORD_FILE
        if not path.exists():
            raise KeyError(f"no such job: {job_id}")
        data = read_json_object(path)
        with located(path):
            return JobRecord.from_dict(data)

    def load_all(self) -> list[JobRecord]:
        """Every persisted job, sorted by id (= submission order)."""
        records: list[JobRecord] = []
        if not self._directory.is_dir():
            return records
        for entry in sorted(self._directory.iterdir()):
            if not _JOB_ID_PATTERN.match(entry.name):
                continue
            if not (entry / self.RECORD_FILE).exists():
                continue
            records.append(self.load(entry.name))
        return records

    def ids(self) -> list[str]:
        return [record.job_id for record in self.load_all()]


def interrupted_jobs(records: Iterable[JobRecord]) -> list[JobRecord]:
    """Jobs a previous service left unfinished, in submission order.

    ``running`` records are what a killed service leaves behind;
    ``queued`` records never started.  Both are requeued on restart —
    running ones with their fault seams disarmed and the resume counter
    bumped, so observers can tell a revived job from a fresh one.
    """
    return [
        record
        for record in records
        if record.state in (JobState.QUEUED, JobState.RUNNING)
    ]
