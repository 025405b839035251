"""Fault-injection sweep for the crawl service.

The acceptance bar, one level above the resumable crawl's: a *service*
killed mid-campaign and restarted must finish its jobs with archives
**byte-identical** to an uninterrupted batch run — on every execution
backend.  Alongside the kill drill: cancellation stops shards with
durable checkpoints and a clean job record, and slow or disconnecting
subscribers exercise both backpressure policies with any loss surfaced
as a count, never silently.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

import pytest

from repro.crawler.archive import save_crawl
from repro.crawler.checkpoint import CheckpointStore
from repro.crawler.resumable import ResumableCrawl
from repro.service import (
    CrawlService,
    EVENT_JOB_CANCELLED,
    EVENT_JOB_DONE,
    EVENT_JOB_STARTED,
    EVENT_SHARD_PROGRESS,
    FaultSpec,
    JobPaths,
    JobSpec,
    JobState,
    JobTable,
    run_job,
)
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator

SITES = 120
SEED = 3
SHARDS = 3
EVERY = 10  # checkpoint cadence: small so kills always leave a prefix

BACKENDS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def batch_archive(tmp_path_factory) -> Path:
    """The uninterrupted batch campaign every service run must match."""
    world = WebGenerator(WorldConfig.small(SITES, seed=SEED)).generate()
    root = tmp_path_factory.mktemp("batch")
    outcome = ResumableCrawl(
        world,
        root / "checkpoints",
        shard_count=SHARDS,
        checkpoint_every=EVERY,
        backend="serial",
    ).run()
    return save_crawl(outcome.result, root / "archive")


def assert_archives_identical(actual: Path, expected: Path) -> None:
    actual_files = sorted(p.name for p in Path(actual).iterdir())
    expected_files = sorted(p.name for p in Path(expected).iterdir())
    assert actual_files == expected_files
    for name in actual_files:
        assert (Path(actual) / name).read_bytes() == (
            Path(expected) / name
        ).read_bytes(), f"archive file {name} differs"


async def drain_until_terminal(service: CrawlService, job_id: str, **subscribe):
    """All of a job's events, consumed live until the terminal one."""
    replay, sub = service.subscribe(job_id, **subscribe)
    events = list(replay)
    try:
        while not (events and events[-1].terminal):
            events.append(await sub.get())
    finally:
        service.unsubscribe(sub)
    return events


class TestKillAndRestart:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_restart_resumes_to_identical_archive(
        self, backend, batch_archive, tmp_path
    ):
        """Kill the service mid-campaign; a restarted service must resume
        the job and archive byte-identically to the uninterrupted run."""
        data = tmp_path / "svc"
        # Crash shard 1 at visit 15 on every attempt it gets, then
        # escalate to a simulated SIGKILL of the service itself.
        fault = FaultSpec(
            shard_index=1,
            points=((1, 15), (2, 15)),
            kill_service=True,
        )
        spec = JobSpec(
            sites=SITES,
            seed=SEED,
            shards=SHARDS,
            checkpoint_every=EVERY,
            max_shard_retries=1,
            backend=backend,
            fault=fault,
        )

        async def killed_run() -> str:
            service = CrawlService(data)
            await service.start()
            job_id = await service.submit(spec)
            record = await service.wait(job_id)
            assert service.killed
            # The "dead" process never touched the durable record: it
            # still says running — the restart marker.
            assert record.state is JobState.RUNNING
            return job_id

        job_id = asyncio.run(killed_run())
        on_disk = JobTable(data / "jobs").load(job_id)
        assert on_disk.state is JobState.RUNNING
        # One-shot faults never persist: the restarted service must not
        # re-crash on the same schedule.
        assert on_disk.spec.fault is None

        async def restarted_run():
            service = CrawlService(data)
            revived = await service.start()
            assert job_id in revived
            record = await service.wait(job_id)
            events = await drain_until_terminal(service, job_id)
            await service.close()
            return record, events

        record, events = asyncio.run(restarted_run())
        assert record.state is JobState.DONE
        assert record.resumed == 1
        started = [e for e in events if e.kind == EVENT_JOB_STARTED]
        assert started and started[0].payload["resumed"] == 1
        assert events[-1].kind == EVENT_JOB_DONE
        assert_archives_identical(Path(record.archive_dir), batch_archive)

    def test_fresh_jobs_unaffected_by_fault_spec_on_other_job(
        self, batch_archive, tmp_path
    ):
        """A faulted job's crash schedule must not leak into siblings."""
        data = tmp_path / "svc"

        async def run():
            service = CrawlService(data, max_jobs=1)
            await service.start()
            clean = await service.submit(
                JobSpec(
                    sites=SITES,
                    seed=SEED,
                    shards=SHARDS,
                    checkpoint_every=EVERY,
                    backend="serial",
                )
            )
            record = await service.wait(clean)
            await service.close()
            return record

        record = asyncio.run(run())
        assert record.state is JobState.DONE
        assert_archives_identical(Path(record.archive_dir), batch_archive)


def _progress_payloads(root: Path, backend: str, fault=None) -> list[dict]:
    """``shard-progress`` payloads of a 2-shard, 400-site job, by shard."""
    spec = JobSpec(
        sites=400,
        seed=1,
        shards=2,
        checkpoint_every=50,
        progress_every=50,
        backend=backend,
        fault=fault,
    )
    payloads: list[dict] = []

    def emit(kind, payload) -> None:
        if kind == EVENT_SHARD_PROGRESS:
            payloads.append(dict(payload))

    world = WebGenerator(spec.world_config()).generate()
    run_job(spec, JobPaths(root), world, emit, resume=False)
    return sorted(payloads, key=lambda p: (p["shard"], p["completed"]))


class TestProgressEvents:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_retried_shard_streams_the_clean_runs_progress(
        self, backend, tmp_path
    ):
        """A shard retried from its checkpoint neither repeats nor
        inflates ``shard-progress``: the events match a clean run's."""
        clean = _progress_payloads(tmp_path / "clean", backend)
        retried = _progress_payloads(
            tmp_path / "retried",
            backend,
            FaultSpec(shard_index=0, points=((1, 130),)),
        )
        assert retried == clean
        completed = [(p["shard"], p["completed"]) for p in clean]
        if backend == "process":
            # Worker processes report once, as the shard completes.
            assert completed == [(0, 200), (1, 200)]
        else:
            assert completed == [
                (shard, done) for shard in (0, 1) for done in (50, 100, 150, 200)
            ]


class TestCancellation:
    def test_cancel_mid_shard_leaves_durable_checkpoints(self, tmp_path):
        data = tmp_path / "svc"

        async def run():
            service = CrawlService(data, backend="serial")
            await service.start()
            job_id = await service.submit(
                JobSpec(
                    sites=240,
                    seed=5,
                    shards=2,
                    checkpoint_every=EVERY,
                    progress_every=10,
                )
            )
            _, sub = service.subscribe(job_id)
            # Let the campaign make real progress before pulling the plug.
            while True:
                event = await sub.get()
                if event.kind == EVENT_SHARD_PROGRESS:
                    break
            await service.cancel(job_id)
            events = [event]
            while not events[-1].terminal:
                events.append(await sub.get())
            service.unsubscribe(sub)
            record = await service.wait(job_id)
            await service.close()
            return record, events

        record, events = asyncio.run(run())
        assert record.state is JobState.CANCELLED
        assert record.archive_dir is None
        assert events[-1].kind == EVENT_JOB_CANCELLED
        # The shards stopped, but their durable progress survived: the
        # checkpoint store reopens cleanly with a consistent manifest.
        store = CheckpointStore(data / "jobs" / record.job_id / "checkpoints")
        shards = store.shards()
        assert shards, "cancelled campaign left no checkpoints"
        latest = store.latest(shards[0])
        assert latest is not None and latest.visits_done > 0
        # And the durable record agrees with the in-memory one.
        assert JobTable(data / "jobs").load(record.job_id).state is (
            JobState.CANCELLED
        )

    def test_cancel_while_queued_never_runs(self, tmp_path):
        data = tmp_path / "svc"

        async def run():
            service = CrawlService(data, max_jobs=1, backend="serial")
            await service.start()
            first = await service.submit(
                JobSpec(sites=SITES, seed=SEED, shards=2, checkpoint_every=EVERY)
            )
            second = await service.submit(
                JobSpec(sites=SITES, seed=SEED, shards=2, checkpoint_every=EVERY)
            )
            cancelled = await service.cancel(second)
            assert cancelled.state is JobState.CANCELLED
            first_record = await service.wait(first)
            second_record = await service.wait(second)
            await service.close()
            return first_record, second_record

        first_record, second_record = asyncio.run(run())
        assert first_record.state is JobState.DONE
        assert second_record.state is JobState.CANCELLED
        # The cancelled job never started: no checkpoint directory.
        assert not (
            data / "jobs" / second_record.job_id / "checkpoints"
        ).exists()


class TestBackpressure:
    def test_slow_blocking_subscriber_loses_nothing(self, tmp_path):
        """``block`` policy: a tiny queue and a slow consumer stall the
        service instead of losing events — completeness over latency."""

        async def run():
            service = CrawlService(tmp_path / "svc", backend="serial")
            await service.start()
            job_id = await service.submit(
                JobSpec(
                    sites=SITES,
                    seed=SEED,
                    shards=2,
                    checkpoint_every=EVERY,
                    progress_every=5,
                )
            )
            replay, sub = service.subscribe(job_id, policy="block", maxsize=1)
            events = list(replay)
            while not (events and events[-1].terminal):
                events.append(await sub.get())
                await asyncio.sleep(0.002)  # deliberately slow consumer
            service.unsubscribe(sub)
            await service.wait(job_id)
            await service.close()
            return events, sub

        events, sub = asyncio.run(run())
        assert sub.dropped == 0
        assert [event.seq for event in events] == list(
            range(1, len(events) + 1)
        ), "blocking subscriber saw a gap or duplicate"
        assert events[-1].kind == EVENT_JOB_DONE
        assert sum(1 for e in events if e.kind == EVENT_SHARD_PROGRESS) > 0

    def test_drop_policy_surfaces_loss_counts(self, tmp_path):
        """``drop`` policy: a consumer that never reads loses events, and
        the loss is counted — on the subscription and in the metrics."""

        async def run():
            service = CrawlService(tmp_path / "svc", backend="serial")
            await service.start()
            job_id = await service.submit(
                JobSpec(
                    sites=SITES,
                    seed=SEED,
                    shards=2,
                    checkpoint_every=EVERY,
                    progress_every=5,
                )
            )
            _, sub = service.subscribe(job_id, policy="drop", maxsize=1)
            await service.wait(job_id)  # never consume while it runs
            exposition = service.exposition()
            total_events = len(service.history(job_id))
            service.unsubscribe(sub)
            await service.close()
            return sub, exposition, total_events

        sub, exposition, total_events = asyncio.run(run())
        assert sub.dropped > 0
        # Nothing vanished from the record of what happened...
        assert total_events > sub.dropped
        # ...and the loss is visible in the service's own metrics.
        assert "service_events_dropped_total" in exposition
        for line in exposition.splitlines():
            if line.startswith("service_events_dropped_total"):
                assert float(line.split()[-1]) >= sub.dropped

    def test_disconnecting_blocking_subscriber_unblocks_the_job(
        self, tmp_path
    ):
        """Closing a ``block`` subscription mid-stream frees any publisher
        parked on its full queue; the job still completes."""

        async def run():
            service = CrawlService(tmp_path / "svc", backend="serial")
            await service.start()
            job_id = await service.submit(
                JobSpec(
                    sites=SITES,
                    seed=SEED,
                    shards=2,
                    checkpoint_every=EVERY,
                    progress_every=5,
                )
            )
            _, sub = service.subscribe(job_id, policy="block", maxsize=1)
            for _ in range(3):
                await sub.get()
            service.unsubscribe(sub)  # consumer walks away
            record = await service.wait(job_id)
            await service.close()
            return record

        record = asyncio.run(run())
        assert record.state is JobState.DONE
