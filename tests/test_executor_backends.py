"""Execution backends: resolution, cross-backend determinism, clamping.

The backend must be a pure scheduling choice — serial, thread and
process campaigns archive byte-identically, including a process-backend
campaign that crashed and was resumed from checkpoints.  These tests pin
that contract at the artefact level (``save_crawl`` bytes), plus the
resolution order, the shard-count clamp, and the process-pool pickling
seams.
"""

import pickle

import pytest

from repro.crawler.archive import save_crawl
from repro.crawler.checkpoint import RetryPolicy
from repro.crawler.crawl import effective_shard_count
from repro.crawler.executor import (
    CrashSchedule,
    ShardFailedError,
    WorldReconstructionError,
    WorldSpec,
    _world_for,
    world_fingerprint,
)
from repro.crawler.parallel import ShardedCrawl
from repro.crawler.resumable import ResumableCrawl
from repro.obs import EventKind, Tracer
from repro.util.executor import (
    BACKEND_ENV_VAR,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    create_backend,
    is_picklable,
    resolve_backend_name,
)
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator

#: Small world for process-backend tests: workers rebuild it from config,
#: so the generator cost is paid per worker — keep it cheap.
TINY_SITES = 240


@pytest.fixture(scope="module")
def tiny_world():
    return WebGenerator(WorldConfig.small(TINY_SITES, seed=11)).generate()


_ARCHIVE_FILES = (
    "report.json",
    "d_ba.jsonl",
    "d_aa.jsonl",
    "allowed_domains.txt",
    "attestation_survey.jsonl",
)


class TestBackendResolution:
    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend_name(None) == "thread"

    def test_environment_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        assert resolve_backend_name(None) == "process"

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        assert resolve_backend_name("serial") == "serial"

    def test_name_normalised(self):
        assert resolve_backend_name("  Process ") == "process"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown crawl backend"):
            resolve_backend_name("fork")

    def test_create_backend_materialises_each(self):
        assert isinstance(create_backend("serial", 4), SerialBackend)
        assert isinstance(create_backend("thread", 4), ThreadBackend)
        assert isinstance(create_backend("process", 4), ProcessBackend)

    def test_create_backend_passes_instances_through(self):
        backend = SerialBackend()
        assert create_backend(backend, 4) is backend

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            ThreadBackend(0)
        with pytest.raises(ValueError):
            ProcessBackend(-1)


class TestCrossBackendDeterminism:
    """Identical archive bytes across every backend — the relation is
    owned by the metamorphic harness; one legacy pin stays as a canary."""

    @pytest.fixture(scope="class")
    def harness(self, tmp_path_factory):
        from repro.validate import MetamorphicHarness

        return MetamorphicHarness(
            tmp_path_factory.mktemp("backend-harness"),
            sites=TINY_SITES,
            seed=11,
            shard_counts=(3,),
            backends=("serial", "thread", "process"),
        )

    def test_backend_equivalence_relation(self, harness):
        result = harness.check_backend_equivalence()
        assert result.passed, "\n".join(result.details)

    def test_canary_byte_pin(self, harness):
        """If this fires while the relation above stays green, the
        harness comparator has gone blind."""
        harness.check_backend_equivalence()  # archives cached by the run
        reference = (harness.workdir / "shards-3" / "d_ba.jsonl").read_bytes()
        for backend in ("thread", "process"):
            candidate = harness.workdir / f"backend-{backend}" / "d_ba.jsonl"
            assert candidate.read_bytes() == reference

    def test_environment_backend_matches(self, tiny_world, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "serial")
        result = ShardedCrawl(tiny_world, shard_count=3).run()
        via_env = {r.domain for r in result.d_ba}
        explicit = ShardedCrawl(tiny_world, shard_count=3, backend="serial").run()
        assert via_env == {r.domain for r in explicit.d_ba}


class TestProcessCrashResume:
    """A process-backend campaign that died mid-shard resumes byte-identically."""

    def test_resumed_process_run_matches_clean_serial_run(
        self, tiny_world, tmp_path
    ):
        clean = ResumableCrawl(
            tiny_world,
            tmp_path / "clean",
            shard_count=3,
            checkpoint_every=25,
            backend="serial",
        ).run()

        # Shard 1 dies inside its worker process on every attempt of the
        # first campaign — the retry budget runs out and the campaign
        # aborts, leaving durable checkpoints behind.
        schedule = CrashSchedule(
            shard_index=1, points=((1, 30), (2, 55), (3, 60))
        )
        crash_dir = tmp_path / "crashed"
        with pytest.raises(ShardFailedError):
            ResumableCrawl(
                tiny_world,
                crash_dir,
                shard_count=3,
                checkpoint_every=25,
                backend="process",
                max_workers=2,
                retry_policy=RetryPolicy(max_retries=2),
                fault_injector=schedule,
            ).run()

        # Second invocation: --resume, still on the process backend, no
        # faults.  Every shard picks up from its newest checkpoint.
        resumed = ResumableCrawl(
            tiny_world,
            crash_dir,
            shard_count=3,
            checkpoint_every=25,
            backend="process",
            max_workers=2,
            resume=True,
        ).run()
        assert 1 in resumed.resumed_shards

        clean_archive = save_crawl(clean.result, tmp_path / "a-clean")
        resumed_archive = save_crawl(resumed.result, tmp_path / "a-resumed")
        for filename in _ARCHIVE_FILES:
            assert (resumed_archive / filename).read_bytes() == (
                clean_archive / filename
            ).read_bytes(), f"{filename} diverged after crash+resume"

    def test_picklable_injector_keeps_process_backend(self, tiny_world, tmp_path):
        crawl = ResumableCrawl(
            tiny_world,
            tmp_path,
            shard_count=2,
            backend="process",
            fault_injector=CrashSchedule(shard_index=0, points=()),
        )
        assert crawl._resolve_backend(2).name == "process"

    def test_closure_injector_downgrades_to_thread(self, tiny_world, tmp_path):
        captured = []

        def injector(shard, attempt):  # closures cannot cross the pool
            captured.append((shard, attempt))
            return None

        crawl = ResumableCrawl(
            tiny_world,
            tmp_path,
            shard_count=2,
            backend="process",
            fault_injector=injector,
        )
        assert crawl._resolve_backend(2).name == "thread"


class TestShardCountClamp:
    def test_clamped_and_traced(self):
        tracer = Tracer()
        assert effective_shard_count(16, 6, tracer) == 6
        (event,) = tracer.events(EventKind.SHARD_EMPTY)
        assert event.fields == {"requested": 16, "effective": 6, "targets": 6}

    def test_no_event_when_within_range(self):
        tracer = Tracer()
        assert effective_shard_count(3, 10, tracer) == 3
        assert tracer.events(EventKind.SHARD_EMPTY) == []

    def test_zero_targets_still_plans_one_shard(self):
        assert effective_shard_count(4, 0) == 1

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            effective_shard_count(0, 10)

    def test_error_names_the_offending_value(self):
        with pytest.raises(ValueError, match="shard_count must be positive, got -4"):
            effective_shard_count(-4, 10)

    def test_sharded_crawl_rejects_nonpositive_count_at_construction(
        self, tiny_world
    ):
        """Regression: a zero/negative count must fail fast in the
        constructor, not surface later from run()."""
        with pytest.raises(ValueError, match="shard_count must be positive, got 0"):
            ShardedCrawl(tiny_world, shard_count=0)
        with pytest.raises(ValueError, match="got -2"):
            ShardedCrawl(tiny_world, shard_count=-2)

    def test_resumable_crawl_rejects_nonpositive_count_at_construction(
        self, tiny_world, tmp_path
    ):
        with pytest.raises(ValueError, match="shard_count must be positive, got -1"):
            ResumableCrawl(tiny_world, tmp_path, shard_count=-1)

    def test_resumable_campaign_clamps(self, tiny_world, tmp_path):
        tracer = Tracer()
        outcome = ResumableCrawl(
            tiny_world,
            tmp_path,
            shard_count=16,
            limit=6,
            backend="serial",
            tracer=tracer,
        ).run()
        assert outcome.result.report.targets == 6
        (event,) = tracer.events(EventKind.SHARD_EMPTY)
        assert event.fields["requested"] == 16
        assert event.fields["effective"] == 6


class TestPicklingSeams:
    def test_is_picklable(self):
        assert is_picklable(CrashSchedule(shard_index=0, points=((1, 5),)))
        assert not is_picklable(lambda shard, attempt: None)

    def test_shard_failed_error_roundtrips(self):
        error = ShardFailedError(3, 2, RuntimeError("boom"))
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, ShardFailedError)
        assert clone.shard_index == 3
        assert clone.attempts == 2
        assert "boom" in str(clone)

    def test_world_fingerprint_stable(self, tiny_world):
        spec = WorldSpec.of(tiny_world)
        assert spec.fingerprint == world_fingerprint(tiny_world)
        rebuilt = WebGenerator(tiny_world.config).generate()
        assert world_fingerprint(rebuilt) == spec.fingerprint

    def test_fingerprint_mismatch_refused(self, tiny_world):
        bogus = WorldSpec(config=tiny_world.config, fingerprint="0" * 16)
        with pytest.raises(WorldReconstructionError):
            _world_for(bogus)
