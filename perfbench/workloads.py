"""The three benchmark workloads, their output checks and their metrics.

Every workload is one function ``run_<name>(ctx, tracer, plan)`` that
runs one *pass*: set-up (timed, possibly repeated), the measured
operations, then the output checks.  It drives the program only through
its public entry points and pins every execution backend explicitly, so
``REPRO_CRAWL_BACKEND`` cannot change what is measured.  A pass returns
a :class:`PassResult`; ``run.py`` turns passes into the printed result.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from tracing import NullTracer, Tracer, tree_bytes

# Paper-scale and test-scale parameters.  ``paper`` is the default and
# what the quoted figures use; ``tiny`` keeps the benchmark's own tests
# fast.  ``--seed`` selects the world and population seeds below
# (``seed % 4``); each has recorded references (``references.json``).
SCALES: dict[str, dict] = {
    "paper": {
        "sites": 50_000,
        "users": 10_000,
        # JobSpec's default size: each of the 4 shards crawls 250 targets,
        # so the 200-visit checkpoint fires once inside every shard.
        "job_sites": 1_000,
        "job_seed_pool": 3,
        "jobs_per_client_per_s": 0.67,
    },
    "tiny": {
        "sites": 300,
        "users": 150,
        "job_sites": 120,
        "job_seed_pool": 2,
        "jobs_per_client_per_s": 3.0,
    },
}
WORLD_SEEDS = (1, 2, 3, 4)
REID_SEEDS = (7, 8, 9, 10)
#: The world the paper-vs-measured sheet is calibrated on (EXPERIMENTS.md).
#: On the other world seeds ``fig7.hubspot_q_rate`` falls outside its
#: tolerance, so "all 26 comparisons ok" is checked on this world only;
#: every world's sheet is checked against its recorded digest.
PAPER_WORLD_SEED = 1

#: Shards of a paper-study crawl (serial backend) and service jobs.
SHARDS = 4
#: Worker processes of the re-identification study (process backend).
REID_WORKERS = 2
#: Concurrent closed-loop clients of the crawl service.
SERVICE_CLIENTS = 2
#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


@dataclass
class Context:
    """What every pass of one invocation shares."""

    workload: str
    seed: int
    scale: str
    work_dir: Path
    references: dict

    @property
    def params(self) -> dict:
        return SCALES[self.scale]


@dataclass
class PassPlan:
    """How much one pass does: set-up repeats and operations."""

    setup_repeats: int
    #: run operations until this many seconds of them were measured ...
    seconds: float
    #: ... or exactly this many, when set (a traced pass mirrors the
    #: untraced pass's operation count).
    ops: int | None = None


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassResult:
    """One pass: its timings, headline metrics and output checks."""

    #: set-up plus measured operations; output checks excluded
    wall_s: float
    ops: int
    setup_s: list[float]
    op_s: list[float]
    #: the workload's throughput per operation, in ``rate_unit``
    rates: list[float]
    rate_name: str
    rate_unit: str
    op_name: str
    checks: list[Check] = field(default_factory=list)
    #: workload-specific figures: name -> (value, unit)
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    #: what layer totals are divided by: the studies run, or 1 for the
    #: service's fixed job stream
    layer_ops: int = 1
    #: per-job service figures measured by the clients (service only)
    service_layers: dict[str, float] = field(default_factory=dict)


# -- helpers -----------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[int, float]:
    """The highest whole percentile with at least ``beyond`` samples above it.

    Nearest-rank: percentile ``p`` is the ``ceil(p/100 * n)``-th smallest
    sample, and ``p`` is the largest whole number for which at least
    ``beyond`` samples are strictly greater.  Returns ``(p, value)``,
    or ``(0, min)`` when there are too few samples for any percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return 0, ordered[0] if ordered else 0.0
    for p in range(99, 0, -1):
        rank = max(1, math.ceil(p / 100 * n))
        value = ordered[rank - 1]
        if sum(1 for v in ordered if v > value) >= beyond:
            return p, value
    return 0, ordered[0]


def tree_digest(directory: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def reference(ctx: Context, key: str, seed: int) -> str | None:
    return ctx.references.get(ctx.workload, {}).get(ctx.scale, {}).get(key, {}).get(str(seed))


def digest_check(ctx: Context, name: str, key: str, seed: int, actual: str) -> Check:
    expected = reference(ctx, key, seed)
    if expected is None:
        return Check(name, False, f"{actual}: no reference {key} for seed {seed} at scale {ctx.scale}")
    return Check(name, actual == expected, f"{actual} (reference {expected})")


class PeakRss:
    """Peak resident memory of this process plus its child processes.

    A daemon thread samples ``/proc`` every 100 ms; the result is the
    larger of that sampled peak and the kernel's own peak for this
    process alone, in MB.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self._interval = interval
        self._peak = 0
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _rss(self, pid: int) -> int:
        try:
            with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
                return int(handle.read().split()[1]) * self._page
        except (OSError, IndexError, ValueError):
            return 0

    def _children(self, pid: int) -> list[int]:
        pids: list[int] = []
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            return pids
        for task in tasks:
            try:
                with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                    pids.extend(int(token) for token in handle.read().split())
            except OSError:
                continue
        return pids

    def _sample(self) -> None:
        me = os.getpid()
        while not self._stop.wait(self._interval):
            total = self._rss(me) + sum(self._rss(pid) for pid in self._children(me))
            self._peak = max(self._peak, total)

    @property
    def peak_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        return max(self._peak, own) / (1024 * 1024)


def _timed(fn: Callable, *args, **kwargs) -> tuple[object, float]:
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _keep_going(plan: PassPlan, done: int, measured: float) -> bool:
    if plan.ops is not None:
        return done < plan.ops
    return done == 0 or measured < plan.seconds


# -- paper-study ---------------------------------------------------------------


def run_paper_study(ctx: Context, tracer: Tracer | NullTracer, plan: PassPlan) -> PassResult:
    """World -> 4-shard serial crawl -> archive -> reload -> study -> portal -> audit."""
    from repro.crawler.archive import load_crawl, save_crawl
    from repro.crawler.parallel import ShardedCrawl
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_full_study
    from repro.report.site import build_site
    from repro.validate import audit_archive
    from repro.validate.artifacts import CrawlArtifacts
    from repro.web.config import WorldConfig
    from repro.web.generator import WebGenerator
    from repro.web.vantage import vantage_by_name

    sites = ctx.params["sites"]
    world_seed = WORLD_SEEDS[ctx.seed % len(WORLD_SEEDS)]

    def world_config() -> WorldConfig:
        # The CLI's own mapping from --sites/--seed to a world.
        if sites >= 50_000:
            config = WorldConfig(seed=world_seed)
        else:
            config = WorldConfig.small(sites, seed=world_seed)
        config.vantage = vantage_by_name("eu")
        return config

    def new_world():
        world, seconds = _timed(WebGenerator(world_config()).generate)
        setup.append(seconds)
        return world

    setup: list[float] = []
    op_s: list[float] = []
    rates: list[float] = []
    checks: list[Check] = []
    crawl_s: list[float] = []
    for _ in range(plan.setup_repeats - 1):
        new_world()  # set-up samples only; every operation builds its own
    while _keep_going(plan, len(op_s), sum(op_s)):
        tracer.set_run(f"study-{len(op_s)}")
        world = new_world()  # a fresh world: visit plans start cold
        out = ctx.work_dir / f"study-{len(op_s)}"
        op_start = time.perf_counter()
        crawl = ShardedCrawl(world, shard_count=SHARDS, backend="serial").run()
        crawled = time.perf_counter()
        archive = save_crawl(crawl, out / "archive")
        loaded = load_crawl(archive)
        study = run_full_study(
            ExperimentConfig(world=world_config()), world=world, crawl=loaded
        )
        with tracer.span("report.portal"):
            portal = build_site(CrawlArtifacts.load(archive), []).write(out / "portal")
        tracer.count("report.portal_bytes", tree_bytes(portal))
        with tracer.span("validate.audit"):
            audit = audit_archive(archive)
        finished = time.perf_counter()

        report = crawl.report
        crawl_s.append(crawled - op_start)
        op_s.append(finished - op_start)
        rates.append((report.targets + report.accepted) / (crawled - op_start))

        with tracer.paused():
            checks.append(
                digest_check(
                    ctx, "archive-sha256", "archive_sha256", world_seed, tree_digest(archive)
                )
            )
            checks.append(Check("reload-equal", _same_crawl(crawl, loaded)))
            comparisons = study.comparisons()
            sheet = json.dumps([[c.key, c.measured] for c in comparisons])
            checks.append(
                digest_check(
                    ctx,
                    "study-sheet-sha256",
                    "study_sheet_sha256",
                    world_seed,
                    hashlib.sha256(sheet.encode()).hexdigest(),
                )
            )
            if sites >= 50_000 and world_seed == PAPER_WORLD_SEED:
                failed = [c.key for c in comparisons if not c.ok]
                checks.append(
                    Check(
                        "paper-comparisons",
                        len(comparisons) == 26 and not failed,
                        f"{len(comparisons) - len(failed)}/{len(comparisons)} ok; "
                        f"failed: {failed}",
                    )
                )
            checks.append(Check("audit-ok", audit.ok))
        del world, crawl, loaded, study
        shutil.rmtree(out)

    return PassResult(
        wall_s=sum(setup) + sum(op_s),
        ops=len(op_s),
        setup_s=setup,
        op_s=op_s,
        rates=rates,
        rate_name="crawl_visits_per_s",
        rate_unit="visits/s",
        op_name="study_s",
        checks=checks,
        extra={"crawl_s": (median(crawl_s), "s")},
        params={"sites": sites, "world_seed": world_seed, "shards": SHARDS, "backend": "serial"},
        layer_ops=len(op_s),
    )


def _same_crawl(a, b) -> bool:
    """Whether a reloaded crawl equals the in-memory one, field by field."""
    def probes(survey):
        return [survey.probe(domain) for domain in sorted(survey.domains())]

    return (
        a.report == b.report
        and a.allowed_domains == b.allowed_domains
        and a.d_ba.records == b.d_ba.records
        and a.d_aa.records == b.d_aa.records
        and probes(a.survey) == probes(b.survey)
    )


# -- reid-population -------------------------------------------------------------


def _close_process_pools() -> None:
    """Shut the shared worker pools down and wait, so the next study starts cold.

    The multiprocessing resource tracker the spawned pool started is
    stopped and waited for too; the next pool starts a new one.
    """
    from multiprocessing import resource_tracker

    from repro.util import executor

    pools = list(executor._PROCESS_POOLS.values())
    executor._PROCESS_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)
    resource_tracker._resource_tracker._stop()


def ranks_digest(ranks: tuple[int, ...]) -> str:
    return hashlib.sha256(",".join(map(str, ranks)).encode()).hexdigest()


def run_reid_population(ctx: Context, tracer: Tracer | NullTracer, plan: PassPlan) -> PassResult:
    """Population (set-up) -> traces + linkage on 2 cold worker processes."""
    from repro.privacy.experiment import ReidentificationConfig, run_reidentification
    from repro.users.population import Population

    users = ctx.params["users"]
    reid_seed = REID_SEEDS[ctx.seed % len(REID_SEEDS)]
    config = ReidentificationConfig(population_size=users, seed=reid_seed)

    setup: list[float] = []
    op_s: list[float] = []
    checks: list[Check] = []
    accuracy = 0.0
    for _ in range(plan.setup_repeats):
        population, seconds = _timed(Population.generate, users, seed=reid_seed)
        setup.append(seconds)
    while _keep_going(plan, len(op_s), sum(op_s)):
        tracer.set_run(f"reid-{len(op_s)}")
        result, seconds = _timed(
            run_reidentification,
            config,
            population=population,
            backend="process",
            max_workers=REID_WORKERS,
        )
        _close_process_pools()
        op_s.append(seconds)
        accuracy = result.accuracy_top1
        checks.append(
            digest_check(
                ctx,
                "ranks-digest",
                "ranks_sha256",
                reid_seed,
                ranks_digest(result.linkage.true_match_ranks),
            )
        )

    return PassResult(
        wall_s=sum(setup) + sum(op_s),
        ops=len(op_s),
        setup_s=setup,
        op_s=op_s,
        rates=[users / seconds for seconds in op_s],
        rate_name="reid_users_per_s",
        rate_unit="users/s",
        op_name="reid_study_s",
        checks=checks,
        extra={"top1_accuracy": (accuracy, "ratio")},
        params={
            "users": users,
            "reid_seed": reid_seed,
            "epochs": config.observation_epochs,
            "noise": config.noise_probability,
            "backend": "process",
            "workers": REID_WORKERS,
        },
        layer_ops=len(op_s),
    )


# -- service-monitor --------------------------------------------------------------


class ServiceHost:
    """A ``CrawlService`` behind a ``ServiceServer`` on a thread of its own."""

    def __init__(self, data_dir: Path, socket_path: Path) -> None:
        self.data_dir = data_dir
        self.socket_path = socket_path
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._main, name="crawl-service")

    def start(self) -> float:
        """Start the service; returns seconds until it answered a ping."""
        from repro.service import ServiceClient

        started = time.perf_counter()
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._error is not None or not self._ready.is_set():
            raise RuntimeError(f"crawl service did not start: {self._error!r}")
        if not ServiceClient(self.socket_path).ping():
            raise RuntimeError("crawl service did not answer ping")
        return time.perf_counter() - started

    def stop(self) -> None:
        from repro.service import ServiceClient

        if self._thread.is_alive():
            ServiceClient(self.socket_path).shutdown()
            self._thread.join(timeout=120)
            if self._thread.is_alive():
                raise RuntimeError("crawl service did not stop")

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # reported by start()/the pass
            self._error = exc
            self._ready.set()

    async def _serve(self) -> None:
        from repro.service import CrawlService, ServiceServer

        service = CrawlService(self.data_dir, backend="serial")
        await service.start()
        server = ServiceServer(service, self.socket_path)
        await server.start()
        self._ready.set()
        await server.serve_until_shutdown()


def job_stream(ctx: Context, seconds: float) -> list[list[int]]:
    """Each client's job seeds for a pass of ``seconds``, drawn from ``--seed``.

    Seeds come from a small pool, so the first job of each seed builds
    a world and every later one hits the service's world cache.  Every
    pool seed is used, so the number of builds is the pool size.
    """
    rng = random.Random(ctx.seed)
    params = ctx.params
    pool = rng.sample(range(1, 100_000), params["job_seed_pool"])
    per_client = max(6, round(seconds * params["jobs_per_client_per_s"]))
    seeds = list(pool) + [rng.choice(pool) for _ in range(per_client * SERVICE_CLIENTS - len(pool))]
    rng.shuffle(seeds)
    return [seeds[index::SERVICE_CLIENTS] for index in range(SERVICE_CLIENTS)]


@dataclass
class JobTrace:
    spec: object  # the submitted JobSpec
    submit_s: float
    queue_wait_s: float
    first_event_s: float | None
    run_s: float
    latency_s: float
    visits: int
    archive: Path
    events: int
    contiguous: bool
    dropped: int
    done: bool


def _client_loop(socket_path: Path, specs: list, out: list[JobTrace], errors: list) -> None:
    from repro.service import ServiceClient

    client = ServiceClient(socket_path, timeout=120)
    try:
        for spec in specs:
            submitted = time.perf_counter()
            job_id = client.submit(spec)
            acked = time.perf_counter()
            started = first_progress = None
            seqs: list[int] = []
            dropped = 0
            terminal: dict = {}
            for item in client.watch(job_id):
                now = time.perf_counter()
                if "dropped" in item:
                    dropped = int(item["dropped"])
                    continue
                event = item["event"]
                seqs.append(int(event["seq"]))
                if event["kind"] == "job-started" and started is None:
                    started = now
                elif event["kind"] == "shard-progress" and first_progress is None:
                    first_progress = now
                terminal = event
            finished = time.perf_counter()
            summary = terminal.get("payload", {}).get("summary", {})
            started = started if started is not None else acked
            out.append(
                JobTrace(
                    spec=spec,
                    submit_s=acked - submitted,
                    queue_wait_s=started - submitted,
                    first_event_s=None if first_progress is None else first_progress - submitted,
                    run_s=finished - started,
                    latency_s=finished - submitted,
                    visits=int(summary.get("targets", 0)) + int(summary.get("accepted", 0)),
                    archive=Path(terminal.get("payload", {}).get("archive_dir", "")),
                    events=len(seqs),
                    contiguous=seqs == list(range(1, len(seqs) + 1)),
                    dropped=dropped,
                    done=terminal.get("kind") == "job-done",
                )
            )
    except Exception as exc:  # noqa: BLE001 — reported as a failed check
        errors.append(exc)


def _exposition_value(text: str, name: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            head, _, value = line.rpartition(" ")
            if head.split("{")[0] == name:
                total += float(value)
    return total


#: Batch archive digests by job spec, computed once per process.
_BATCH_DIGESTS: dict[object, str] = {}


def _batch_digest(spec, directory: Path) -> str:
    """The digest of the archive a batch ``ResumableCrawl`` of ``spec`` writes."""
    if spec not in _BATCH_DIGESTS:
        _BATCH_DIGESTS[spec] = _run_batch(spec, directory)
    return _BATCH_DIGESTS[spec]


def _run_batch(spec, directory: Path) -> str:
    from repro.crawler.archive import save_crawl
    from repro.crawler.resumable import ResumableCrawl
    from repro.web.generator import WebGenerator

    world = WebGenerator(spec.world_config()).generate()
    outcome = ResumableCrawl(
        world,
        directory / "checkpoints",
        shard_count=spec.shards,
        checkpoint_every=spec.checkpoint_every,
        corrupt_allowlist=spec.corrupt_allowlist,
        backend="serial",
    ).run()
    return tree_digest(save_crawl(outcome.result, directory / "archive"))


@contextlib.contextmanager
def _one_cpu() -> Iterator[None]:
    """Pin the calling thread, and every thread it starts, to one CPU.

    The service's threads take turns under the interpreter lock.  Spread
    over two CPUs, each hand-off waits for the other CPU to be scheduled,
    which multiplies a shared host's CPU steal into the result: in
    interleaved runs the unpinned stream fell from 1,010 to 650 visits/s
    while the pinned one held 1,030-1,195.
    """
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(previous)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def run_service_monitor(ctx: Context, tracer: Tracer | NullTracer, plan: PassPlan) -> PassResult:
    """A closed loop of 2 socket clients, each submitting and watching jobs."""
    with _one_cpu():
        return run_service_monitor_unpinned(ctx, tracer, plan)


def run_service_monitor_unpinned(
    ctx: Context, tracer: Tracer | NullTracer, plan: PassPlan
) -> PassResult:
    """The same pass on every CPU the process may use (reported, not gated)."""
    from repro.service import JobSpec, ServiceClient

    params = ctx.params
    streams = job_stream(ctx, plan.seconds)
    specs = [
        [JobSpec(sites=params["job_sites"], seed=seed, backend="serial") for seed in stream]
        for stream in streams
    ]
    # Unix socket paths are short: keep the socket relative to the cwd.
    base = Path(os.path.relpath(ctx.work_dir))

    host = ServiceHost(base / "svc", base / "svc.sock")
    host.start()
    traces: list[list[JobTrace]] = [[] for _ in specs]
    errors: list[BaseException] = []
    clients = [
        threading.Thread(target=_client_loop, args=(host.socket_path, client_specs, out, errors))
        for client_specs, out in zip(specs, traces)
    ]
    load_start = time.perf_counter()
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=170)
    load_wall = time.perf_counter() - load_start
    exposition = ServiceClient(host.socket_path).metrics()
    host.stop()

    jobs = [job for client in traces for job in client]
    # Set-up is measured as restarts over the job table the stream left
    # (a start on an empty table is a few syscalls, too short to time),
    # in bursts between the batch reference crawls, so that the samples
    # span several seconds of the host's speed rather than one instant.
    specs_by_seed = {job.spec.seed: job.spec for job in jobs}
    bursts = len(specs_by_seed) + 1
    setup: list[float] = []
    batch: dict[int, str] = {}

    def restart_burst(index: int) -> None:
        for _ in range(plan.setup_repeats * (index + 1) // bursts - len(setup)):
            restarted = ServiceHost(host.data_dir, host.socket_path)
            setup.append(restarted.start())
            restarted.stop()

    for index, (seed, spec) in enumerate(sorted(specs_by_seed.items())):
        restart_burst(index)
        with tracer.paused():
            batch[seed] = _batch_digest(spec, ctx.work_dir / f"batch-{seed}")
    restart_burst(bursts - 1)

    checks = [
        Check(
            "clients-finished",
            not errors and not any(t.is_alive() for t in clients),
            repr(errors),
        )
    ]
    for job in jobs:
        checks.append(Check("job-done", job.done))
        checks.append(
            Check(
                "job-archive-equals-batch",
                job.done and tree_digest(job.archive) == batch[job.spec.seed],
            )
        )
        checks.append(
            Check(
                "events-contiguous",
                job.contiguous and job.dropped == 0,
                f"{job.events} events, {job.dropped} dropped",
            )
        )
    dropped_total = _exposition_value(exposition, "service_events_dropped_total")
    checks.append(
        Check("no-dropped-events", dropped_total == 0, f"{dropped_total} dropped")
    )

    latencies = [job.latency_s for job in jobs] or [0.0]
    percentile, tail = tail_percentile(latencies)
    visits = sum(job.visits for job in jobs if job.done)
    first = [job.first_event_s for job in jobs if job.first_event_s is not None]
    return PassResult(
        wall_s=sum(setup) + load_wall,
        ops=len(jobs),
        setup_s=setup,
        op_s=latencies,
        rates=[visits / load_wall],
        rate_name="service_visits_per_s",
        rate_unit="visits/s",
        op_name="job_latency_p50_s",
        checks=checks,
        extra={
            "job_latency_tail_s": (tail, "s"),
            "job_latency_tail_percentile": (percentile, "p"),
            "job_latency_samples": (len(jobs), "count"),
        },
        params={
            "job_sites": params["job_sites"],
            "jobs": len(jobs),
            "clients": SERVICE_CLIENTS,
            "seed_pool": sorted(batch),
            "backend": "serial",
            "shards": JobSpec().shards,
            "checkpoint_every": JobSpec().checkpoint_every,
            "progress_every": JobSpec().progress_every,
        },
        service_layers={
            "service.submit_s": median([job.submit_s for job in jobs]),
            "service.queue_wait_s": median([job.queue_wait_s for job in jobs]),
            "service.first_event_s": median(first),
            "service.run_s": median([job.run_s for job in jobs]),
            "service.world_builds": _exposition_value(exposition, "service_world_builds_total"),
            "service.world_cache_hits": _exposition_value(
                exposition, "service_world_cache_hits_total"
            ),
            "service.events": sum(job.events for job in jobs),
            "service.events_dropped": dropped_total,
        },
    )


# -- the layer table -------------------------------------------------------------

#: Per-layer time metrics: self time of the named span per operation.
LAYER_SPANS = {
    "browser.plan_s": "browser.plan",
    "browser.visit_s": "browser.visit",
    "crawler.survey_s": "crawler.survey",
    "crawler.merge_s": "crawler.merge",
    "crawler.archive_write_s": "crawler.archive_write",
    "crawler.archive_read_s": "crawler.archive_read",
    "crawler.checkpoint_write_s": "crawler.checkpoint_write",
    "analysis.run_s": "analysis.run",
    "report.portal_s": "report.portal",
    "validate.audit_s": "validate.audit",
    "users.traces_s": "users.traces",
    "privacy.linkage_s": "privacy.linkage",
    "util.executor.map_s": "util.executor.map",
}
#: Set-up layers: self time per call (one world or population built).
SETUP_SPANS = {
    "web.generate_s": "web.generate",
    "users.population_s": "users.population",
}
#: Per-layer counts, per operation.
LAYER_COUNTS = (
    "browser.plans_compiled",
    "browser.visits",
    "crawler.survey_probes",
    "crawler.archive_bytes",
    "crawler.checkpoints_written",
    "crawler.checkpoint_bytes",
    "report.portal_bytes",
    "util.executor.tasks",
)
#: Service figures measured by the clients: medians per job, or counts.
SERVICE_LAYERS = (
    "service.submit_s",
    "service.queue_wait_s",
    "service.first_event_s",
    "service.run_s",
    "service.world_builds",
    "service.world_cache_hits",
    "service.events",
    "service.events_dropped",
)


def layer_metrics(tracer: Tracer, result: PassResult) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced pass; a layer that did not run reads 0."""
    rows = tracer.layer_rows()
    ops = max(result.layer_ops, 1)
    out: dict[str, tuple[float, str]] = {}
    for metric, span in SETUP_SPANS.items():
        row = rows.get(span)
        out[metric] = (row.self_s / row.calls if row else 0.0, "s")
    for metric, span in LAYER_SPANS.items():
        row = rows.get(span)
        out[metric] = (row.self_s / ops if row else 0.0, "s")
    # Shard skew: inclusive wall time of the slowest and fastest shard.
    shards = tracer.durations_of("crawler.shard") or [0.0]
    out["crawler.shard_s.max"] = (max(shards), "s")
    out["crawler.shard_s.min"] = (min(shards), "s")
    for counter in LAYER_COUNTS:
        out[counter] = (tracer.counts.get(counter, 0) / ops, "count")
    for metric in SERVICE_LAYERS:
        unit = "s" if metric.endswith("_s") else "count"
        out[metric] = (result.service_layers.get(metric, 0.0), unit)
    return out


WORKLOADS: dict[str, Callable[[Context, "Tracer | NullTracer", PassPlan], PassResult]] = {
    "paper-study": run_paper_study,
    "reid-population": run_reid_population,
    "service-monitor": run_service_monitor,
}
