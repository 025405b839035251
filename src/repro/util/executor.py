"""Shared execution backends: serial, thread, process.

Originally private to the crawl plane (``repro.crawler.executor``), the
backend strategies turned out to be workload-agnostic: they map a worker
function over a sequence of picklable tasks and return the results in
task order.  The population data plane (``repro.users.columnar`` trace
generation, ``repro.privacy.attack`` ranking) shards its work over the
same three strategies, so the strategy layer lives here and the crawl
executor re-exports it unchanged:

* ``serial``  — run tasks one after another in the calling thread (the
  reference executor: zero scheduling noise, easiest to debug);
* ``thread``  — one worker thread per task (cheap to start, shares
  memory, GIL-bound);
* ``process`` — worker **processes** via ``ProcessPoolExecutor`` on the
  spawn context: true multi-core parallelism for CPU-bound loops.
  Tasks and results must be picklable, and the worker function must be
  importable (module-level) in a fresh interpreter.

The backend is chosen per run: explicitly (``backend=`` / ``--backend``),
or via the ``REPRO_CRAWL_BACKEND`` environment variable, defaulting to
``thread``.  Every workload built on these strategies is required to be
deterministic and order-independent per task, so all three backends
produce byte-identical outputs — the tests pin this for crawls and for
population traces alike.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment variable consulted when no backend is named explicitly.
BACKEND_ENV_VAR = "REPRO_CRAWL_BACKEND"

#: Valid backend names, in documentation order.
BACKEND_NAMES = ("serial", "thread", "process")

#: The default when neither the caller nor the environment chooses.
DEFAULT_BACKEND = "thread"


class ExecutionBackend:
    """Strategy interface: run a function over task inputs, in order."""

    name: str = "abstract"

    def map(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> list[_R]:  # pragma: no cover - interface
        raise NotImplementedError

    def stream(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> Iterator[tuple[int, _R]]:
        """Yield ``(index, result)`` pairs as tasks complete.

        Same contract as :meth:`map` — every item runs exactly once and
        every result is yielded exactly once — but delivery order is
        completion order, so a consumer can act on each finished task
        (stream it, persist it) while slower siblings are still running.
        The first task exception propagates to the consumer after the
        in-flight siblings have been allowed to finish (they hold
        resources — checkpoints, world caches — that must settle).
        Callers needing positional results collect into ``[None] * n``.
        """
        raise NotImplementedError  # pragma: no cover - interface


def _stream_pool(pool, fn, items) -> Iterator[tuple[int, _R]]:
    """Shared completion-order streaming over a concurrent.futures pool.

    On a task failure the remaining futures are drained (awaited, their
    own errors discarded) before the first failure is re-raised, so the
    pool is quiescent by the time the caller sees the exception.
    """
    futures = {pool.submit(fn, item): index for index, item in enumerate(items)}
    pending = set(futures)
    failure: BaseException | None = None
    while pending:
        done, pending = wait(pending, return_when=FIRST_COMPLETED)
        for future in sorted(done, key=futures.__getitem__):
            try:
                result = future.result()
            except BaseException as exc:  # noqa: BLE001 — drained, then re-raised
                if failure is None:
                    failure = exc
                continue
            if failure is None:
                yield futures[future], result
    if failure is not None:
        raise failure


class SerialBackend(ExecutionBackend):
    """Run tasks one after another in the calling thread."""

    name = "serial"

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
        return [fn(item) for item in items]

    def stream(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> Iterator[tuple[int, _R]]:
        for index, item in enumerate(items):
            yield index, fn(item)


class ThreadBackend(ExecutionBackend):
    """One worker thread per task (concurrency, not parallelism)."""

    name = "thread"

    def __init__(self, max_workers: int) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
        if not items:
            return []
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(fn, items))

    def stream(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> Iterator[tuple[int, _R]]:
        if not items:
            return
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            yield from _stream_pool(pool, fn, items)


#: Live process pools, keyed by worker count.  Reused across runs so
#: worker-side caches (worlds, populations) survive between runs in one
#: session.
_PROCESS_POOLS: dict[int, ProcessPoolExecutor] = {}


def _process_pool(max_workers: int) -> ProcessPoolExecutor:
    pool = _PROCESS_POOLS.get(max_workers)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context("spawn"),
        )
        _PROCESS_POOLS[max_workers] = pool
    return pool


@atexit.register
def _shutdown_process_pools() -> None:
    for pool in _PROCESS_POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _PROCESS_POOLS.clear()


class ProcessBackend(ExecutionBackend):
    """One worker process per task: true multi-core parallelism.

    Requires picklable tasks and a module-level worker function; worker
    processes are spawned (not forked), so they import the package fresh
    and share no state with the parent beyond what the task carries.
    """

    name = "process"

    def __init__(self, max_workers: int) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
        if not items:
            return []
        pool = _process_pool(self.max_workers)
        try:
            return list(pool.map(fn, items))
        except BrokenProcessPool:
            # A worker died hard (OOM, signal); the pool is unusable.
            # Evict it so the next run starts a healthy one.
            _PROCESS_POOLS.pop(self.max_workers, None)
            pool.shutdown(wait=False, cancel_futures=True)
            raise

    def stream(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> Iterator[tuple[int, _R]]:
        if not items:
            return
        pool = _process_pool(self.max_workers)
        try:
            yield from _stream_pool(pool, fn, items)
        except BrokenProcessPool:
            _PROCESS_POOLS.pop(self.max_workers, None)
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def resolve_backend_name(name: str | None = None) -> str:
    """The effective backend name: explicit > environment > default."""
    resolved = name or os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    resolved = resolved.strip().lower()
    if resolved not in BACKEND_NAMES:
        raise ValueError(
            f"unknown crawl backend {resolved!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}"
        )
    return resolved


def create_backend(
    backend: "str | ExecutionBackend | None", max_workers: int
) -> ExecutionBackend:
    """Materialise a backend from a name, an instance, or the environment."""
    if isinstance(backend, ExecutionBackend):
        return backend
    name = resolve_backend_name(backend)
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessBackend(max_workers)
    return ThreadBackend(max_workers)


def is_picklable(value: object) -> bool:
    """Whether ``value`` survives the process-pool boundary."""
    try:
        pickle.dumps(value)
    except Exception:  # noqa: BLE001 — pickle raises a zoo of types
        return False
    return True


def contiguous_bounds(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``parts`` ``(start, stop)`` slices.

    The first ``total % parts`` slices hold one extra item; empty slices are dropped.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, remainder = divmod(total, parts)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(parts):
        stop = start + base + (1 if index < remainder else 0)
        if stop > start:
            bounds.append((start, stop))
        start = stop
    return bounds


def split_work(
    total: int,
    backend: "str | ExecutionBackend | None",
    max_workers: int | None = None,
    shard_count: int | None = None,
) -> tuple[ExecutionBackend, list[tuple[int, int]]]:
    """A backend and the contiguous shard bounds of ``total`` items for it.

    One worker per CPU by default, one shard per worker unless
    ``shard_count`` says otherwise, and never more shards than items.
    """
    resolved = create_backend(backend, max_workers or (os.cpu_count() or 1))
    workers = getattr(resolved, "max_workers", 1)  # serial has no pool
    count = shard_count if shard_count is not None else workers
    return resolved, contiguous_bounds(total, max(1, min(count, total or 1)))

