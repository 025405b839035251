"""Host-clock spans around the program's public calls, kept in memory.

The benchmark measures end-to-end numbers with tracing off.  A traced
pass installs wrappers from this file around the public function at
each layer boundary (the program itself is not edited), records one
span per call on ``time.perf_counter_ns`` and folds the spans into a
per-layer table when the pass ends:

* a span holds its name, start, end, parent span and run id; the parent
  is the innermost open span on the same thread, and the run id names
  the operation (a study, a crawl job) the span belongs to;
* a layer's self time is a span's duration minus the part of that
  interval its child spans cover, summed over the layer's spans;
* counters (plans compiled, visits, bytes written, ...) are recorded at
  the same boundaries.

The spans are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: call-site spans cost one attribute lookup."""

    enabled = False

    def span(self, name: str):  # noqa: ARG002 — same shape as Tracer.span
        return _NULL_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def set_run(self, run_id: str) -> None:
        pass

    def paused(self):
        return _NULL_SPAN


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int
    run_id: str


@dataclass(frozen=True)
class LayerRow:
    name: str
    calls: int
    self_s: float
    total_s: float


class Tracer:
    """Records spans and counters from any thread into memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._seen: set[tuple] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._run_id = "run"
        self._paused = False

    # -- recording -------------------------------------------------------

    def set_run(self, run_id: str) -> None:
        """Run id for spans opened on threads that have not set their own.

        First-seen keys (``count_first``) are per run: a new run starts
        with fresh planners.
        """
        self._run_id = run_id
        with self._lock:
            self._seen.clear()

    def set_thread_run(self, run_id: str | None) -> None:
        self._local.run_id = run_id

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside (output checks that call the program)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self._paused:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        run_id = getattr(self._local, "run_id", None) or self._run_id
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, run_id))

    def count(self, name: str, amount: int = 1) -> None:
        if self._paused:
            return
        with self._lock:
            self.counts[name] += amount

    def count_first(self, name: str, key: tuple) -> None:
        """Count ``key`` under ``name`` the first time it is seen."""
        if self._paused:
            return
        with self._lock:
            if (name, key) not in self._seen:
                self._seen.add((name, key))
                self.counts[name] += 1

    # -- folding ---------------------------------------------------------

    def layer_rows(self) -> dict[str, LayerRow]:
        """Self time, inclusive time and call count per span name."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent_id is not None:
                children[span.parent_id].append(span)
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        for span in self.spans:
            duration = span.end_ns - span.start_ns
            covered = _covered_ns(span, children.get(span.span_id, ()))
            calls[span.name] += 1
            self_ns[span.name] += duration - covered
            total_ns[span.name] += duration
        return {
            name: LayerRow(name, calls[name], self_ns[name] / 1e9, total_ns[name] / 1e9)
            for name in calls
        }

    def write_jsonl(self, path: Path) -> None:
        """Write every span, one JSON object per line, in end order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")

    def durations_of(self, name: str) -> list[float]:
        """Inclusive duration of every span called ``name``, in seconds."""
        return [(s.end_ns - s.start_ns) / 1e9 for s in self.spans if s.name == name]


def _covered_ns(parent: Span, kids: "list[Span] | tuple") -> int:
    """Length of the union of the children's intervals inside the parent."""
    covered = 0
    cursor = parent.start_ns
    for kid in sorted(kids, key=lambda span: span.start_ns):
        start = max(kid.start_ns, cursor)
        end = min(kid.end_ns, parent.end_ns)
        if end > start:
            covered += end - start
            cursor = end
    return covered


# -- wrappers ----------------------------------------------------------------

#: Extra counters recorded from a wrapped call: ``(tracer, args, result)``.
Counter = Callable[["Tracer", tuple, object], None]


def _traced(tracer: Tracer, name: str, fn: Callable, counter: Counter | None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(tracer, args, result)
        return result

    return wrapper


def tree_bytes(path: "str | Path") -> int:
    """Total size of the regular files under ``path`` (or of one file)."""
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _count_plans(tracer: Tracer, args: tuple, result: object) -> None:  # noqa: ARG001
    # A planner compiles a domain's plan pair on the first request for it.
    planner, domain = args[0], args[1]
    tracer.count_first("browser.plans_compiled", (id(planner), domain))


def _counting(name: str, measure: Callable[[tuple, object], int]) -> Counter:
    def counter(tracer: Tracer, args: tuple, result: object) -> None:
        tracer.count(name, measure(args, result))

    return counter


def _with_thread_run(tracer: Tracer, fn: Callable) -> Callable:
    """Spans under a service job carry the job's id as their run id."""

    @functools.wraps(fn)
    def wrapper(spec, paths, *args, **kwargs):
        tracer.set_thread_run(Path(paths.root).name)
        try:
            with tracer.span("service.job"):
                return fn(spec, paths, *args, **kwargs)
        finally:
            tracer.set_thread_run(None)

    return wrapper


#: (module, class or None, attribute, span name, counter) per boundary.
#: Module-level functions are replaced in every ``repro`` module that
#: imported them by name, so calls inside the program are seen too.
BOUNDARIES: tuple[tuple[str, str | None, str, str, Counter | None], ...] = (
    ("repro.web.generator", "WebGenerator", "generate", "web.generate", None),
    ("repro.browser.plan", "VisitPlanner", "plan_for", "browser.plan", _count_plans),
    (
        "repro.browser.browser",
        "Browser",
        "visit",
        "browser.visit",
        _counting("browser.visits", lambda args, result: 1),
    ),
    ("repro.crawler.executor", None, "execute_shard", "crawler.shard", None),
    ("repro.crawler.executor", None, "execute_resumable_shard", "crawler.shard", None),
    (
        "repro.crawler.wellknown",
        None,
        "survey_attestations",
        "crawler.survey",
        _counting("crawler.survey_probes", lambda args, result: len(result)),
    ),
    ("repro.crawler.dataset", "Dataset", "extend_rebased", "crawler.merge", None),
    (
        "repro.crawler.archive",
        None,
        "save_crawl",
        "crawler.archive_write",
        _counting("crawler.archive_bytes", lambda args, result: tree_bytes(result)),
    ),
    ("repro.crawler.archive", None, "load_crawl", "crawler.archive_read", None),
    (
        "repro.crawler.checkpoint",
        "CheckpointStore",
        "write",
        "crawler.checkpoint_write",
        lambda tracer, args, result: (
            tracer.count("crawler.checkpoints_written"),
            tracer.count("crawler.checkpoint_bytes", tree_bytes(result)),
        ),
    ),
    ("repro.experiments.runner", None, "run_full_study", "analysis.run", None),
    ("repro.users.population", "Population", "generate", "users.population", None),
    ("repro.users.browsing", "TraceGenerator", "run_many", "users.traces", None),
    ("repro.privacy.attack", None, "link_profiles", "privacy.linkage", None),
)

#: Backends whose ``map`` is wrapped as ``util.executor.map``.
_BACKENDS = ("SerialBackend", "ThreadBackend", "ProcessBackend")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every boundary for ``tracer``; returns the function that undoes it."""
    undo: list[Callable[[], None]] = []

    def replace(owner: object, attribute: str, value: object) -> None:
        if isinstance(owner, type):
            previous = owner.__dict__[attribute]  # keeps a classmethod a classmethod
        else:
            previous = getattr(owner, attribute)
        setattr(owner, attribute, value)
        undo.append(lambda: setattr(owner, attribute, previous))

    for module_name, class_name, attribute, name, counter in BOUNDARIES:
        module = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(module, class_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_traced(tracer, name, raw.__func__, counter))
            else:
                wrapped = _traced(tracer, name, raw, counter)
            replace(owner, attribute, wrapped)
            continue
        original = getattr(module, attribute)
        wrapped = _traced(tracer, name, original, counter)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and (
                getattr(other, attribute, None) is original
            ):
                replace(other, attribute, wrapped)

    executor = importlib.import_module("repro.util.executor")
    tasks = _counting("util.executor.tasks", lambda args, result: len(args[2]))
    for class_name in _BACKENDS:
        owner = getattr(executor, class_name)
        replace(
            owner,
            "map",
            _traced(tracer, "util.executor.map", owner.__dict__["map"], tasks),
        )

    service = importlib.import_module("repro.service.service")
    replace(service, "run_job", _with_thread_run(tracer, service.run_job))

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall
