"""Live crawl progress: one stderr line fed by the campaign's counts.

A :class:`ProgressTracker` is a crawl ``progress`` hook: every call
carries one shard's absolute ``(completed, visits)`` counts (see
:data:`repro.crawler.campaign.ProgressFn`), and at a bounded real-time
cadence it rewrites one stderr status line — visits/s (real
wall-clock), ETA, and per-shard completion.  In-process shards call it
from their worker threads, so every state change happens under a lock.

The tracker measures *real* elapsed time (it exists for a human watching
a terminal), but reads nothing else from the environment: the time
source and output stream are injectable for tests.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, TextIO


class ProgressTracker:
    """Periodic one-line progress report over per-shard counts.

    ``targets`` is the number of ranked domains the campaign will
    process (a target is complete once its Before-Accept visit is done;
    After-Accept visits ride along in the visits/s rate).
    ``shard_sizes`` maps shard index → its target count for the
    per-shard completion column.
    """

    def __init__(
        self,
        targets: int,
        shard_sizes: dict[int, int] | None = None,
        stream: TextIO | None = None,
        min_interval: float = 0.5,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        self._targets = max(int(targets), 0)
        self._shard_sizes = dict(shard_sizes or {})
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval = min_interval
        self._time_fn = time_fn
        self._started = time_fn()
        self._last_render = float("-inf")
        self._last_width = 0
        self._shard_done: dict[int, int] = {}
        self._shard_visits: dict[int, int] = {}
        # Targets and visits restored from checkpoints, not this run's work.
        self._restored_done = self._restored_visits = 0
        self._lines_written = 0
        self._lock = threading.Lock()

    def __call__(self, shard: int, completed: int, visits: int) -> None:
        """Progress hook: record one shard's absolute counts."""
        with self._lock:
            self._shard_done[shard] = completed
            self._shard_visits[shard] = visits
            now = self._time_fn()
            if now - self._last_render >= self._min_interval:
                self._last_render = now
                self._write(self.render_line())

    def resumed(self, shard: int, completed: int, visits: int) -> None:
        """Counts a shard's checkpoint restored: done, but not in this run."""
        with self._lock:
            self._restored_done += completed
            self._restored_visits += visits
            self._shard_done.setdefault(shard, completed)
            self._shard_visits.setdefault(shard, visits)

    # -- rendering ------------------------------------------------------------

    def render_line(self) -> str:
        """The current status line (no trailing newline)."""
        completed = sum(self._shard_done.values())
        elapsed = max(self._time_fn() - self._started, 1e-9)
        rate = (sum(self._shard_visits.values()) - self._restored_visits) / elapsed
        made_targets = completed - self._restored_done
        if self._targets:
            fraction = min(completed / self._targets, 1.0)
            percent = f"{fraction:.1%}"
        else:
            fraction, percent = 0.0, "?"
        if fraction >= 1:
            eta = "0s"
        elif made_targets > 0 and self._targets:
            eta = f"{elapsed * (self._targets - completed) / made_targets:,.0f}s"
        else:
            eta = "?"
        parts = [
            f"crawl: {completed:,}/{self._targets:,} sites ({percent})",
            f"{rate:,.1f} visits/s",
            f"ETA {eta}",
        ]
        if self._shard_sizes:
            shard_bits = []
            for shard in sorted(self._shard_sizes):
                size = self._shard_sizes[shard]
                done = self._shard_done.get(shard, 0)
                share = done / size if size else 0.0
                shard_bits.append(f"{shard}:{share:.0%}")
            parts.append("shards " + " ".join(shard_bits))
        return " | ".join(parts)

    def finish(self) -> None:
        """Write the final line and terminate it with a newline."""
        with self._lock:
            self._write(self.render_line())
            self._stream.write("\n")
            self._stream.flush()

    @property
    def lines_written(self) -> int:
        return self._lines_written

    def _write(self, line: str) -> None:
        # Overwrite the previous line in place; pad so a shorter line
        # fully covers a longer one.
        padded = line.ljust(self._last_width)
        self._last_width = len(line)
        self._stream.write("\r" + padded)
        self._stream.flush()
        self._lines_written += 1
