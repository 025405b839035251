"""The browser's object cache.

The paper deletes the browser cache between the Before-Accept and
After-Accept visits so all objects load again.  Each visit adds the
objects its compiled plan (:mod:`repro.browser.plan`) loads, and the
crawler clears the cache between the two phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.urls import Url


@dataclass
class BrowserCache:
    """A URL-keyed cache; the crawler clears it between visit phases."""

    _entries: set[str] = field(default_factory=set)

    def __contains__(self, url: Url) -> bool:
        return str(url) in self._entries

    def add(self, url: Url) -> None:
        self._entries.add(str(url))

    def clear(self) -> None:
        """Drop everything — "we delete the browser cache to load again
        all objects" (paper §2.2)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

