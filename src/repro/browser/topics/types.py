"""Core Topics API value types.

Kept dependency-free so both the web substrate (adoption policies) and the
browser (API machinery) can share them without layering cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ApiCallType(enum.Enum):
    """How a caller invoked the Topics API (paper §2.2, integration guide).

    * ``JAVASCRIPT`` — ``document.browsingTopics()`` from a script;
    * ``FETCH`` — ``fetch(url, {browsingTopics: true})`` adding the
      ``Sec-Browsing-Topics`` request header;
    * ``IFRAME`` — an ``<iframe browsingtopics>`` element whose navigation
      request carries the header.
    """

    JAVASCRIPT = "javascript"
    FETCH = "fetch"
    IFRAME = "iframe"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Topic:
    """One topic as returned to a caller.

    ``taxonomy_version``/``model_version`` mirror the fields of the real
    API's return value; ``is_noise`` is internal ground truth (never
    exposed to page script in the real API, handy for tests) marking the
    5%-probability random replacement.
    """

    topic_id: int
    taxonomy_version: str
    model_version: str
    is_noise: bool = False


@dataclass(frozen=True, slots=True)
class EpochTopics:
    """The browser's per-epoch digest: the top five topics of the epoch.

    ``top_topics`` is ordered most- to least-visited; ``padded`` flags
    epochs with too little history whose tail was filled with random
    topics (as Chrome does).
    """

    epoch: int
    top_topics: tuple[int, ...]
    padded: bool
