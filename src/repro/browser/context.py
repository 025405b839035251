"""Browsing contexts: the tree of documents a page load creates.

Two rules of the real platform matter for the reproduction, and both live
here:

* a **script tag** in a document runs in that document's context — its
  effective origin is the *embedder's*, not the script URL's host
  (paper Figure 4, the GTM anomaly);
* an **iframe** creates a child context whose origin comes from the
  frame's ``src`` URL.

:class:`ScriptOriginMode` can swap the first rule for its counterfactual.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.browser.origin import Origin
from repro.util.urls import Url


class ScriptOriginMode(enum.Enum):
    """Which origin a plain ``<script>`` tag's code calls with.

    ``EMBEDDER`` is the real platform behaviour (and the default): a
    script tag in the page HTML runs in the embedding context, so its
    ``document.browsingTopics()`` call is charged to the page (or iframe)
    origin — the paper's §4 mechanism.  ``SCRIPT_URL`` is a
    counterfactual for the ablation study: if the platform attributed
    script calls to the host the script bytes came from, §4's thousands
    of per-site anomalous callers would collapse to the one or two
    library hosts actually responsible.
    """

    EMBEDDER = "embedder"
    SCRIPT_URL = "script-url"


@dataclass
class BrowsingContext:
    """One document in the frame tree."""

    origin: Origin
    parent: "BrowsingContext | None" = None
    children: list["BrowsingContext"] = field(default_factory=list)

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def top(self) -> "BrowsingContext":
        """The top-level (root) context of this frame tree."""
        context = self
        while context.parent is not None:
            context = context.parent
        return context

    @property
    def top_frame_site(self) -> str:
        """Registrable domain of the top-level document — what the Topics
        API records the observation against."""
        return self.top.origin.site

    def open_iframe(self, src: Url) -> "BrowsingContext":
        """Create a child context for an ``<iframe src=...>``.

        The child's origin derives from the frame's own URL — this is why
        a caller that wants calls attributed to *itself* must use an
        iframe (or fetch), not a plain script tag.
        """
        child = BrowsingContext(origin=Origin.of(src), parent=self)
        self.children.append(child)
        return child

    def script_execution_origin(self) -> Origin:
        """The origin a ``<script src=...>`` executes with: this document's.

        Deliberately ignores where the script bytes came from — the HTML
        spec behaviour that makes GTM's ``browsingTopics()`` call appear
        to come from the visited website (paper §4).
        """
        return self.origin

    def depth(self) -> int:
        """Nesting depth: 0 for the root document."""
        count = 0
        context = self
        while context.parent is not None:
            count += 1
            context = context.parent
        return count


def root_context_for(url: Url) -> BrowsingContext:
    """The top-level context a navigation to ``url`` creates."""
    return BrowsingContext(origin=Origin.of(url))
