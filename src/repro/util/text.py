"""Small text helpers: tokenisation, slugs and deterministic name synthesis.

Used by the site classifier (hostname token features), the web generator
(synthesising plausible domain names at scale) and the consent-banner
matcher (case/punctuation-insensitive keyword search).
"""

from __future__ import annotations

import hashlib
import re

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Syllable pools for synthetic domain names.  Chosen to be pronounceable and
# collision-light; the generator additionally de-duplicates.
_NAME_HEADS = (
    "news", "shop", "tech", "media", "blog", "game", "sport", "travel",
    "food", "auto", "health", "music", "film", "book", "home", "job",
    "bank", "cloud", "data", "meta", "pixel", "stream", "market", "daily",
    "super", "hyper", "prime", "star", "blue", "red", "green", "alpha",
    "vista", "nova", "zen", "flux", "echo", "orbit", "pulse", "spark",
)
_NAME_TAILS = (
    "hub", "zone", "spot", "base", "land", "world", "press", "times",
    "port", "point", "wave", "line", "link", "net", "site", "page",
    "box", "lab", "works", "store", "mart", "deal", "view", "cast",
    "gram", "ly", "ify", "io", "eo", "ora", "ista", "ify", "aro", "ex",
)


def tokens(text: str) -> list[str]:
    """Lowercase alphanumeric tokens of a string.

    >>> tokens("Accept All Cookies!")
    ['accept', 'all', 'cookies']
    """
    return _TOKEN_RE.findall(text.lower())


def contains_keyword(text: str, keywords: list[str] | tuple[str, ...]) -> str | None:
    """Return the first keyword found in ``text`` (token-boundary aware),
    or None.  Multi-word keywords match as contiguous token sequences.

    >>> contains_keyword("Click to ACCEPT ALL and continue", ["accept all"])
    'accept all'
    >>> contains_keyword("unacceptable", ["accept"]) is None
    True
    """
    haystack = tokens(text)
    joined = " " + " ".join(haystack) + " "
    for keyword in keywords:
        needle = " " + " ".join(tokens(keyword)) + " "
        if needle in joined:
            return keyword
    return None


def stable_digest(*parts: str) -> int:
    """A process-stable 64-bit digest of the given strings.

    Unlike ``hash()``, this never varies across runs, so classifier
    decisions keyed on hostnames are reproducible.
    """
    # One join, one encode and one C-level hash call over each part
    # NUL-terminated — this sits under every per-(caller, site) decision
    # on the crawl hot path.  Zero parts hash the empty payload.
    payload = ("\x00".join(parts) + "\x00").encode() if parts else b""
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def synthesize_name(index: int, salt: str = "") -> str:
    """Deterministically synthesise a pronounceable domain label.

    Collisions are possible (the syllable space is finite); callers that
    need uniqueness de-duplicate with a seen-set and bump the index.

    >>> synthesize_name(0) == synthesize_name(0)
    True
    """
    digest = stable_digest(str(index), salt)
    head = _NAME_HEADS[digest % len(_NAME_HEADS)]
    tail = _NAME_TAILS[(digest // len(_NAME_HEADS)) % len(_NAME_TAILS)]
    residue = (digest // (len(_NAME_HEADS) * len(_NAME_TAILS))) % 10
    suffix = "" if residue < 4 else str(residue)
    return f"{head}{tail}{suffix}"
