"""Public-suffix handling and registrable-domain (eTLD+1) extraction.

The paper's §4 attribution ("the website and CP second-level domains are the
same, e.g. ``www.foo.com`` and ``ad.foo.net``") and the Topics API itself
both reason about *registrable domains*: the public suffix plus one label.
Real browsers ship Mozilla's Public Suffix List; we embed the subset of
rules the synthetic web uses, with the same longest-match semantics
(including multi-label suffixes such as ``co.uk``) so the logic is faithful.
"""

from __future__ import annotations

from typing import Iterable

# Multi-label public suffixes present in the synthetic web.  Single-label
# TLDs (com, net, org, country codes, ...) need no listing: the fallback rule
# "*" of the real PSL treats any unknown final label as a public suffix.
_DEFAULT_MULTI_LABEL_SUFFIXES: tuple[str, ...] = (
    "co.uk",
    "org.uk",
    "ac.uk",
    "gov.uk",
    "co.jp",
    "ne.jp",
    "or.jp",
    "ac.jp",
    "com.br",
    "net.br",
    "org.br",
    "com.au",
    "net.au",
    "com.cn",
    "com.ru",
    "co.in",
    "co.kr",
    "com.tr",
    "com.mx",
    "com.ar",
    "co.za",
    "com.pl",
    "com.ua",
)


#: Memoization bound per PSL instance.  A 50k-site world produces well
#: under this many distinct hostnames; the segmented eviction policy
#: keeps adversarial/synthetic corpora from growing the dict unbounded.
_CACHE_LIMIT = 65_536


class PublicSuffixList:
    """Longest-match public-suffix lookups over an embedded rule set.

    Lookups are memoized per instance: the crawl hot path resolves the
    same caller/third-party hostnames millions of times per campaign
    (every Topics call gates on an eTLD+1, every dataset row normalises
    its parties), so suffix and registrable-domain results are cached
    keyed on the raw hostname string.  Malformed hostnames are *not*
    cached — they raise ``ValueError`` exactly as the uncached path does.

    Eviction is segmented-LRU: two generations of at most half the limit
    each.  When the live generation fills up it becomes the stale
    generation (whose previous contents are dropped) and a fresh live
    generation starts; a stale hit promotes the entry back into the live
    generation.  Any hostname touched at least once per generation —
    i.e. every genuinely hot entry — therefore survives crossing the
    limit, while one-shot hostnames age out.  Amortised O(1), unlike a
    wholesale ``clear()`` which cold-started *every* caller at once.
    """

    def __init__(
        self,
        multi_label_suffixes: Iterable[str] | None = None,
        cache_limit: int | None = None,
    ) -> None:
        rules = (
            _DEFAULT_MULTI_LABEL_SUFFIXES
            if multi_label_suffixes is None
            else tuple(multi_label_suffixes)
        )
        self._multi_label: frozenset[str] = frozenset(s.lower() for s in rules)
        for suffix in self._multi_label:
            if "." not in suffix:
                raise ValueError(f"multi-label suffix expected, got {suffix!r}")
        limit = _CACHE_LIMIT if cache_limit is None else cache_limit
        if limit < 2:
            raise ValueError("cache_limit must be at least 2")
        #: per-generation bound; live + stale together never exceed the limit
        self._generation_limit = limit // 2
        #: hostname -> (public suffix, registrable domain): live generation
        self._cache: dict[str, tuple[str, str]] = {}
        #: previous generation, consulted (and promoted from) on live misses
        self._stale: dict[str, tuple[str, str]] = {}

    def _lookup(self, hostname: str) -> tuple[str, str]:
        cached = self._cache.get(hostname)
        if cached is not None:
            return cached
        entry = self._stale.get(hostname)
        if entry is None:
            labels = _labels(hostname)
            suffix = labels[-1]
            if len(labels) >= 2:
                two = ".".join(labels[-2:])
                if two in self._multi_label:
                    suffix = two
            suffix_len = suffix.count(".") + 1
            if len(labels) <= suffix_len:
                # A bare public suffix is returned unchanged — the same
                # graceful fallback Chromium applies.
                registrable = hostname.lower().rstrip(".")
            else:
                registrable = ".".join(labels[-(suffix_len + 1):])
            entry = (suffix, registrable)
        if len(self._cache) >= self._generation_limit:
            self._stale = self._cache
            self._cache = {}
        self._cache[hostname] = entry
        return entry

    def public_suffix(self, hostname: str) -> str:
        """Return the public suffix of ``hostname``.

        >>> PublicSuffixList().public_suffix("www.example.co.uk")
        'co.uk'
        >>> PublicSuffixList().public_suffix("ad.foo.net")
        'net'
        """
        return self._lookup(hostname)[0]

    def registrable_domain(self, hostname: str) -> str:
        """Return the eTLD+1 of ``hostname``.

        A hostname that *is* a bare public suffix is returned unchanged —
        the same graceful fallback Chromium applies.

        >>> psl = PublicSuffixList()
        >>> psl.registrable_domain("www.shop.example.co.uk")
        'example.co.uk'
        >>> psl.registrable_domain("ad.foo.net")
        'foo.net'
        """
        entry = self._cache.get(hostname)
        if entry is None:
            entry = self._lookup(hostname)
        return entry[1]

    def second_level_name(self, hostname: str) -> str:
        """Return the label left of the public suffix — the paper's notion of
        "second-level domain" used to match ``www.foo.com`` with ``ad.foo.net``.

        >>> PublicSuffixList().second_level_name("www.foo.com")
        'foo'
        >>> PublicSuffixList().second_level_name("ad.foo.net")
        'foo'
        """
        registrable = self.registrable_domain(hostname)
        return registrable.split(".", 1)[0]


_DEFAULT_PSL = PublicSuffixList()


def etld_plus_one(hostname: str) -> str:
    """Module-level shorthand for the default PSL's registrable domain.

    Cookie tracking and Topics gating call this for every ad impression,
    so a live-generation hit is one dict probe in this frame; a miss
    takes the instance's bounded lookup.
    """
    entry = _DEFAULT_PSL._cache.get(hostname)
    if entry is None:
        entry = _DEFAULT_PSL._lookup(hostname)
    return entry[1]


def registrable_domain(hostname: str) -> str:
    """Alias of :func:`etld_plus_one` matching spec terminology."""
    return _DEFAULT_PSL.registrable_domain(hostname)


def second_level_name(hostname: str) -> str:
    """Module-level shorthand for the default PSL's second-level name."""
    return _DEFAULT_PSL.second_level_name(hostname)


def same_second_level(host_a: str, host_b: str) -> bool:
    """True when two hosts share the paper's "second-level domain" notion.

    This deliberately ignores the suffix: ``www.foo.com`` and ``ad.foo.net``
    match, exactly as in the paper's §4 attribution.
    """
    return second_level_name(host_a) == second_level_name(host_b)


def _labels(hostname: str) -> list[str]:
    cleaned = hostname.strip().rstrip(".").lower()
    if not cleaned:
        raise ValueError("empty hostname")
    labels = cleaned.split(".")
    if any(not label for label in labels):
        raise ValueError(f"malformed hostname: {hostname!r}")
    return labels
