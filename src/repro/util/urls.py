"""Minimal URL model with browser-grade origin semantics.

Browsing-context origins are the crux of the paper's §4 finding, so the
reproduction carries its own small, strict URL type rather than threading
``urllib.parse`` tuples around: every resource, script and iframe source is
a :class:`Url`, and the *origin* (scheme, host, port) is computed exactly as
the HTML spec defines it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

_DEFAULT_PORTS = {"http": 80, "https": 443}


@dataclass(frozen=True, slots=True)
class Url:
    """An absolute http(s) URL, normalised at construction."""

    scheme: str
    host: str
    port: int
    path: str = "/"
    query: str = ""

    def __post_init__(self) -> None:
        if self.scheme not in _DEFAULT_PORTS:
            raise ValueError(f"unsupported scheme: {self.scheme!r}")
        if not self.host or self.host != self.host.strip().lower():
            raise ValueError(f"host must be non-empty lowercase: {self.host!r}")
        if not (0 < self.port < 65536):
            raise ValueError(f"port out of range: {self.port}")
        if not self.path.startswith("/"):
            raise ValueError(f"path must be absolute: {self.path!r}")

    @property
    def origin(self) -> str:
        """Serialised origin — default ports are omitted, as browsers do.

        >>> parse_url("https://example.org/a/b?q=1").origin
        'https://example.org'
        """
        if self.port == _DEFAULT_PORTS[self.scheme]:
            return f"{self.scheme}://{self.host}"
        return f"{self.scheme}://{self.host}:{self.port}"

    def __str__(self) -> str:
        suffix = f"?{self.query}" if self.query else ""
        if self.port == _DEFAULT_PORTS[self.scheme]:
            return f"{self.scheme}://{self.host}{self.path}{suffix}"
        return f"{self.scheme}://{self.host}:{self.port}{self.path}{suffix}"

    def with_path(self, path: str, query: str = "") -> "Url":
        """Same origin, different path/query."""
        return Url(self.scheme, self.host, self.port, path, query)


def parse_url(raw: str) -> Url:
    """Parse an absolute http(s) URL string into a :class:`Url`.

    >>> parse_url("https://www.foo.com/ads/tag.js?id=9")
    Url(scheme='https', host='www.foo.com', port=443, path='/ads/tag.js', query='id=9')
    """
    stripped = raw.strip()
    scheme, sep, rest = stripped.partition("://")
    if not sep:
        raise ValueError(f"not an absolute URL: {raw!r}")
    scheme = scheme.lower()
    if scheme not in _DEFAULT_PORTS:
        raise ValueError(f"unsupported scheme in {raw!r}")

    authority, slash, tail = rest.partition("/")
    path_and_query = slash + tail if slash else "/"
    path, question, query = path_and_query.partition("?")

    host, colon, port_text = authority.partition(":")
    host = host.lower()
    if colon:
        try:
            port = int(port_text)
        except ValueError as exc:
            raise ValueError(f"bad port in {raw!r}") from exc
    else:
        port = _DEFAULT_PORTS[scheme]

    return Url(scheme, host, port, path or "/", query if question else "")


def origin_of(raw: str) -> str:
    """Shorthand: origin string of a raw URL."""
    return parse_url(raw).origin


def https(host: str, path: str = "/", query: str = "") -> Url:
    """Convenience constructor for the (overwhelmingly common) https case."""
    return Url("https", host, 443, path, query)


def hosts_of(urls: Iterable[str]) -> tuple[str, ...]:
    """The sorted distinct hosts of serialised default-port URLs.

    One string split per URL, no parse: visit plans hold thousands of
    ``https://host/path`` strings and derive their loaded hosts from them.
    """
    return tuple(sorted({url.split("/", 3)[2] for url in urls}))
