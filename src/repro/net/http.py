"""Minimal HTTP message model for the simulated network.

Requests and responses are plain dataclasses; there is no socket layer —
delivery happens through :class:`repro.net.network.Network`, which is
where TLS, pinning and the intercepting proxy live.

A request's URL is parsed on every hop (client, proxy, origin, route
handler), so :func:`parse_url` memoizes on the raw string: each distinct
URL is parsed once, and every later hop pays one cache lookup. The
cached :class:`Url` values are shared, hence immutable — ``query`` is a
read-only mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping
from urllib.parse import parse_qs, urlparse

from repro.obs.span import NULL_SPAN, Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.bus import ObservabilityBus

__all__ = ["HttpRequest", "HttpResponse", "Url", "parse_url"]


@dataclass(frozen=True, slots=True)
class Url:
    """Decomposed URL (immutable: instances are shared by the parse cache)."""

    scheme: str
    host: str
    path: str
    query: Mapping[str, str]

    def __str__(self) -> str:
        query = "&".join(f"{k}={v}" for k, v in sorted(self.query.items()))
        return f"{self.scheme}://{self.host}{self.path}" + (
            f"?{query}" if query else ""
        )


_NO_QUERY: Mapping[str, str] = MappingProxyType({})


@lru_cache(maxsize=4096)
def parse_url(raw: str) -> Url:
    """Parse an absolute URL; raises ValueError when host is missing.

    Memoized on *raw* (errors are not cached: a host-less URL raises on
    every call).
    """
    parsed = urlparse(raw)
    if not parsed.netloc:
        raise ValueError(f"URL has no host: {raw!r}")
    query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
    return Url(
        scheme=parsed.scheme or "https",
        host=parsed.netloc,
        path=parsed.path or "/",
        query=MappingProxyType(query) if query else _NO_QUERY,
    )


@dataclass
class HttpRequest:
    """One HTTP request.

    ``obs`` carries the sender's observability bus across the
    client/server seam (set by :class:`~repro.net.network.HttpClient`),
    so server-side spans nest under the client's request span without
    any thread-local ambient state. ``span`` is the sender's open
    ``http.request`` span while the exchange is in flight (``NULL_SPAN``
    otherwise), where an origin such as the CDN records its outcome.
    Both are transport metadata, not part of the message: excluded from
    equality and repr.
    """

    method: str
    url: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    obs: "ObservabilityBus | None" = field(
        default=None, compare=False, repr=False
    )
    span: Span = field(default=NULL_SPAN, compare=False, repr=False)

    @property
    def parsed_url(self) -> Url:
        return parse_url(self.url)


@dataclass
class HttpResponse:
    """One HTTP response."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @classmethod
    def not_found(cls, detail: str = "not found") -> "HttpResponse":
        return cls(status=404, body=detail.encode())

    @classmethod
    def forbidden(cls, detail: str = "forbidden") -> "HttpResponse":
        return cls(status=403, body=detail.encode())

    @classmethod
    def bad_request(cls, detail: str = "bad request") -> "HttpResponse":
        return cls(status=400, body=detail.encode())
