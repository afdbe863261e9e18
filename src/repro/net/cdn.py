"""CDN server: stores packaged segments and serves them by URI.

Assets are registered under opaque paths; optionally a signed token is
required (modelling expiring CDN URLs), though — matching reality — the
token only gates *delivery*, not *readability* of what is delivered.
"""

from __future__ import annotations

import hashlib

from repro.net.http import HttpRequest, HttpResponse
from repro.net.server import VirtualServer

__all__ = ["CdnServer"]


class CdnServer(VirtualServer):
    """A content delivery origin."""

    def __init__(self, hostname: str, *, require_token: bool = False):
        super().__init__(hostname)
        self._blobs: dict[str, bytes] = {}
        self._require_token = require_token
        self._token_secret = b"cdn-token/" + hostname.encode()
        self.route("/", self._serve)

    def put(self, path: str, blob: bytes) -> str:
        """Store *blob* under *path*; returns the absolute URL."""
        if not path.startswith("/"):
            raise ValueError("CDN path must start with '/'")
        self._blobs[path] = blob
        return f"https://{self.hostname}{path}"

    def remove(self, path: str) -> None:
        """Purge the asset at *path*; later GETs of it return 404."""
        del self._blobs[path]

    def url_for(self, path: str) -> str:
        if path not in self._blobs:
            raise KeyError(f"no asset at {path}")
        url = f"https://{self.hostname}{path}"
        if self._require_token:
            url += f"?token={self.token_for(path)}"
        return url

    def token_for(self, path: str) -> str:
        return hashlib.sha256(self._token_secret + path.encode()).hexdigest()[:16]

    def _serve(self, request: HttpRequest) -> HttpResponse:
        url = request.parsed_url
        blob = self._blobs.get(url.path)
        if blob is None:
            return HttpResponse.not_found(f"no asset at {url.path}")
        # The outcome goes on the exchange's own ``http.request`` span
        # (its counters); a replayed capture has none and counts nothing.
        span = request.span
        if self._require_token and url.query.get("token") != self.token_for(url.path):
            span.set(cdn="token_rejected")
            return HttpResponse.forbidden("missing or invalid CDN token")
        span.set(cdn="served", cdn_bytes=len(blob))
        return HttpResponse(
            status=200,
            headers={"content-type": "application/octet-stream"},
            body=blob,
        )
