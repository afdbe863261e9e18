"""Virtual HTTPS servers with path routing."""

from __future__ import annotations

from typing import Callable

from repro.net.http import HttpRequest, HttpResponse
from repro.net.tls import Certificate, issue_certificate

__all__ = ["VirtualServer", "RouteHandler"]

RouteHandler = Callable[[HttpRequest], HttpResponse]


class VirtualServer:
    """One origin on the simulated network.

    Routes are matched by longest registered prefix, so a server can
    expose ``/segments/`` and a more specific ``/segments/special``.
    A server keeps nothing per request: what an audit needs of an
    exchange, the intercepting proxy captures.
    """

    def __init__(self, hostname: str, *, issuer: str = "GlobalRootCA"):
        self.hostname = hostname
        self.certificate: Certificate = issue_certificate(
            hostname, issuer, seed=b"server-key"
        )
        self._routes: dict[str, RouteHandler] = {}

    def route(self, prefix: str, handler: RouteHandler) -> None:
        """Register *handler* for paths starting with *prefix*."""
        if not prefix.startswith("/"):
            raise ValueError("route prefix must start with '/'")
        self._routes[prefix] = handler

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Dispatch a request to the longest matching route.

        Opens no span: the sender's ``http.request`` span covers the
        exchange, status included. A route that observes more uses the
        bus riding on the request (``request.obs``).
        """
        path = request.parsed_url.path
        best: str | None = None
        for prefix in self._routes:
            if path.startswith(prefix) and (best is None or len(prefix) > len(best)):
                best = prefix
        if best is None:
            return HttpResponse.not_found(f"no route for {path}")
        return self._routes[best](request)
