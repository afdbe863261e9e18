"""The simulated network: name resolution, TLS handshakes, clients.

``Network`` maps hostnames to :class:`~repro.net.server.VirtualServer`
instances and delivers requests over a modelled TLS handshake. An
:class:`~repro.net.proxy.InterceptingProxy` can be interposed for a
device, after which every connection from that device terminates at the
proxy first — succeeding only if the device trusts the proxy CA *and*
the app's pinning is defeated, the two conditions the paper's
methodology engineers with Burp + Frida.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.net.http import HttpRequest, HttpResponse
from repro.net.server import VirtualServer
from repro.net.tls import PinSet, TlsError, TrustStore
from repro.obs.bus import NULL_BUS, ObservabilityBus
from repro.obs.span import NULL_SPAN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.proxy import InterceptingProxy

__all__ = ["Network", "HttpClient"]


class Network:
    """Hostname → server registry plus optional per-client proxying.

    The registry is shared by every device and backend on the simulated
    network, so registration and lookup are serialised behind a lock
    and a caller on any thread sees a host either registered or not
    (lookups return the server object, whose handling is per-service
    state).
    """

    def __init__(self) -> None:
        self._servers: dict[str, VirtualServer] = {}
        self._lock = threading.Lock()

    def register(self, server: VirtualServer) -> None:
        with self._lock:
            if server.hostname in self._servers:
                raise ValueError(f"host already registered: {server.hostname}")
            self._servers[server.hostname] = server

    def server_for(self, hostname: str) -> VirtualServer:
        with self._lock:
            try:
                return self._servers[hostname]
            except KeyError:
                raise LookupError(f"unknown host {hostname!r}") from None

    def deliver(self, request: HttpRequest) -> HttpResponse:
        """Origin-side delivery (no client TLS policy applied)."""
        return self.server_for(request.parsed_url.host).handle(request)


class HttpClient:
    """An app's HTTP stack: trust store + optional pin set + proxy.

    The trust store belongs to the *device*, the pin set to the *app* —
    mirroring Android, where a user CA can be installed device-wide but
    pinning is app code.
    """

    def __init__(
        self,
        network: Network,
        *,
        trust_store: TrustStore | None = None,
        pin_set: PinSet | None = None,
        obs: ObservabilityBus | None = None,
    ):
        self.network = network
        self.trust_store = trust_store or TrustStore()
        self.pin_set = pin_set or PinSet()
        self.proxy: "InterceptingProxy | None" = None
        self.obs = obs if obs is not None else NULL_BUS

    def set_proxy(self, proxy: "InterceptingProxy | None") -> None:
        self.proxy = proxy

    def request(self, request: HttpRequest) -> HttpResponse:
        # Stamp the sender's bus on the request: the origin's own spans
        # nest under this one.
        obs = request.obs = self.obs
        parsed = request.parsed_url
        if not obs.enabled:
            return self._deliver(request, parsed.host)
        with obs.span(
            "http.request", method=request.method, host=parsed.host,
            path=parsed.path, bytes_out=len(request.body),
        ) as span:
            # The exchange's one record; its attributes give its counters,
            # and a failed delivery (a pinning rejection) still counts. The
            # origin sets its own outcome on it (the CDN) while it is in
            # flight; a capture replayed later carries NULL_SPAN again.
            request.span = span
            try:
                response = self._deliver(request, parsed.host)
            finally:
                request.span = NULL_SPAN
            if self.proxy is None:
                span.set(status=response.status, bytes_in=len(response.body))
            else:  # relayed, through its hook if set
                span.set(
                    status=response.status, bytes_in=len(response.body),
                    proxied=True, tampered=self.proxy.response_hook is not None,
                )
        return response

    def _deliver(self, request: HttpRequest, host: str) -> HttpResponse:
        if self.proxy is not None:
            # The proxy terminates TLS with its own certificate for the
            # requested host; the client validates that certificate.
            cert = self.proxy.certificate_for(host)
            self.trust_store.verify(cert, host)
            self.pin_set.verify(host, cert)
            return self.proxy.forward(request)
        server = self.network.server_for(host)
        self.trust_store.verify(server.certificate, host)
        self.pin_set.verify(host, server.certificate)
        return server.handle(request)

    def get(self, url: str, headers: dict[str, str] | None = None) -> HttpResponse:
        return self.request(HttpRequest("GET", url, headers=headers or {}))

    def post(
        self, url: str, body: bytes, headers: dict[str, str] | None = None
    ) -> HttpResponse:
        return self.request(
            HttpRequest("POST", url, headers=headers or {}, body=body)
        )
