"""Intercepting TLS proxy — the study's Burp Suite analogue.

The proxy mints a certificate for whatever host the client asks for,
signed by its own CA. If the device trusts that CA and the app's pins
are defeated, the handshake succeeds and every request/response pair is
recorded as a :class:`Flow` the audit can mine for media URIs and MPD
manifests (§IV-B "Content Protection"). Like a server's
``request_log``, the capture is a ring: a long-lived proxy keeps the
last :data:`FLOW_LOG_SIZE` flows, bodies included, not every segment it
ever relayed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.net.http import HttpRequest, HttpResponse
from repro.net.network import Network
from repro.net.tls import Certificate, issue_certificate
from repro.obs.bus import NULL_BUS

__all__ = ["FLOW_LOG_SIZE", "Flow", "InterceptingProxy"]

# Flows the proxy keeps in ``flows`` (the most recent ones).
FLOW_LOG_SIZE = 1024


@dataclass
class Flow:
    """One captured request/response exchange."""

    host: str
    request: HttpRequest
    response: HttpResponse


class InterceptingProxy:
    """A man-in-the-middle proxy with its own CA.

    Besides passive capture, the proxy supports *active* tampering via
    ``response_hook`` — used to show that the DRM protocol's own
    integrity (license MACs, request signatures) holds even once TLS is
    fully broken: a tampered license dies at the CDM, not silently.
    """

    CA_NAME = "WideLeakProxyCA"

    def __init__(self, network: Network):
        self._network = network
        self._certificates: dict[str, Certificate] = {}
        self.flows: deque[Flow] = deque(maxlen=FLOW_LOG_SIZE)
        # Optional (request, response) -> response transformer.
        self.response_hook = None

    def certificate_for(self, host: str) -> Certificate:
        """On-the-fly certificate for *host*, signed by the proxy CA."""
        if host not in self._certificates:
            self._certificates[host] = issue_certificate(
                host, self.CA_NAME, seed=b"proxy-key"
            )
        return self._certificates[host]

    def forward(self, request: HttpRequest) -> HttpResponse:
        """Relay to the real origin, recording (and optionally
        transforming) the exchange."""
        bus = request.obs if request.obs is not None else NULL_BUS
        with bus.span(
            "proxy.forward", host=request.parsed_url.host
        ) as span:
            response = self._network.deliver(request)
            if self.response_hook is not None:
                response = self.response_hook(request, response)
                span.event("proxy.tamper")
            self.flows.append(
                Flow(host=request.parsed_url.host, request=request, response=response)
            )
            bus.count("proxy.flows")
            bus.count("proxy.bytes_captured", len(response.body))
        return response

    def flows_for(self, host_substring: str) -> list[Flow]:
        return [f for f in self.flows if host_substring in f.host]

    def clear(self) -> None:
        self.flows.clear()
