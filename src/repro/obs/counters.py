"""The counter schema: the one table that derives every counter from
a record the bus already keeps. The bus applies :data:`SPAN_COUNTERS`
as it folds closed spans (sampled-out ones too, so counters are exact
at any rate) and :data:`POINT_COUNTERS` where it records a point. A
span gets the attribute its rule keys on only once its work succeeded:
a span an exception unwinds counts nothing unfinished, and a bare span
never breaks the fold.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

__all__ = ["SPAN_COUNTERS", "POINT_COUNTERS", "exchange_counters"]

Rule = Callable[[Mapping[str, Any]], dict[str, int]]


def exchange_counters(attrs: Mapping[str, Any]) -> dict[str, int]:
    """Every counter an HTTP exchange adds, derived from its
    ``http.request`` span's attributes alone. A failed delivery (no
    ``status``) still counts as a request sent; a tampering proxy may
    make ``bytes_in`` differ from the bytes the CDN sent (``cdn_bytes``)."""
    counts = {"http.requests": 1, "http.bytes_out": attrs.get("bytes_out", 0)}
    if "status" in attrs:
        counts["http.bytes_in"] = attrs.get("bytes_in", 0)
        counts[f"http.status.{attrs['status']}"] = 1
    if "proxied" in attrs:
        counts["proxy.flows"] = 1
        counts["proxy.bytes_captured"] = attrs.get("bytes_in", 0)
    if attrs.get("cdn") == "served":
        counts["cdn.segments_served"] = 1
        counts["cdn.bytes_served"] = attrs.get("cdn_bytes", 0)
    elif attrs.get("cdn") == "token_rejected":
        counts["cdn.token_rejections"] = 1
    return counts


def _decision(issued: str, denied: str) -> Rule:
    """A server's answer: a 2xx ``status`` (``HttpResponse.ok``) adds
    *issued*, any other status *denied*."""
    return lambda attrs: (
        {} if "status" not in attrs
        else {issued if 200 <= attrs["status"] < 300 else denied: 1}
    )


def _once(fact: str, counts: Rule) -> Rule:
    """*counts* once the span carries *fact*, which its work sets on
    success."""
    return lambda attrs: counts(attrs) if fact in attrs else {}


SPAN_COUNTERS: dict[str, Rule] = {
    "http.request": exchange_counters,
    "license.issue": _decision("license.issued", "license.denied"),
    "provision.issue": _decision("provision.issued", "provision.denied"),
    "playback.track": _once("frames", lambda a: {"playback.frames": a["frames"]}),
    "package.title": _once("segments", lambda a: {
        "package.titles": 1, "package.segments": a["segments"],
    }),
    "cdm.provision.load": _once("provisioned", lambda a: {"cdm.provisionings": 1}),
    "cdm.load_keys": _once("keys", lambda a: {"cdm.licenses_loaded": 1}),
    "fleet.campaign": _once("cells", lambda a: {
        "fleet.computed": a["computed"], "fleet.cache_hits": a["cache_hits"],
        "fleet.retries": a["retries"], "fleet.cells.total": a["cells"],
    }),
}
"""Span name -> the counter increments of one closed span of that name."""

POINT_COUNTERS: dict[str, str] = {"flow": "flow.arrows", "oecc.dump": "oecc.dumps"}
"""Point name -> the counter each recorded point of that name adds 1 to."""
