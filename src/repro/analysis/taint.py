"""Taint pass: DRM key material flowing into insecure sinks.

§IV-D's practical impact is, at bottom, a *dataflow* story: keybox
bytes unlock the device RSA key, which unlocks content keys — and the
failure the paper files under CWE-922 is any of those secrets coming to
rest somewhere world-readable. "A First Look at DRM Systems for Secure
Mobile Content Delivery" (Rafi et al.) makes the same point from the
app side: what matters is not *whether* an app touches the DRM API but
*where the key-lifecycle data goes afterwards*.

The pass works on the decompiled method-body model:

- a method that calls a registered **source** API is seeded tainted;
- taint propagates to callees (arguments are opaque, so a tainted
  caller taints everything it invokes that the APK defines) and through
  **fields**: a tainted method's ``field_writes`` taint the field, and
  any method reading a tainted field becomes tainted;
- a tainted method calling a registered **sink** API yields a
  :class:`TaintFinding`, tagged with the sink's CWE id and severity and
  with call-graph reachability of the whole path (a flow living purely
  in dead code is reported, but flagged — the paper's
  over-approximation again).

Sources and sinks live in a module-level registry guarded by a lock —
the same shared-registry discipline :mod:`repro.analysis.lint` enforces
over the rest of the tree.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.analysis.callgraph import CallGraph
from repro.android.packages import Apk, decompile

__all__ = [
    "TaintSource",
    "TaintSink",
    "TaintFinding",
    "register_source",
    "register_sink",
    "registered_sources",
    "registered_sinks",
    "default_ruleset",
    "TaintAnalyzer",
]


def _matches(callee: str, patterns: tuple[str, ...]) -> bool:
    """Prefix match; a leading ``*`` matches any class-name prefix."""
    for pattern in patterns:
        if pattern.startswith("*"):
            if pattern[1:] in callee:
                return True
        elif callee.startswith(pattern):
            return True
    return False


@dataclass(frozen=True)
class TaintSource:
    """An API whose result is DRM key-lifecycle material."""

    id: str  # e.g. "license-payload"
    description: str
    call_patterns: tuple[str, ...]

    def matches(self, callee: str) -> bool:
        return _matches(callee, self.call_patterns)


@dataclass(frozen=True)
class TaintSink:
    """An API that persists or transmits data insecurely."""

    id: str  # e.g. "world-readable-storage"
    description: str
    cwe: str  # e.g. "CWE-922"
    severity: str  # "critical" | "high" | "medium"
    call_patterns: tuple[str, ...]

    def matches(self, callee: str) -> bool:
        return _matches(callee, self.call_patterns)


@dataclass(frozen=True)
class TaintFinding:
    """One source→sink flow through the decompiled app."""

    source: str  # TaintSource.id
    sink: str  # TaintSink.id
    cwe: str
    severity: str
    source_call: str  # the API call that seeded the taint
    sink_call: str  # the API call the secret reached
    path: tuple[str, ...]  # method / field hops, source first
    reachable: bool  # every hop on a live call-graph path?

    def describe(self) -> str:
        liveness = "reachable" if self.reachable else "DEAD CODE"
        chain = " -> ".join(self.path)
        return (
            f"[{self.cwe}][{self.severity}] {self.source} -> {self.sink} "
            f"({liveness}): {chain} -> {self.sink_call}"
        )


# -- the rule registry ---------------------------------------------------------

_SOURCES: dict[str, TaintSource] = {}
_SINKS: dict[str, TaintSink] = {}
_RULES_LOCK = threading.Lock()


def register_source(source: TaintSource) -> TaintSource:
    with _RULES_LOCK:
        _SOURCES[source.id] = source
    return source


def register_sink(sink: TaintSink) -> TaintSink:
    with _RULES_LOCK:
        _SINKS[sink.id] = sink
    return sink


def registered_sources() -> tuple[TaintSource, ...]:
    with _RULES_LOCK:
        return tuple(_SOURCES.values())


def registered_sinks() -> tuple[TaintSink, ...]:
    with _RULES_LOCK:
        return tuple(_SINKS.values())


def default_ruleset() -> tuple[tuple[TaintSource, ...], tuple[TaintSink, ...]]:
    """The built-in rules (also ensures they are registered)."""
    with _RULES_LOCK:
        for source in _DEFAULT_SOURCES:
            _SOURCES.setdefault(source.id, source)
        for sink in _DEFAULT_SINKS:
            _SINKS.setdefault(sink.id, sink)
        return tuple(_SOURCES.values()), tuple(_SINKS.values())


# The paper's key ladder, top to bottom (§II, §IV-D).
_DEFAULT_SOURCES = (
    TaintSource(
        id="keybox-bytes",
        description="factory keybox material (root of the key ladder)",
        call_patterns=("*.drm.KeyboxLoader.load", "*.KeyboxReader.read"),
    ),
    TaintSource(
        id="device-rsa-key",
        description="provisioned device RSA key blob",
        call_patterns=(
            "android.media.MediaDrm.getProvisionRequest",
            "android.media.MediaDrm.provideProvisionResponse",
            "*.ProvisioningStore.loadWrappedKey",
        ),
    ),
    TaintSource(
        id="content-keys",
        description="per-title content decryption keys",
        call_patterns=(
            "android.media.MediaDrm.queryKeyStatus",
            "*.drm.EmbeddedCdm.loadKeys",
            "*.drm.EmbeddedCdm.sessionKeys",
        ),
    ),
    TaintSource(
        id="license-payload",
        description="raw license response (wraps the content keys)",
        call_patterns=(
            "android.media.MediaDrm.provideKeyResponse",
            "android.media.MediaDrm.getKeyRequest",
            "*.LicenseClient.fetchLicense",
        ),
    ),
)

_DEFAULT_SINKS = (
    TaintSink(
        id="world-readable-storage",
        description="secret at rest outside app-private storage",
        cwe="CWE-922",
        severity="critical",
        call_patterns=(
            "java.io.FileOutputStream.<init>",
            "android.content.Context.openFileOutput",
            "android.os.Environment.getExternalStorageDirectory",
        ),
    ),
    TaintSink(
        id="logcat",
        description="secret written to the shared system log",
        cwe="CWE-532",
        severity="high",
        call_patterns=(
            "android.util.Log.v",
            "android.util.Log.d",
            "android.util.Log.i",
            "android.util.Log.w",
            "android.util.Log.e",
        ),
    ),
    TaintSink(
        id="plaintext-http",
        description="secret transmitted over cleartext HTTP",
        cwe="CWE-319",
        severity="high",
        call_patterns=(
            "java.net.HttpURLConnection.connect",
            "org.apache.http.client.HttpClient.execute",
        ),
    ),
)


# -- the analyzer --------------------------------------------------------------


@dataclass(frozen=True)
class _Taint:
    """Provenance of one tainted method: which source, via which hops."""

    source_id: str
    source_call: str
    path: tuple[str, ...]
    live: bool  # every method hop so far is call-graph reachable


class TaintAnalyzer:
    """Field- and call-sensitive taint propagation to a fixpoint."""

    def __init__(
        self,
        sources: tuple[TaintSource, ...] | None = None,
        sinks: tuple[TaintSink, ...] | None = None,
    ):
        if sources is None or sinks is None:
            default_sources, default_sinks = default_ruleset()
            sources = sources if sources is not None else default_sources
            sinks = sinks if sinks is not None else default_sinks
        self.sources = sources
        self.sinks = sinks

    def run(self, apk: Apk, graph: CallGraph | None = None) -> list[TaintFinding]:
        graph = graph or CallGraph.from_apk(apk)
        reachable = graph.reachable_methods()

        bodies = {
            f"{klass.name}.{method.name}": method
            for klass in decompile(apk)
            for method in klass.methods
        }

        # method -> {source_id: best taint fact}; fields likewise.
        tainted: dict[str, dict[str, _Taint]] = {}
        tainted_fields: dict[str, dict[str, _Taint]] = {}

        def add_fact(
            table: dict[str, dict[str, _Taint]], key: str, fact: _Taint
        ) -> bool:
            """Record *fact*; True if it added information (new source,
            or upgraded a dead-code-only fact to a live one)."""
            existing = table.setdefault(key, {}).get(fact.source_id)
            if existing is None or (fact.live and not existing.live):
                table[key][fact.source_id] = fact
                return True
            return False

        # Seed: any method calling a source API.
        for node in sorted(bodies):
            for callee in bodies[node].calls:
                for source in self.sources:
                    if source.matches(callee):
                        add_fact(
                            tainted,
                            node,
                            _Taint(
                                source_id=source.id,
                                source_call=callee,
                                path=(node,),
                                live=node in reachable,
                            ),
                        )

        # Propagate through call edges and field reads/writes.
        changed = True
        while changed:
            changed = False
            for node in sorted(tainted):
                body = bodies.get(node)
                if body is None:
                    continue
                for fact in list(tainted[node].values()):
                    for callee in body.calls:
                        if callee not in bodies or callee in fact.path:
                            continue
                        step = _Taint(
                            source_id=fact.source_id,
                            source_call=fact.source_call,
                            path=fact.path + (callee,),
                            live=fact.live and callee in reachable,
                        )
                        changed |= add_fact(tainted, callee, step)
                    for field_name in body.field_writes:
                        step = _Taint(
                            source_id=fact.source_id,
                            source_call=fact.source_call,
                            path=fact.path + (f"[field {field_name}]",),
                            live=fact.live,
                        )
                        changed |= add_fact(tainted_fields, field_name, step)
            for node in sorted(bodies):
                body = bodies[node]
                for field_name in body.field_reads:
                    for fact in list(tainted_fields.get(field_name, {}).values()):
                        step = _Taint(
                            source_id=fact.source_id,
                            source_call=fact.source_call,
                            path=fact.path + (node,),
                            live=fact.live and node in reachable,
                        )
                        changed |= add_fact(tainted, node, step)

        # Report: tainted method calling a sink API.
        findings: list[TaintFinding] = []
        seen: set[tuple[str, str, str, str]] = set()
        for node in sorted(tainted):
            body = bodies.get(node)
            if body is None:
                continue
            for callee in body.calls:
                for sink in self.sinks:
                    if not sink.matches(callee):
                        continue
                    for source_id in sorted(tainted[node]):
                        fact = tainted[node][source_id]
                        key = (source_id, sink.id, node, callee)
                        if key in seen:
                            continue
                        seen.add(key)
                        findings.append(
                            TaintFinding(
                                source=source_id,
                                sink=sink.id,
                                cwe=sink.cwe,
                                severity=sink.severity,
                                source_call=fact.source_call,
                                sink_call=callee,
                                path=fact.path,
                                reachable=fact.live,
                            )
                        )
        return findings
