"""Stock hook scripts — the repository's equivalents of the published
Frida scripts.

- :class:`OeccMonitor` automates OTT-app monitoring: it hooks every
  ``_oecc*`` function in the DRM process and classifies the security
  level in use from *where* the calls land (liboemcrypto.so ⇒ L1;
  everything inside libwvdrmengine.so ⇒ L3) — §IV-B verbatim;
- :func:`disable_ssl_pinning` is the SSL-repinning script: it defeats
  an app's certificate pins so the intercepting proxy can observe its
  traffic;
- the monitor also dumps the input/output buffers of selected
  functions ("to allow more in-depth analysis, we dumped input and
  output buffers related to various functions, including non DASH
  mode").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.instrumentation.frida import CallRecord, FridaSession
from repro.net.network import HttpClient
from repro.obs.bus import NULL_BUS, ObservabilityBus

__all__ = ["BufferDump", "OeccMonitor", "disable_ssl_pinning"]


@dataclass(frozen=True)
class BufferDump:
    """One dumped buffer from a hooked call."""

    function: str
    direction: str  # "in" | "out"
    data: bytes


@dataclass
class OeccMonitor:
    """Hooks the whole ``_oecc`` surface and aggregates observations."""

    session: FridaSession
    dumps: list[BufferDump] = field(default_factory=list)
    obs: ObservabilityBus = field(default=NULL_BUS, repr=False, compare=False)
    _installed: bool = False
    _flushed: int = field(default=0, repr=False, compare=False)

    # Functions whose byte buffers the study dumps for offline analysis.
    _DUMP_IN = {
        "_oecc07_generate_derived_keys": (1,),  # derivation context
        "_oecc10_load_keys": (1,),  # license response bytes
        "_oecc21_rewrap_device_rsa_key": (1,),  # provisioning response
        "_oecc24_derive_keys_from_session_key": (1, 2),  # wrapped key + context
        "_oecc30_generic_encrypt": (1,),
        "_oecc31_generic_decrypt": (1,),
    }
    _DUMP_OUT = {
        "_oecc31_generic_decrypt",  # non-DASH clear output (Netflix URIs)
        "_oecc30_generic_encrypt",
        "_oecc21_rewrap_device_rsa_key",  # RSA storage blob
    }

    def install(self) -> None:
        if self._installed:
            return
        self.session.hook_pattern("_oecc", on_leave=self._on_leave)
        self._installed = True

    def _on_leave(self, record: CallRecord) -> None:
        in_positions = self._DUMP_IN.get(record.function, ())
        for position in in_positions:
            if position < len(record.args) and isinstance(
                record.args[position], (bytes, bytearray)
            ):
                self.dumps.append(
                    BufferDump(
                        function=record.function,
                        direction="in",
                        data=bytes(record.args[position]),
                    )
                )
        if record.function in self._DUMP_OUT and isinstance(
            record.retval, (bytes, bytearray)
        ):
            self.dumps.append(
                BufferDump(
                    function=record.function,
                    direction="out",
                    data=bytes(record.retval),
                )
            )

    # -- aggregated observations ------------------------------------------

    @property
    def records(self) -> list[CallRecord]:
        return [
            r for r in self.session.records if r.function.startswith("_oecc")
        ]

    def widevine_active(self) -> bool:
        """Did any Widevine CDM call happen while monitoring?"""
        return bool(self.records)

    def observed_security_level(self) -> str | None:
        """§IV-B's classifier: L1 iff control flow reached
        liboemcrypto.so; L3 iff all calls stayed in libwvdrmengine.so."""
        modules = {r.module for r in self.records}
        if not modules:
            return None
        if any("liboemcrypto" in m for m in modules):
            return "L1"
        if all("libwvdrmengine" in m for m in modules):
            return "L3"
        return None

    def dumps_for(self, function: str, direction: str | None = None) -> list[bytes]:
        return [
            d.data
            for d in self.dumps
            if d.function == function
            and (direction is None or d.direction == direction)
        ]

    def flush_dumps(self) -> int:
        """Emit every not-yet-flushed buffer dump to the bus as an
        ``oecc.dump`` event (function, direction, size — never the
        bytes). Called by :class:`~repro.core.monitor.DrmApiMonitor`
        on detach so the dumps outlive the torn-down hook session;
        returns how many were flushed."""
        pending = self.dumps[self._flushed :]
        for dump in pending:
            self.obs.event(
                "oecc.dump",
                function=dump.function,
                direction=dump.direction,
                size=len(dump.data),
            )
        self._flushed = len(self.dumps)
        return len(pending)

    def clear(self) -> None:
        self.session.clear_records()
        self.dumps.clear()
        self._flushed = 0


def disable_ssl_pinning(client: HttpClient) -> None:
    """The SSL-repinning hook.

    Real scripts overwrite the app's TrustManager/CertificatePinner so
    every certificate validates; here the app's pin set is switched
    off. §IV-C: "using public Frida resources, we succeeded in
    bypassing SSL repinning on all OTT apps".
    """
    client.pin_set.enabled = False
