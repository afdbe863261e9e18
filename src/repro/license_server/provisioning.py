"""Provisioning infrastructure: keybox authority and provisioning server.

The :class:`KeyboxAuthority` models the factory-side keybox database
(every legitimate device's keybox is known to the provisioning side —
that is what makes the keybox a *shared-secret* root of trust). The
:class:`ProvisioningServer` installs per-device RSA keys, protected by
the keybox, and is the point where revocation-enforcing services turn
discontinued devices away (Table I's G# entries fail exactly here).
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import threading

from repro.crypto.kdf import derive_key, derive_session_keys
from repro.crypto.modes import cbc_encrypt
from repro.crypto.rng import derive_rng
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_keypair
from repro.license_server.policy import RevocationPolicy
from repro.license_server.protocol import (
    ProtocolError,
    ProvisionRequest,
    ProvisionResponse,
)
from repro.net.http import HttpRequest, HttpResponse
from repro.net.server import VirtualServer
from repro.obs.bus import NULL_BUS
from repro.widevine.keybox import Keybox
from repro.widevine.oemcrypto import LABEL_PROV_MAC, LABEL_PROVISIONING

__all__ = ["KeyboxAuthority", "ProvisioningRecords", "ProvisioningServer"]


class KeyboxAuthority:
    """Factory-side registry: device_id → keybox (+ attested level).

    The factory knows each device's true Widevine capability: an L1
    keybox is burned into a TEE, an L3 one ships in software. That
    attested level — not whatever a client later *claims* — is what a
    careful license service checks HD entitlements against (see the
    netflix-1080p episode, §V-C).

    The registry is shared study-wide, by the study's own devices and
    every :class:`~repro.core.study.DeviceSession` booted against it,
    so access is serialised behind a lock. Registration is
    last-writer-wins, which is exactly what re-booting a device with
    the same serial (same factory keybox) needs.
    """

    def __init__(self) -> None:
        self._keyboxes: dict[bytes, Keybox] = {}
        self._levels: dict[bytes, str] = {}
        self._lock = threading.Lock()

    def register(self, keybox: Keybox, *, security_level: str = "L3") -> None:
        with self._lock:
            self._keyboxes[keybox.device_id] = keybox
            self._levels[keybox.device_id] = security_level

    def device_key_for(self, device_id: bytes) -> bytes:
        with self._lock:
            try:
                return self._keyboxes[device_id].device_key
            except KeyError:
                raise LookupError(
                    f"unknown device id {device_id.hex()[:16]}…"
                ) from None

    def attested_level_for(self, device_id: bytes) -> str:
        with self._lock:
            try:
                return self._levels[device_id]
            except KeyError:
                raise LookupError(
                    f"unknown device id {device_id.hex()[:16]}…"
                ) from None

    def knows(self, device_id: bytes) -> bool:
        with self._lock:
            return device_id in self._keyboxes


class ProvisioningRecords:
    """Provisioned device RSA public keys, consulted by license servers."""

    def __init__(self) -> None:
        self._by_fingerprint: dict[bytes, RsaPublicKey] = {}
        self._level_by_fingerprint: dict[bytes, str] = {}

    def record(self, public: RsaPublicKey, security_level: str) -> None:
        self._by_fingerprint[public.fingerprint()] = public
        self._level_by_fingerprint[public.fingerprint()] = security_level

    def public_key(self, fingerprint: bytes) -> RsaPublicKey | None:
        return self._by_fingerprint.get(fingerprint)

    def security_level(self, fingerprint: bytes) -> str | None:
        return self._level_by_fingerprint.get(fingerprint)


def device_rsa_key(device_id: bytes) -> RsaPrivateKey:
    """The RSA key the provisioning side mints for a device.

    Deterministic per device id (and cached), so re-provisioning gives
    the same key — and so the study's attack can be validated end to
    end against ground truth.
    """
    return generate_keypair(2048, label=f"device-rsa/{device_id.hex()}")


class ProvisioningServer(VirtualServer):
    """A service's provisioning endpoint (``POST /provision``)."""

    def __init__(
        self,
        hostname: str,
        authority: KeyboxAuthority,
        records: ProvisioningRecords,
        *,
        revocation: RevocationPolicy | None = None,
    ):
        super().__init__(hostname)
        self._authority = authority
        self._records = records
        self._revocation = revocation or RevocationPolicy()
        self._rng = derive_rng(f"prov-server/{hostname}")
        self.route("/provision", self._handle_provision)

    def _handle_provision(self, request: HttpRequest) -> HttpResponse:
        bus = request.obs if request.obs is not None else NULL_BUS
        with bus.span("provision.issue", host=self.hostname) as span:
            response = self._issue_provision(request)
            span.set(status=response.status)
            bus.count(
                "provision.issued" if response.ok else "provision.denied"
            )
            return response

    def _issue_provision(self, request: HttpRequest) -> HttpResponse:
        try:
            prov_request = ProvisionRequest.parse(request.body)
        except ProtocolError as exc:
            return HttpResponse.bad_request(str(exc))

        if not self._authority.knows(prov_request.device_id):
            return HttpResponse.forbidden("unknown device")
        device_key = self._authority.device_key_for(prov_request.device_id)

        # Verify the keybox-rooted MAC: the CDM derived session keys from
        # the device key with the request payload as context and signed
        # with the client MAC key.
        payload = prov_request.signing_payload()
        derived = derive_session_keys(device_key, payload)
        expected = hmac_mod.new(derived.mac_client, payload, hashlib.sha256).digest()
        if not hmac_mod.compare_digest(expected, prov_request.mac):
            return HttpResponse.forbidden("provisioning MAC mismatch")

        # Revocation: the G# failure mode of Table I. A discontinued CDM
        # is refused before any key material is delivered.
        if not self._revocation.allows(prov_request.cdm_version):
            return HttpResponse(
                status=403,
                body=(
                    f"device revoked: CDM {prov_request.cdm_version} below "
                    f"required {self._revocation.min_cdm_version}"
                ).encode(),
            )

        rsa = device_rsa_key(prov_request.device_id)
        prov_key = derive_key(device_key, LABEL_PROVISIONING, prov_request.nonce, 128)
        iv = self._rng.generate(16)
        response = ProvisionResponse(
            device_id=prov_request.device_id,
            iv=iv,
            wrapped_rsa_key=cbc_encrypt(prov_key, iv, rsa.export_secret()),
        )
        mac_key = derive_key(device_key, LABEL_PROV_MAC, prov_request.device_id, 256)
        response.mac = hmac_mod.new(
            mac_key, response.signing_payload(), hashlib.sha256
        ).digest()

        # Record the *factory-attested* level, never the claimed one: a
        # software client asserting "L1" must not upgrade its record.
        attested = self._authority.attested_level_for(prov_request.device_id)
        self._records.record(rsa.public, attested)
        return HttpResponse(status=200, body=response.serialize())
