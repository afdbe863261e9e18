"""The Widevine license server of one streaming service.

Verifies RSA-signed license requests from provisioned devices, applies
the service's revocation and resolution policies, and returns content
keys wrapped under a fresh session key — the server half of the key
ladder of §IV-D.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
from dataclasses import dataclass, replace

from repro.bmff.pssh import WidevinePsshData
from repro.crypto.kdf import derive_session_keys
from repro.crypto.modes import cbc_encrypt
from repro.crypto.rng import derive_rng
from repro.crypto.rsa import oaep_encrypt, pss_verify
from repro.dash.packager import PackagedTitle
from repro.license_server.policy import RevocationPolicy, ServicePolicy
from repro.license_server.protocol import (
    KeyControl,
    LicenseRequest,
    LicenseResponse,
    ProtocolError,
    WrappedKey,
)
from repro.license_server.provisioning import ProvisioningRecords
from repro.media.content import Title, TrackKind
from repro.net.http import HttpRequest, HttpResponse
from repro.net.server import VirtualServer
from repro.obs.bus import NULL_BUS

__all__ = ["LicenseServer", "RegisteredKey", "SessionRecord"]


@dataclass(frozen=True)
class RegisteredKey:
    """One content key known to the license service."""

    key_id: bytes
    key: bytes
    control: KeyControl


@dataclass(frozen=True)
class SessionRecord:
    """A secure channel a license opened, kept until the playback API
    uses it.

    Only a license that grants the service's secure-channel key (Netflix's
    URI protection) leaves one: the API encrypts the manifest under the
    session's generic-encryption key, which is all the record holds
    besides the device it belongs to.
    """

    device_id: bytes
    generic_encryption: bytes


class LicenseServer(VirtualServer):
    """A service's license endpoint (``POST /license``).

    A served license leaves no state behind, except a secure channel
    not yet used (:attr:`sessions`), at most one per device: a device's
    new channel replaces its unused one.
    """

    def __init__(
        self,
        hostname: str,
        policy: ServicePolicy,
        records: ProvisioningRecords,
        *,
        revocation: RevocationPolicy | None = None,
    ):
        super().__init__(hostname)
        self.policy = policy
        self._records = records
        self._revocation = revocation or policy.revocation
        self._keys: dict[bytes, RegisteredKey] = {}
        self._rng = derive_rng(f"license-server/{hostname}")
        self._secure_channel_kid: bytes | None = None
        # session id -> open secure channel; device id -> its session id.
        self.sessions: dict[bytes, SessionRecord] = {}
        self._channel_of_device: dict[bytes, bytes] = {}
        self.route("/license", self._handle_license)

    # -- key registration -------------------------------------------------

    def register_packaged_title(self, packaged: PackagedTitle, title: Title) -> None:
        """Register every content key of a packaged title, attaching
        resolution controls: HD keys demand L1."""
        for rep in title.representations:
            kid = packaged.kid_by_rep.get(rep.rep_id)
            if kid is None:
                continue
            key = packaged.content_keys[kid]
            if rep.kind is TrackKind.VIDEO and rep.resolution is not None:
                height = rep.resolution.height
                control = KeyControl(
                    max_height=height,
                    require_security_level=(
                        "L1" if height > self.policy.l3_max_height else None
                    ),
                )
            else:
                control = KeyControl()
            existing = self._keys.get(kid)
            if existing is not None and existing.key != key:
                raise ValueError(f"conflicting key material for kid {kid.hex()}")
            # Shared audio/video keys keep the *least* restrictive
            # control so the shared key stays usable on L3 — matching
            # the real-world "minimal" behaviour.
            if existing is None or existing.control.require_security_level:
                self._keys[kid] = RegisteredKey(key_id=kid, key=key, control=control)

    def register_secure_channel_key(self, key_id: bytes, key: bytes) -> None:
        """Register the service's secure-channel bootstrap key, which
        belongs to no packaged title: a license granting it opens a
        secure channel (:attr:`sessions`)."""
        self._keys[key_id] = RegisteredKey(key_id=key_id, key=key, control=KeyControl())
        self._secure_channel_kid = key_id

    def take_secure_channel(self, session_id: bytes) -> bytes | None:
        """The generic-encryption key of *session_id*'s secure channel,
        or None; the channel is closed by this call."""
        record = self.sessions.pop(session_id, None)
        if record is None:
            return None
        if self._channel_of_device.get(record.device_id) == session_id:
            del self._channel_of_device[record.device_id]
        return record.generic_encryption

    def _open_secure_channel(
        self, session_id: bytes, device_id: bytes, generic_encryption: bytes
    ) -> None:
        stale_id = self._channel_of_device.get(device_id)
        stale = self.sessions.get(stale_id) if stale_id is not None else None
        # Session ids are per device: another device's channel may hold
        # the stale id by now.
        if stale is not None and stale.device_id == device_id:
            del self.sessions[stale_id]
        self._channel_of_device[device_id] = session_id
        self.sessions[session_id] = SessionRecord(device_id, generic_encryption)

    def known_key_ids(self) -> set[bytes]:
        return set(self._keys)

    # -- license issuing -----------------------------------------------------

    def _handle_license(self, request: HttpRequest) -> HttpResponse:
        bus = request.obs if request.obs is not None else NULL_BUS
        with bus.span("license.issue", host=self.hostname) as span:
            response = self._issue_license(request)
            span.set(status=response.status)
            return response

    def _issue_license(self, request: HttpRequest) -> HttpResponse:
        try:
            lic_request = LicenseRequest.parse(request.body)
        except ProtocolError as exc:
            return HttpResponse.bad_request(str(exc))

        public = self._records.public_key(lic_request.rsa_fingerprint)
        if public is None:
            return HttpResponse.forbidden("unknown device certificate")
        if not pss_verify(
            public, lic_request.signing_payload(), lic_request.signature
        ):
            return HttpResponse.forbidden("bad request signature")

        try:
            allowed = self._revocation.allows(lic_request.cdm_version)
        except ValueError as exc:
            return HttpResponse.bad_request(str(exc))
        if not allowed:
            return HttpResponse.forbidden(
                f"device revoked: CDM {lic_request.cdm_version}"
            )

        # §V-C: the netflix-1080p lesson. A careful service verifies the
        # claimed security level against the provisioning record; one
        # that trusts the client's claim hands HD keys to L3 forgers.
        attested_level = self._records.security_level(lic_request.rsa_fingerprint)
        if self.policy.verifies_client_level and attested_level is not None:
            if lic_request.security_level != attested_level:
                return HttpResponse.forbidden(
                    "security level claim does not match provisioning record"
                )

        try:
            pssh = WidevinePsshData.parse(lic_request.pssh_data)
        except ValueError as exc:
            return HttpResponse.bad_request(f"bad pssh data: {exc}")

        session_key = self._rng.generate(16)
        context = lic_request.signing_payload()
        derived = derive_session_keys(session_key, context)

        wrapped_keys: list[WrappedKey] = []
        for kid in pssh.key_ids:
            registered = self._keys.get(kid)
            if registered is None:
                continue
            requires_l1 = registered.control.require_security_level == "L1"
            if requires_l1 and lic_request.security_level != "L1":
                # Resolution gating: no HD keys for software-only CDMs.
                continue
            control = registered.control
            if (
                self.policy.license_duration_s is not None
                and control.license_duration_s is None
            ):
                control = replace(
                    control, license_duration_s=self.policy.license_duration_s
                )
            iv = self._rng.generate(16)
            wrapped_keys.append(
                WrappedKey(
                    key_id=kid,
                    iv=iv,
                    wrapped_key=cbc_encrypt(derived.encryption, iv, registered.key),
                    control=control,
                )
            )

        if not wrapped_keys:
            return HttpResponse.forbidden("no grantable keys for this request")

        response = LicenseResponse(
            session_id=lic_request.session_id,
            wrapped_session_key=oaep_encrypt(public, session_key, rng=self._rng),
            derivation_context=context,
            keys=wrapped_keys,
        )
        response.mac = hmac_mod.new(
            derived.mac_server, response.signing_payload(), hashlib.sha256
        ).digest()

        if self._secure_channel_kid is not None and any(
            k.key_id == self._secure_channel_kid for k in wrapped_keys
        ):
            self._open_secure_channel(
                lic_request.session_id,
                lic_request.device_id,
                derived.generic_encryption,
            )
        return HttpResponse(status=200, body=response.serialize())
