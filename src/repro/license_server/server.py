"""The Widevine license server of one streaming service.

Verifies RSA-signed license requests from provisioned devices, applies
the service's revocation and resolution policies, and returns content
keys wrapped under a fresh session key — the server half of the key
ladder of §IV-D.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
from dataclasses import dataclass, field, replace

from repro.bmff.pssh import WidevinePsshData
from repro.crypto.kdf import SessionKeys, derive_session_keys
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


@dataclass
class SessionRecord:
    """Server-side record of an issued license session.

    Services using the generic (non-DASH) secure channel — Netflix's URI
    protection — derive the same generic keys from this record.
    """

    session_id: bytes
    session_key: bytes
    derivation_context: bytes
    derived: SessionKeys = field(init=False)

    def __post_init__(self) -> None:
        self.derived = derive_session_keys(self.session_key, self.derivation_context)


class LicenseServer(VirtualServer):
    """A service's license endpoint (``POST /license``)."""

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
        self.sessions: dict[bytes, SessionRecord] = {}
        self.denied_requests: list[str] = []
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

    def register_key(self, key_id: bytes, key: bytes, control: KeyControl) -> None:
        """Register one standalone key (e.g. a secure-channel bootstrap
        key that belongs to no packaged title)."""
        self._keys[key_id] = RegisteredKey(key_id=key_id, key=key, control=control)

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
            self.denied_requests.append("unknown device certificate")
            return HttpResponse.forbidden("unknown device certificate")
        if not pss_verify(
            public, lic_request.signing_payload(), lic_request.signature
        ):
            self.denied_requests.append("bad request signature")
            return HttpResponse.forbidden("bad request signature")

        try:
            allowed = self._revocation.allows(lic_request.cdm_version)
        except ValueError as exc:
            return HttpResponse.bad_request(str(exc))
        if not allowed:
            self.denied_requests.append(
                f"revoked CDM {lic_request.cdm_version}"
            )
            return HttpResponse.forbidden(
                f"device revoked: CDM {lic_request.cdm_version}"
            )

        # §V-C: the netflix-1080p lesson. A careful service verifies the
        # claimed security level against the provisioning record; one
        # that trusts the client's claim hands HD keys to L3 forgers.
        attested_level = self._records.security_level(lic_request.rsa_fingerprint)
        if self.policy.verifies_client_level and attested_level is not None:
            if lic_request.security_level != attested_level:
                self.denied_requests.append(
                    f"claimed {lic_request.security_level}, attested "
                    f"{attested_level}"
                )
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
            self.denied_requests.append("no grantable keys")
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

        self.sessions[lic_request.session_id] = SessionRecord(
            session_id=lic_request.session_id,
            session_key=session_key,
            derivation_context=context,
        )
        return HttpResponse(status=200, body=response.serialize())
