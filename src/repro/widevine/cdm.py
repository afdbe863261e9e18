"""The Widevine CDM (the ``libwvdrmengine`` logic).

Offline licenses are supported: ``store_offline_license`` persists a
validated license and ``restore_keys`` replays it into a later session
(the license carries its own key-wrap material).

Sits between the Android Media DRM HAL and OEMCrypto: manages sessions,
builds/parses the provisioning and license protocol messages, persists
per-origin provisioning, and routes decryption. All cryptography is
delegated to :class:`repro.widevine.oemcrypto.OemCrypto`, so hooks on
the ``_oecc`` surface observe the complete key ladder.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.license_server.protocol import (
    LicenseRequest,
    LicenseResponse,
    ProtocolError,
    ProvisionRequest,
)
from repro.obs.bus import NULL_BUS, ObservabilityBus
from repro.widevine.oemcrypto import (
    DecryptResult,
    NotProvisionedError,
    OemCrypto,
    OemCryptoError,
)

__all__ = ["WidevineCdm", "CdmSession", "CdmError", "NotProvisionedError"]


class CdmError(Exception):
    """CDM-level failure (protocol, state)."""


@dataclass
class CdmSession:
    """CDM-side session state."""

    session_id: bytes
    origin: str
    pending_request_payload: bytes | None = None
    loaded_key_ids: list[bytes] = field(default_factory=list)


class WidevineCdm:
    """One CDM instance per device."""

    VENDOR = "Google"
    DESCRIPTION = "Widevine CDM (simulated)"

    def __init__(
        self,
        oemcrypto: OemCrypto,
        *,
        persistent_store: dict[str, bytes],
        device_model: str,
        obs: ObservabilityBus | None = None,
    ):
        self._oc = oemcrypto
        self._store = persistent_store
        self._device_model = device_model
        self.obs = obs if obs is not None else NULL_BUS
        self._sessions: dict[bytes, CdmSession] = {}
        # origin → oemcrypto session carrying the provisioning nonce.
        self._pending_provisioning: dict[str, bytes] = {}
        self._oc._oecc01_initialize()

    # -- properties --------------------------------------------------------

    @property
    def security_level(self) -> str:
        return self._oc.security_level

    @property
    def cdm_version(self) -> str:
        return self._oc.cdm_version

    def _storage_key(self, origin: str) -> str:
        return f"widevine/rsa/{origin}"

    def is_provisioned(self, origin: str) -> bool:
        return self._storage_key(origin) in self._store

    # -- sessions ------------------------------------------------------------

    def open_session(self, origin: str) -> bytes:
        session_id = self._oc._oecc05_open_session()
        self._sessions[session_id] = CdmSession(session_id=session_id, origin=origin)
        return session_id

    def close_session(self, session_id: bytes) -> None:
        self._oc._oecc06_close_session(session_id)
        self._sessions.pop(session_id, None)

    def _session(self, session_id: bytes) -> CdmSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise CdmError(f"unknown CDM session {session_id.hex()}") from None

    # -- provisioning ----------------------------------------------------------

    def get_provision_request(self, origin: str) -> bytes:
        """Build a keybox-authenticated provisioning request.

        A request still in flight for *origin* (its response never came,
        say the server refused) is superseded: its session is closed.
        """
        with self.obs.span("cdm.provision.request", origin=origin):
            self.cancel_provisioning(origin)
            oc_session = self._oc._oecc05_open_session()
            nonce = self._oc._oecc08_generate_nonce(oc_session)
            request = ProvisionRequest(
                device_id=self._oc._oecc13_get_device_id(),
                nonce=nonce,
                cdm_version=self.cdm_version,
                security_level=self.security_level,
            )
            payload = request.signing_payload()
            self._oc._oecc07_generate_derived_keys(oc_session, payload)
            request.mac = self._oc._oecc09_generate_signature(oc_session, payload)
            self._pending_provisioning[origin] = oc_session
            return request.serialize()

    def provide_provision_response(self, origin: str, response: bytes) -> None:
        """Unwrap the device RSA key and persist it for *origin*."""
        with self.obs.span("cdm.provision.load", origin=origin) as span:
            oc_session = self._pending_provisioning.pop(origin, None)
            if oc_session is None:
                raise CdmError(f"no provisioning in flight for origin {origin!r}")
            try:
                storage_blob = self._oc._oecc21_rewrap_device_rsa_key(
                    oc_session, response
                )
            finally:
                self._oc._oecc06_close_session(oc_session)
            self._store[self._storage_key(origin)] = storage_blob
            span.set(provisioned=True)

    def cancel_provisioning(self, origin: str) -> None:
        """Drop *origin*'s provisioning request in flight, if any, and
        close its session."""
        oc_session = self._pending_provisioning.pop(origin, None)
        if oc_session is not None:
            self._oc._oecc06_close_session(oc_session)

    def _load_rsa_key(self, origin: str) -> None:
        blob = self._store.get(self._storage_key(origin))
        if blob is None:
            raise NotProvisionedError(f"origin {origin!r} not provisioned")
        self._oc._oecc22_load_device_rsa_key(blob)

    # -- licensing ----------------------------------------------------------------

    def get_key_request(self, session_id: bytes, init_data: bytes) -> bytes:
        """Build a signed license request for PSSH *init_data*."""
        session = self._session(session_id)
        with self.obs.span("cdm.key_request", origin=session.origin):
            return self._get_key_request(session, session_id, init_data)

    def _get_key_request(
        self, session: CdmSession, session_id: bytes, init_data: bytes
    ) -> bytes:
        self._load_rsa_key(session.origin)
        nonce = self._oc._oecc08_generate_nonce(session_id)
        request = LicenseRequest(
            session_id=session_id,
            device_id=self._oc._oecc13_get_device_id(),
            rsa_fingerprint=self._oc._oecc25_get_rsa_public_fingerprint(),
            pssh_data=init_data,
            nonce=nonce,
            cdm_version=self.cdm_version,
            security_level=self.security_level,
            device_model=self._device_model,
        )
        payload = request.signing_payload()
        request.signature = self._oc._oecc23_generate_rsa_signature(
            session_id, payload
        )
        session.pending_request_payload = payload
        return request.serialize()

    def provide_key_response(self, session_id: bytes, response: bytes) -> list[bytes]:
        """Load a license; returns the key IDs now usable for decrypt.

        The key-ladder phase: unwrap the session key under the device
        RSA key, verify the license MAC, then load the content keys —
        all inside one ``cdm.load_keys`` span so hooks and the trace
        agree on where ladder time goes.
        """
        session = self._session(session_id)
        with self.obs.span("cdm.load_keys", origin=session.origin) as span:
            try:
                parsed = LicenseResponse.parse(response)
            except ProtocolError as exc:
                raise CdmError(f"bad license response: {exc}") from exc
            if parsed.session_id != session_id:
                raise CdmError("license is for another session")
            if session.pending_request_payload is None:
                raise CdmError("no license request in flight for this session")
            if parsed.derivation_context != session.pending_request_payload:
                raise CdmError("license derivation context mismatch")
            self._load_rsa_key(session.origin)
            loaded = self._oc._oecc10_load_keys(session_id, response)
            session.loaded_key_ids = loaded
            session.pending_request_payload = None
            span.set(keys=len(loaded))
            return loaded

    # -- offline licenses ---------------------------------------------------------

    def store_offline_license(self, origin: str, license_bytes: bytes) -> bytes:
        """Persist a validated license for offline playback; returns the
        key-set id handed back to the app (MediaDrm's ``keySetId``)."""
        key_set_id = hashlib.sha256(license_bytes).digest()[:8]
        self._store[f"widevine/keyset/{origin}/{key_set_id.hex()}"] = license_bytes
        return key_set_id

    def restore_keys(self, session_id: bytes, key_set_id: bytes) -> list[bytes]:
        """Reload a persisted offline license into *session_id*.

        The license carries its own derivation context and session-key
        wrap, so the ladder replays without the original session: load
        the device RSA key, unwrap, verify the MAC, load the keys.
        """
        session = self._session(session_id)
        with self.obs.span("cdm.restore_keys", origin=session.origin):
            blob = self._store.get(
                f"widevine/keyset/{session.origin}/{key_set_id.hex()}"
            )
            if blob is None:
                raise CdmError(f"unknown key set {key_set_id.hex()}")
            self._load_rsa_key(session.origin)
            loaded = self._oc._oecc10_load_keys(session_id, blob)
            session.loaded_key_ids = loaded
            return loaded

    def remove_offline_license(self, origin: str, key_set_id: bytes) -> None:
        self._store.pop(f"widevine/keyset/{origin}/{key_set_id.hex()}", None)

    # -- content decryption -----------------------------------------------------------

    def decrypt(
        self,
        session_id: bytes,
        key_id: bytes,
        data: bytes,
        iv: bytes,
        subsamples: list[tuple[int, int]] | None = None,
        *,
        mode: str = "cenc",
    ) -> DecryptResult:
        self._session(session_id)
        if mode not in ("cenc", "cbcs"):
            raise CdmError(f"unsupported protection scheme {mode!r}")
        self._oc._oecc11_select_key(session_id, key_id)
        if mode == "cenc":
            return self._oc._oecc12_decrypt_ctr(session_id, data, iv, subsamples)
        return self._oc._oecc28_decrypt_cbcs(session_id, data, iv, subsamples)

    def resolve_secure_handle(self, handle: int, *, requester: str) -> bytes:
        return self._oc.resolve_secure_handle(handle, requester=requester)

    # -- generic (non-DASH) crypto ----------------------------------------------------

    def generic_encrypt(self, session_id: bytes, data: bytes, iv: bytes) -> bytes:
        self._session(session_id)
        return self._oc._oecc30_generic_encrypt(session_id, data, iv)

    def generic_decrypt(self, session_id: bytes, data: bytes, iv: bytes) -> bytes:
        self._session(session_id)
        return self._oc._oecc31_generic_decrypt(session_id, data, iv)

    def generic_sign(self, session_id: bytes, data: bytes) -> bytes:
        self._session(session_id)
        return self._oc._oecc32_generic_sign(session_id, data)

    def generic_verify(
        self, session_id: bytes, data: bytes, signature: bytes
    ) -> bool:
        self._session(session_id)
        return self._oc._oecc33_generic_verify(session_id, data, signature)
