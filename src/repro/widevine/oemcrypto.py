"""OEMCrypto: the low-level Widevine crypto engine.

This is the layer the paper instruments: "we intercept and note any
function called within the CDM process linked to the Widevine protocol
(namely ``_oecc`` functions)". Method names therefore follow the real
library's ``_oeccNN`` export convention, and the Frida analogue hooks
them by prefix.

The key ladder implemented here is the one §IV-D reverse-engineers:

    keybox device key
      ├─ CMAC-derived provisioning keys  → install device RSA key
      └─ CMAC-derived storage key        → persist device RSA key
    device RSA key
      ├─ RSASSA-PSS                      → sign license requests
      └─ RSAES-OAEP                      → receive the session key
    session key
      └─ CMAC KDF (context = request)    → MAC keys + key-wrapping key
    content keys (AES-CBC-wrapped in the license)
      └─ AES-CTR (CENC)                  → media decryption

L1 and L3 run the *same* ladder; they differ only in where secrets live
(:mod:`repro.widevine.storage`) and in whether decrypted output stays in
secure memory.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
from dataclasses import dataclass, field

from repro.bmff.boxes import SencEntry, SubsampleRange
from repro.bmff.cenc import decrypt_sample as cenc_decrypt_sample
from repro.bmff.cenc import CencSample, decrypt_sample_cbcs
from repro.crypto.kdf import SessionKeys, derive_key, derive_session_keys
from repro.crypto.modes import cbc_decrypt, cbc_encrypt
from repro.crypto.rng import derive_rng
from repro.crypto.rsa import RsaPrivateKey, oaep_decrypt, pss_sign
from repro.license_server.protocol import (
    KeyControl,
    LicenseResponse,
    ProtocolError,
    ProvisionResponse,
)
from repro.widevine.storage import SecretStore

__all__ = [
    "OemCrypto",
    "OemCryptoError",
    "InvalidSessionError",
    "NotProvisionedError",
    "SignatureFailureError",
    "KeyNotLoadedError",
    "InsufficientSecurityError",
    "KeysExpiredError",
    "DecryptResult",
    "LABEL_PROVISIONING",
    "LABEL_PROV_MAC",
    "LABEL_STORAGE",
]

LABEL_PROVISIONING = b"PROVISIONING"
LABEL_PROV_MAC = b"PROVMAC"
LABEL_STORAGE = b"STORAGE"

# Parsed device RSA keys one engine keeps (one per provisioned origin;
# the oldest is dropped first).
_LOADED_RSA_KEY_SLOTS = 16


class OemCryptoError(Exception):
    """Base for OEMCrypto failures."""


class InvalidSessionError(OemCryptoError):
    pass


class NotProvisionedError(OemCryptoError):
    """No device RSA key loaded — provisioning required first."""


class SignatureFailureError(OemCryptoError):
    pass


class KeyNotLoadedError(OemCryptoError):
    pass


class InsufficientSecurityError(OemCryptoError):
    """A key's control block demands a higher security level."""


class KeysExpiredError(OemCryptoError):
    """The license duration of the selected key has lapsed."""


@dataclass
class DecryptResult:
    """Output of a content decrypt call.

    On L3 the clear bytes come back into the caller's process (`data`);
    on L1 they stay in secure memory and only a `handle` is returned —
    which is why MovieStealer-style buffer theft fails there (§II-B).
    """

    secure: bool
    data: bytes | None = None
    handle: int | None = None


@dataclass
class _Session:
    session_id: bytes
    nonces: list[bytes] = field(default_factory=list)
    derived: SessionKeys | None = None
    # kid → (key, control, load timestamp)
    content_keys: dict[bytes, tuple[bytes, KeyControl, float]] = field(
        default_factory=dict
    )
    selected_key_id: bytes | None = None


class OemCrypto:
    """One OEMCrypto engine instance (one per device)."""

    def __init__(
        self,
        store: SecretStore,
        *,
        serial: str,
        cdm_version: str,
        clock=None,
    ):
        self._store = store
        self._serial = serial
        self._clock = clock  # duck-typed: anything with .now() -> float
        self.cdm_version = cdm_version
        self.security_level = store.security_level
        self._rng = derive_rng(f"oemcrypto/{serial}")
        self._sessions: dict[bytes, _Session] = {}
        self._rsa_key: RsaPrivateKey | None = None
        # (storage key, storage blob) -> parsed device key, so each
        # origin's blob is decrypted and parsed once, not per session.
        self._loaded_rsa_keys: dict[tuple[bytes, bytes], RsaPrivateKey] = {}
        self._secure_buffers: dict[int, bytes] = {}
        self._next_handle = 1
        self._next_session = 1
        self.call_count = 0

    # -- internals ------------------------------------------------------

    def _session(self, session_id: bytes) -> _Session:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise InvalidSessionError(
                f"unknown session {session_id.hex()}"
            ) from None

    def _derived(self, session_id: bytes) -> SessionKeys:
        session = self._session(session_id)
        if session.derived is None:
            raise OemCryptoError("session has no derived keys")
        return session.derived

    def _now(self) -> float:
        return self._clock.now() if self._clock is not None else 0.0

    # -- lifecycle --------------------------------------------------------

    def _oecc01_initialize(self) -> bool:
        """Engine init; verifies the keybox is present and well-formed."""
        self.call_count += 1
        self._store.keybox()  # raises if absent
        return True

    def _oecc02_terminate(self) -> None:
        self.call_count += 1
        self._sessions.clear()
        self._secure_buffers.clear()

    def _oecc05_open_session(self) -> bytes:
        self.call_count += 1
        session_id = self._next_session.to_bytes(4, "big")
        self._next_session += 1
        self._sessions[session_id] = _Session(session_id=session_id)
        return session_id

    def _oecc06_close_session(self, session_id: bytes) -> None:
        self.call_count += 1
        self._sessions.pop(session_id, None)

    # -- keybox-rooted derivations ---------------------------------------

    def _oecc07_generate_derived_keys(
        self, session_id: bytes, context: bytes
    ) -> None:
        """Derive session keys directly from the keybox device key
        (pre-provisioning path, used to authenticate provisioning)."""
        self.call_count += 1
        session = self._session(session_id)
        session.derived = derive_session_keys(self._store.device_key(), context)

    def _oecc08_generate_nonce(self, session_id: bytes) -> bytes:
        self.call_count += 1
        session = self._session(session_id)
        nonce = self._rng.generate(16)
        session.nonces.append(nonce)
        return nonce

    def _oecc09_generate_signature(self, session_id: bytes, message: bytes) -> bytes:
        """HMAC-SHA256 under the session's client MAC key."""
        self.call_count += 1
        keys = self._derived(session_id)
        return hmac_mod.new(keys.mac_client, message, hashlib.sha256).digest()

    def _oecc13_get_device_id(self) -> bytes:
        self.call_count += 1
        return self._store.keybox().device_id

    # -- provisioning ------------------------------------------------------

    def _oecc21_rewrap_device_rsa_key(
        self, session_id: bytes, response_bytes: bytes
    ) -> bytes:
        """Verify and unwrap a provisioning response, returning a
        storage blob the CDM persists (RSA key re-encrypted under the
        keybox-derived storage key)."""
        self.call_count += 1
        session = self._session(session_id)
        try:
            response = ProvisionResponse.parse(response_bytes)
        except ProtocolError as exc:
            raise OemCryptoError(f"bad provisioning response: {exc}") from exc

        device_key = self._store.device_key()
        keybox = self._store.keybox()
        if response.device_id != keybox.device_id:
            raise OemCryptoError("provisioning response for another device")
        mac_key = derive_key(device_key, LABEL_PROV_MAC, response.device_id, 256)
        expected = hmac_mod.new(
            mac_key, response.signing_payload(), hashlib.sha256
        ).digest()
        if not hmac_mod.compare_digest(expected, response.mac):
            raise SignatureFailureError("provisioning response MAC mismatch")

        if not session.nonces:
            raise OemCryptoError("no provisioning nonce outstanding")
        nonce = session.nonces[-1]
        prov_key = derive_key(device_key, LABEL_PROVISIONING, nonce, 128)
        try:
            rsa_blob = cbc_decrypt(prov_key, response.iv, response.wrapped_rsa_key)
        except ValueError as exc:
            raise OemCryptoError(f"cannot unwrap device RSA key: {exc}") from exc

        storage_key = derive_key(device_key, LABEL_STORAGE, keybox.device_id, 128)
        storage_iv = self._rng.generate(16)
        return b"WVST" + storage_iv + cbc_encrypt(storage_key, storage_iv, rsa_blob)

    def _oecc22_load_device_rsa_key(self, storage_blob: bytes) -> None:
        """Load the provisioned RSA key from its storage blob."""
        self.call_count += 1
        if storage_blob[:4] != b"WVST":
            raise OemCryptoError("bad RSA storage blob")
        storage_iv = storage_blob[4:20]
        keybox = self._store.keybox()
        storage_key = derive_key(
            self._store.device_key(), LABEL_STORAGE, keybox.device_id, 128
        )
        # Keyed on the storage key too, so a keybox change misses.
        # Failures raise before the insert and are never cached.
        loaded_key = (storage_key, bytes(storage_blob))
        rsa_key = self._loaded_rsa_keys.get(loaded_key)
        if rsa_key is None:
            try:
                rsa_blob = cbc_decrypt(storage_key, storage_iv, storage_blob[20:])
                rsa_key = RsaPrivateKey.import_secret(rsa_blob)
            except ValueError as exc:
                raise OemCryptoError(f"cannot load device RSA key: {exc}") from exc
            if len(self._loaded_rsa_keys) >= _LOADED_RSA_KEY_SLOTS:
                del self._loaded_rsa_keys[next(iter(self._loaded_rsa_keys))]
            self._loaded_rsa_keys[loaded_key] = rsa_key
        self._rsa_key = rsa_key

    def _oecc25_get_rsa_public_fingerprint(self) -> bytes:
        self.call_count += 1
        if self._rsa_key is None:
            raise NotProvisionedError("device RSA key not loaded")
        return self._rsa_key.public.fingerprint()

    def _oecc23_generate_rsa_signature(
        self, session_id: bytes, message: bytes
    ) -> bytes:
        """RSASSA-PSS over *message* with the device RSA key."""
        self.call_count += 1
        self._session(session_id)
        if self._rsa_key is None:
            raise NotProvisionedError("device RSA key not loaded")
        return pss_sign(self._rsa_key, message, rng=self._rng)

    def _oecc24_derive_keys_from_session_key(
        self, session_id: bytes, wrapped_session_key: bytes, context: bytes
    ) -> None:
        """Unwrap the session key (RSA-OAEP) and run the CMAC KDF."""
        self.call_count += 1
        session = self._session(session_id)
        if self._rsa_key is None:
            raise NotProvisionedError("device RSA key not loaded")
        try:
            session_key = oaep_decrypt(self._rsa_key, wrapped_session_key)
        except ValueError as exc:
            raise OemCryptoError(f"cannot unwrap session key: {exc}") from exc
        if len(session_key) != 16:
            raise OemCryptoError("session key has wrong length")
        session.derived = derive_session_keys(session_key, context)

    # -- license loading and content decryption ----------------------------

    def _oecc10_load_keys(self, session_id: bytes, license_bytes: bytes) -> list[bytes]:
        """Verify a license and load its content keys into the session.

        Returns the loaded key IDs.
        """
        self.call_count += 1
        session = self._session(session_id)
        try:
            license_msg = LicenseResponse.parse(license_bytes)
        except ProtocolError as exc:
            raise OemCryptoError(f"bad license: {exc}") from exc

        self._oecc24_derive_keys_from_session_key(
            session_id, license_msg.wrapped_session_key, license_msg.derivation_context
        )
        keys = self._derived(session_id)
        expected = hmac_mod.new(
            keys.mac_server, license_msg.signing_payload(), hashlib.sha256
        ).digest()
        if not hmac_mod.compare_digest(expected, license_msg.mac):
            raise SignatureFailureError("license MAC mismatch")

        loaded: list[bytes] = []
        for wrapped in license_msg.keys:
            try:
                content_key = cbc_decrypt(
                    keys.encryption, wrapped.iv, wrapped.wrapped_key
                )
            except ValueError as exc:
                raise OemCryptoError(f"cannot unwrap content key: {exc}") from exc
            if len(content_key) != 16:
                raise OemCryptoError("content key has wrong length")
            required = wrapped.control.require_security_level
            if required == "L1" and self.security_level != "L1":
                # Control block forbids loading this key at L3.
                continue
            session.content_keys[wrapped.key_id] = (
                content_key,
                wrapped.control,
                self._now(),
            )
            loaded.append(wrapped.key_id)
        return loaded

    def _oecc11_select_key(self, session_id: bytes, key_id: bytes) -> None:
        self.call_count += 1
        session = self._session(session_id)
        if key_id not in session.content_keys:
            raise KeyNotLoadedError(f"key {key_id.hex()} not loaded")
        session.selected_key_id = key_id

    def _usable_selected_key(self, session_id: bytes) -> bytes:
        """The selected content key, after control-block enforcement."""
        session = self._session(session_id)
        if session.selected_key_id is None:
            raise KeyNotLoadedError("no key selected")
        content_key, control, loaded_at = session.content_keys[
            session.selected_key_id
        ]
        if control.require_security_level == "L1" and self.security_level != "L1":
            raise InsufficientSecurityError("key requires L1")
        if (
            control.license_duration_s is not None
            and self._now() > loaded_at + control.license_duration_s
        ):
            raise KeysExpiredError(
                f"license expired "
                f"{self._now() - loaded_at - control.license_duration_s:.0f}s ago"
            )
        return content_key

    def _emit_clear(self, clear: bytes) -> DecryptResult:
        if self.security_level == "L1":
            handle = self._next_handle
            self._next_handle += 1
            self._secure_buffers[handle] = clear
            return DecryptResult(secure=True, handle=handle)
        return DecryptResult(secure=False, data=clear)

    def _oecc12_decrypt_ctr(
        self,
        session_id: bytes,
        data: bytes,
        iv: bytes,
        subsamples: list[tuple[int, int]] | None = None,
    ) -> DecryptResult:
        """CENC AES-CTR ('cenc') decrypt with the selected key."""
        self.call_count += 1
        content_key = self._usable_selected_key(session_id)
        entry = SencEntry(
            iv=iv,
            subsamples=[SubsampleRange(c, p) for c, p in (subsamples or [])],
        )
        clear = cenc_decrypt_sample(CencSample(data=data, entry=entry), content_key)
        return self._emit_clear(clear)

    def _oecc28_decrypt_cbcs(
        self,
        session_id: bytes,
        data: bytes,
        iv: bytes,
        subsamples: list[tuple[int, int]] | None = None,
        pattern: tuple[int, int] = (1, 9),
    ) -> DecryptResult:
        """CENC AES-CBC pattern ('cbcs') decrypt with the selected key."""
        self.call_count += 1
        content_key = self._usable_selected_key(session_id)
        entry = SencEntry(
            iv=iv,
            subsamples=[SubsampleRange(c, p) for c, p in (subsamples or [])],
        )
        clear = decrypt_sample_cbcs(
            CencSample(data=data, entry=entry), content_key, pattern=pattern
        )
        return self._emit_clear(clear)

    def resolve_secure_handle(self, handle: int, *, requester: str) -> bytes:
        """Secure-path buffer access, granted only to the secure decoder.

        Not an ``_oecc`` export: instrumentation hooking the OEMCrypto
        surface never sees these bytes, matching L1's protected output
        path.
        """
        if requester != "secure-decoder":
            raise PermissionError("secure buffers are only mapped to the decoder")
        try:
            return self._secure_buffers.pop(handle)
        except KeyError:
            raise OemCryptoError(f"unknown secure buffer {handle}") from None

    # -- generic (non-DASH) crypto API --------------------------------------

    def _oecc30_generic_encrypt(
        self, session_id: bytes, data: bytes, iv: bytes
    ) -> bytes:
        self.call_count += 1
        keys = self._derived(session_id)
        return cbc_encrypt(keys.generic_encryption, iv, data)

    def _oecc31_generic_decrypt(
        self, session_id: bytes, data: bytes, iv: bytes
    ) -> bytes:
        self.call_count += 1
        keys = self._derived(session_id)
        try:
            return cbc_decrypt(keys.generic_encryption, iv, data)
        except ValueError as exc:
            raise OemCryptoError(f"generic decrypt failed: {exc}") from exc

    def _oecc32_generic_sign(self, session_id: bytes, data: bytes) -> bytes:
        self.call_count += 1
        keys = self._derived(session_id)
        return hmac_mod.new(keys.generic_signing, data, hashlib.sha256).digest()

    def _oecc33_generic_verify(
        self, session_id: bytes, data: bytes, signature: bytes
    ) -> bool:
        self.call_count += 1
        keys = self._derived(session_id)
        expected = hmac_mod.new(keys.generic_signing, data, hashlib.sha256).digest()
        return hmac_mod.compare_digest(expected, signature)

    # -- introspection -------------------------------------------------------

    def oecc_function_names(self) -> list[str]:
        """All exported ``_oecc`` entry points (what a hooker enumerates)."""
        return sorted(
            name
            for name in dir(self)
            if name.startswith("_oecc") and callable(getattr(self, name))
        )
