"""OEMCrypto engine: sessions, the key ladder, decryption, generic API."""

import hashlib
import hmac as hmac_mod

import pytest

from repro.android.process import Process
from repro.bmff.cenc import encrypt_sample
from repro.crypto.kdf import derive_key, derive_session_keys
from repro.crypto.modes import cbc_encrypt
from repro.crypto.rng import derive_rng
from repro.crypto.rsa import generate_keypair, oaep_encrypt, pss_verify
from repro.license_server.protocol import (
    KeyControl,
    LicenseResponse,
    ProvisionResponse,
    WrappedKey,
)
from repro.widevine.keybox import issue_keybox
from repro.widevine.oemcrypto import (
    LABEL_PROV_MAC,
    LABEL_PROVISIONING,
    InsufficientSecurityError,
    InvalidSessionError,
    KeyNotLoadedError,
    NotProvisionedError,
    OemCrypto,
    OemCryptoError,
    SignatureFailureError,
)
from repro.widevine.storage import InProcessSecretStore, TeeSecretStore


def _engine(level="L3", serial="OC-T1") -> OemCrypto:
    if level == "L3":
        store = InProcessSecretStore(Process("mediadrmserver"))
    else:
        store = TeeSecretStore()
    store.install_keybox(issue_keybox(serial))
    oc = OemCrypto(store, serial=serial, cdm_version="15.0.0")
    oc._oecc01_initialize()
    return oc


def _rsa_for(serial="OC-T1"):
    return generate_keypair(1024, label=f"oemcrypto-test/{serial}")


def _provisioned_engine(level="L3", serial="OC-T1"):
    """Run the full provisioning path through the public API."""
    oc = _engine(level, serial)
    rsa = _rsa_for(serial)
    oc._oecc22_load_device_rsa_key(_storage_blob(oc, serial, rsa))
    return oc, rsa


def _storage_blob(oc, serial, rsa) -> bytes:
    """Provision *rsa* onto engine *oc*; returns the CDM's storage blob."""
    session = oc._oecc05_open_session()
    nonce = oc._oecc08_generate_nonce(session)
    keybox = issue_keybox(serial)
    prov_key = derive_key(keybox.device_key, LABEL_PROVISIONING, nonce, 128)
    iv = bytes(16)
    response = ProvisionResponse(
        device_id=keybox.device_id,
        iv=iv,
        wrapped_rsa_key=cbc_encrypt(prov_key, iv, rsa.export_secret()),
    )
    mac_key = derive_key(keybox.device_key, LABEL_PROV_MAC, keybox.device_id, 256)
    response.mac = hmac_mod.new(
        mac_key, response.signing_payload(), hashlib.sha256
    ).digest()
    blob = oc._oecc21_rewrap_device_rsa_key(session, response.serialize())
    oc._oecc06_close_session(session)
    return blob


class TestSessions:
    def test_open_close(self):
        oc = _engine()
        session = oc._oecc05_open_session()
        oc._oecc06_close_session(session)
        with pytest.raises(InvalidSessionError):
            oc._oecc08_generate_nonce(session)

    def test_session_ids_unique(self):
        oc = _engine()
        assert oc._oecc05_open_session() != oc._oecc05_open_session()

    def test_close_unknown_session_is_noop(self):
        _engine()._oecc06_close_session(b"\xff\xff\xff\xff")

    def test_terminate_clears_sessions(self):
        oc = _engine()
        session = oc._oecc05_open_session()
        oc._oecc02_terminate()
        with pytest.raises(InvalidSessionError):
            oc._oecc08_generate_nonce(session)

    def test_device_id_matches_keybox(self):
        oc = _engine(serial="OC-ID")
        assert oc._oecc13_get_device_id() == issue_keybox("OC-ID").device_id


class TestKeyboxDerivation:
    def test_derived_signature_matches_kdf(self):
        oc = _engine(serial="OC-D1")
        session = oc._oecc05_open_session()
        oc._oecc07_generate_derived_keys(session, b"context")
        signature = oc._oecc09_generate_signature(session, b"message")
        keybox = issue_keybox("OC-D1")
        derived = derive_session_keys(keybox.device_key, b"context")
        expected = hmac_mod.new(derived.mac_client, b"message", hashlib.sha256)
        assert signature == expected.digest()

    def test_signature_requires_derived_keys(self):
        oc = _engine()
        session = oc._oecc05_open_session()
        with pytest.raises(OemCryptoError, match="no derived keys"):
            oc._oecc09_generate_signature(session, b"message")

    def test_nonces_unique_and_recorded(self):
        oc = _engine()
        session = oc._oecc05_open_session()
        nonces = {oc._oecc08_generate_nonce(session) for _ in range(5)}
        assert len(nonces) == 5


class TestProvisioning:
    def test_full_path_loads_rsa(self):
        oc, rsa = _provisioned_engine(serial="OC-P1")
        assert oc._oecc25_get_rsa_public_fingerprint() == rsa.public.fingerprint()

    def test_rsa_signature_after_provisioning(self):
        oc, rsa = _provisioned_engine(serial="OC-P2")
        session = oc._oecc05_open_session()
        signature = oc._oecc23_generate_rsa_signature(session, b"payload")
        assert pss_verify(rsa.public, b"payload", signature)

    def test_unprovisioned_operations_raise(self):
        oc = _engine()
        session = oc._oecc05_open_session()
        with pytest.raises(NotProvisionedError):
            oc._oecc25_get_rsa_public_fingerprint()
        with pytest.raises(NotProvisionedError):
            oc._oecc23_generate_rsa_signature(session, b"m")

    def test_rewrap_rejects_wrong_device(self):
        oc = _engine(serial="OC-P3")
        session = oc._oecc05_open_session()
        oc._oecc08_generate_nonce(session)
        response = ProvisionResponse(
            device_id=bytes(32), iv=bytes(16), wrapped_rsa_key=bytes(32),
            mac=bytes(32),
        )
        with pytest.raises(OemCryptoError, match="another device"):
            oc._oecc21_rewrap_device_rsa_key(session, response.serialize())

    def test_rewrap_rejects_bad_mac(self):
        oc = _engine(serial="OC-P4")
        session = oc._oecc05_open_session()
        oc._oecc08_generate_nonce(session)
        keybox = issue_keybox("OC-P4")
        response = ProvisionResponse(
            device_id=keybox.device_id,
            iv=bytes(16),
            wrapped_rsa_key=bytes(32),
            mac=bytes(32),
        )
        with pytest.raises(SignatureFailureError, match="MAC mismatch"):
            oc._oecc21_rewrap_device_rsa_key(session, response.serialize())

    def test_rewrap_requires_nonce(self):
        oc = _engine(serial="OC-P5")
        session = oc._oecc05_open_session()
        keybox = issue_keybox("OC-P5")
        response = ProvisionResponse(
            device_id=keybox.device_id, iv=bytes(16), wrapped_rsa_key=bytes(32)
        )
        mac_key = derive_key(
            keybox.device_key, LABEL_PROV_MAC, keybox.device_id, 256
        )
        response.mac = hmac_mod.new(
            mac_key, response.signing_payload(), hashlib.sha256
        ).digest()
        with pytest.raises(OemCryptoError, match="nonce"):
            oc._oecc21_rewrap_device_rsa_key(session, response.serialize())

    def test_load_rejects_garbage_blob(self):
        oc = _engine()
        with pytest.raises(OemCryptoError, match="bad RSA storage blob"):
            oc._oecc22_load_device_rsa_key(b"nonsense")


class TestDeviceKeyLoading:
    def test_reloading_the_same_blob_reuses_the_key(self):
        oc = _engine(serial="OC-K1")
        rsa = _rsa_for("OC-K1")
        blob = _storage_blob(oc, "OC-K1", rsa)
        oc._oecc22_load_device_rsa_key(blob)
        first = oc._rsa_key
        oc._oecc22_load_device_rsa_key(bytes(blob))
        assert oc._rsa_key is first
        assert first == rsa
        session = oc._oecc05_open_session()
        signature = oc._oecc23_generate_rsa_signature(session, b"payload")
        assert pss_verify(rsa.public, b"payload", signature)

    def test_every_load_counts_as_a_call(self):
        oc = _engine(serial="OC-K2")
        blob = _storage_blob(oc, "OC-K2", _rsa_for("OC-K2"))
        for _ in range(3):
            before = oc.call_count
            oc._oecc22_load_device_rsa_key(blob)
            assert oc.call_count == before + 1
        before = oc.call_count
        with pytest.raises(OemCryptoError):
            oc._oecc22_load_device_rsa_key(b"nonsense")
        assert oc.call_count == before + 1

    @pytest.mark.parametrize("position", [30, 400, -1])
    def test_tampered_blob_fails_every_time(self, position):
        oc = _engine(serial="OC-K3")
        rsa = _rsa_for("OC-K3")
        blob = _storage_blob(oc, "OC-K3", rsa)
        tampered = bytearray(blob)
        tampered[position] ^= 0x01
        for _ in range(3):
            with pytest.raises(OemCryptoError, match="cannot load"):
                oc._oecc22_load_device_rsa_key(bytes(tampered))
        assert oc._rsa_key is None
        oc._oecc22_load_device_rsa_key(blob)
        assert oc._oecc25_get_rsa_public_fingerprint() == rsa.public.fingerprint()

    def test_two_origins_sign_under_the_last_loaded_key(self):
        oc = _engine(serial="OC-K4")
        rsa_a = generate_keypair(1024, label="oemcrypto-test/OC-K4/a")
        rsa_b = generate_keypair(1024, label="oemcrypto-test/OC-K4/b")
        blob_a = _storage_blob(oc, "OC-K4", rsa_a)
        blob_b = _storage_blob(oc, "OC-K4", rsa_b)
        session = oc._oecc05_open_session()
        for blob, rsa, other in [
            (blob_a, rsa_a, rsa_b),
            (blob_b, rsa_b, rsa_a),
            (blob_a, rsa_a, rsa_b),
            (blob_b, rsa_b, rsa_a),
        ]:
            oc._oecc22_load_device_rsa_key(blob)
            signature = oc._oecc23_generate_rsa_signature(session, b"request")
            assert pss_verify(rsa.public, b"request", signature)
            assert not pss_verify(other.public, b"request", signature)

    def test_keybox_change_does_not_return_the_cached_key(self):
        oc = _engine(serial="OC-K5")
        blob = _storage_blob(oc, "OC-K5", _rsa_for("OC-K5"))
        oc._oecc22_load_device_rsa_key(blob)
        oc._store.install_keybox(issue_keybox("OC-K5-replacement"))
        with pytest.raises(OemCryptoError, match="cannot load"):
            oc._oecc22_load_device_rsa_key(blob)


def _license_for(oc, rsa, session, keys, *, tamper_mac=False):
    """Build a license the way the license server does."""
    session_key = derive_rng("oc-test-session-key").generate(16)
    context = b"license-request-context"
    derived = derive_session_keys(session_key, context)
    wrapped = []
    for kid, (key, control) in keys.items():
        iv = bytes(16)
        wrapped.append(
            WrappedKey(
                key_id=kid,
                iv=iv,
                wrapped_key=cbc_encrypt(derived.encryption, iv, key),
                control=control,
            )
        )
    response = LicenseResponse(
        session_id=session,
        wrapped_session_key=oaep_encrypt(rsa.public, session_key),
        derivation_context=context,
        keys=wrapped,
    )
    response.mac = (
        bytes(32)
        if tamper_mac
        else hmac_mod.new(
            derived.mac_server, response.signing_payload(), hashlib.sha256
        ).digest()
    )
    return response.serialize()


class TestLicenseLoading:
    _KID = bytes([7]) * 16
    _KEY = bytes([9]) * 16

    def test_load_and_decrypt(self):
        oc, rsa = _provisioned_engine(serial="OC-L1")
        session = oc._oecc05_open_session()
        license_bytes = _license_for(
            oc, rsa, session, {self._KID: (self._KEY, KeyControl())}
        )
        loaded = oc._oecc10_load_keys(session, license_bytes)
        assert loaded == [self._KID]
        sample = encrypt_sample(b"A" * 64, self._KEY, bytes(8))
        oc._oecc11_select_key(session, self._KID)
        result = oc._oecc12_decrypt_ctr(session, sample.data, sample.entry.iv, [])
        assert result.data == b"A" * 64
        assert not result.secure

    def test_load_rejects_bad_mac(self):
        oc, rsa = _provisioned_engine(serial="OC-L2")
        session = oc._oecc05_open_session()
        license_bytes = _license_for(
            oc, rsa, session, {self._KID: (self._KEY, KeyControl())}, tamper_mac=True
        )
        with pytest.raises(SignatureFailureError, match="license MAC"):
            oc._oecc10_load_keys(session, license_bytes)

    def test_l3_skips_l1_only_keys(self):
        oc, rsa = _provisioned_engine(level="L3", serial="OC-L3")
        session = oc._oecc05_open_session()
        hd_kid = bytes([1]) * 16
        license_bytes = _license_for(
            oc,
            rsa,
            session,
            {
                self._KID: (self._KEY, KeyControl()),
                hd_kid: (bytes(16), KeyControl(require_security_level="L1")),
            },
        )
        loaded = oc._oecc10_load_keys(session, license_bytes)
        assert self._KID in loaded
        assert hd_kid not in loaded

    def test_l1_loads_l1_only_keys(self):
        oc, rsa = _provisioned_engine(level="L1", serial="OC-L4")
        session = oc._oecc05_open_session()
        hd_kid = bytes([1]) * 16
        license_bytes = _license_for(
            oc,
            rsa,
            session,
            {hd_kid: (bytes(16), KeyControl(require_security_level="L1"))},
        )
        assert oc._oecc10_load_keys(session, license_bytes) == [hd_kid]

    def test_select_unloaded_key_rejected(self):
        oc = _engine()
        session = oc._oecc05_open_session()
        with pytest.raises(KeyNotLoadedError):
            oc._oecc11_select_key(session, bytes(16))

    def test_decrypt_without_selection_rejected(self):
        oc = _engine()
        session = oc._oecc05_open_session()
        with pytest.raises(KeyNotLoadedError, match="no key selected"):
            oc._oecc12_decrypt_ctr(session, bytes(16), bytes(8), [])

    def test_l1_decrypt_returns_secure_handle(self):
        oc, rsa = _provisioned_engine(level="L1", serial="OC-L5")
        session = oc._oecc05_open_session()
        license_bytes = _license_for(
            oc, rsa, session, {self._KID: (self._KEY, KeyControl())}
        )
        oc._oecc10_load_keys(session, license_bytes)
        oc._oecc11_select_key(session, self._KID)
        sample = encrypt_sample(b"B" * 32, self._KEY, bytes(8))
        result = oc._oecc12_decrypt_ctr(session, sample.data, sample.entry.iv, [])
        assert result.secure
        assert result.data is None
        clear = oc.resolve_secure_handle(result.handle, requester="secure-decoder")
        assert clear == b"B" * 32

    def test_secure_handle_denied_to_others(self):
        oc, rsa = _provisioned_engine(level="L1", serial="OC-L6")
        session = oc._oecc05_open_session()
        license_bytes = _license_for(
            oc, rsa, session, {self._KID: (self._KEY, KeyControl())}
        )
        oc._oecc10_load_keys(session, license_bytes)
        oc._oecc11_select_key(session, self._KID)
        sample = encrypt_sample(b"C" * 32, self._KEY, bytes(8))
        result = oc._oecc12_decrypt_ctr(session, sample.data, sample.entry.iv, [])
        with pytest.raises(PermissionError):
            oc.resolve_secure_handle(result.handle, requester="frida")

    def test_secure_handle_single_use(self):
        oc, rsa = _provisioned_engine(level="L1", serial="OC-L7")
        session = oc._oecc05_open_session()
        license_bytes = _license_for(
            oc, rsa, session, {self._KID: (self._KEY, KeyControl())}
        )
        oc._oecc10_load_keys(session, license_bytes)
        oc._oecc11_select_key(session, self._KID)
        sample = encrypt_sample(b"D" * 32, self._KEY, bytes(8))
        result = oc._oecc12_decrypt_ctr(session, sample.data, sample.entry.iv, [])
        oc.resolve_secure_handle(result.handle, requester="secure-decoder")
        with pytest.raises(OemCryptoError, match="unknown secure buffer"):
            oc.resolve_secure_handle(result.handle, requester="secure-decoder")


class TestGenericCrypto:
    def _session_with_keys(self):
        oc = _engine(serial="OC-G1")
        session = oc._oecc05_open_session()
        oc._oecc07_generate_derived_keys(session, b"generic-context")
        return oc, session

    def test_encrypt_decrypt_round_trip(self):
        oc, session = self._session_with_keys()
        iv = bytes(16)
        ct = oc._oecc30_generic_encrypt(session, b"secret uris", iv)
        assert ct != b"secret uris"
        assert oc._oecc31_generic_decrypt(session, ct, iv) == b"secret uris"

    def test_sign_verify_round_trip(self):
        oc, session = self._session_with_keys()
        signature = oc._oecc32_generic_sign(session, b"data")
        assert oc._oecc33_generic_verify(session, b"data", signature)
        assert not oc._oecc33_generic_verify(session, b"other", signature)

    def test_decrypt_garbage_raises(self):
        oc, session = self._session_with_keys()
        with pytest.raises(OemCryptoError, match="generic decrypt failed"):
            oc._oecc31_generic_decrypt(session, bytes(16), bytes(16))


class TestIntrospection:
    def test_oecc_function_names(self):
        names = _engine().oecc_function_names()
        assert "_oecc05_open_session" in names
        assert "_oecc12_decrypt_ctr" in names
        assert all(n.startswith("_oecc") for n in names)

    def test_call_count_increments(self):
        oc = _engine()
        before = oc.call_count
        oc._oecc05_open_session()
        assert oc.call_count == before + 1

    def test_initialize_requires_keybox(self):
        store = TeeSecretStore()
        oc = OemCrypto(store, serial="X", cdm_version="15.0.0")
        with pytest.raises(RuntimeError, match="no keybox"):
            oc._oecc01_initialize()
