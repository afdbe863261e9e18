"""Provisioning and license servers: grants, denials, revocation,
signature checks — exercised over real protocol bytes."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bmff.pssh import WidevinePsshData
from repro.crypto.kdf import derive_session_keys
from repro.crypto.rsa import generate_keypair, pss_sign
from repro.license_server.policy import RevocationPolicy
from repro.license_server.protocol import (
    LicenseRequest,
    LicenseResponse,
    ProvisionRequest,
    ProvisionResponse,
)
from repro.license_server.provisioning import (
    KeyboxAuthority,
    ProvisioningRecords,
    ProvisioningServer,
    device_rsa_key,
)
from repro.net.http import HttpRequest
from repro.widevine.keybox import issue_keybox
from repro.widevine.versions import CdmVersion

# Helper building a valid provisioning request the way the CDM does.
import hashlib
import hmac as hmac_mod


def _provision_request(keybox, *, cdm_version="15.0.0", level="L1", tamper=False):
    request = ProvisionRequest(
        device_id=keybox.device_id,
        nonce=bytes(16),
        cdm_version=cdm_version,
        security_level=level,
    )
    payload = request.signing_payload()
    derived = derive_session_keys(keybox.device_key, payload)
    request.mac = hmac_mod.new(derived.mac_client, payload, hashlib.sha256).digest()
    if tamper:
        request.mac = bytes(32)
    return request


def _post(server, path, body):
    return server.handle(
        HttpRequest("POST", f"https://{server.hostname}{path}", body=body)
    )


class TestProvisioningServer:
    @pytest.fixture
    def setup(self):
        authority = KeyboxAuthority()
        records = ProvisioningRecords()
        keybox = issue_keybox("PROV-T1")
        authority.register(keybox, security_level="L1")
        server = ProvisioningServer("prov.t.example", authority, records)
        return authority, records, keybox, server

    def test_happy_path(self, setup):
        __, records, keybox, server = setup
        response = _post(server, "/provision", _provision_request(keybox).serialize())
        assert response.ok
        parsed = ProvisionResponse.parse(response.body)
        assert parsed.device_id == keybox.device_id
        # The device public key is now on record.
        rsa = device_rsa_key(keybox.device_id)
        assert records.public_key(rsa.public.fingerprint()) is not None
        assert records.security_level(rsa.public.fingerprint()) == "L1"

    def test_unknown_device_rejected(self, setup):
        __, __, __, server = setup
        stranger = issue_keybox("UNREGISTERED", root_seed=b"other-root")
        response = _post(
            server, "/provision", _provision_request(stranger).serialize()
        )
        assert response.status == 403
        assert b"unknown device" in response.body

    def test_bad_mac_rejected(self, setup):
        __, __, keybox, server = setup
        response = _post(
            server, "/provision", _provision_request(keybox, tamper=True).serialize()
        )
        assert response.status == 403
        assert b"MAC mismatch" in response.body

    def test_malformed_body_rejected(self, setup):
        __, __, __, server = setup
        assert _post(server, "/provision", b"garbage").status == 400

    def test_revocation_enforced(self):
        authority = KeyboxAuthority()
        keybox = issue_keybox("PROV-REV")
        authority.register(keybox)
        server = ProvisioningServer(
            "prov.rev.example",
            authority,
            ProvisioningRecords(),
            revocation=RevocationPolicy(min_cdm_version=CdmVersion(14)),
        )
        denied = _post(
            server,
            "/provision",
            _provision_request(keybox, cdm_version="3.1.0", level="L3").serialize(),
        )
        assert denied.status == 403
        assert b"revoked" in denied.body
        granted = _post(
            server, "/provision", _provision_request(keybox).serialize()
        )
        assert granted.ok


class TestKeyboxAuthority:
    def test_lookup(self):
        authority = KeyboxAuthority()
        keybox = issue_keybox("AUTH-1")
        authority.register(keybox)
        assert authority.knows(keybox.device_id)
        assert authority.device_key_for(keybox.device_id) == keybox.device_key

    def test_unknown_lookup(self):
        with pytest.raises(LookupError, match="unknown device"):
            KeyboxAuthority().device_key_for(bytes(32))


class TestLicenseServer:
    """License issuance against a real packaged world (conftest)."""

    def _signed_request(self, world, *, level="L1", cdm_version="15.0.0",
                        kids=None, device_serial="LS-T1"):
        keybox = issue_keybox(device_serial)
        world.authority.register(keybox)
        rsa = device_rsa_key(keybox.device_id)
        world.records.record(rsa.public, level)
        pssh = WidevinePsshData(
            key_ids=kids if kids is not None else sorted(world.packaged.content_keys),
            provider="svc",
        )
        request = LicenseRequest(
            session_id=b"\x00\x00\x00\x09",
            device_id=keybox.device_id,
            rsa_fingerprint=rsa.public.fingerprint(),
            pssh_data=pssh.serialize(),
            nonce=bytes(16),
            cdm_version=cdm_version,
            security_level=level,
            device_model="Test Device",
        )
        request.signature = pss_sign(rsa, request.signing_payload())
        return request, rsa

    def test_l1_gets_all_keys(self, world):
        request, __ = self._signed_request(world)
        response = _post(world.license_server, "/license", request.serialize())
        assert response.ok
        parsed = LicenseResponse.parse(response.body)
        assert len(parsed.keys) == len(world.packaged.content_keys)

    def test_l3_denied_hd_keys(self, world):
        request, __ = self._signed_request(world, level="L3")
        response = _post(world.license_server, "/license", request.serialize())
        parsed = LicenseResponse.parse(response.body)
        granted = {k.key_id for k in parsed.keys}
        assert world.packaged.kid_by_rep["v1080"] not in granted
        assert world.packaged.kid_by_rep["v720"] not in granted
        assert world.packaged.kid_by_rep["v540"] in granted

    def test_unknown_certificate_rejected(self, world):
        request, __ = self._signed_request(world)
        request.rsa_fingerprint = bytes(32)
        request.signature = bytes(256)
        response = _post(world.license_server, "/license", request.serialize())
        assert response.status == 403
        assert b"unknown device certificate" in response.body

    def test_bad_signature_rejected(self, world):
        request, __ = self._signed_request(world)
        request.device_model = "Tampered"
        response = _post(world.license_server, "/license", request.serialize())
        assert response.status == 403
        assert b"bad request signature" in response.body
        assert world.license_server.denied_requests

    def test_no_grantable_keys(self, world):
        request, __ = self._signed_request(world, kids=[bytes(16)])
        response = _post(world.license_server, "/license", request.serialize())
        assert response.status == 403
        assert b"no grantable keys" in response.body

    def test_session_record_kept(self, world):
        request, __ = self._signed_request(world)
        _post(world.license_server, "/license", request.serialize())
        record = world.license_server.sessions[b"\x00\x00\x00\x09"]
        assert record.derived.generic_encryption

    def test_response_mac_verifies(self, world):
        from repro.crypto.rsa import oaep_decrypt

        request, rsa = self._signed_request(world)
        response = _post(world.license_server, "/license", request.serialize())
        parsed = LicenseResponse.parse(response.body)
        session_key = oaep_decrypt(rsa, parsed.wrapped_session_key)
        derived = derive_session_keys(session_key, parsed.derivation_context)
        expected = hmac_mod.new(
            derived.mac_server, parsed.signing_payload(), hashlib.sha256
        ).digest()
        assert expected == parsed.mac

    def test_revoked_cdm_denied(self):
        from tests.conftest import ServiceWorld

        world = ServiceWorld(
            revocation=RevocationPolicy(min_cdm_version=CdmVersion(14)),
            service="revsvc",
        )
        request, __ = self._signed_request(
            world, level="L3", cdm_version="3.1.0", device_serial="LS-REV"
        )
        response = _post(world.license_server, "/license", request.serialize())
        assert response.status == 403
        assert b"revoked" in response.body

    def test_register_key_conflict_detected(self, world):
        from repro.license_server.server import RegisteredKey

        kid = next(iter(world.packaged.content_keys))
        with pytest.raises(ValueError, match="conflicting key material"):
            # Re-register the same packaged title with a different key.
            packaged = world.packaged
            original = packaged.content_keys[kid]
            packaged.content_keys[kid] = bytes(16) if original != bytes(16) else bytes([1]) * 16
            try:
                world.license_server.register_packaged_title(packaged, world.title)
            finally:
                packaged.content_keys[kid] = original


# --- thread safety of the shared keybox registry ------------------------------


def test_keybox_authority_concurrent_provisioning():
    """Concurrent registration + lookup across 64 distinct devices, plus
    re-registration of the same serial (a DeviceSession boots the
    study's serials again), never loses or mixes up an entry."""
    authority = KeyboxAuthority()
    serials = [f"DEV-{i:03d}" for i in range(64)]
    keyboxes = {serial: issue_keybox(serial) for serial in serials}

    def provision(serial: str) -> bytes:
        keybox = keyboxes[serial]
        level = "L1" if int(serial[4:]) % 2 == 0 else "L3"
        authority.register(keybox, security_level=level)
        # Re-register, as a second session booting the same serial would.
        authority.register(keybox, security_level=level)
        assert authority.knows(keybox.device_id)
        return authority.device_key_for(keybox.device_id)

    with ThreadPoolExecutor(max_workers=16) as pool:
        device_keys = list(pool.map(provision, serials))

    for serial, device_key in zip(serials, device_keys):
        keybox = keyboxes[serial]
        assert device_key == keybox.device_key
        expected_level = "L1" if int(serial[4:]) % 2 == 0 else "L3"
        assert authority.attested_level_for(keybox.device_id) == expected_level


def test_keybox_authority_unknown_device_still_raises():
    authority = KeyboxAuthority()
    with pytest.raises(LookupError):
        authority.device_key_for(bytes(32))
    with pytest.raises(LookupError):
        authority.attested_level_for(bytes(32))
