"""The embedded (Amazon-style) DRM scheme, unit-level."""

import json

import pytest

from repro.bmff.cenc import encrypt_sample
from repro.ott.custom_drm import (
    EmbeddedCdm,
    EmbeddedDrmError,
    build_embedded_license,
    embedded_app_secret,
    parse_embedded_license_request,
)

_KID = bytes([5]) * 16
_KEY = bytes([6]) * 16


class TestSecrets:
    def test_per_service_secret(self):
        assert embedded_app_secret("svc-a") != embedded_app_secret("svc-b")

    def test_deterministic(self):
        assert embedded_app_secret("svc") == embedded_app_secret("svc")


class TestRequestPath:
    def test_request_round_trip(self):
        cdm = EmbeddedCdm("svc")
        request = cdm.build_key_request("tt01")
        assert parse_embedded_license_request("svc", request) == "tt01"

    def test_wrong_service_rejected(self):
        request = EmbeddedCdm("svc").build_key_request("tt01")
        with pytest.raises(ValueError, match="MAC mismatch"):
            parse_embedded_license_request("other", request)

    def test_tampered_title_rejected(self):
        request = json.loads(EmbeddedCdm("svc").build_key_request("tt01"))
        request["payload"] = request["payload"].replace("tt01", "tt99")
        with pytest.raises(ValueError, match="MAC mismatch"):
            parse_embedded_license_request("svc", json.dumps(request).encode())

    def test_wrong_type_rejected(self):
        payload = json.dumps({"type": "nope", "title": "x"})
        blob = json.dumps({"payload": payload, "mac": "00" * 32}).encode()
        with pytest.raises(ValueError, match="not an embedded"):
            parse_embedded_license_request("svc", blob)

    @pytest.mark.parametrize(
        "body",
        [b'{"payload": 5, "mac": "x"}', b"[1]", b"[" * 100_000],
        ids=["payload-not-a-string", "not-an-object", "nested-too-deeply"],
    )
    def test_type_confused_request_is_a_value_error(self, body):
        with pytest.raises(ValueError):
            parse_embedded_license_request("svc", body)


class TestLicensePath:
    def test_license_round_trip(self):
        license_bytes = build_embedded_license(
            "svc", {_KID: _KEY}, nonce=bytes(16)
        )
        cdm = EmbeddedCdm("svc")
        assert cdm.load_keys(license_bytes) == [_KID]
        sample = encrypt_sample(b"M" * 48, _KEY, bytes(8))
        assert cdm.decrypt(_KID, sample.data, sample.entry.iv, []) == b"M" * 48

    def test_wrong_service_garbles_keys(self):
        license_bytes = build_embedded_license(
            "svc", {_KID: _KEY}, nonce=bytes(16)
        )
        other = EmbeddedCdm("other")
        # CBC-unpad may or may not fail; either way the key is wrong.
        try:
            other.load_keys(license_bytes)
        except ValueError:
            return
        sample = encrypt_sample(b"M" * 48, _KEY, bytes(8))
        assert other.decrypt(_KID, sample.data, sample.entry.iv, []) != b"M" * 48

    def test_type_confused_license_is_a_declared_error(self):
        with pytest.raises(EmbeddedDrmError, match="'keys'"):
            EmbeddedCdm("svc").load_keys(b'{"nonce": "00", "keys": 5}')

    def test_decrypt_unloaded_key(self):
        with pytest.raises(KeyError, match="not loaded"):
            EmbeddedCdm("svc").decrypt(_KID, bytes(16), bytes(8), [])

    def test_nonce_separates_wrapping(self):
        a = build_embedded_license("svc", {_KID: _KEY}, nonce=bytes(16))
        b = build_embedded_license("svc", {_KID: _KEY}, nonce=bytes([1]) * 16)
        assert a != b
        for blob in (a, b):
            cdm = EmbeddedCdm("svc")
            assert cdm.load_keys(blob) == [_KID]


class TestSecureChannelTrace:
    def test_netflix_flow_has_bootstrap_license(self, full_study):
        """Netflix's secure channel adds a whole license exchange
        *before* the content license — visibly different from the
        canonical Figure 1 flow."""
        from repro.ott.app import OttApp
        from repro.ott.registry import profile_by_name

        profile = profile_by_name("Netflix")
        device = full_study.l1_device
        app = OttApp(profile, device, full_study.backends[profile.service])
        app.play()
        device.trace.clear()
        assert app.play().ok
        labels = [label for __, __, label in device.trace.labels()]
        # Two "Get License" arrows: the channel bootstrap + the content.
        assert labels.count("Get License") == 2
        assert labels.count("License") == 2
        # The bootstrap happens before the CDN is ever contacted.
        assert labels.index("Get License") < labels.index("Get Media")
