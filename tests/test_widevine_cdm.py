"""CDM behaviour through the full client/server protocol, plus the
Android MediaDrm/MediaCrypto/MediaCodec layer above it."""

import pytest

from repro.android.mediacodec import CodecException, CryptoInfo, MediaCodec
from repro.android.mediacrypto import MediaCrypto, MediaCryptoException
from repro.android.mediadrm import (
    MediaDrm,
    MediaDrmException,
    NotProvisionedException,
    UnsupportedSchemeException,
)
from repro.bmff.builder import read_pssh_boxes, read_samples, read_track_info
from repro.bmff.pssh import PLAYREADY_SYSTEM_ID, WIDEVINE_SYSTEM_ID
from repro.net.http import parse_url


def _provision(drm, device, world, origin="com.test.app"):
    client = device.new_http_client()
    request = drm.get_provision_request()
    response = client.post(
        f"https://{world.provisioning.hostname}/provision", request.data
    )
    assert response.ok, response.body
    drm.provide_provision_response(response.body)


def _license(drm, device, world, session_id, init_data):
    client = device.new_http_client()
    request = drm.get_key_request(session_id, init_data)
    response = client.post(
        f"https://{world.license_server.hostname}/license", request.data
    )
    assert response.ok, response.body
    return drm.provide_key_response(session_id, response.body)


def _fetch(device, world, url):
    return device.new_http_client().get(url).body


class TestMediaDrmBasics:
    def test_unsupported_scheme(self, world):
        device = world.l1_device()
        with pytest.raises(UnsupportedSchemeException):
            MediaDrm(PLAYREADY_SYSTEM_ID, device)

    def test_is_crypto_scheme_supported(self, world):
        device = world.l1_device()
        assert MediaDrm.is_crypto_scheme_supported(WIDEVINE_SYSTEM_ID, device)
        assert not MediaDrm.is_crypto_scheme_supported(PLAYREADY_SYSTEM_ID, device)

    def test_properties(self, world):
        device = world.l1_device()
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device)
        assert drm.get_property_string("vendor") == "Google"
        assert drm.get_property_string("securityLevel") == "L1"
        assert drm.get_property_string("version") == "15.0.0"
        with pytest.raises(MediaDrmException, match="unknown property"):
            drm.get_property_string("nope")

    def test_l3_security_level(self, world):
        device = world.l3_device()
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device)
        assert drm.get_property_string("securityLevel") == "L3"

    def test_session_lifecycle(self, world):
        device = world.l1_device()
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device)
        session = drm.open_session()
        drm.close_session(session)
        with pytest.raises(MediaDrmException, match="not open"):
            drm.get_key_request(session, b"init")

    def test_close_ends_every_session_and_pending_provisioning(self, world):
        device = world.l1_device()
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device, origin="com.close.app")
        sessions = [drm.open_session(), drm.open_session()]
        drm.get_provision_request()
        oemcrypto = device.widevine_plugin.oemcrypto
        assert len(oemcrypto._sessions) == 3
        drm.close()
        assert oemcrypto._sessions == {}
        assert drm._cdm._sessions == {}
        assert drm._cdm._pending_provisioning == {}
        with pytest.raises(MediaDrmException, match="not open"):
            drm.get_key_request(sessions[0], b"init")

    def test_key_request_requires_provisioning(self, world):
        device = world.l1_device()
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device, origin="com.fresh.app")
        session = drm.open_session()
        with pytest.raises(NotProvisionedException):
            drm.get_key_request(session, b"init-data")


class TestProvisioningFlow:
    def test_provisioning_is_per_origin(self, world):
        device = world.l1_device()
        drm_a = MediaDrm(WIDEVINE_SYSTEM_ID, device, origin="com.app.a")
        _provision(drm_a, device, world, origin="com.app.a")
        assert drm_a._cdm.is_provisioned("com.app.a")
        assert not drm_a._cdm.is_provisioned("com.app.b")

    def test_new_provisioning_request_supersedes_the_pending_one(self, world):
        """A refused request's session is closed by the next request for
        the same origin; the next response provisions the device."""
        device = world.l1_device()
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device, origin="com.app.retry")
        drm.get_provision_request()
        assert len(device.widevine_plugin.oemcrypto._sessions) == 1
        _provision(drm, device, world)
        assert device.widevine_plugin.oemcrypto._sessions == {}
        assert drm._cdm.is_provisioned("com.app.retry")

    def test_provision_response_without_request_rejected(self, world):
        device = world.l1_device()
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device, origin="com.app.x")
        from repro.android.mediadrm import DeniedByServerException

        with pytest.raises(DeniedByServerException):
            drm.provide_provision_response(b"whatever")

    def test_provisioning_survives_for_new_mediadrm_instance(self, world):
        device = world.l1_device()
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device, origin="com.app.p")
        _provision(drm, device, world)
        # New instance, same origin: no NotProvisionedException.
        drm2 = MediaDrm(WIDEVINE_SYSTEM_ID, device, origin="com.app.p")
        session = drm2.open_session()
        init_url, _ = world.packaged.asset_urls["v540"]
        init = _fetch(device, world, init_url)
        (pssh,) = read_pssh_boxes(init)
        request = drm2.get_key_request(session, pssh.data)
        assert request.data


class TestLicenseFlow:
    def _playable_session(self, world, device, origin="com.test.app"):
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device, origin=origin)
        _provision(drm, device, world, origin)
        session = drm.open_session()
        init_url, seg_urls = world.packaged.asset_urls["v540"]
        init = _fetch(device, world, init_url)
        (pssh,) = read_pssh_boxes(init)
        loaded = _license(drm, device, world, session, pssh.data)
        return drm, session, init, seg_urls, loaded

    def test_license_loads_keys(self, world):
        device = world.l1_device()
        __, __, init, __, loaded = self._playable_session(world, device)
        info = read_track_info(init)
        assert info.default_kid in loaded

    def test_wrong_session_response_rejected(self, world):
        device = world.l1_device()
        drm, session, init, __, __ = self._playable_session(world, device)
        other = drm.open_session()
        init_url, _ = world.packaged.asset_urls["v540"]
        (pssh,) = read_pssh_boxes(init)
        request = drm.get_key_request(other, pssh.data)
        client = device.new_http_client()
        response = client.post(
            f"https://{world.license_server.hostname}/license", request.data
        )
        with pytest.raises(MediaDrmException, match="another session"):
            drm.provide_key_response(session, response.body)

    def test_replayed_response_rejected(self, world):
        device = world.l1_device()
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device, origin="com.test.app")
        _provision(drm, device, world)
        session = drm.open_session()
        init_url, _ = world.packaged.asset_urls["v540"]
        (pssh,) = read_pssh_boxes(_fetch(device, world, init_url))
        request = drm.get_key_request(session, pssh.data)
        response = device.new_http_client().post(
            f"https://{world.license_server.hostname}/license", request.data
        )
        drm.provide_key_response(session, response.body)
        # Replaying the same response must fail: no request in flight.
        with pytest.raises(MediaDrmException, match="no license request"):
            drm.provide_key_response(session, response.body)

    def test_malformed_response_rejected(self, world):
        device = world.l1_device()
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device, origin="com.test.app")
        _provision(drm, device, world)
        session = drm.open_session()
        with pytest.raises(MediaDrmException, match="bad license response"):
            drm.provide_key_response(session, b"{}")

    def test_secure_decode_end_to_end(self, world):
        device = world.l1_device()
        drm, session, init, seg_urls, __ = self._playable_session(world, device)
        info = read_track_info(init)
        crypto = MediaCrypto(drm, session)
        assert crypto.requires_secure_decoder_component("video/mp4")
        codec = MediaCodec.create_decoder("video/mp4", secure=True)
        codec.configure(crypto)
        segment = _fetch(device, world, seg_urls[0])
        samples, protected = read_samples(segment, iv_size=info.iv_size)
        assert protected
        for sample in samples:
            frame = codec.queue_secure_input_buffer(
                sample.data,
                CryptoInfo(
                    key_id=info.default_kid,
                    iv=sample.entry.iv,
                    subsamples=tuple(
                        (s.clear_bytes, s.protected_bytes)
                        for s in sample.entry.subsamples
                    ),
                ),
            )
            assert frame.valid
            assert frame.secure

    def test_l3_decode_not_secure(self, world):
        device = world.l3_device()
        drm, session, init, seg_urls, __ = self._playable_session(
            world, device, origin="com.test.l3"
        )
        info = read_track_info(init)
        crypto = MediaCrypto(drm, session)
        assert not crypto.requires_secure_decoder_component("video/mp4")
        codec = MediaCodec.create_decoder("video/mp4")
        codec.configure(crypto)
        segment = _fetch(device, world, seg_urls[0])
        samples, __ = read_samples(segment, iv_size=info.iv_size)
        frame = codec.queue_secure_input_buffer(
            samples[0].data,
            CryptoInfo(
                key_id=info.default_kid,
                iv=samples[0].entry.iv,
                subsamples=tuple(
                    (s.clear_bytes, s.protected_bytes)
                    for s in samples[0].entry.subsamples
                ),
            ),
        )
        assert frame.valid
        assert not frame.secure


class TestMediaCryptoAndCodec:
    def test_media_crypto_requires_open_session(self, world):
        device = world.l1_device()
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device)
        with pytest.raises(MediaCryptoException):
            MediaCrypto(drm, b"\x00\x00\x00\x63")

    def test_l1_requires_secure_decoder(self, world):
        device = world.l1_device()
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device)
        session = drm.open_session()
        crypto = MediaCrypto(drm, session)
        codec = MediaCodec.create_decoder("video/mp4", secure=False)
        with pytest.raises(CodecException, match="secure decoder"):
            codec.configure(crypto)

    def test_codec_without_crypto_rejects_secure_input(self):
        codec = MediaCodec.create_decoder("video/mp4")
        with pytest.raises(CodecException, match="not configured"):
            codec.queue_secure_input_buffer(b"x", CryptoInfo(bytes(16), bytes(8)))

    def test_clear_input_path(self):
        from repro.media.codecs import generate_sample

        codec = MediaCodec.create_decoder("audio/mp4")
        frame = codec.queue_input_buffer(generate_sample("audio", "l", 0, 40))
        assert frame.valid
        assert frame.kind == "audio"

    def test_clear_garbage_invalid_frame(self):
        codec = MediaCodec.create_decoder("audio/mp4")
        assert not codec.queue_input_buffer(b"garbage").valid

    def test_set_media_drm_session(self, world):
        device = world.l1_device()
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device)
        s1, s2 = drm.open_session(), drm.open_session()
        crypto = MediaCrypto(drm, s1)
        crypto.set_media_drm_session(s2)
        assert crypto.session_id == s2
        drm.close_session(s2)
        with pytest.raises(MediaCryptoException):
            crypto.set_media_drm_session(s2)
