"""Extension features: HD forgery (§V-C future work), the MovieStealer
baseline, Zhao-style L1 TEE compromise, offline licenses."""

import pytest

from repro.android.device import nexus_5, pixel_6
from repro.android.mediadrm import (
    KEY_TYPE_OFFLINE,
    MediaDrm,
    MediaDrmException,
)
from repro.bmff.builder import read_pssh_boxes, read_track_info
from repro.bmff.pssh import WIDEVINE_SYSTEM_ID
from repro.core.hd_forgery import HdForgeryAttack
from repro.core.keyladder_attack import KeyLadderAttack
from repro.core.media_recovery import MediaRecoveryPipeline
from repro.core.moviestealer import InsecureSoftwarePlayer, MovieStealer
from repro.license_server.policy import AudioProtection
from repro.license_server.provisioning import KeyboxAuthority
from repro.net.network import Network
from repro.ott.app import OttApp
from repro.ott.backend import OttBackend
from repro.ott.profile import OttProfile
from repro.widevine.storage import simulate_tee_compromise


def _world(**overrides):
    defaults = dict(
        name="ExtFlix",
        service="extflix",
        package="com.extflix.app",
        installs_millions=1,
        audio_protection=AudioProtection.SHARED_KEY,
        enforces_revocation=False,
    )
    defaults.update(overrides)
    profile = OttProfile(**defaults)
    network = Network()
    authority = KeyboxAuthority()
    backend = OttBackend(profile, network, authority)
    return profile, network, authority, backend


def _legacy(network, authority):
    device = nexus_5(network, authority)
    device.rooted = True
    return device


class TestHdForgery:
    def test_strict_service_rejects_forged_l1_claim(self):
        profile, network, authority, backend = _world(service="hdstrict")
        device = _legacy(network, authority)
        app = OttApp(profile, device, backend)
        result = HdForgeryAttack(device, network).run(app)
        assert not result.succeeded
        assert not result.request_accepted
        assert "security level claim" in (result.server_error or "")

    def test_lax_service_leaks_hd_keys(self):
        """The netflix-1080p scenario adapted to Android: no server-side
        check of the claimed level ⇒ HD keys for an L3 forger."""
        profile, network, authority, backend = _world(
            service="hdlax", verifies_client_level=False
        )
        device = _legacy(network, authority)
        app = OttApp(profile, device, backend)
        result = HdForgeryAttack(device, network).run(app)
        assert result.request_accepted
        assert result.succeeded
        # Both HD rungs (720p, 1080p) leaked.
        assert len(result.hd_key_ids) == 2

    def test_lax_service_enables_full_hd_piracy(self):
        profile, network, authority, backend = _world(
            service="hdlax2", verifies_client_level=False
        )
        device = _legacy(network, authority)
        app = OttApp(profile, device, backend)
        forgery = HdForgeryAttack(device, network).run(app)
        title_id = next(iter(backend.catalog)).title_id
        packaged = backend.packaged[title_id]
        mpd_url = f"https://{profile.cdn_host}{packaged.mpd_path}"
        recovered = MediaRecoveryPipeline(network).recover(
            profile.service, mpd_url, forgery.content_keys
        )
        assert recovered.best_video_height == 1080  # not qHD any more

    def test_forgery_requires_broken_ladder_first(self):
        profile, network, authority, backend = _world(
            service="hdrev", enforces_revocation=True, verifies_client_level=False
        )
        device = _legacy(network, authority)
        app = OttApp(profile, device, backend)
        result = HdForgeryAttack(device, network).run(app)
        assert not result.succeeded
        assert any("prerequisite failed" in n for n in result.notes)


class TestMovieStealer:
    def test_fails_against_modern_app(self):
        """§II-B: 'MovieStealer … does not work anymore, since the app
        has never access to the decrypted buffer.'"""
        profile, network, authority, backend = _world(service="msmod")
        device = _legacy(network, authority)
        app = OttApp(profile, device, backend)
        assert app.play().ok
        result = MovieStealer().run(device, profile.package)
        assert not result.succeeded

    def test_fails_against_modern_embedded_drm_app(self):
        """Decrypting in-process is not enough: the modern app keeps no
        clear sample in its mapped memory."""
        profile, network, authority, backend = _world(
            service="msemb", custom_drm_on_l3=True
        )
        device = _legacy(network, authority)
        result = OttApp(profile, device, backend).play()
        assert result.ok and result.used_custom_drm
        assert not MovieStealer().run(device, profile.package).succeeded

    def test_fails_against_drm_process_too(self):
        profile, network, authority, backend = _world(service="msdrm")
        device = _legacy(network, authority)
        app = OttApp(profile, device, backend)
        assert app.play().ok
        result = MovieStealer().scan_process(device.drm_process)
        assert not result.succeeded

    def test_succeeds_against_2013_era_player(self):
        profile, network, authority, backend = _world(
            service="msold", custom_drm_on_l3=True
        )
        device = _legacy(network, authority)
        player = InsecureSoftwarePlayer(profile, device, backend)
        assert player.play()
        result = MovieStealer().run(device, profile.package)
        assert result.succeeded
        # Every recovered buffer is genuinely decodable media.
        from repro.media.codecs import validate_sample

        assert all(validate_sample(s).valid for s in result.recovered_samples)

    def test_insecure_player_fails_an_unknown_title(self):
        profile, network, authority, backend = _world(
            service="msnope", custom_drm_on_l3=True
        )
        player = InsecureSoftwarePlayer(
            profile, _legacy(network, authority), backend
        )
        assert player.play("nope") is False

    def test_requires_root(self):
        profile, network, authority, backend = _world(service="msroot")
        device = nexus_5(network, authority)
        with pytest.raises(PermissionError, match="rooted"):
            MovieStealer().run(device, profile.package)

    def test_insecure_player_requires_embedded_endpoint(self):
        profile, network, authority, backend = _world(service="msreq")
        device = _legacy(network, authority)
        with pytest.raises(ValueError, match="embedded"):
            InsecureSoftwarePlayer(profile, device, backend)


class TestTeeCompromise:
    def test_l1_falls_after_tee_break(self):
        """'Note that our PoC works for both L1 and L3' — given an L1
        keybox source (Zhao 2021), the same ladder breaks L1."""
        profile, network, authority, backend = _world(service="tee1")
        device = pixel_6(network, authority)
        device.rooted = True
        app = OttApp(profile, device, backend)

        attack = KeyLadderAttack(device)
        assert attack.recover_keybox() is None  # intact TEE resists

        simulate_tee_compromise(
            device.widevine_plugin.oemcrypto._store, device.drm_process
        )
        keybox = attack.recover_keybox()
        assert keybox is not None
        assert keybox.device_key == device.keybox.device_key  # raw, unmasked

        result = attack.run(app)
        assert result.succeeded
        # On L1 the server grants every key, HD included.
        packaged = backend.packaged[next(iter(backend.catalog)).title_id]
        assert packaged.kid_by_rep["v1080"] in result.content_keys

    def test_tee_break_yields_full_hd_recovery(self):
        profile, network, authority, backend = _world(service="tee2")
        device = pixel_6(network, authority)
        device.rooted = True
        app = OttApp(profile, device, backend)
        simulate_tee_compromise(
            device.widevine_plugin.oemcrypto._store, device.drm_process
        )
        attack = KeyLadderAttack(device).run(app)
        title_id = next(iter(backend.catalog)).title_id
        packaged = backend.packaged[title_id]
        mpd_url = f"https://{profile.cdn_host}{packaged.mpd_path}"
        recovered = MediaRecoveryPipeline(network).recover(
            profile.service, mpd_url, attack.content_keys
        )
        assert recovered.best_video_height == 1080


class TestOfflineLicenses:
    def _provisioned_drm(self, world_tuple, device):
        profile, network, authority, backend = world_tuple
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, device, origin=profile.package)
        client = device.new_http_client()
        request = drm.get_provision_request()
        response = client.post(
            f"https://{profile.provisioning_host}/provision", request.data
        )
        drm.provide_provision_response(response.body)
        return drm, client

    def test_offline_license_round_trip(self):
        world_tuple = _world(service="off1")
        profile, network, authority, backend = world_tuple
        device = pixel_6(network, authority)
        device.rooted = True
        drm, client = self._provisioned_drm(world_tuple, device)

        packaged = backend.packaged[next(iter(backend.catalog)).title_id]
        init_url, _ = packaged.asset_urls["v540"]
        init = client.get(init_url).body
        (pssh,) = read_pssh_boxes(init)
        info = read_track_info(init)

        session = drm.open_session()
        request = drm.get_key_request(
            session, pssh.data, key_type=KEY_TYPE_OFFLINE
        )
        response = client.post(
            f"https://{profile.license_host}/license", request.data
        )
        loaded = drm.provide_key_response(session, response.body)
        assert info.default_kid in loaded
        key_set_id = drm.get_key_set_id(session)
        drm.close_session(session)

        # Later (offline): restore into a brand-new session.
        restored_session = drm.open_session()
        restored = drm.restore_keys(restored_session, key_set_id)
        assert info.default_kid in restored

        # And the restored keys actually decrypt.
        from repro.android.mediacodec import CryptoInfo, MediaCodec
        from repro.android.mediacrypto import MediaCrypto
        from repro.bmff.builder import read_samples

        crypto = MediaCrypto(drm, restored_session)
        codec = MediaCodec.create_decoder("video/mp4", secure=True)
        codec.configure(crypto)
        __, seg_urls = packaged.asset_urls["v540"]
        samples, __ = read_samples(client.get(seg_urls[0]).body, iv_size=8)
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

    def test_streaming_session_has_no_key_set_id(self):
        world_tuple = _world(service="off2")
        profile, network, authority, backend = world_tuple
        device = pixel_6(network, authority)
        drm, client = self._provisioned_drm(world_tuple, device)
        packaged = backend.packaged[next(iter(backend.catalog)).title_id]
        init_url, _ = packaged.asset_urls["v540"]
        (pssh,) = read_pssh_boxes(client.get(init_url).body)
        session = drm.open_session()
        request = drm.get_key_request(session, pssh.data)  # streaming
        response = client.post(
            f"https://{profile.license_host}/license", request.data
        )
        drm.provide_key_response(session, response.body)
        with pytest.raises(MediaDrmException, match="no offline license"):
            drm.get_key_set_id(session)

    def test_restore_unknown_key_set_rejected(self):
        world_tuple = _world(service="off3")
        profile, network, authority, backend = world_tuple
        device = pixel_6(network, authority)
        drm, __ = self._provisioned_drm(world_tuple, device)
        session = drm.open_session()
        with pytest.raises(MediaDrmException, match="unknown key set"):
            drm.restore_keys(session, bytes(8))

    def test_remove_keys(self):
        world_tuple = _world(service="off4")
        profile, network, authority, backend = world_tuple
        device = pixel_6(network, authority)
        drm, client = self._provisioned_drm(world_tuple, device)
        packaged = backend.packaged[next(iter(backend.catalog)).title_id]
        init_url, _ = packaged.asset_urls["v540"]
        (pssh,) = read_pssh_boxes(client.get(init_url).body)
        session = drm.open_session()
        request = drm.get_key_request(session, pssh.data, key_type=KEY_TYPE_OFFLINE)
        response = client.post(
            f"https://{profile.license_host}/license", request.data
        )
        drm.provide_key_response(session, response.body)
        key_set_id = drm.get_key_set_id(session)
        drm.remove_keys(key_set_id)
        fresh = drm.open_session()
        with pytest.raises(MediaDrmException, match="unknown key set"):
            drm.restore_keys(fresh, key_set_id)
