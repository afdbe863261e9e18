"""OTT app playback behaviour across devices, services and protections."""

import json

import pytest

from repro.core.monitor import bypass_app_protections
from repro.license_server.policy import AudioProtection
from repro.license_server.provisioning import KeyboxAuthority
from repro.net.network import Network
from repro.net.proxy import InterceptingProxy
from repro.net.tls import TlsError
from repro.ott.app import AppProtectionError, OttApp
from repro.ott.backend import OttBackend
from repro.ott.profile import URI_SECURE_CHANNEL, OttProfile


def record_exchanges(server) -> list:
    """Wrap *server*'s ``handle`` so the test sees each (request,
    response) it serves; the server itself keeps nothing per request."""
    exchanges = []
    handle = server.handle

    def recording(request):
        response = handle(request)
        exchanges.append((request, response))
        return response

    server.handle = recording
    return exchanges


class OttWorld:
    def __init__(self, **profile_overrides):
        defaults = dict(
            name="TestFlix",
            service="testflix",
            package="com.testflix.app",
            installs_millions=1,
            audio_protection=AudioProtection.SHARED_KEY,
            enforces_revocation=False,
        )
        defaults.update(profile_overrides)
        self.profile = OttProfile(**defaults)
        self.network = Network()
        self.authority = KeyboxAuthority()
        self.backend = OttBackend(self.profile, self.network, self.authority)

    def l1_app(self) -> OttApp:
        from repro.android.device import pixel_6

        device = pixel_6(self.network, self.authority)
        device.rooted = True
        return OttApp(self.profile, device, self.backend)

    def l3_app(self) -> OttApp:
        from repro.android.device import nexus_5

        device = nexus_5(self.network, self.authority)
        device.rooted = True
        return OttApp(self.profile, device, self.backend)


class TestBasicPlayback:
    def test_l1_plays_full_hd(self):
        app = OttWorld().l1_app()
        result = app.play()
        assert result.ok
        assert result.used_widevine
        assert result.video_height == 1080
        assert result.security_level == "L1"
        kinds = {t.kind for t in result.tracks}
        assert kinds == {"video", "audio"}
        assert result.subtitle_ok

    def test_l3_capped_at_qhd(self):
        app = OttWorld().l3_app()
        result = app.play()
        assert result.ok
        assert result.video_height == 540
        assert result.security_level == "L3"

    def test_audio_language_selection(self):
        app = OttWorld().l1_app()
        result = app.play(language="fr")
        audio = next(t for t in result.tracks if t.kind == "audio")
        assert audio.rep_id == "a-fr"

    def test_unknown_language_fails_gracefully(self):
        app = OttWorld().l1_app()
        result = app.play(language="de")
        assert not result.ok
        assert "no audio representation" in result.error

    def test_no_subtitles_requested(self):
        app = OttWorld().l1_app()
        result = app.play(subtitle_language=None)
        assert result.ok
        assert result.subtitle_ok is None

    def test_clear_audio_service(self):
        app = OttWorld(
            service="clearflix", audio_protection=AudioProtection.CLEAR
        ).l1_app()
        result = app.play()
        assert result.ok
        audio = next(t for t in result.tracks if t.kind == "audio")
        assert not audio.encrypted
        video = next(t for t in result.tracks if t.kind == "video")
        assert video.encrypted

    def test_playback_result_frame_counts(self):
        app = OttWorld().l1_app()
        result = app.play()
        for track in result.tracks:
            assert track.frames_total > 0
            assert track.frames_valid == track.frames_total

    def test_unknown_title(self):
        app = OttWorld().l1_app()
        result = app.play("does-not-exist")
        assert not result.ok


class TestProvisioningAndRevocation:
    def test_revoking_service_denies_legacy_device(self):
        world = OttWorld(service="strict", enforces_revocation=True)
        result = world.l3_app().play()
        assert not result.ok
        assert result.provisioning_failed
        assert "revoked" in result.error

    def test_revoking_service_allows_modern_device(self):
        world = OttWorld(service="strict2", enforces_revocation=True)
        assert world.l1_app().play().ok

    def test_provisioning_reused_across_plays(self):
        world = OttWorld()
        exchanges = record_exchanges(world.backend.provisioning)
        app = world.l1_app()
        assert app.play().ok
        provision_calls = [
            r for r, __ in exchanges if r.parsed_url.path == "/provision"
        ]
        assert len(provision_calls) == 1
        assert app.play().ok
        provision_calls = [
            r for r, __ in exchanges if r.parsed_url.path == "/provision"
        ]
        assert len(provision_calls) == 1  # still one: persisted


class TestSecureChannel:
    def test_netflix_style_playback(self):
        world = OttWorld(service="scflix", uri_protection=URI_SECURE_CHANNEL)
        result = world.l1_app().play()
        assert result.ok

    def test_manifest_not_in_plain_api_response(self):
        world = OttWorld(service="scflix2", uri_protection=URI_SECURE_CHANNEL)
        exchanges = record_exchanges(world.backend.api)
        app = world.l1_app()
        assert app.play().ok
        playback_responses = [
            response
            for request, response in exchanges
            if request.parsed_url.path == "/playback"
        ]
        assert playback_responses  # and the body the server sent was encrypted:
        assert b"mpd_url" not in playback_responses[-1].body
        assert b"protected_manifest" in playback_responses[-1].body

    def test_secure_channel_is_used_once(self):
        """The playback API consumes the channel: replaying the captured
        request finds none, and the license server holds no record."""
        world = OttWorld(service="scflix3", uri_protection=URI_SECURE_CHANNEL)
        exchanges = record_exchanges(world.backend.api)
        assert world.l1_app().play().ok
        (request, __), = [
            exchange
            for exchange in exchanges
            if exchange[0].parsed_url.path == "/playback"
        ]
        assert not world.backend.license_server.sessions
        replay = world.backend.api.handle(request)
        assert replay.status == 403
        assert b"no secure channel" in replay.body


class TestCustomDrm:
    def test_custom_drm_on_l3_only(self):
        world = OttWorld(
            service="embed",
            custom_drm_on_l3=True,
            audio_protection=AudioProtection.DISTINCT_KEY,
        )
        l3 = world.l3_app().play()
        assert l3.ok
        assert l3.used_custom_drm
        assert not l3.used_widevine
        assert l3.video_height == 540

        l1 = world.l1_app().play()
        assert l1.ok
        assert l1.used_widevine
        assert not l1.used_custom_drm

    def test_type_confused_license_fails_the_playback(self):
        world = OttWorld(service="embed3", custom_drm_on_l3=True)
        handle = world.backend.api.handle

        def confusing(request):
            response = handle(request)
            if request.parsed_url.path == "/embedded-license":
                response.body = b'{"nonce": "00", "keys": 5}'
            return response

        world.backend.api.handle = confusing
        result = world.l3_app().play()
        assert result.used_custom_drm
        assert not result.ok
        assert "license load failed" in result.error

    def test_custom_drm_never_touches_platform_cdm(self):
        world = OttWorld(service="embed2", custom_drm_on_l3=True)
        app = world.l3_app()
        oc = app.device.widevine_plugin.oemcrypto
        before = oc.call_count
        assert app.play().ok
        assert oc.call_count == before


class TestMissingContentKey:
    """A license that lacks the audio track's key fails the playback with
    a decrypt error instead of raising, on either DRM."""

    @staticmethod
    def _world(service: str) -> tuple[OttWorld, bytes]:
        world = OttWorld(
            service=service,
            custom_drm_on_l3=True,
            audio_protection=AudioProtection.DISTINCT_KEY,
        )
        title_id = next(iter(world.backend.catalog)).title_id
        return world, world.backend.packaged[title_id].kid_by_rep["a-en"]

    def test_widevine_license_without_the_audio_key(self):
        world, audio_kid = self._world("nokey-wv")
        del world.backend.license_server._keys[audio_kid]
        app = world.l1_app()
        result = app.play()
        assert result.used_widevine
        assert not result.ok
        assert result.error.startswith("decrypt failed")
        assert app.device.widevine_plugin.cdm._sessions == {}
        assert app.device.widevine_plugin.oemcrypto._sessions == {}

    def test_embedded_license_without_the_audio_key(self):
        world, audio_kid = self._world("nokey-embed")
        handle = world.backend.api.handle

        def dropping(request):
            response = handle(request)
            if request.parsed_url.path == "/embedded-license":
                message = json.loads(response.body)
                message["keys"] = [
                    key
                    for key in message["keys"]
                    if key["key_id"] != audio_kid.hex()
                ]
                response.body = json.dumps(message).encode()
            return response

        world.backend.api.handle = dropping
        result = world.l3_app().play()
        assert result.used_custom_drm
        assert not result.ok
        assert result.error.startswith("decrypt failed")
        assert audio_kid.hex() in result.error


class TestAppProtections:
    def test_instrumented_app_refuses_to_run(self):
        app = OttWorld().l1_app()
        app.process.attached_instruments.append("frida")
        with pytest.raises(AppProtectionError, match="instrumentation detected"):
            app.play()

    def test_bypass_restores_playback(self):
        app = OttWorld().l1_app()
        app.process.attached_instruments.append("frida")
        bypass_app_protections(app)
        assert app.play().ok

    def test_pinning_blocks_proxy_until_bypassed(self):
        world = OttWorld()
        app = world.l1_app()
        proxy = InterceptingProxy(world.network)
        app.device.trust_store.add_issuer(InterceptingProxy.CA_NAME)
        app.http.set_proxy(proxy)
        with pytest.raises(TlsError):
            app.play()
        bypass_app_protections(app)
        assert app.play().ok
        assert proxy.flows

    def test_safetynet_check_can_be_disabled_in_profile(self):
        world = OttWorld(
            service="soft", anti_debug=False, checks_safetynet=False
        )
        app = world.l1_app()
        app.process.attached_instruments.append("frida")
        assert app.play().ok  # nothing checked, nothing refused


class TestApkModel:
    def test_exoplayer_profile_classes(self):
        profile = OttWorld(uses_exoplayer=True).profile
        apk = profile.build_apk()
        names = {c.name for c in apk.classes}
        assert any("exoplayer2" in n for n in names)

    def test_custom_player_profile_classes(self):
        world = OttWorld(service="inhouse", uses_exoplayer=False)
        apk = world.profile.build_apk()
        names = {c.name for c in apk.classes}
        assert not any("exoplayer2" in n for n in names)
        refs = {r for c in apk.classes for r in c.all_refs()}
        assert any(r.startswith("android.media.MediaDrm") for r in refs)

    def test_pins_cover_all_hosts(self):
        profile = OttWorld().profile
        apk = profile.build_apk()
        assert set(apk.pinned_hosts) == set(profile.all_hosts())
