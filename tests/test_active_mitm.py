"""Active MITM: with TLS fully broken, the DRM protocol's own
cryptography is the last line — and it holds."""

import json

import pytest

from repro.android.device import pixel_6
from repro.core.monitor import bypass_app_protections
from repro.license_server.policy import AudioProtection
from repro.license_server.provisioning import KeyboxAuthority
from repro.net.http import HttpResponse
from repro.net.network import Network
from repro.net.proxy import InterceptingProxy
from repro.obs.bus import ObservabilityBus
from repro.ott.app import OttApp
from repro.ott.backend import OttBackend
from repro.ott.profile import OttProfile


@pytest.fixture
def mitm_world():
    profile = OttProfile(
        name="MitmFlix",
        service="mitmflix",
        package="com.mitmflix.app",
        installs_millions=1,
        audio_protection=AudioProtection.SHARED_KEY,
        enforces_revocation=False,
    )
    network = Network()
    authority = KeyboxAuthority()
    backend = OttBackend(profile, network, authority)
    device = pixel_6(network, authority)
    device.rooted = True
    app = OttApp(profile, device, backend)
    proxy = InterceptingProxy(network)
    device.trust_store.add_issuer(InterceptingProxy.CA_NAME)
    bypass_app_protections(app)
    app.http.set_proxy(proxy)
    return profile, app, proxy


class TestActiveMitm:
    def test_passive_proxy_playback_unaffected(self, mitm_world):
        __, app, proxy = mitm_world
        assert app.play().ok
        assert proxy.flows

    def test_tampered_license_rejected_by_cdm(self, mitm_world):
        profile, app, proxy = mitm_world

        def corrupt_license(request, response):
            if request.parsed_url.path == "/license" and response.ok:
                message = json.loads(response.body.decode())
                message["keys"][0]["wrapped_key"] = "ab" * 32
                return HttpResponse(
                    status=200, body=json.dumps(message).encode()
                )
            return response

        proxy.response_hook = corrupt_license
        bus = app.http.obs = ObservabilityBus()
        result = app.play()
        assert not result.ok
        assert "MAC mismatch" in result.error
        # The exchange's one span says the proxy's hook rewrote it.
        (license,) = [s for s in bus.spans if s.attrs.get("path") == "/license"]
        assert license.attrs["proxied"] is license.attrs["tampered"] is True
        assert "proxy.forward" not in bus.span_names()
        assert all(not s.points for s in bus.spans if s.name == "http.request")
        assert bus.metrics.counter("proxy.flows") == len(proxy.flows)

    @pytest.mark.parametrize(
        "confuse",
        [
            pytest.param(lambda m: m.__setitem__("keys", 5), id="keys-not-a-list"),
            pytest.param(
                lambda m: m["keys"][0].__setitem__("control", 7),
                id="control-not-an-object",
            ),
            pytest.param(
                lambda m: m["keys"].__setitem__(0, "k"), id="key-not-an-object"
            ),
        ],
    )
    def test_type_confused_license_fails_playback(self, mitm_world, confuse):
        """A hook that swaps a field for a value of another JSON type
        gets a failed playback, not an exception out of play()."""
        profile, app, proxy = mitm_world

        def retype(request, response):
            if request.parsed_url.path == "/license" and response.ok:
                message = json.loads(response.body.decode())
                confuse(message)
                return HttpResponse(
                    status=200, body=json.dumps(message).encode()
                )
            return response

        proxy.response_hook = retype
        result = app.play()
        assert not result.ok
        assert "bad license response" in result.error

    def test_mitm_cannot_inject_own_keys(self, mitm_world):
        """Key substitution: the attacker re-wraps different keys but
        cannot forge the HMAC without the session key."""
        profile, app, proxy = mitm_world

        def substitute_keys(request, response):
            if request.parsed_url.path == "/license" and response.ok:
                message = json.loads(response.body.decode())
                for entry in message["keys"]:
                    entry["wrapped_key"] = "00" * 32
                    entry["iv"] = "00" * 16
                return HttpResponse(
                    status=200, body=json.dumps(message).encode()
                )
            return response

        proxy.response_hook = substitute_keys
        result = app.play()
        assert not result.ok

    def test_tampered_segment_yields_invalid_frames(self, mitm_world):
        profile, app, proxy = mitm_world

        def corrupt_segments(request, response):
            if request.parsed_url.path.endswith(".m4s") and response.ok:
                body = bytearray(response.body)
                body[-10] ^= 0xFF
                return HttpResponse(status=200, body=bytes(body))
            return response

        proxy.response_hook = corrupt_segments
        result = app.play()
        assert not result.ok
        assert any(t.frames_valid < t.frames_total for t in result.tracks)

    def test_tampered_provisioning_rejected(self, mitm_world):
        profile, app, proxy = mitm_world

        def corrupt_provisioning(request, response):
            if request.parsed_url.path == "/provision" and response.ok:
                message = json.loads(response.body.decode())
                message["wrapped_rsa_key"] = "cd" * 64
                return HttpResponse(
                    status=200, body=json.dumps(message).encode()
                )
            return response

        proxy.response_hook = corrupt_provisioning
        result = app.play()
        assert not result.ok

    def test_provisioning_response_replay_rejected(self, mitm_world):
        """Each provisioning response is bound to the request nonce:
        replaying an old capture against a new request fails."""
        profile, app, proxy = mitm_world
        captured: dict[str, bytes] = {}

        def capture(request, response):
            if request.parsed_url.path == "/provision" and response.ok:
                captured["provision"] = response.body
            return response

        proxy.response_hook = capture
        assert app.play().ok
        assert "provision" in captured

        # A second device requests provisioning; the MITM replays the
        # captured response.
        from repro.android.mediadrm import DeniedByServerException, MediaDrm
        from repro.bmff.pssh import WIDEVINE_SYSTEM_ID

        device2 = pixel_6(app.device.network, KeyboxAuthority(), serial="P6-RPL")
        # Register device2's keybox with the real authority so the world
        # stays coherent; the replayed blob is still for device 1.
        drm2 = MediaDrm(WIDEVINE_SYSTEM_ID, device2, origin=profile.package)
        drm2.get_provision_request()
        with pytest.raises(DeniedByServerException):
            drm2.provide_provision_response(captured["provision"])
