"""OTT backend: auth, playback API, keymap geo-blocking, secure channel,
embedded licenses."""

import json

import pytest

from repro.license_server.policy import AudioProtection
from repro.license_server.provisioning import KeyboxAuthority
from repro.net.http import HttpRequest
from repro.net.network import Network
from repro.ott.backend import OttBackend
from repro.ott.profile import URI_SECURE_CHANNEL, OttProfile


def _profile(**overrides) -> OttProfile:
    defaults = dict(
        name="TestFlix",
        service="testflix",
        package="com.testflix.app",
        installs_millions=1,
        audio_protection=AudioProtection.SHARED_KEY,
        enforces_revocation=False,
    )
    defaults.update(overrides)
    return OttProfile(**defaults)


@pytest.fixture
def backend():
    return OttBackend(_profile(), Network(), KeyboxAuthority())


def _get(server, url):
    return server.handle(HttpRequest("GET", url))


def _post(server, url, body):
    return server.handle(HttpRequest("POST", url, body=body))


class TestInfrastructure:
    def test_all_origins_registered(self, backend):
        network = backend.api  # registered on the same network
        for host in backend.profile.all_hosts():
            # server_for raises if missing
            assert host

    def test_catalog_packaged_and_keys_registered(self, backend):
        title = next(iter(backend.catalog))
        packaged = backend.packaged[title.title_id]
        assert packaged.content_keys
        assert packaged.key_ids() <= backend.license_server.known_key_ids()

    def test_two_accounts_exist(self, backend):
        assert set(backend.accounts) == {"alice", "bob"}


class TestAuth:
    def test_login(self, backend):
        response = _post(
            backend.api,
            "https://api.testflix.example/auth",
            json.dumps({"username": "alice"}).encode(),
        )
        assert response.ok
        assert json.loads(response.body)["token"] == backend.accounts["alice"]

    def test_unknown_account(self, backend):
        response = _post(
            backend.api,
            "https://api.testflix.example/auth",
            json.dumps({"username": "mallory"}).encode(),
        )
        assert response.status == 403

    def test_malformed_auth(self, backend):
        response = _post(backend.api, "https://api.testflix.example/auth", b"{")
        assert response.status == 400


class TestPlaybackApi:
    def test_manifest_url_returned(self, backend):
        title = next(iter(backend.catalog))
        token = backend.accounts["alice"]
        response = _get(
            backend.api,
            f"https://api.testflix.example/playback?title={title.title_id}"
            f"&token={token}",
        )
        assert response.ok
        url = json.loads(response.body)["mpd_url"]
        assert url.endswith("manifest.mpd")

    def test_requires_token(self, backend):
        title = next(iter(backend.catalog))
        response = _get(
            backend.api,
            f"https://api.testflix.example/playback?title={title.title_id}",
        )
        assert response.status == 403

    def test_unknown_title(self, backend):
        token = backend.accounts["alice"]
        response = _get(
            backend.api,
            f"https://api.testflix.example/playback?title=nope&token={token}",
        )
        assert response.status == 404


class TestKeymap:
    def test_keymap_served(self, backend):
        title = next(iter(backend.catalog))
        token = backend.accounts["alice"]
        response = _get(
            backend.api,
            f"https://api.testflix.example/keymap?title={title.title_id}"
            f"&token={token}",
        )
        assert response.ok
        keymap = json.loads(response.body)
        packaged = backend.packaged[title.title_id]
        assert keymap["v540"] == packaged.kid_by_rep["v540"].hex()
        assert keymap["t-en"] is None

    def test_keymap_geoblocked(self):
        backend = OttBackend(
            _profile(service="geoflix", key_metadata_available=False),
            Network(),
            KeyboxAuthority(),
        )
        title = next(iter(backend.catalog))
        token = backend.accounts["alice"]
        response = _get(
            backend.api,
            f"https://api.geoflix.example/keymap?title={title.title_id}"
            f"&token={token}",
        )
        assert response.status == 451


class TestSubtitleListing:
    def test_unlisted_subtitles_absent_from_catalog(self):
        backend = OttBackend(
            _profile(service="nosubs", subtitles_listed=False),
            Network(),
            KeyboxAuthority(),
        )
        title = next(iter(backend.catalog))
        assert title.subtitles() == []


class TestSecureChannel:
    def test_playback_refused_without_session(self):
        backend = OttBackend(
            _profile(service="scflix", uri_protection=URI_SECURE_CHANNEL),
            Network(),
            KeyboxAuthority(),
        )
        title = next(iter(backend.catalog))
        token = backend.accounts["alice"]
        response = _get(
            backend.api,
            f"https://api.scflix.example/playback?title={title.title_id}"
            f"&token={token}",
        )
        assert response.status == 403
        assert b"secure channel" in response.body

    def test_malformed_session_id_is_a_bad_request(self):
        backend = OttBackend(
            _profile(service="scflix", uri_protection=URI_SECURE_CHANNEL),
            Network(),
            KeyboxAuthority(),
        )
        title = next(iter(backend.catalog))
        token = backend.accounts["alice"]
        response = _get(
            backend.api,
            f"https://api.scflix.example/playback?title={title.title_id}"
            f"&token={token}&session=zz",
        )
        assert response.status == 400

    def test_secure_channel_key_registered(self):
        backend = OttBackend(
            _profile(service="scflix2", uri_protection=URI_SECURE_CHANNEL),
            Network(),
            KeyboxAuthority(),
        )
        assert backend.secure_channel_kid in backend.license_server.known_key_ids()

    def test_plain_profile_has_no_channel_key(self, backend):
        assert (
            backend.secure_channel_kid
            not in backend.license_server.known_key_ids()
        )


class TestEmbeddedLicense:
    @pytest.fixture
    def custom_backend(self):
        return OttBackend(
            _profile(service="embedflix", custom_drm_on_l3=True),
            Network(),
            KeyboxAuthority(),
        )

    def test_grants_sub_hd_keys(self, custom_backend):
        from repro.ott.custom_drm import EmbeddedCdm

        backend = custom_backend
        title = next(iter(backend.catalog))
        token = backend.accounts["alice"]
        cdm = EmbeddedCdm("embedflix")
        response = _post(
            backend.api,
            f"https://api.embedflix.example/embedded-license?token={token}",
            cdm.build_key_request(title.title_id),
        )
        assert response.ok
        loaded = cdm.load_keys(response.body)
        packaged = backend.packaged[title.title_id]
        assert packaged.kid_by_rep["v540"] in loaded
        assert packaged.kid_by_rep["v1080"] not in loaded

    def test_rejects_tampered_request(self, custom_backend):
        from repro.ott.custom_drm import EmbeddedCdm

        backend = custom_backend
        title = next(iter(backend.catalog))
        token = backend.accounts["alice"]
        request = json.loads(EmbeddedCdm("embedflix").build_key_request(title.title_id))
        request["mac"] = "00" * 32
        response = _post(
            backend.api,
            f"https://api.embedflix.example/embedded-license?token={token}",
            json.dumps(request).encode(),
        )
        assert response.status == 400

    @pytest.mark.parametrize(
        "body",
        [b'{"payload": 5, "mac": "x"}', b"[1]", b"[" * 100_000],
        ids=["payload-not-a-string", "not-an-object", "nested-too-deeply"],
    )
    def test_type_confused_request_is_a_bad_request(self, custom_backend, body):
        token = custom_backend.accounts["alice"]
        response = _post(
            custom_backend.api,
            f"https://api.embedflix.example/embedded-license?token={token}",
            body,
        )
        assert response.status == 400

    def test_plain_backend_has_no_embedded_route(self, backend):
        response = _post(
            backend.api,
            "https://api.testflix.example/embedded-license?token=x",
            b"{}",
        )
        assert response.status == 404
