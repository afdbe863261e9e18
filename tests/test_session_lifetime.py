"""A served session leaves nothing behind.

Plays the viewers world (two L1 Pixel 6 and one L3 Nexus 5, every app
of the registry on each, the L3 provisioning denials included), then
checks every holder of per-session state once the sessions end: the
CDM and OEMCrypto session tables, the pending provisioning sessions,
the origins, and the license servers' secure-channel records. A
license denial and a playback error are played on top, on the app
with the most sessions per play (Netflix: secure channel + content).
"""

import pytest

from repro.android.device import nexus_5, pixel_6
from repro.license_server.provisioning import KeyboxAuthority
from repro.net.http import HttpResponse
from repro.net.network import Network
from repro.obs.bus import ObservabilityBus
from repro.ott.app import OttApp
from repro.ott.backend import OttBackend
from repro.ott.registry import ALL_PROFILES


class ViewersWorld:
    def __init__(self):
        bus = ObservabilityBus(enabled=False)
        network = Network()
        authority = KeyboxAuthority()
        self.backends = [
            OttBackend(profile, network, authority, obs=bus)
            for profile in ALL_PROFILES
        ]
        self.devices = [
            pixel_6(network, authority, serial="LIFE-P6-0", obs=bus),
            pixel_6(network, authority, serial="LIFE-P6-1", obs=bus),
            nexus_5(network, authority, serial="LIFE-N5-0", obs=bus),
        ]
        self.apps = [
            OttApp(backend.profile, device, backend)
            for device in self.devices
            for backend in self.backends
        ]

    def play_all(self):
        return [app.play() for app in self.apps]

    def origin_sizes(self) -> dict[tuple[str, str], int]:
        """The size of every container each origin holds."""
        return {
            (server.hostname, name): len(value)
            for backend in self.backends
            for server in (
                backend.api,
                backend.cdn,
                backend.license_server,
                backend.provisioning,
            )
            for name, value in vars(server).items()
            if hasattr(value, "__len__") and not isinstance(value, (str, bytes))
        }

    def assert_devices_hold_no_session(self):
        for device in self.devices:
            cdm = device.widevine_plugin.cdm
            assert cdm._sessions == {}
            assert cdm._pending_provisioning == {}
            assert device.widevine_plugin.oemcrypto._sessions == {}

    def netflix_app(self, device_index: int) -> OttApp:
        (app,) = [
            app
            for app in self.apps
            if app.device is self.devices[device_index]
            and app.profile.name == "Netflix"
        ]
        return app


@pytest.fixture(scope="module")
def viewers():
    world = ViewersWorld()
    first = world.play_all()
    sizes_after_first = world.origin_sizes()
    second = world.play_all()
    return world, first, second, sizes_after_first


def test_the_world_has_grants_and_l3_provisioning_denials(viewers):
    world, first, second, __ = viewers
    for results in (first, second):
        assert sum(result.ok for result in results) >= 20
        assert any(result.provisioning_failed for result in results)


def test_devices_hold_no_open_session(viewers):
    viewers[0].assert_devices_hold_no_session()


def test_origins_keep_no_per_request_state(viewers):
    world, __, __, sizes_after_first = viewers
    assert world.origin_sizes() == sizes_after_first


def test_license_servers_keep_no_session_record(viewers):
    """Content licenses leave no record, and every secure channel was
    taken by the playback API."""
    world = viewers[0]
    for backend in world.backends:
        assert backend.license_server.sessions == {}
        assert backend.license_server._channel_of_device == {}


def _failing(server, path_fails, status):
    handle = server.handle

    def failing(request):
        if path_fails(request.parsed_url.path):
            return HttpResponse(status=status, body=b"injected failure")
        return handle(request)

    return failing


@pytest.mark.parametrize(
    "origin, path_fails, status, error",
    [
        ("license_server", lambda path: path == "/license", 403, "injected"),
        ("cdn", lambda path: not path.endswith(".mpd"), 404, "download failed"),
    ],
    ids=["license-denied", "playback-error"],
)
def test_failed_playback_closes_its_sessions(
    viewers, monkeypatch, origin, path_fails, status, error
):
    world = viewers[0]
    for device_index in range(len(world.devices)):
        app = world.netflix_app(device_index)
        server = getattr(app.backend, origin)
        monkeypatch.setattr(server, "handle", _failing(server, path_fails, status))
        result = app.play()
        monkeypatch.undo()
        assert not result.ok
        assert error in result.error
    world.assert_devices_hold_no_session()
    assert all(b.license_server.sessions == {} for b in world.backends)
