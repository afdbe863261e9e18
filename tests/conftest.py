"""Shared fixtures: a small self-contained service world, devices, and
a session-scoped full study run (expensive, reused by integration
tests)."""

from __future__ import annotations

import pytest

from repro.android.device import AndroidDevice, nexus_5, pixel_6
from repro.core.study import StudyResult, WideLeakStudy
from repro.dash.packager import PackagedTitle, Packager
from repro.license_server.policy import (
    AudioProtection,
    RevocationPolicy,
    ServicePolicy,
    assign_track_crypto,
)
from repro.license_server.provisioning import (
    KeyboxAuthority,
    ProvisioningRecords,
    ProvisioningServer,
)
from repro.license_server.server import LicenseServer
from repro.media.content import Title, make_title
from repro.net.cdn import CdnServer
from repro.net.network import Network


class ServiceWorld:
    """A minimal single-service universe for unit/integration tests."""

    def __init__(
        self,
        *,
        audio_protection: AudioProtection = AudioProtection.SHARED_KEY,
        revocation: RevocationPolicy | None = None,
        service: str = "acme",
    ):
        self.network = Network()
        self.authority = KeyboxAuthority()
        self.records = ProvisioningRecords()
        self.policy = ServicePolicy(
            service=service,
            audio_protection=audio_protection,
            revocation=revocation or RevocationPolicy(),
        )
        self.provisioning = ProvisioningServer(
            f"prov.{service}.example", self.authority, self.records,
            revocation=self.policy.revocation,
        )
        self.license_server = LicenseServer(
            f"license.{service}.example", self.policy, self.records
        )
        self.cdn = CdnServer(f"cdn.{service}.example")
        for server in (self.provisioning, self.license_server, self.cdn):
            self.network.register(server)

        self.title: Title = make_title(f"{service[:4]}00", "Test feature")
        crypto = assign_track_crypto(self.policy, self.title)
        self.packaged: PackagedTitle = Packager(service, self.cdn).package(
            self.title, crypto
        )
        self.license_server.register_packaged_title(self.packaged, self.title)

    def l1_device(self, serial: str = "P6-T01") -> AndroidDevice:
        device = pixel_6(self.network, self.authority, serial=serial)
        device.rooted = True
        return device

    def l3_device(self, serial: str = "N5-T01") -> AndroidDevice:
        device = nexus_5(self.network, self.authority, serial=serial)
        device.rooted = True
        return device


@pytest.fixture
def python_aes(monkeypatch):
    """Run a test with ``cipher_for`` on the pure-Python fallback, the
    backend of a process whose libcrypto is missing or fails its known
    answers. Every AES-derived memo is emptied before and after, so
    nothing computed on one backend is served on the other."""
    from repro.crypto import aes, cmac, kdf, modes

    memos = (
        aes.cipher_for,
        modes._keystream_blocks,
        cmac._subkeys_for,
        kdf.derive_key,
        kdf._session_key_material,
    )
    for memo in memos:
        memo.cache_clear()
    monkeypatch.setattr(aes, "backend", lambda: aes.AES)
    assert type(aes.cipher_for(bytes(16))) is aes.AES
    yield
    for memo in memos:
        memo.cache_clear()


@pytest.fixture
def world() -> ServiceWorld:
    return ServiceWorld()


@pytest.fixture
def clear_audio_world() -> ServiceWorld:
    return ServiceWorld(audio_protection=AudioProtection.CLEAR, service="clrsvc")


@pytest.fixture(scope="session")
def full_study() -> WideLeakStudy:
    """One study instance shared by the integration tests."""
    return WideLeakStudy.with_default_apps()


@pytest.fixture(scope="session")
def study_result(full_study: WideLeakStudy) -> StudyResult:
    """The full ten-app study run (expensive; computed once)."""
    return full_study.run()
