"""Android device model and factory profiles.

A device boots with its DRM process, keybox, Widevine plugin and trust
store. The two profiles the study uses:

- :func:`nexus_5` — the discontinued phone of §IV-B: Android 6.0.1
  (last update, 2016), no TEE-backed Widevine → L3, CDM 3.1.0;
- :func:`pixel_6` — a current, supported L1 device (TEE, CDM 15.0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.android.clock import SimClock
from repro.android.drm_server import MediaDrmServer
from repro.android.process import Process
from repro.android.trace import FlowTrace
from repro.license_server.provisioning import KeyboxAuthority
from repro.net.network import HttpClient, Network
from repro.net.tls import PinSet, TrustStore
from repro.obs.bus import ObservabilityBus
from repro.widevine.keybox import issue_keybox
from repro.widevine.plugin import WidevineHalPlugin
from repro.widevine.versions import CDM_CURRENT, CDM_NEXUS5

__all__ = ["AndroidDevice", "nexus_5", "pixel_6", "galaxy_s7", "DeviceSpec"]


@dataclass(frozen=True)
class DeviceSpec:
    """Static facts about a device model."""

    model: str
    android_version: str
    api_level: int
    security_patch: str  # "YYYY-MM" of the last received update
    has_tee: bool
    cdm_version: str

    @property
    def discontinued(self) -> bool:
        """No security updates since before 2020 — the paper's notion of
        a deprecated device."""
        return self.security_patch < "2020-01"


class AndroidDevice:
    """One booted Android device on the simulated network."""

    def __init__(
        self,
        spec: DeviceSpec,
        *,
        serial: str,
        network: Network,
        authority: KeyboxAuthority,
        obs: ObservabilityBus | None = None,
    ):
        self.spec = spec
        self.serial = serial
        self.network = network
        self.rooted = False
        self.clock = SimClock()
        # The device's observation spine: every playback-path component
        # emits spans/arrows through it. Callers that orchestrate many
        # devices (the study, a fleet cell's DeviceSession) inject a
        # shared bus so all observations land in one tree.
        self.obs = obs if obs is not None else ObservabilityBus()
        self.trace = FlowTrace()
        self.obs.add_flow_consumer(self.trace.record)
        self.trust_store = TrustStore()
        self.persistent_store: dict[str, bytes] = {}
        self.processes: list[Process] = []

        # Factory keybox, registered with the provisioning authority
        # together with the device's attested Widevine capability.
        self.keybox = issue_keybox(serial)
        authority.register(
            self.keybox, security_level="L1" if spec.has_tee else "L3"
        )

        # §IV-B: the CDM loads "in mediadrmserver starting from Android 7
        # and mediaserver otherwise".
        drm_process_name = "mediadrmserver" if spec.api_level >= 24 else "mediaserver"
        self.drm_process = Process(drm_process_name)
        self.processes.append(self.drm_process)

        self.widevine_plugin = WidevineHalPlugin(
            process=self.drm_process,
            keybox=self.keybox,
            has_tee=spec.has_tee,
            cdm_version=spec.cdm_version,
            device_model=spec.model,
            persistent_store=self.persistent_store,
            serial=serial,
            clock=self.clock,
            obs=self.obs,
        )
        self.drm_server = MediaDrmServer(self.drm_process)
        self.drm_server.register_plugin(self.widevine_plugin)

    @property
    def widevine_security_level(self) -> str:
        return self.widevine_plugin.security_level

    def install_drm_plugin(self, plugin) -> None:
        """Register an additional DRM system with the Media DRM Server
        (§II-B: the framework dispatches to many key systems by UUID)."""
        self.drm_server.register_plugin(plugin)

    def find_process(self, name: str) -> Process:
        for process in self.processes:
            if process.name == name:
                return process
        raise LookupError(f"no process named {name!r} on {self.spec.model}")

    def spawn_app_process(self, package: str) -> Process:
        """Start (or restart) the app's process. Android keeps at most
        one process per package; relaunching replaces it — which also
        drops any instrumentation attached to the old incarnation."""
        self.processes = [p for p in self.processes if p.name != package]
        process = Process(package)
        self.processes.append(process)
        return process

    def new_http_client(self, pin_set: PinSet | None = None) -> HttpClient:
        """An HTTP stack bound to this device's trust store."""
        return HttpClient(
            self.network,
            trust_store=self.trust_store,
            pin_set=pin_set,
            obs=self.obs,
        )

    def __repr__(self) -> str:
        return (
            f"AndroidDevice({self.spec.model!r}, Android "
            f"{self.spec.android_version}, {self.widevine_security_level})"
        )


def nexus_5(
    network: Network,
    authority: KeyboxAuthority,
    *,
    serial: str = "N5-001",
    obs: ObservabilityBus | None = None,
) -> AndroidDevice:
    """The discontinued device of §IV-B "Outdated Device"."""
    spec = DeviceSpec(
        model="Nexus 5",
        android_version="6.0.1",
        api_level=23,
        security_patch="2016-10",
        has_tee=False,
        cdm_version=str(CDM_NEXUS5),
    )
    return AndroidDevice(
        spec, serial=serial, network=network, authority=authority, obs=obs
    )


def pixel_6(
    network: Network,
    authority: KeyboxAuthority,
    *,
    serial: str = "P6-001",
    obs: ObservabilityBus | None = None,
) -> AndroidDevice:
    """A current, supported L1 device."""
    spec = DeviceSpec(
        model="Pixel 6",
        android_version="12",
        api_level=31,
        security_patch="2021-12",
        has_tee=True,
        cdm_version=str(CDM_CURRENT),
    )
    return AndroidDevice(
        spec, serial=serial, network=network, authority=authority, obs=obs
    )


def galaxy_s7(
    network: Network,
    authority: KeyboxAuthority,
    *,
    serial: str = "S7-001",
    obs: ObservabilityBus | None = None,
) -> AndroidDevice:
    """A discontinued *L1* device (TEE present, updates stopped 2019).

    The complement of the Nexus 5 case: its keybox resists the memory
    scan (TEE-backed), but its CDM is old enough that revocation-abiding
    services refuse it — the availability/security trade-off of Q4 from
    the other side.
    """
    spec = DeviceSpec(
        model="Galaxy S7",
        android_version="8.0",
        api_level=26,
        security_patch="2019-04",
        has_tee=True,
        cdm_version="11.0.0",
    )
    return AndroidDevice(
        spec, serial=serial, network=network, authority=authority, obs=obs
    )
