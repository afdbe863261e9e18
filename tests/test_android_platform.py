"""Android platform: processes, devices, SafetyNet, APK model, traces."""

import pytest

from repro.android.device import DeviceSpec, nexus_5, pixel_6
from repro.android.packages import Apk, decompile
from repro.android.process import MemoryRegion, Process
from repro.android.safetynet import attest
from repro.android.trace import FLOW_TRACE_SIZE, FlowEvent, FlowTrace
from repro.license_server.provisioning import KeyboxAuthority
from repro.net.network import Network


@pytest.fixture
def net_auth():
    return Network(), KeyboxAuthority()


class TestProcess:
    def test_pids_unique(self):
        assert Process("a").pid != Process("b").pid

    def test_map_region(self):
        process = Process("p")
        region = process.map_region("mod:.data", 64)
        assert len(region.data) == 64
        assert region in process.regions

    def test_unmap_region(self):
        process = Process("p")
        region = process.map_region("r", 16)
        process.unmap_region(region)
        assert process.regions == []

    def test_region_write_read(self):
        region = MemoryRegion(name="r", data=bytearray(16))
        region.write(4, b"abcd")
        assert region.read(4, 4) == b"abcd"

    def test_region_write_bounds(self):
        region = MemoryRegion(name="r", data=bytearray(8))
        with pytest.raises(ValueError, match="outside region"):
            region.write(6, b"abcd")
        with pytest.raises(ValueError, match="outside region"):
            region.write(-1, b"a")

    def test_unreadable_region(self):
        region = MemoryRegion(name="r", data=bytearray(8), readable=False)
        with pytest.raises(PermissionError):
            region.read()
        process = Process("p")
        process.regions.append(region)
        assert process.readable_regions() == []

    def test_modules(self):
        process = Process("p")
        implementation = object()
        process.load_module("libx.so", implementation)
        assert process.module("libx.so") is implementation
        assert process.has_module("libx.so")
        with pytest.raises(ValueError, match="already loaded"):
            process.load_module("libx.so", object())
        with pytest.raises(LookupError, match="not loaded"):
            process.module("liby.so")


class TestDevice:
    def test_nexus5_profile(self, net_auth):
        device = nexus_5(*net_auth)
        assert device.spec.model == "Nexus 5"
        assert device.spec.discontinued
        assert not device.spec.has_tee
        assert device.widevine_security_level == "L3"
        assert device.spec.cdm_version == "3.1.0"
        # Android 6 → mediaserver, not mediadrmserver.
        assert device.drm_process.name == "mediaserver"

    def test_pixel6_profile(self, net_auth):
        device = pixel_6(*net_auth)
        assert not device.spec.discontinued
        assert device.widevine_security_level == "L1"
        assert device.drm_process.name == "mediadrmserver"

    def test_keybox_registered_with_authority(self, net_auth):
        net, authority = net_auth
        device = pixel_6(net, authority)
        assert authority.knows(device.keybox.device_id)

    def test_spawn_app_process(self, net_auth):
        device = pixel_6(*net_auth)
        process = device.spawn_app_process("com.app")
        assert device.find_process("com.app") is process
        with pytest.raises(LookupError):
            device.find_process("com.missing")

    def test_l1_modules(self, net_auth):
        device = pixel_6(*net_auth)
        assert device.drm_process.has_module("liboemcrypto.so")
        assert device.drm_process.has_module("libwvdrmengine.so")

    def test_l3_modules(self, net_auth):
        device = nexus_5(*net_auth)
        assert not device.drm_process.has_module("liboemcrypto.so")

    def test_discontinued_spec_boundary(self):
        old = DeviceSpec("X", "9", 28, "2019-12", True, "14.0.0")
        new = DeviceSpec("Y", "10", 29, "2020-01", True, "14.0.0")
        assert old.discontinued
        assert not new.discontinued


class TestSafetyNet:
    def test_clean_device_passes(self, net_auth):
        device = pixel_6(*net_auth)
        device.spawn_app_process("com.app")
        result = attest(device, "com.app")
        assert result.passed

    def test_rooted_device_fails_cts_only(self, net_auth):
        device = pixel_6(*net_auth)
        device.rooted = True
        device.spawn_app_process("com.app")
        result = attest(device, "com.app")
        assert result.basic_integrity
        assert not result.cts_profile_match
        assert not result.passed

    def test_instrumented_app_fails_basic(self, net_auth):
        device = pixel_6(*net_auth)
        process = device.spawn_app_process("com.app")
        process.attached_instruments.append("frida")
        assert not attest(device, "com.app").basic_integrity

    def test_instrumented_drm_process_invisible_to_app(self, net_auth):
        """§V-B: hooks on mediadrmserver are invisible to SafetyNet."""
        device = pixel_6(*net_auth)
        device.spawn_app_process("com.app")
        device.drm_process.attached_instruments.append("frida")
        assert attest(device, "com.app").basic_integrity


class TestApk:
    def test_decompile_returns_classes(self):
        apk = Apk(package="com.x", version="1")
        apk.add_class("com.x.Main", ("android.app.Activity.onCreate",))
        assert len(decompile(apk)) == 1

    def test_class_fields(self):
        apk = Apk(package="com.x", version="1")
        apk.add_class("com.x.Drm", ("android.media.MediaDrm.openSession",))
        cls = decompile(apk)[0]
        assert cls.name == "com.x.Drm"
        assert "android.media.MediaDrm.openSession" in cls.method_refs


class TestFlowTrace:
    def test_record_and_render(self):
        trace = FlowTrace()
        trace.record(("A", "B", "hello()"))
        assert trace.labels() == [("A", "B", "hello()")]
        assert "A -> B: hello()" in trace.render()

    def test_events_are_immutable_named_arrows(self):
        trace = FlowTrace()
        trace.record(("A", "B", "hello()"))
        (event,) = trace.events
        assert event == FlowEvent("A", "B", "hello()")
        assert type(event) is FlowEvent
        assert (event.source, event.target, event.label) == ("A", "B", "hello()")
        assert str(event) == "A -> B: hello()"
        assert repr(event) == "FlowEvent(source='A', target='B', label='hello()')"
        with pytest.raises(AttributeError):
            event.label = "other()"

    def test_clear(self):
        trace = FlowTrace()
        trace.record(("A", "B", "x"))
        trace.clear()
        assert list(trace.events) == []

    def test_ring_keeps_the_last_arrows(self):
        trace = FlowTrace()
        trace.record(*((f"s{i}", "t", f"m{i}") for i in range(3000)))
        for i in range(3000, 5000):
            trace.record((f"s{i}", "t", f"m{i}"))
        labels = trace.labels()
        assert len(labels) == FLOW_TRACE_SIZE
        assert labels == [
            (f"s{i}", "t", f"m{i}") for i in range(5000 - FLOW_TRACE_SIZE, 5000)
        ]
