"""Cross-layer observability: the bus must never perturb the study's
byte-identity contract, and every legacy channel must survive on it."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.android.device import pixel_6
from repro.android.trace import FlowTrace
from repro.core.figures import capture_figure1, figure1_matches
from repro.core.monitor import DrmApiMonitor
from repro.core.study import WideLeakStudy
from repro.license_server.provisioning import KeyboxAuthority
from repro.net.network import Network
from repro.obs.bus import ObservabilityBus
from repro.obs.counters import POINT_COUNTERS, SPAN_COUNTERS
from repro.ott.app import OttApp
from repro.ott.backend import OttBackend
from repro.ott.registry import ALL_PROFILES, profile_by_name

SUBSET = ALL_PROFILES[:3]


class TestStudyObservability:
    @pytest.fixture(scope="class")
    def result(self):
        return WideLeakStudy(profiles=SUBSET).run()

    def test_counters_land_in_the_summary(self, result):
        counters = result.summary()["observability"]["counters"]
        assert counters["license.issued"] >= len(SUBSET)
        assert counters["flow.arrows"] > 0

    def test_metrics_table_renders(self, result):
        table = result.metrics_table()
        assert "license.issued" in table
        assert "span.study.app" in table


def derived_counters(bus: ObservabilityBus) -> dict[str, int]:
    """The counter table applied to every record *bus* kept: its
    spans, their points and its root-level events."""
    derived = Counter()
    for span in bus.spans:
        rule = SPAN_COUNTERS.get(span.name)
        if rule is not None:
            derived.update(rule(span.attrs))
        points = [p.name for p in span.points]
        derived.update(POINT_COUNTERS[n] for n in points if n in POINT_COUNTERS)
    derived.update(
        POINT_COUNTERS[e.name] for e in bus.events if e.name in POINT_COUNTERS
    )
    return dict(derived)


def traced_arrows(monkeypatch) -> list[int]:
    """Patch ``FlowTrace.record`` so the returned one-item list adds up
    every arrow any device's trace records from now on."""
    total = [0]
    record = FlowTrace.record

    def counting(trace, *arrows):
        total[0] += len(arrows)
        record(trace, *arrows)

    monkeypatch.setattr(FlowTrace, "record", counting)
    return total


class TestExchangeCounters:
    def test_counters_are_a_function_of_the_request_spans(self, monkeypatch):
        """Every counter of a full study — all 20 of the
        artifact's — is the counter table applied to the records the
        bus kept (its spans, their points and its root events), plus
        ``flow.arrows``: the arrows the devices' traces recorded."""
        arrows = traced_arrows(monkeypatch)
        study = WideLeakStudy.with_default_apps()
        study.run()
        counted = study.obs.metrics.counters()
        assert derived_counters(study.obs) | {"flow.arrows": arrows[0]} == counted
        assert len(counted) == 20
        assert counted["proxy.flows"] and counted["cdn.segments_served"]

    def test_figure1_arrows_are_kept_by_the_devices_only(self):
        """A traced study keeps no ``flow`` point on any span or root
        event; the bus counts the arrows and the L1 device's trace still
        renders the Figure 1 sequence."""
        study = WideLeakStudy.with_default_apps()
        study.run()
        points = [p.name for span in study.obs.spans for p in span.points]
        points += [e.name for e in study.obs.events]
        assert points and "flow" not in points
        assert study.obs.metrics.counters()["flow.arrows"] == 1524
        app = OttApp(
            profile_by_name("OCS"),
            study.l1_device,
            study.backends[profile_by_name("OCS").service],
        )
        assert figure1_matches(capture_figure1(app))
        assert "Application -> License Server: Get License" in (
            study.l1_device.trace.render()
        )

    def test_fleet_counters_are_a_function_of_the_campaign_span(self, tmp_path):
        from repro.fleet import Campaign, FleetScheduler

        outcome = FleetScheduler(tmp_path).submit(Campaign(profiles=SUBSET[:1]))
        fleet = {
            name: value
            for name, value in outcome.obs.metrics.counters().items()
            if name.startswith("fleet.")
        }
        assert fleet == derived_counters(outcome.obs)
        assert fleet["fleet.cells.total"] == 2 and fleet["fleet.computed"] == 2


class TestDisabledBusStudy:
    def test_study_runs_and_summary_omits_observability(self):
        study = WideLeakStudy(
            profiles=SUBSET, obs=ObservabilityBus(enabled=False)
        )
        result = study.run()
        assert result.summary()["observability"] == {}
        assert study.obs.spans == []

    def test_figure1_is_identical_traced_and_untraced(self):
        """The device traces its own arrows; Figure 1 must come out
        byte-identical whether the bus records or not."""
        profile = profile_by_name("OCS")

        def arrows(obs):
            study = WideLeakStudy(obs=obs)
            app = OttApp(
                profile, study.l1_device, study.backends[profile.service]
            )
            return capture_figure1(app)

        traced = arrows(None)  # default: enabled bus
        untraced = arrows(ObservabilityBus(enabled=False))
        assert traced == untraced
        assert figure1_matches(traced)


class TestDeviceTraces:
    @pytest.mark.parametrize(
        "obs",
        [None, ObservabilityBus(enabled=False)],
        ids=["enabled", "disabled"],
    )
    def test_playback_fills_only_its_own_device_trace(self, obs):
        """The study's two devices share one bus; a playback on the L1
        device leaves the legacy (L3) device's trace empty."""
        study = WideLeakStudy(profiles=SUBSET, obs=obs)
        profile = SUBSET[0]
        app = OttApp(profile, study.l1_device, study.backends[profile.service])
        study.l1_device.trace.clear()
        study.legacy_device.trace.clear()
        assert app.play().ok
        assert study.l1_device.trace.labels()
        assert list(study.legacy_device.trace.events) == []

    def test_a_device_built_without_a_bus_records_nothing(self):
        """A long-lived process must not keep every span it plays: the
        default device bus is the disabled one; its Figure 1 trace still
        fills."""
        network, authority = Network(), KeyboxAuthority()
        profile = profile_by_name("Showtime")
        backend = OttBackend(profile, network, authority)
        device = pixel_6(network, authority)
        app = OttApp(profile, device, backend)
        for __ in range(3):
            assert app.play().ok
        assert device.trace.labels()
        assert device.obs.spans == []
        assert device.obs.events == []
        assert device.obs.metrics.counters() == {}


class TestMonitorDetachFlush:
    """Regression: tearing the hook session down used to discard the
    buffer dumps; detach must flush them into the bus first."""

    @pytest.fixture()
    def played_monitor(self):
        study = WideLeakStudy(profiles=SUBSET)
        profile = SUBSET[0]
        app = OttApp(
            profile, study.l1_device, study.backends[profile.service]
        )
        monitor = DrmApiMonitor(study.l1_device)
        monitor.attach()
        assert app.play().ok
        return study, monitor

    def _dump_events(self, study):
        return [e for e in study.obs.events if e.name == "oecc.dump"]

    def test_dumps_reach_the_bus_on_detach(self, played_monitor):
        study, monitor = played_monitor
        collected = len(monitor.oecc.dumps)
        assert collected > 0
        assert self._dump_events(study) == []  # not flushed yet
        monitor.detach()
        events = self._dump_events(study)
        assert len(events) == collected
        assert study.obs.metrics.counters()["oecc.dumps"] == collected
        # Size-only metadata: the dumped bytes themselves stay off the bus.
        assert all(set(e.attrs) == {"function", "direction", "size"} for e in events)

    def test_detach_is_idempotent(self, played_monitor):
        study, monitor = played_monitor
        collected = len(monitor.oecc.dumps)
        monitor.detach()
        monitor.detach()  # second detach: no session, no double flush
        assert len(self._dump_events(study)) == collected

    def test_incremental_flush_never_replays(self, played_monitor):
        study, monitor = played_monitor
        first = monitor.oecc.flush_dumps()
        assert first == len(monitor.oecc.dumps)
        assert monitor.oecc.flush_dumps() == 0  # nothing new
        monitor.detach()  # flushes the (empty) remainder
        assert len(self._dump_events(study)) == first
