"""Cross-layer observability: the bus must never perturb the study's
byte-identity contract, and every legacy channel must survive on it."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.figures import capture_figure1, figure1_matches
from repro.core.monitor import DrmApiMonitor
from repro.core.study import WideLeakStudy
from repro.net.network import exchange_counters
from repro.obs.bus import ObservabilityBus
from repro.obs.sampling import TraceSampler
from repro.ott.app import OttApp
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


class TestExchangeCounters:
    def test_counters_are_a_function_of_the_request_spans(self):
        """Every ``http.*``/``proxy.*``/``cdn.*`` counter of a full,
        unsampled study is the sum of :func:`exchange_counters` over
        its recorded ``http.request`` spans."""
        study = WideLeakStudy.with_default_apps()
        assert study.obs.sampler is None
        study.run()
        derived = Counter()
        for span in study.obs.spans:
            if span.name == "http.request":
                derived.update(exchange_counters(span.attrs))
        counted = {
            name: value
            for name, value in study.obs.metrics.counters().items()
            if name.startswith(("http.", "proxy.", "cdn."))
        }
        assert dict(derived) == counted
        assert counted["proxy.flows"] and counted["cdn.segments_served"]


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
        [
            None,
            ObservabilityBus(enabled=False),
            ObservabilityBus(sampler=TraceSampler(2, seed=0)),
        ],
        ids=["enabled", "disabled", "sampled"],
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
