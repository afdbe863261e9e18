"""Figure 1 — Encrypted Content Playback in Android.

Replays one full DASH playback on an L1 device and checks the captured
message sequence against the figure's arrows (application ↔ Media DRM
Server ↔ CDM, license server, CDN, Media Crypto). The benchmark times
one complete Figure-1 round trip (license acquisition + secure decode).
"""

from __future__ import annotations

from repro.core.figures import FIGURE_1_ARROWS, capture_figure1
from repro.ott.app import OttApp
from repro.ott.registry import profile_by_name


def test_figure1_sequence_reproduced(study, capsys):
    profile = profile_by_name("OCS")
    app = OttApp(profile, study.l1_device, study.backends[profile.service])
    arrows = capture_figure1(app)
    with capsys.disabled():
        print("\n=== Figure 1 message sequence (captured) ===")
        for source, target, label in arrows:
            print(f"  {source} -> {target}: {label}")
    assert tuple(arrows) == FIGURE_1_ARROWS


def test_bench_figure1_playback(benchmark, study):
    """One full encrypted-playback round trip (Figure 1, end to end)."""
    profile = profile_by_name("Showtime")
    app = OttApp(profile, study.l1_device, study.backends[profile.service])
    app.play()  # warm: provisioning done once

    def run():
        study.l1_device.trace.clear()
        result = app.play()
        assert result.ok
        return result

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.video_height == 1080
