"""Figure 1 helpers plus the no-DRM music-service baseline ([14])."""

import pytest

from repro.core.figures import (
    FIGURE_1_ARROWS,
    capture_figure1,
    collapse_decode_loop,
    figure1_matches,
)


class TestCollapse:
    def test_keeps_first_decode_pair(self):
        q = ("Application", "Media Crypto", "queueSecureInputBuffer()")
        d = ("Media Crypto", "CDM", "Decrypt()")
        other = ("A", "B", "something()")
        events = [other, q, d, q, d, q, d]
        assert collapse_decode_loop(events) == [other, q, d]

    def test_non_decode_events_untouched(self):
        events = [("A", "B", "x()"), ("A", "B", "x()")]
        assert collapse_decode_loop(events) == events

    def test_figure1_matches(self):
        assert figure1_matches(list(FIGURE_1_ARROWS))
        assert not figure1_matches(list(FIGURE_1_ARROWS[:-1]))


class TestCaptureFigure1:
    def test_captures_canonical_sequence(self, full_study):
        from repro.ott.app import OttApp
        from repro.ott.registry import profile_by_name

        profile = profile_by_name("myCanal")
        app = OttApp(
            profile, full_study.l1_device, full_study.backends[profile.service]
        )
        events = capture_figure1(app)
        assert figure1_matches(events)

    def test_captures_canonical_sequence_after_the_ring_wraps(self, full_study):
        from repro.android.trace import FLOW_TRACE_SIZE
        from repro.ott.app import OttApp
        from repro.ott.registry import profile_by_name

        device = full_study.l1_device
        device.trace.record(*(("A", "B", f"m{i}") for i in range(5 * FLOW_TRACE_SIZE)))
        profile = profile_by_name("myCanal")
        app = OttApp(profile, device, full_study.backends[profile.service])
        assert figure1_matches(capture_figure1(app))

    def test_raises_on_failed_playback(self, full_study):
        from repro.ott.app import OttApp
        from repro.ott.registry import profile_by_name

        profile = profile_by_name("Disney+")
        app = OttApp(
            profile, full_study.legacy_device, full_study.backends[profile.service]
        )
        with pytest.raises(RuntimeError, match="playback failed"):
            capture_figure1(app)


class TestMarkdownRendering:
    def test_table_markdown(self, study_result):
        markdown = study_result.table.render_markdown()
        lines = markdown.splitlines()
        assert lines[0].startswith("| OTT |")
        assert lines[1].startswith("|---")
        assert len(lines) == 12  # header + separator + 10 rows
        assert "| Netflix |" in markdown


class TestMusicServiceBaseline:
    """[14] 'Looney Tunes: exposing the lack of DRM protection in
    Indian music streaming services' — the degenerate case the paper's
    Q1 contrasts against: no DRM at all, everything is a direct
    download."""

    def test_all_clear_music_catalog(self):
        from repro.dash.packager import Packager, TrackCrypto
        from repro.media.content import make_title
        from repro.media.player import AssetStatus, probe_track
        from repro.net.cdn import CdnServer
        from repro.net.http import HttpRequest, parse_url
        from repro.net.network import HttpClient, Network

        network = Network()
        cdn = CdnServer("cdn.tunes.example")
        network.register(cdn)
        # An audio-only "album": no video, no subtitles, no keys anywhere.
        album = make_title(
            "tune00",
            "Album",
            video_resolutions=(),
            audio_languages=("hi", "ta"),
            subtitle_languages=(),
        )
        crypto = {
            rep.rep_id: TrackCrypto(None, None) for rep in album.representations
        }
        packaged = Packager("tunes", cdn).package(album, crypto)
        assert packaged.content_keys == {}

        client = HttpClient(network)  # no account, no app, no DRM
        for rep in album.representations:
            init_url, seg_urls = packaged.asset_urls[rep.rep_id]
            init = client.get(init_url).body
            segments = [client.get(u).body for u in seg_urls]
            assert probe_track(init, segments).status is AssetStatus.CLEAR
