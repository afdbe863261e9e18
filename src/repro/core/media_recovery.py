"""DRM-free media reconstruction — the tail of §IV-D.

"Finally, we use MPEG-CENC to decrypt all protected contents. With some
processing, we reconstruct the pirated media and play it on another
device (i.e., personal computer) without any OTT account."

Given a manifest URI and the content keys recovered by
:mod:`repro.core.keyladder_attack`, this pipeline downloads every asset
with an account-less client, CENC-decrypts what it has keys for,
rebuilds clear init/media segments, and verifies the result with the
reference player — the "another device". Since the keys came from an
L3 session, HD representations stay undecryptable and the best playable
quality lands at 960x540 (qHD), the paper's headline limitation.

Each track is recovered on its own: a failed download or an unparsable
or undecryptable asset marks that track, with a note, and the rest of
the title still recovers. All the ``cenc`` samples of a track, across
its segments, are decrypted as one keystream batch
(:func:`repro.bmff.cenc.decrypt_samples`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bmff.builder import (
    build_init_segment,
    build_media_segment,
    read_samples,
    read_track_info,
)
from repro.bmff.boxes import BoxParseError
from repro.bmff.cenc import CencDecryptError, decrypt_sample_cbcs, decrypt_samples
from repro.dash.mpd import Mpd, MpdParseError
from repro.media.player import AssetStatus, probe_subtitle, probe_track
from repro.net.network import HttpClient, Network

__all__ = ["RecoveredTrack", "RecoveredMedia", "MediaRecoveryPipeline"]


@dataclass
class RecoveredTrack:
    """One representation's recovery outcome."""

    rep_id: str
    kind: str
    height: int | None = None
    language: str | None = None
    was_encrypted: bool = False
    decrypted: bool = False
    playable: bool = False
    clear_init: bytes = b""
    clear_segments: list[bytes] = field(default_factory=list)
    note: str = ""


@dataclass
class RecoveredMedia:
    """A reconstructed, account-free copy of one title."""

    service: str
    title_id: str
    tracks: list[RecoveredTrack] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def best_video_height(self) -> int | None:
        heights = [
            t.height
            for t in self.tracks
            if t.kind == "video" and t.playable and t.height is not None
        ]
        return max(heights) if heights else None

    @property
    def playable_kinds(self) -> set[str]:
        return {t.kind for t in self.tracks if t.playable}

    @property
    def succeeded(self) -> bool:
        """DRM-free recovery counts once playable video exists."""
        return any(t.kind == "video" and t.playable for t in self.tracks)


class _DownloadError(Exception):
    """An asset GET that did not return 2xx."""


class MediaRecoveryPipeline:
    """Downloads, decrypts and re-verifies a title outside any app."""

    def __init__(self, network: Network):
        # Deliberately a *fresh* client: no account, no pins, no device.
        self.client = HttpClient(network)

    def recover(
        self,
        service: str,
        mpd_url: str,
        content_keys: dict[bytes, bytes],
    ) -> RecoveredMedia:
        response = self.client.get(mpd_url)
        result = RecoveredMedia(service=service, title_id="")
        if not response.ok:
            result.notes.append(f"manifest download failed: {response.status}")
            return result
        try:
            mpd = Mpd.from_xml(response.body)
        except MpdParseError as exc:
            result.notes.append(f"manifest unparsable: {exc}")
            return result
        result.title_id = mpd.title_id

        for aset in mpd.adaptation_sets:
            for rep in aset.representations:
                if aset.content_type == "text":
                    result.tracks.append(self._recover_subtitle(rep, aset.lang))
                else:
                    result.tracks.append(
                        self._recover_av_track(
                            rep, aset.content_type, aset.lang, content_keys
                        )
                    )
        return result

    def _fetch(self, url: str) -> bytes:
        response = self.client.get(url)
        if not response.ok:
            raise _DownloadError(f"{url} returned HTTP {response.status}")
        return response.body

    def _recover_subtitle(self, rep, language) -> RecoveredTrack:
        try:
            body = self._fetch(rep.init_url)
        except _DownloadError as exc:
            return RecoveredTrack(
                rep_id=rep.rep_id,
                kind="text",
                language=language,
                note=f"download failed: {exc}",
            )
        status = probe_subtitle(body)
        return RecoveredTrack(
            rep_id=rep.rep_id,
            kind="text",
            language=language,
            was_encrypted=status is AssetStatus.ENCRYPTED,
            decrypted=status is AssetStatus.CLEAR,
            playable=status is AssetStatus.CLEAR,
            clear_init=body if status is AssetStatus.CLEAR else b"",
            note="subtitles are delivered in clear" if status is AssetStatus.CLEAR else "",
        )

    def _recover_av_track(
        self, rep, kind: str, language, content_keys: dict[bytes, bytes]
    ) -> RecoveredTrack:
        track = RecoveredTrack(
            rep_id=rep.rep_id, kind=kind, height=rep.height, language=language
        )
        try:
            init = self._fetch(rep.init_url)
            info = read_track_info(init)
            track.was_encrypted = info.protected
            segments = [self._fetch(url) for url in rep.segment_urls]
            if not info.protected:
                # Already clear (e.g. Netflix audio): "reconstruction" is
                # a straight copy, playable anywhere with no account.
                track.clear_init = init
                track.clear_segments = segments
                track.decrypted = True
                track.note = "asset was delivered unencrypted"
            else:
                assert info.default_kid is not None
                key = content_keys.get(info.default_kid)
                if key is None:
                    track.note = (
                        f"no content key for kid {info.default_kid.hex()[:8]}… "
                        "(not granted at this security level)"
                    )
                    return track
                track.clear_segments = _decrypt_segments(segments, info, key)
                track.clear_init = build_init_segment(kind=info.kind, codec=info.codec)
                track.decrypted = True
        except _DownloadError as exc:
            track.note = f"download failed: {exc}"
            return track
        except (BoxParseError, CencDecryptError) as exc:
            track.note = f"asset unusable: {exc}"
            return track

        probe = probe_track(track.clear_init, track.clear_segments)
        track.playable = probe.status is AssetStatus.CLEAR
        if track.decrypted and not track.playable:
            track.note = f"decryption produced unplayable output: {probe.notes}"
        return track


def _decrypt_segments(segments: list[bytes], info, key: bytes) -> list[bytes]:
    """Clear copies of a protected track's media segments.

    Every protected sample of the track goes to the decryptor at once,
    so its ``cenc`` keystream runs form one batch; segments that carry
    no protection pass through unchanged.
    """
    parsed = [read_samples(segment, iv_size=info.iv_size) for segment in segments]
    protected = [
        sample for samples, is_protected in parsed if is_protected for sample in samples
    ]
    if info.scheme == "cbcs":
        clear = [decrypt_sample_cbcs(sample, key) for sample in protected]
    else:
        clear = decrypt_samples(protected, key)
    out: list[bytes] = []
    start = 0
    for index, (segment, (samples, is_protected)) in enumerate(zip(segments, parsed)):
        if not is_protected:
            out.append(segment)
            continue
        end = start + len(samples)
        out.append(build_media_segment(index + 1, clear[start:end]))
        start = end
    return out
