"""DASH packager: titles + key assignments → CDN assets + MPD.

This is the content-preparation pipeline a streaming service runs ahead
of time: encrypt each track according to the service's key policy, wrap
into fragmented MP4, upload to the CDN, and emit the manifest with
``ContentProtection`` descriptors. The per-service *choices* (which
tracks get keys, how many keys) come from
:mod:`repro.license_server.policy` — they are the study's subject.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.bmff.builder import build_init_segment, build_media_segment
from repro.bmff.cenc import (
    CencSample,
    encrypt_sample_cbcs,
    encrypt_samples,
    iv_sequence,
)
from repro.bmff.pssh import build_widevine_pssh
from repro.dash.mpd import AdaptationSet, ContentProtectionTag, Mpd, MpdRepresentation
from repro.media.codecs import sample_header_length
from repro.media.content import Representation, Title, TrackKind
from repro.media.subtitles import build_webvtt
from repro.net.cdn import CdnServer
from repro.obs.bus import NULL_BUS, ObservabilityBus

__all__ = [
    "TrackCrypto",
    "PackagedTitle",
    "Packager",
    "segment_cache_stats",
    "clear_segment_cache",
]

_MIME_BY_KIND = {
    TrackKind.VIDEO: "video/mp4",
    TrackKind.AUDIO: "audio/mp4",
    TrackKind.TEXT: "text/vtt",
}


class _SegmentCache:
    """Process-wide LRU of packaged (encrypted) media segments.

    Segment bytes are a pure function of the packaging inputs: the
    sample payloads derive deterministically from
    ``(title_id, rep_id, codec, bitrate, segment duration)``, the IV
    sequence from ``(service, title_id, rep_id, segment index)``, and
    the ciphertext from the content key and protection scheme. The ten
    study backends — and every deterministic world rebuild in tests and
    benchmarks — therefore re-encrypt byte-identical segments; memoizing
    them removes that CPU cost from study construction.

    Thread-safe: the cache is process-wide, so two worlds built on two
    threads share it without tearing an entry.
    """

    def __init__(self, max_entries: int = 8192):
        self._entries: OrderedDict[tuple, bytes] = OrderedDict()
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, cache_key: tuple) -> bytes | None:
        with self._lock:
            segment = self._entries.get(cache_key)
            if segment is None:
                self.misses += 1
                return None
            self._entries.move_to_end(cache_key)
            self.hits += 1
            return segment

    def put(self, cache_key: tuple, segment: bytes) -> None:
        with self._lock:
            self._entries[cache_key] = segment
            self._entries.move_to_end(cache_key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


_SEGMENT_CACHE = _SegmentCache()


def segment_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of the packaged-segment cache."""
    cache = _SEGMENT_CACHE
    with cache._lock:
        return {
            "hits": cache.hits,
            "misses": cache.misses,
            "entries": len(cache._entries),
        }


def clear_segment_cache() -> None:
    """Drop all memoized segments (cold-start benchmarking)."""
    _SEGMENT_CACHE.clear()


@dataclass(frozen=True)
class TrackCrypto:
    """Key material assigned to one representation.

    ``key is None`` means the representation ships in the clear.
    ``scheme`` selects the CENC protection scheme: ``"cenc"`` (AES-CTR
    subsample, the default for DASH) or ``"cbcs"`` (AES-CBC 1:9
    pattern, 16-byte IVs).
    """

    key_id: bytes | None
    key: bytes | None
    iv_size: int = 8
    scheme: str = "cenc"

    @property
    def protected(self) -> bool:
        return self.key is not None

    def __post_init__(self) -> None:
        if (self.key is None) != (self.key_id is None):
            raise ValueError("key and key_id must be both set or both None")
        if self.key is not None and len(self.key) != 16:
            raise ValueError("content key must be 16 bytes")
        if self.key_id is not None and len(self.key_id) != 16:
            raise ValueError("key id must be 16 bytes")
        if self.scheme not in ("cenc", "cbcs"):
            raise ValueError(f"unsupported protection scheme {self.scheme!r}")
        if self.scheme == "cbcs" and self.iv_size != 16:
            object.__setattr__(self, "iv_size", 16)


@dataclass
class PackagedTitle:
    """Everything the packager produced for one title."""

    title: Title
    mpd: Mpd
    mpd_xml: bytes
    mpd_path: str
    # rep_id → (init_url, [segment_urls]); subtitles have a single
    # "segment" holding the WebVTT document.
    asset_urls: dict[str, tuple[str, list[str]]] = field(default_factory=dict)
    # kid → key, for the license server.
    content_keys: dict[bytes, bytes] = field(default_factory=dict)
    # rep_id → kid (None = clear), for analysis convenience.
    kid_by_rep: dict[str, bytes | None] = field(default_factory=dict)

    def key_ids(self) -> set[bytes]:
        return set(self.content_keys)


class Packager:
    """Packages titles for one service onto one CDN."""

    def __init__(
        self,
        service: str,
        cdn: CdnServer,
        *,
        provider: str | None = None,
        publish_key_ids: bool = True,
        obs: ObservabilityBus | None = None,
    ):
        self.service = service
        self.cdn = cdn
        self.provider = provider or service
        self.obs = obs if obs is not None else NULL_BUS
        # When False the MPD omits per-representation cenc:default_KID
        # attributes (only the aggregated Widevine PSSH remains) —
        # modelling services whose per-track key metadata sits behind a
        # separate, possibly geo-blocked endpoint.
        self.publish_key_ids = publish_key_ids

    def package(
        self,
        title: Title,
        crypto_by_rep: dict[str, TrackCrypto],
        *,
        base_path: str | None = None,
    ) -> PackagedTitle:
        """Package *title*, protecting each representation as assigned.

        *crypto_by_rep* must contain an entry for every representation
        of the title — forcing callers (the service key policies) to
        make an explicit clear/protected decision per track, because
        the silent default is precisely the failure mode the paper
        documents.
        """
        missing = {r.rep_id for r in title.representations} - set(crypto_by_rep)
        if missing:
            raise ValueError(f"no crypto decision for representations: {missing}")

        with self.obs.span(
            "package.title", service=self.service, title=title.title_id
        ) as span:
            packaged = self._package(title, crypto_by_rep, base_path)
            span.set(segments=sum(len(u) for _, u in packaged.asset_urls.values()))
            return packaged

    def _package(
        self,
        title: Title,
        crypto_by_rep: dict[str, TrackCrypto],
        base_path: str | None,
    ) -> PackagedTitle:
        base = base_path or f"/{self.service}/{title.title_id}"
        all_kids = sorted(
            {c.key_id for c in crypto_by_rep.values() if c.key_id is not None}
        )
        packaged = PackagedTitle(
            title=title,
            mpd=Mpd(title_id=title.title_id, duration_s=title.duration_s),
            mpd_xml=b"",
            mpd_path=f"{base}/manifest.mpd",
        )

        video_set = AdaptationSet(content_type="video")
        audio_sets: list[AdaptationSet] = []
        text_sets: list[AdaptationSet] = []

        for rep in title.representations:
            crypto = crypto_by_rep[rep.rep_id]
            if rep.kind is TrackKind.TEXT:
                mpd_rep = self._package_subtitle(title, rep, base, packaged)
                text_sets.append(
                    AdaptationSet(
                        content_type="text",
                        lang=rep.language,
                        representations=[mpd_rep],
                    )
                )
                continue

            mpd_rep = self._package_av_track(
                title, rep, crypto, base, all_kids, packaged
            )
            if rep.kind is TrackKind.VIDEO:
                video_set.representations.append(mpd_rep)
            else:
                audio_sets.append(
                    AdaptationSet(
                        content_type="audio",
                        lang=rep.language,
                        representations=[mpd_rep],
                    )
                )

        packaged.mpd.adaptation_sets = [video_set, *audio_sets, *text_sets]
        packaged.mpd_xml = packaged.mpd.to_xml()
        self.cdn.put(packaged.mpd_path, packaged.mpd_xml)
        return packaged

    def _package_av_track(
        self,
        title: Title,
        rep: Representation,
        crypto: TrackCrypto,
        base: str,
        all_kids: list[bytes],
        packaged: PackagedTitle,
    ) -> MpdRepresentation:
        pssh_boxes = []
        protections: list[ContentProtectionTag] = []
        if crypto.protected:
            assert crypto.key_id is not None and crypto.key is not None
            pssh = build_widevine_pssh(
                all_kids, provider=self.provider, content_id=title.title_id.encode()
            )
            pssh_boxes = [pssh]
            protections = [ContentProtectionTag.widevine(pssh.serialize())]
            if self.publish_key_ids:
                protections.insert(0, ContentProtectionTag.cenc(crypto.key_id))
            packaged.content_keys[crypto.key_id] = crypto.key

        init = build_init_segment(
            kind=rep.kind.value,
            codec=rep.codec,
            default_kid=crypto.key_id if crypto.protected else None,
            iv_size=crypto.iv_size,
            scheme=crypto.scheme,
            pssh=pssh_boxes,
        )
        init_path = f"{base}/{rep.rep_id}/init.mp4"
        init_url = self.cdn.put(init_path, init)

        segment_urls: list[str] = []
        clear_len = sample_header_length()
        for seg_index in range(title.segment_count):
            # Everything the segment bytes depend on: sample payloads
            # (title/rep identity, bitrate, segment duration), the IV
            # seed (service-scoped), and the crypto assignment.
            cache_key = (
                self.service,
                title.title_id,
                title.segment_duration_s,
                rep.rep_id,
                rep.codec,
                rep.bitrate_kbps,
                seg_index,
                crypto.key,
                crypto.key_id,
                crypto.iv_size,
                crypto.scheme,
                clear_len,
            )
            segment = _SEGMENT_CACHE.get(cache_key)
            if segment is None:
                segment = self._build_media_segment(
                    title, rep, crypto, seg_index, clear_len
                )
                _SEGMENT_CACHE.put(cache_key, segment)
            path = f"{base}/{rep.rep_id}/seg-{seg_index:04d}.m4s"
            segment_urls.append(self.cdn.put(path, segment))

        packaged.asset_urls[rep.rep_id] = (init_url, segment_urls)
        packaged.kid_by_rep[rep.rep_id] = crypto.key_id
        return MpdRepresentation(
            rep_id=rep.rep_id,
            bandwidth_kbps=rep.bitrate_kbps,
            codecs=rep.codec,
            mime_type=_MIME_BY_KIND[rep.kind],
            init_url=init_url,
            segment_urls=segment_urls,
            width=rep.resolution.width if rep.resolution else None,
            height=rep.resolution.height if rep.resolution else None,
            content_protections=protections,
        )

    def _build_media_segment(
        self,
        title: Title,
        rep: Representation,
        crypto: TrackCrypto,
        seg_index: int,
        clear_len: int,
    ) -> bytes:
        """Generate, encrypt and box one media segment (cache miss path)."""
        samples = title.samples_for_segment(rep, seg_index)
        if not crypto.protected:
            return build_media_segment(seg_index + 1, samples)
        assert crypto.key is not None
        seed = f"{self.service}/{title.title_id}/{rep.rep_id}/{seg_index}"
        ivs = iv_sequence(seed.encode(), len(samples), iv_size=crypto.iv_size)
        if crypto.scheme == "cbcs":
            enc: list[CencSample] = [
                encrypt_sample_cbcs(s, crypto.key, iv, clear_header=clear_len)
                for s, iv in zip(samples, ivs)
            ]
        else:
            enc = encrypt_samples(samples, crypto.key, ivs, clear_header=clear_len)
        return build_media_segment(seg_index + 1, enc, iv_size=crypto.iv_size)

    def _package_subtitle(
        self,
        title: Title,
        rep: Representation,
        base: str,
        packaged: PackagedTitle,
    ) -> MpdRepresentation:
        # Subtitles ship as standalone WebVTT; no Android DRM API exists
        # for encrypted subtitles (§IV "Insights"), and accordingly every
        # service the paper measured delivers them in clear.
        assert rep.language is not None
        vtt = build_webvtt(title.title_id, rep.language, title.duration_s)
        path = f"{base}/{rep.rep_id}/subs.vtt"
        url = self.cdn.put(path, vtt)
        packaged.asset_urls[rep.rep_id] = (url, [])
        packaged.kid_by_rep[rep.rep_id] = None
        return MpdRepresentation(
            rep_id=rep.rep_id,
            bandwidth_kbps=rep.bitrate_kbps,
            codecs=rep.codec,
            mime_type=_MIME_BY_KIND[TrackKind.TEXT],
            init_url=url,
            segment_urls=[],
        )
