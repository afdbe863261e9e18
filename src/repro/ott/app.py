"""The Android OTT application model.

One playback session for either DRM: authentication, manifest retrieval
(plain, or over Netflix's Widevine secure channel), track selection and
a per-track download/parse/decode loop. Only how keys arrive (Widevine's
``MediaDrm`` with provisioning, or Amazon's embedded CDM) and how a
protected sample becomes a frame depend on the DRM. Also models the
app-hardening layer the paper side-steps: certificate pinning,
anti-debugging, SafetyNet.

On the Widevine path the app, like a real one, never sees decrypted
media buffers — only frame metadata surfaces from the codec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from repro.android.device import AndroidDevice
from repro.android.mediacodec import CodecException, CryptoInfo, DecodedFrame, MediaCodec
from repro.android.mediacrypto import MediaCrypto
from repro.android.mediadrm import (
    MediaDrm,
    MediaDrmException,
    NotProvisionedException,
)
from repro.android.packages import Apk
from repro.android.safetynet import attest
from repro.bmff.builder import TrackInfo, read_samples, read_track_info
from repro.bmff.cenc import CencSample
from repro.bmff.pssh import WIDEVINE_SYSTEM_ID, WidevinePsshData
from repro.dash.client import TrackSelectionError, TrackSelector
from repro.dash.mpd import Mpd, MpdRepresentation
from repro.media.subtitles import parse_webvtt
from repro.net.tls import PinSet
from repro.obs.bus import NULL_BUS, ObservabilityBus
from repro.ott.backend import SECURE_CHANNEL_CONTENT_ID, OttBackend
from repro.ott.custom_drm import EmbeddedCdm, EmbeddedDrmError
from repro.ott.profile import URI_SECURE_CHANNEL, OttProfile

__all__ = [
    "OttApp",
    "OttError",
    "AppProtectionError",
    "ProvisioningDeniedError",
    "LicenseDeniedError",
    "PlaybackError",
    "TrackPlayback",
    "PlaybackResult",
]


class OttError(Exception):
    """Base class for app-level failures."""


class AppProtectionError(OttError):
    """The app refused to run (anti-debug / SafetyNet tripped)."""


class ProvisioningDeniedError(OttError):
    """The provisioning server refused this device (revocation)."""


class LicenseDeniedError(OttError):
    """The license server refused to deliver keys."""


class PlaybackError(OttError):
    """Any other playback failure."""


@dataclass
class TrackPlayback:
    """Per-track playback statistics."""

    rep_id: str
    kind: str
    encrypted: bool
    frames_total: int = 0
    frames_valid: int = 0

    @property
    def ok(self) -> bool:
        return self.frames_total > 0 and self.frames_valid == self.frames_total


@dataclass
class PlaybackResult:
    """Outcome of one playback attempt."""

    ok: bool
    title_id: str
    error: str | None = None
    used_widevine: bool = False
    used_custom_drm: bool = False
    security_level: str | None = None
    video_height: int | None = None
    provisioning_failed: bool = False
    tracks: list[TrackPlayback] = field(default_factory=list)
    subtitle_ok: bool | None = None  # None = no subtitle track played


def _ranges(sample: CencSample) -> tuple[tuple[int, int], ...]:
    """A sample's (clear, protected) subsample byte counts."""
    return tuple((s.clear_bytes, s.protected_bytes) for s in sample.entry.subsamples)


@dataclass(frozen=True)
class _WidevineDecode:
    """A protected sample goes, still encrypted, to a codec configured
    with ``MediaCrypto``; the platform CDM decrypts behind it."""

    crypto: MediaCrypto

    def codec(self, rep: MpdRepresentation, info: TrackInfo) -> MediaCodec:
        if not info.protected:
            return MediaCodec.create_decoder(rep.mime_type)
        secure = self.crypto.requires_secure_decoder_component(rep.mime_type)
        codec = MediaCodec.create_decoder(rep.mime_type, secure=secure)
        codec.configure(self.crypto)
        return codec

    def frame(
        self, codec: MediaCodec, info: TrackInfo, sample: CencSample
    ) -> DecodedFrame:
        crypto_info = CryptoInfo(
            info.default_kid, sample.entry.iv, _ranges(sample), info.scheme
        )
        return codec.queue_secure_input_buffer(sample.data, crypto_info)


@dataclass(frozen=True)
class _EmbeddedDecode:
    """The app decrypts a protected sample in its own process and
    renders the clear bytes through a plain codec."""

    cdm: EmbeddedCdm
    render: Callable[[MediaCodec, bytes], DecodedFrame]

    def codec(self, rep: MpdRepresentation, info: TrackInfo) -> MediaCodec:
        return MediaCodec.create_decoder(rep.mime_type)

    def frame(
        self, codec: MediaCodec, info: TrackInfo, sample: CencSample
    ) -> DecodedFrame:
        ranges = list(_ranges(sample))
        try:
            clear = self.cdm.decrypt(
                info.default_kid, sample.data, sample.entry.iv, ranges
            )
        except KeyError as exc:
            raise CodecException(f"decrypt failed: {exc.args[0]}") from None
        return self.render(codec, clear)


class OttApp:
    """One installed OTT app on one device."""

    def __init__(
        self,
        profile: OttProfile,
        device: AndroidDevice,
        backend: OttBackend,
    ):
        self.profile = profile
        self.device = device
        self.backend = backend
        self.apk: Apk = profile.build_apk()
        self.process = device.spawn_app_process(profile.package)
        self.token: str | None = None
        # The paper's "protections bypassed via public Frida scripts"
        # switch — set by instrumentation, checked by _check_protections.
        self.protections_bypassed = False

        # The app ships pins for every first-party host (what the paper's
        # repinning scripts must defeat before interception works).
        pin_set = PinSet()
        for server in (
            backend.api,
            backend.cdn,
            backend.license_server,
            backend.provisioning,
        ):
            pin_set.pin(server.hostname, server.certificate)
        self.http = device.new_http_client(pin_set)

    # -- protections --------------------------------------------------------

    def _check_protections(self) -> None:
        if self.protections_bypassed:
            return
        if self.apk.anti_debug and self.process.attached_instruments:
            raise AppProtectionError(
                f"{self.profile.name}: debugger/instrumentation detected"
            )
        if self.apk.checks_safetynet:
            result = attest(self.device, self.profile.package)
            if not result.basic_integrity:
                raise AppProtectionError(
                    f"{self.profile.name}: SafetyNet attestation failed"
                )

    # -- account -----------------------------------------------------------------

    def login(self, username: str = "alice") -> None:
        response = self.http.post(
            f"https://{self.profile.api_host}/auth",
            json.dumps({"username": username}).encode(),
        )
        if not response.ok:
            raise OttError(f"login failed: {response.body.decode()}")
        self.token = json.loads(response.body.decode())["token"]

    def _require_token(self) -> str:
        if self.token is None:
            self.login()
        assert self.token is not None
        return self.token

    # -- DRM helpers -------------------------------------------------------------------

    def _get_key_request_provisioning(
        self, drm: MediaDrm, session_id: bytes, init_data: bytes
    ) -> bytes:
        """getKeyRequest with Android's provisioning round-trip."""
        try:
            return drm.get_key_request(session_id, init_data).data
        except NotProvisionedException:
            provision_request = drm.get_provision_request()
            response = self.http.post(
                f"https://{self.profile.provisioning_host}/provision",
                provision_request.data,
            )
            if not response.ok:
                raise ProvisioningDeniedError(response.body.decode()) from None
            drm.provide_provision_response(response.body)
            return drm.get_key_request(session_id, init_data).data

    def _acquire_license(
        self, drm: MediaDrm, session_id: bytes, init_data: bytes
    ) -> list[bytes]:
        with self.device.obs.span("license.exchange", app=self.profile.name):
            request = self._get_key_request_provisioning(drm, session_id, init_data)
            self.device.flows(("Application", "License Server", "Get License"))
            response = self.http.post(
                f"https://{self.profile.license_host}/license", request
            )
            if not response.ok:
                raise LicenseDeniedError(response.body.decode())
            self.device.flows(("License Server", "Application", "License"))
            try:
                return drm.provide_key_response(session_id, response.body)
            except MediaDrmException as exc:
                raise PlaybackError(f"license load failed: {exc}") from exc

    def _download(self, url: str) -> bytes:
        response = self.http.get(url)
        if not response.ok:
            raise PlaybackError(
                f"download failed ({response.status}): {url}"
            )
        return response.body

    # -- manifest retrieval ---------------------------------------------------------------

    def _fetch_manifest_url(self, drm: MediaDrm | None, title_id: str) -> str:
        with self.device.obs.span(
            "manifest.fetch", app=self.profile.name, title=title_id
        ) as span:
            url = self._fetch_manifest_url_inner(drm, title_id)
            span.set(
                secure_channel=self.profile.uri_protection == URI_SECURE_CHANNEL
            )
            return url

    def _fetch_manifest_url_inner(self, drm: MediaDrm | None, title_id: str) -> str:
        token = self._require_token()
        base = (
            f"https://{self.profile.api_host}/playback"
            f"?title={title_id}&token={token}"
        )
        # The secure channel is a Widevine session: an embedded-DRM
        # session (no MediaDrm) asks the plain API.
        if self.profile.uri_protection != URI_SECURE_CHANNEL or drm is None:
            response = self.http.get(base)
            if not response.ok:
                raise PlaybackError(f"playback API: {response.body.decode()}")
            return json.loads(response.body.decode())["mpd_url"]

        # Netflix-style secure channel: establish a Widevine session
        # whose generic keys protect the manifest URIs end-to-end.
        session_id = drm.open_session()
        bootstrap = WidevinePsshData(
            key_ids=[self.backend.secure_channel_kid],
            provider=self.profile.name,
            content_id=SECURE_CHANNEL_CONTENT_ID,
        )
        self._acquire_license(drm, session_id, bootstrap.serialize())
        response = self.http.get(base + f"&session={session_id.hex()}")
        if not response.ok:
            raise PlaybackError(f"playback API: {response.body.decode()}")
        envelope = json.loads(response.body.decode())
        clear = drm.generic_decrypt(
            session_id,
            bytes.fromhex(envelope["protected_manifest"]),
            bytes.fromhex(envelope["iv"]),
        )
        drm.close_session(session_id)
        return json.loads(clear.decode())["mpd_url"]

    # -- how keys arrive -----------------------------------------------------------------------

    def _widevine_keys(self, drm: MediaDrm, init_data: bytes) -> _WidevineDecode:
        """Figure 1: keys load into the platform CDM through ``MediaDrm``,
        after the provisioning round trip when the origin needs one."""
        session_id = drm.open_session()
        self._acquire_license(drm, session_id, init_data)
        self.device.flows(
            ("Application", "CDN", "Get Media"),
            ("CDN", "Application", "Media"),
        )
        return _WidevineDecode(MediaCrypto(drm, session_id))

    def _embedded_keys(self, title_id: str) -> _EmbeddedDecode:
        """Amazon's L3 fallback: keys load into the app's own CDM; the
        platform Widevine is never touched."""
        cdm = EmbeddedCdm(self.profile.service)
        response = self.http.post(
            f"https://{self.profile.api_host}/embedded-license"
            f"?token={self._require_token()}",
            cdm.build_key_request(title_id),
        )
        if not response.ok:
            raise LicenseDeniedError(response.body.decode())
        try:
            cdm.load_keys(response.body)
        except EmbeddedDrmError as exc:
            raise PlaybackError(f"license load failed: {exc}") from exc
        return _EmbeddedDecode(cdm, self._render)

    # -- track playback ------------------------------------------------------------------------

    def _render(self, codec: MediaCodec, sample: bytes) -> DecodedFrame:
        """Decode one clear sample."""
        return codec.queue_input_buffer(sample)

    def _play_track(
        self,
        decode: _WidevineDecode | _EmbeddedDecode,
        rep: MpdRepresentation,
        kind: str,
        obs: ObservabilityBus,
    ) -> TrackPlayback:
        with obs.span("playback.track", kind=kind, rep=rep.rep_id) as span:
            info = read_track_info(self._download(rep.init_url))
            stats = TrackPlayback(
                rep_id=rep.rep_id, kind=kind, encrypted=info.protected
            )
            codec = decode.codec(rep, info)
            for url in rep.segment_urls:
                samples, protected = read_samples(
                    self._download(url), iv_size=info.iv_size
                )
                for sample in samples:
                    if protected:
                        frame = decode.frame(codec, info, sample)
                    else:
                        frame = self._render(codec, sample.data)
                    stats.frames_total += 1
                    if frame.valid:
                        stats.frames_valid += 1
            span.set(frames=stats.frames_total)
            return stats

    # -- the headline API ---------------------------------------------------------------------------

    def _embedded_drm(self) -> bool:
        """Amazon-style: the app's own DRM wherever Widevine is not L1."""
        level = self.device.widevine_security_level
        return self.profile.custom_drm_on_l3 and level != "L1"

    def play(
        self,
        title_id: str | None = None,
        *,
        language: str = "en",
        subtitle_language: str | None = "en",
    ) -> PlaybackResult:
        """Play one title end to end; never raises for server denials —
        those come back in the :class:`PlaybackResult`."""
        self._check_protections()
        if title_id is None:
            title_id = next(iter(self.backend.catalog)).title_id
        level = self.device.widevine_security_level
        embedded = self._embedded_drm()
        result = PlaybackResult(
            ok=False,
            title_id=title_id,
            used_widevine=not embedded,
            used_custom_drm=embedded,
            security_level=level,
        )
        with self.device.obs.span(
            "playback.session",
            app=self.profile.name,
            title=title_id,
            drm="custom" if embedded else "widevine",
        ) as span:
            drm = None
            if not embedded:
                origin = self.profile.package
                drm = MediaDrm(WIDEVINE_SYSTEM_ID, self.device, origin=origin)
            # Only Widevine tracks record playback.track spans.
            track_obs = NULL_BUS if embedded else self.device.obs
            try:
                mpd_url = self._fetch_manifest_url(drm, title_id)
                mpd = Mpd.from_xml(self._download(mpd_url))
                selector = TrackSelector(mpd, obs=self.device.obs)
                tracks = selector.select(
                    # The embedded CDM is software-only: L3's ceiling.
                    security_level="L3" if embedded else level,
                    audio_language=language,
                    text_language=subtitle_language,
                )
                if drm is None:
                    decode = self._embedded_keys(title_id)
                else:
                    init_data = selector.init_data_for(tracks.video)
                    decode = self._widevine_keys(drm, init_data)
                for rep, kind in ((tracks.video, "video"), (tracks.audio, "audio")):
                    result.tracks.append(self._play_track(decode, rep, kind, track_obs))
                result.video_height = tracks.video.height

                if tracks.text is not None:
                    try:
                        vtt = self._download(tracks.text.init_url)
                        result.subtitle_ok = bool(parse_webvtt(vtt))
                    except (ValueError, PlaybackError):
                        result.subtitle_ok = False

                result.ok = all(t.ok for t in result.tracks)
                if not result.ok:
                    result.error = "undecodable frames"
            except ProvisioningDeniedError as exc:
                result.provisioning_failed = True
                result.error = f"provisioning denied: {exc}"
            except (
                LicenseDeniedError,
                PlaybackError,
                TrackSelectionError,
                MediaDrmException,
                CodecException,
            ) as exc:
                result.error = str(exc)
            finally:
                # Every exit path: the sessions this play opened (and a
                # provisioning request the server refused) end with it.
                if drm is not None:
                    drm.close()
            span.set(ok=result.ok)
        return result
