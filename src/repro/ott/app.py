"""The Android OTT application model.

Drives the full Figure 1 playback path against a service backend:
authentication, manifest retrieval (plain, or over Netflix's Widevine
secure channel), per-origin provisioning, license acquisition, and
secure decode through MediaCodec. Also models the app-hardening layer
the paper side-steps: certificate pinning, anti-debugging, SafetyNet.

The app, like a real one, never sees decrypted media buffers — only
frame metadata surfaces from the codec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.android.device import AndroidDevice
from repro.android.mediacodec import CryptoInfo, MediaCodec
from repro.android.mediacrypto import MediaCrypto
from repro.android.mediadrm import (
    MediaDrm,
    MediaDrmException,
    NotProvisionedException,
)
from repro.android.packages import Apk
from repro.android.safetynet import attest
from repro.bmff.builder import read_samples, read_track_info
from repro.bmff.pssh import WIDEVINE_SYSTEM_ID, WidevinePsshData
from repro.dash.client import MAX_HEIGHT_BY_LEVEL, TrackSelectionError, TrackSelector
from repro.dash.mpd import Mpd, MpdRepresentation
from repro.media.subtitles import parse_webvtt
from repro.net.tls import PinSet
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

    def _fetch_manifest_url(self, drm: MediaDrm, title_id: str) -> str:
        with self.device.obs.span(
            "manifest.fetch", app=self.profile.name, title=title_id
        ) as span:
            url = self._fetch_manifest_url_inner(drm, title_id)
            span.set(
                secure_channel=self.profile.uri_protection == URI_SECURE_CHANNEL
            )
            return url

    def _fetch_manifest_url_inner(self, drm: MediaDrm, title_id: str) -> str:
        token = self._require_token()
        base = (
            f"https://{self.profile.api_host}/playback"
            f"?title={title_id}&token={token}"
        )
        if self.profile.uri_protection != URI_SECURE_CHANNEL:
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

    # -- track playback ------------------------------------------------------------------------

    def _play_track(
        self,
        drm: MediaDrm,
        session_id: bytes,
        rep: MpdRepresentation,
        kind: str,
    ) -> TrackPlayback:
        with self.device.obs.span(
            "playback.track", kind=kind, rep=rep.rep_id
        ) as span:
            stats = self._play_track_inner(drm, session_id, rep, kind)
            span.set(frames=stats.frames_total)
            return stats

    def _play_track_inner(
        self,
        drm: MediaDrm,
        session_id: bytes,
        rep: MpdRepresentation,
        kind: str,
    ) -> TrackPlayback:
        init = self._download(rep.init_url)
        info = read_track_info(init)
        stats = TrackPlayback(rep_id=rep.rep_id, kind=kind, encrypted=info.protected)

        if info.protected:
            crypto = MediaCrypto(drm, session_id)
            secure = crypto.requires_secure_decoder_component(rep.mime_type)
            codec = MediaCodec.create_decoder(rep.mime_type, secure=secure)
            codec.configure(crypto)
        else:
            codec = MediaCodec.create_decoder(rep.mime_type)

        for url in rep.segment_urls:
            segment = self._download(url)
            samples, protected = read_samples(segment, iv_size=info.iv_size)
            for sample in samples:
                if protected:
                    assert info.default_kid is not None
                    frame = codec.queue_secure_input_buffer(
                        sample.data,
                        CryptoInfo(
                            key_id=info.default_kid,
                            iv=sample.entry.iv,
                            subsamples=tuple(
                                (s.clear_bytes, s.protected_bytes)
                                for s in sample.entry.subsamples
                            ),
                            mode=info.scheme,
                        ),
                    )
                else:
                    frame = codec.queue_input_buffer(sample.data)
                stats.frames_total += 1
                if frame.valid:
                    stats.frames_valid += 1
        return stats

    # -- the headline API ---------------------------------------------------------------------------

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

        if self.profile.custom_drm_on_l3 and level != "L1":
            with self.device.obs.span(
                "playback.session",
                app=self.profile.name,
                title=title_id,
                drm="custom",
            ):
                return self._play_custom(title_id, language, subtitle_language)

        with self.device.obs.span(
            "playback.session",
            app=self.profile.name,
            title=title_id,
            drm="widevine",
        ) as span:
            result = self._play_widevine(title_id, language, subtitle_language)
            span.set(ok=result.ok)
            return result

    def _play_widevine(
        self, title_id: str, language: str, subtitle_language: str | None
    ) -> PlaybackResult:
        level = self.device.widevine_security_level
        result = PlaybackResult(
            ok=False, title_id=title_id, used_widevine=True, security_level=level
        )
        drm = MediaDrm(WIDEVINE_SYSTEM_ID, self.device, origin=self.profile.package)
        try:
            mpd_url = self._fetch_manifest_url(drm, title_id)
            mpd = Mpd.from_xml(self._download(mpd_url))
            selector = TrackSelector(mpd, obs=self.device.obs)

            video_rep = selector.select_video(
                max_height=MAX_HEIGHT_BY_LEVEL.get(level, 540)
            )
            audio_rep = selector.select_audio(language)

            session_id = drm.open_session()
            init_data = selector.init_data_for(video_rep)
            self._acquire_license(drm, session_id, init_data)

            self.device.flows(
                ("Application", "CDN", "Get Media"),
                ("CDN", "Application", "Media"),
            )
            result.tracks.append(
                self._play_track(drm, session_id, video_rep, "video")
            )
            result.tracks.append(
                self._play_track(drm, session_id, audio_rep, "audio")
            )
            result.video_height = video_rep.height

            if subtitle_language is not None:
                subtitle_rep = selector.select_text(subtitle_language)
                if subtitle_rep is not None:
                    try:
                        vtt = self._download(subtitle_rep.init_url)
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
        ) as exc:
            result.error = str(exc)
        finally:
            # Every exit path: the sessions this play opened (and a
            # provisioning request the server refused) end with it.
            drm.close()
        return result

    def _play_custom(
        self, title_id: str, language: str, subtitle_language: str | None
    ) -> PlaybackResult:
        """Amazon-style path: embedded DRM, platform Widevine untouched."""
        result = PlaybackResult(
            ok=False,
            title_id=title_id,
            used_widevine=False,
            used_custom_drm=True,
            security_level=self.device.widevine_security_level,
        )
        try:
            token = self._require_token()
            response = self.http.get(
                f"https://{self.profile.api_host}/playback"
                f"?title={title_id}&token={token}"
            )
            if not response.ok:
                raise PlaybackError(response.body.decode())
            mpd_url = json.loads(response.body.decode())["mpd_url"]
            mpd = Mpd.from_xml(self._download(mpd_url))
            selector = TrackSelector(mpd, obs=self.device.obs)

            cdm = EmbeddedCdm(self.profile.service)
            license_response = self.http.post(
                f"https://{self.profile.api_host}/embedded-license"
                f"?token={token}",
                cdm.build_key_request(title_id),
            )
            if not license_response.ok:
                raise LicenseDeniedError(license_response.body.decode())
            try:
                cdm.load_keys(license_response.body)
            except EmbeddedDrmError as exc:
                raise PlaybackError(f"license load failed: {exc}") from exc

            video_rep = selector.select_video(max_height=540)
            audio_rep = selector.select_audio(language)
            for rep, kind in ((video_rep, "video"), (audio_rep, "audio")):
                init = self._download(rep.init_url)
                info = read_track_info(init)
                stats = TrackPlayback(
                    rep_id=rep.rep_id, kind=kind, encrypted=info.protected
                )
                codec = MediaCodec.create_decoder(rep.mime_type)
                for url in rep.segment_urls:
                    samples, protected = read_samples(
                        self._download(url), iv_size=info.iv_size
                    )
                    for sample in samples:
                        if protected:
                            assert info.default_kid is not None
                            clear = cdm.decrypt(
                                info.default_kid,
                                sample.data,
                                sample.entry.iv,
                                [
                                    (s.clear_bytes, s.protected_bytes)
                                    for s in sample.entry.subsamples
                                ],
                            )
                        else:
                            clear = sample.data
                        frame = codec.queue_input_buffer(clear)
                        stats.frames_total += 1
                        if frame.valid:
                            stats.frames_valid += 1
                result.tracks.append(stats)
            result.video_height = video_rep.height

            if subtitle_language is not None:
                subtitle_rep = selector.select_text(subtitle_language)
                if subtitle_rep is not None:
                    try:
                        vtt = self._download(subtitle_rep.init_url)
                        result.subtitle_ok = bool(parse_webvtt(vtt))
                    except (ValueError, PlaybackError):
                        result.subtitle_ok = False

            result.ok = all(t.ok for t in result.tracks)
            if not result.ok:
                result.error = "undecodable frames"
        except (LicenseDeniedError, PlaybackError, TrackSelectionError) as exc:
            result.error = str(exc)
        return result
