"""The server side of one OTT service.

Stands up everything a service operates: content catalog, packaging
pipeline, CDN, provisioning endpoint, license server and the app-facing
API (auth, playback manifests, key metadata) — all as virtual HTTPS
origins on the simulated network. The per-service behaviours of Table I
are produced here from the profile's policy, never hard-coded.
"""

from __future__ import annotations

import json

from repro.crypto.modes import cbc_encrypt
from repro.crypto.rng import derive_rng
from repro.dash.packager import PackagedTitle, Packager, segment_cache_stats
from repro.license_server.policy import assign_track_crypto
from repro.license_server.provisioning import (
    KeyboxAuthority,
    ProvisioningRecords,
    ProvisioningServer,
)
from repro.license_server.server import LicenseServer
from repro.media.catalog import Catalog
from repro.media.content import Title, make_title
from repro.net.cdn import CdnServer
from repro.net.http import HttpRequest, HttpResponse
from repro.net.network import Network
from repro.net.server import VirtualServer
from repro.obs.bus import ObservabilityBus
from repro.ott.custom_drm import (
    build_embedded_license,
    parse_embedded_license_request,
)
from repro.ott.profile import URI_SECURE_CHANNEL, OttProfile

__all__ = ["OttBackend", "SECURE_CHANNEL_CONTENT_ID"]

# Content id of the secure-channel bootstrap license (Netflix's
# MSL-style key exchange rides a dedicated Widevine session).
SECURE_CHANNEL_CONTENT_ID = b"secure-channel-bootstrap"


class OttBackend:
    """All server-side infrastructure of one service."""

    def __init__(
        self,
        profile: OttProfile,
        network: Network,
        authority: KeyboxAuthority,
        *,
        obs: "ObservabilityBus | None" = None,
    ):
        self.profile = profile
        self.policy = profile.policy()
        self._rng = derive_rng(f"ott-backend/{profile.service}")

        # Accounts: username → token. Two accounts so the study can
        # verify keys are subscriber-independent (§IV-D).
        self.accounts = {
            "alice": self._rng.generate(8).hex(),
            "bob": self._rng.generate(8).hex(),
        }

        # Content. Services with unobtainable subtitle URIs simply do
        # not list text tracks in the manifests our probe account sees.
        subtitle_languages = ("en", "fr") if profile.subtitles_listed else ()
        self.catalog = Catalog(service=profile.service)
        for index in range(profile.title_count):
            self.catalog.add(
                make_title(
                    f"{profile.service[:4]}{index:02d}",
                    f"{profile.name} feature #{index}",
                    subtitle_languages=subtitle_languages,
                )
            )

        # Origins.
        self.cdn = CdnServer(profile.cdn_host)
        self.records = ProvisioningRecords()
        self.provisioning = ProvisioningServer(
            profile.provisioning_host,
            authority,
            self.records,
            revocation=self.policy.revocation,
        )
        self.license_server = LicenseServer(
            profile.license_host, self.policy, self.records
        )
        self.api = VirtualServer(profile.api_host)
        self.api.route("/auth", self._handle_auth)
        self.api.route("/playback", self._handle_playback)
        self.api.route("/keymap", self._handle_keymap)
        if profile.custom_drm_on_l3:
            self.api.route("/embedded-license", self._handle_embedded_license)
        for server in (self.cdn, self.provisioning, self.license_server, self.api):
            network.register(server)

        # Package every title and register its keys. Packaging rides the
        # process-wide segment cache: rebuilding a deterministic world
        # (ten backends per study, one study per benchmark round) hits
        # memoized ciphertext instead of re-encrypting the catalog.
        self.packaged: dict[str, PackagedTitle] = {}
        packager = Packager(
            profile.service,
            self.cdn,
            provider=profile.name,
            publish_key_ids=profile.key_metadata_available,
            obs=obs,
        )
        before = segment_cache_stats()
        for title in self.catalog:
            crypto = assign_track_crypto(self.policy, title)
            packaged = packager.package(title, crypto)
            self.license_server.register_packaged_title(packaged, title)
            self.packaged[title.title_id] = packaged
        after = segment_cache_stats()
        # Packaging-cache observability, summed by the study benchmarks.
        self.packaging_cache_hits = after["hits"] - before["hits"]
        self.packaging_cache_misses = after["misses"] - before["misses"]

        # Secure-channel bootstrap key (Netflix-style): a Widevine
        # license whose session keys the API reuses to encrypt manifest
        # URIs through the generic (non-DASH) API.
        self.secure_channel_kid = derive_rng(
            f"secure-channel-kid/{profile.service}"
        ).generate(16)
        if profile.uri_protection == URI_SECURE_CHANNEL:
            self.license_server.register_secure_channel_key(
                self.secure_channel_kid,
                derive_rng(f"secure-channel-key/{profile.service}").generate(16),
            )

    # -- API handlers --------------------------------------------------------

    def _check_token(self, request: HttpRequest) -> str | None:
        token = request.parsed_url.query.get("token", "")
        for user, expected in self.accounts.items():
            if token == expected:
                return user
        return None

    def _handle_auth(self, request: HttpRequest) -> HttpResponse:
        try:
            credentials = json.loads(request.body.decode())
            username = credentials["username"]
        except (ValueError, KeyError):
            return HttpResponse.bad_request("malformed auth request")
        token = self.accounts.get(username)
        if token is None:
            return HttpResponse.forbidden("unknown account")
        return HttpResponse(status=200, body=json.dumps({"token": token}).encode())

    def _handle_playback(self, request: HttpRequest) -> HttpResponse:
        if self._check_token(request) is None:
            return HttpResponse.forbidden("invalid token")
        title_id = request.parsed_url.query.get("title", "")
        if title_id not in self.catalog:
            return HttpResponse.not_found(f"unknown title {title_id}")
        packaged = self.packaged[title_id]
        manifest = {"mpd_url": f"https://{self.profile.cdn_host}{packaged.mpd_path}"}

        if self.profile.uri_protection != URI_SECURE_CHANNEL:
            return HttpResponse(status=200, body=json.dumps(manifest).encode())

        # Netflix-style: manifest URIs only ever travel encrypted under
        # the generic-crypto keys of an established Widevine session.
        try:
            session_id = bytes.fromhex(request.parsed_url.query.get("session", ""))
        except ValueError:
            return HttpResponse.bad_request("malformed session id")
        channel_key = self.license_server.take_secure_channel(session_id)
        if channel_key is None:
            return HttpResponse.forbidden("no secure channel established")
        iv = self._rng.generate(16)
        protected = cbc_encrypt(
            channel_key,
            iv,
            json.dumps(manifest).encode(),
        )
        return HttpResponse(
            status=200,
            body=json.dumps(
                {"protected_manifest": protected.hex(), "iv": iv.hex()}
            ).encode(),
        )

    def _handle_keymap(self, request: HttpRequest) -> HttpResponse:
        """OTT-specific key metadata (rep → key id), used by Q3.

        Geo-blocked for services where the paper hit regional
        restrictions — HTTP 451, Unavailable For Legal Reasons.
        """
        if self._check_token(request) is None:
            return HttpResponse.forbidden("invalid token")
        if not self.profile.key_metadata_available:
            return HttpResponse(
                status=451, body=b"content metadata not available in your region"
            )
        title_id = request.parsed_url.query.get("title", "")
        if title_id not in self.catalog:
            return HttpResponse.not_found(f"unknown title {title_id}")
        packaged = self.packaged[title_id]
        keymap = {
            rep_id: (kid.hex() if kid is not None else None)
            for rep_id, kid in packaged.kid_by_rep.items()
        }
        return HttpResponse(status=200, body=json.dumps(keymap).encode())

    def _handle_embedded_license(self, request: HttpRequest) -> HttpResponse:
        if self._check_token(request) is None:
            return HttpResponse.forbidden("invalid token")
        try:
            title_id = parse_embedded_license_request(
                self.profile.service, request.body
            )
        except ValueError as exc:
            return HttpResponse.bad_request(str(exc))
        if title_id not in self.catalog:
            return HttpResponse.not_found(f"unknown title {title_id}")
        packaged = self.packaged[title_id]
        # The embedded DRM enforces the same L3 resolution ceiling: only
        # sub-HD video keys (plus audio keys) go out on this path.
        title = self.catalog.get(title_id)
        keys: dict[bytes, bytes] = {}
        for rep in title.representations:
            kid = packaged.kid_by_rep.get(rep.rep_id)
            if kid is None:
                continue
            if (
                rep.resolution is not None
                and rep.resolution.height > self.policy.l3_max_height
            ):
                continue
            keys[kid] = packaged.content_keys[kid]
        nonce = self._rng.generate(16)
        return HttpResponse(
            status=200,
            body=build_embedded_license(self.profile.service, keys, nonce=nonce),
        )
