"""The Android ``MediaDrm`` API (android.media.MediaDrm).

Mirrors the Java API surface OTT apps program against (§II-B and
Figure 1): scheme lookup by UUID, session management, key requests,
provisioning, property queries — plus the exception types Android
defines (``NotProvisionedException`` being the one that drives the
provisioning round-trip).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.android.device import AndroidDevice
from repro.widevine.cdm import CdmError
from repro.widevine.oemcrypto import NotProvisionedError, OemCryptoError

__all__ = [
    "MediaDrm",
    "KeyRequest",
    "ProvisionRequestData",
    "MediaDrmException",
    "UnsupportedSchemeException",
    "NotProvisionedException",
    "DeniedByServerException",
    "KEY_TYPE_STREAMING",
    "KEY_TYPE_OFFLINE",
]

KEY_TYPE_STREAMING = 1
KEY_TYPE_OFFLINE = 2


class MediaDrmException(Exception):
    """Base of the MediaDrm exception hierarchy."""


class UnsupportedSchemeException(MediaDrmException):
    """The device has no DRM plugin for the requested UUID."""


class NotProvisionedException(MediaDrmException):
    """The CDM needs certificate provisioning before key requests."""


class DeniedByServerException(MediaDrmException):
    """The provisioning or license server refused the device."""


@dataclass(frozen=True)
class KeyRequest:
    """Opaque license request, to be POSTed to the license server."""

    data: bytes
    default_url: str = ""


@dataclass(frozen=True)
class ProvisionRequestData:
    """Opaque provisioning request plus the server URL to send it to."""

    data: bytes
    default_url: str = ""


class MediaDrm:
    """One MediaDrm instance, bound to an app origin.

    The *origin* corresponds to the calling app's package — Android
    provisions Widevine certificates per origin since API 28, which is
    the behaviour Q4's per-app provisioning failures rely on.
    """

    def __init__(self, uuid: bytes, device: AndroidDevice, *, origin: str = "default"):
        device.flows(("Application", "MediaDRM Server", "MediaDrm(UUID)"))
        if not device.drm_server.is_scheme_supported(uuid):
            raise UnsupportedSchemeException(f"no plugin for uuid {uuid.hex()}")
        self.uuid = uuid
        self.device = device
        self.origin = origin
        self._plugin = device.drm_server.plugin(uuid)
        self._cdm = self._plugin.cdm
        self._open_sessions: set[bytes] = set()
        self._key_types: dict[bytes, int] = {}
        self._key_set_ids: dict[bytes, bytes] = {}
        self._provisioning = False
        device.flows(("MediaDRM Server", "CDM", "Initialize()"))

    @staticmethod
    def is_crypto_scheme_supported(uuid: bytes, device: AndroidDevice) -> bool:
        return device.drm_server.is_scheme_supported(uuid)

    # -- sessions -----------------------------------------------------------

    def open_session(self) -> bytes:
        self.device.flows(
            ("Application", "MediaDRM Server", "openSession()"),
            ("MediaDRM Server", "CDM", "openSession()"),
        )
        session_id = self._cdm.open_session(self.origin)
        self._open_sessions.add(session_id)
        return session_id

    def close_session(self, session_id: bytes) -> None:
        self._cdm.close_session(session_id)
        self._open_sessions.discard(session_id)

    def close(self) -> None:
        """Release this instance (Android's ``MediaDrm.close()``): close
        every session still open and drop a provisioning request whose
        response never came."""
        for session_id in sorted(self._open_sessions):
            self.close_session(session_id)
        if self._provisioning:
            self._cdm.cancel_provisioning(self.origin)
            self._provisioning = False

    def _check_session(self, session_id: bytes) -> None:
        if session_id not in self._open_sessions:
            raise MediaDrmException(f"session {session_id.hex()} not open")

    # -- licensing -----------------------------------------------------------

    def get_key_request(
        self,
        session_id: bytes,
        init_data: bytes,
        mime_type: str = "video/mp4",
        key_type: int = KEY_TYPE_STREAMING,
    ) -> KeyRequest:
        self._check_session(session_id)
        self._key_types[session_id] = key_type
        self.device.flows(
            ("Application", "MediaDRM Server", "getKeyRequest()"),
            ("MediaDRM Server", "CDM", "getKeyRequest()"),
        )
        try:
            data = self._cdm.get_key_request(session_id, init_data)
        except NotProvisionedError as exc:
            raise NotProvisionedException(str(exc)) from exc
        except (CdmError, OemCryptoError) as exc:
            raise MediaDrmException(str(exc)) from exc
        self.device.flows(("CDM", "MediaDRM Server", "opaque request"))
        return KeyRequest(data=data)

    def provide_key_response(self, session_id: bytes, response: bytes) -> list[bytes]:
        """Load a license into the session; returns the loaded key IDs.

        For a session whose request used ``KEY_TYPE_OFFLINE`` the
        license is additionally persisted — retrieve its handle with
        :meth:`get_key_set_id` and reload later via
        :meth:`restore_keys` (Android's ``keySetId`` flow).
        """
        self._check_session(session_id)
        self.device.flows(
            ("Application", "MediaDRM Server", "provideKeyResponse()"),
            ("MediaDRM Server", "CDM", "provideKeyResponse"),
        )
        try:
            loaded = self._cdm.provide_key_response(session_id, response)
            if self._key_types.get(session_id) == KEY_TYPE_OFFLINE:
                self._key_set_ids[session_id] = self._cdm.store_offline_license(
                    self.origin, response
                )
            return loaded
        except NotProvisionedError as exc:
            raise NotProvisionedException(str(exc)) from exc
        except (CdmError, OemCryptoError) as exc:
            raise MediaDrmException(str(exc)) from exc

    def get_key_set_id(self, session_id: bytes) -> bytes:
        """The persisted-license handle of an offline session."""
        try:
            return self._key_set_ids[session_id]
        except KeyError:
            raise MediaDrmException(
                "session holds no offline license"
            ) from None

    def restore_keys(self, session_id: bytes, key_set_id: bytes) -> list[bytes]:
        """Reload a persisted offline license into a (new) session."""
        self._check_session(session_id)
        try:
            return self._cdm.restore_keys(session_id, key_set_id)
        except NotProvisionedError as exc:
            raise NotProvisionedException(str(exc)) from exc
        except (CdmError, OemCryptoError) as exc:
            raise MediaDrmException(str(exc)) from exc

    def remove_keys(self, key_set_id: bytes) -> None:
        """Delete a persisted offline license."""
        self._cdm.remove_offline_license(self.origin, key_set_id)

    # -- provisioning -----------------------------------------------------------

    def get_provision_request(self) -> ProvisionRequestData:
        data = self._cdm.get_provision_request(self.origin)
        self._provisioning = True
        return ProvisionRequestData(data=data)

    def provide_provision_response(self, response: bytes) -> None:
        self._provisioning = False
        try:
            self._cdm.provide_provision_response(self.origin, response)
        except (CdmError, OemCryptoError) as exc:
            raise DeniedByServerException(str(exc)) from exc

    # -- properties ---------------------------------------------------------------

    def get_property_string(self, name: str) -> str:
        properties = self._plugin.properties()
        try:
            return properties[name]
        except KeyError:
            raise MediaDrmException(f"unknown property {name!r}") from None

    # -- generic (non-DASH) crypto API ----------------------------------------------

    def generic_encrypt(self, session_id: bytes, data: bytes, iv: bytes) -> bytes:
        self._check_session(session_id)
        try:
            return self._cdm.generic_encrypt(session_id, data, iv)
        except (CdmError, OemCryptoError) as exc:
            raise MediaDrmException(str(exc)) from exc

    def generic_decrypt(self, session_id: bytes, data: bytes, iv: bytes) -> bytes:
        self._check_session(session_id)
        try:
            return self._cdm.generic_decrypt(session_id, data, iv)
        except (CdmError, OemCryptoError) as exc:
            raise MediaDrmException(str(exc)) from exc

    def generic_sign(self, session_id: bytes, data: bytes) -> bytes:
        self._check_session(session_id)
        try:
            return self._cdm.generic_sign(session_id, data)
        except (CdmError, OemCryptoError) as exc:
            raise MediaDrmException(str(exc)) from exc

    def generic_verify(
        self, session_id: bytes, data: bytes, signature: bytes
    ) -> bool:
        self._check_session(session_id)
        try:
            return self._cdm.generic_verify(session_id, data, signature)
        except (CdmError, OemCryptoError) as exc:
            raise MediaDrmException(str(exc)) from exc
