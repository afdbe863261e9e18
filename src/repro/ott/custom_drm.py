"""App-embedded custom DRM (the Amazon Prime Video fallback).

§IV-C Q1: "One exception is Amazon Prime Video using an embedded
Widevine library when just the L3 software-only mode is available"
(Table I footnote: "using custom DRM if only Widevine L3 is
available"). The decisive property for the study is that this DRM runs
*inside the app's own process* and never touches the platform CDM: the
``_oecc`` monitor in ``mediadrmserver`` sees nothing, and the platform
keybox key ladder — the §IV-D attack — does not apply to it.

The embedded scheme itself is a straightforward shared-secret design:
the app ships a per-service secret; key requests are HMAC-authenticated
and content keys come back AES-CBC-wrapped under a derived key.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import json

from repro.bmff.boxes import SencEntry, SubsampleRange
from repro.bmff.cenc import CencSample, decrypt_sample
from repro.crypto.kdf import derive_key
from repro.crypto.modes import cbc_decrypt, cbc_encrypt
from repro.crypto.rng import derive_rng

__all__ = [
    "embedded_app_secret",
    "EmbeddedCdm",
    "EmbeddedDrmError",
    "build_embedded_license",
    "parse_embedded_license_request",
]

_LABEL_WRAP = b"EMBEDDED-WRAP"
_LABEL_AUTH = b"EMBEDDED-AUTH"


class EmbeddedDrmError(ValueError):
    """An embedded-DRM message that is malformed or fails verification."""


def _field(message: object, name: str, kind: type):
    """``message[name]`` from a decoded JSON object, of type *kind*."""
    value = message.get(name) if isinstance(message, dict) else None
    if not isinstance(value, kind):
        raise EmbeddedDrmError(f"field {name!r} is not a JSON {kind.__name__}")
    return value


def _hex_field(message: object, name: str) -> bytes:
    value = _field(message, name, str)
    try:
        return bytes.fromhex(value)
    except ValueError:
        raise EmbeddedDrmError(f"field {name!r} is not hex") from None


def _json(data: bytes) -> object:
    try:
        return json.loads(data.decode())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise EmbeddedDrmError(f"not JSON: {exc}") from None
    except RecursionError:
        raise EmbeddedDrmError("JSON nested too deeply") from None


def embedded_app_secret(service: str) -> bytes:
    """The secret compiled into the app binary (and known server-side)."""
    return derive_rng(f"embedded-drm/{service}").generate(16)


class EmbeddedCdm:
    """The in-app content decryption module."""

    def __init__(self, service: str):
        self.service = service
        self._secret = embedded_app_secret(service)
        self._keys: dict[bytes, bytes] = {}

    # -- client side ------------------------------------------------------

    def build_key_request(self, title_id: str) -> bytes:
        payload = json.dumps(
            {"type": "embedded_license_request", "title": title_id},
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        auth_key = derive_key(self._secret, _LABEL_AUTH, title_id.encode(), 256)
        mac = hmac_mod.new(auth_key, payload, hashlib.sha256).hexdigest()
        return json.dumps({"payload": payload.decode(), "mac": mac}).encode()

    def load_keys(self, response: bytes) -> list[bytes]:
        """Unwrap content keys from an embedded-license response; raises
        :class:`EmbeddedDrmError` on one it cannot read."""
        message = _json(response)
        wrap_key = derive_key(
            self._secret, _LABEL_WRAP, _hex_field(message, "nonce"), 128
        )
        loaded = []
        for entry in _field(message, "keys", list):
            kid = _hex_field(entry, "key_id")
            wrapped = _hex_field(entry, "wrapped_key")
            iv = _hex_field(entry, "iv")
            try:
                self._keys[kid] = cbc_decrypt(wrap_key, iv, wrapped)
            except ValueError as exc:
                raise EmbeddedDrmError(
                    f"cannot unwrap key {kid.hex()}: {exc}"
                ) from None
            loaded.append(kid)
        return loaded

    def decrypt(
        self,
        key_id: bytes,
        data: bytes,
        iv: bytes,
        subsamples: list[tuple[int, int]],
    ) -> bytes:
        try:
            key = self._keys[key_id]
        except KeyError:
            raise KeyError(f"embedded key {key_id.hex()} not loaded") from None
        entry = SencEntry(
            iv=iv, subsamples=[SubsampleRange(c, p) for c, p in subsamples]
        )
        return decrypt_sample(CencSample(data=data, entry=entry), key)


# -- server side ------------------------------------------------------------


def parse_embedded_license_request(service: str, body: bytes) -> str:
    """Verify an embedded-license request; returns the title id. Raises
    :class:`EmbeddedDrmError` (a ``ValueError``) on any other body."""
    message = _json(body)
    payload = _field(message, "payload", str).encode()
    mac = _field(message, "mac", str).encode()
    request = _json(payload)
    if (
        not isinstance(request, dict)
        or request.get("type") != "embedded_license_request"
    ):
        raise EmbeddedDrmError("not an embedded license request")
    title_id = _field(request, "title", str)
    auth_key = derive_key(
        embedded_app_secret(service), _LABEL_AUTH, title_id.encode(), 256
    )
    expected = hmac_mod.new(auth_key, payload, hashlib.sha256).hexdigest()
    if not hmac_mod.compare_digest(expected.encode(), mac):
        raise EmbeddedDrmError("embedded license request MAC mismatch")
    return title_id


def build_embedded_license(
    service: str, keys: dict[bytes, bytes], *, nonce: bytes
) -> bytes:
    """Wrap *keys* for delivery to the embedded CDM."""
    wrap_key = derive_key(embedded_app_secret(service), _LABEL_WRAP, nonce, 128)
    rng = derive_rng(f"embedded-license/{service}/{nonce.hex()}")
    entries = []
    for kid, key in sorted(keys.items()):
        iv = rng.generate(16)
        entries.append(
            {
                "key_id": kid.hex(),
                "iv": iv.hex(),
                "wrapped_key": cbc_encrypt(wrap_key, iv, key).hex(),
            }
        )
    return json.dumps({"nonce": nonce.hex(), "keys": entries}).encode()
