"""Wire formats of the (simulated) Widevine provisioning and license
protocols.

Real Widevine uses protobuf messages; we use canonical JSON with hex
fields so intercepted buffers are debuggable, while keeping the exact
cryptographic structure the paper reverse-engineered (§IV-D):

- the **keybox device key** authenticates provisioning and protects
  delivery of the **device RSA key**;
- the device RSA key signs license requests (RSASSA-PSS) and receives
  the **session key** (RSAES-OAEP);
- session keys derive MAC/encryption keys (AES-CMAC KDF, context =
  serialized request) that wrap the **content keys**.

Every message round-trips through bytes, so hooks and the proxy observe
real serialized buffers. One codec derives each message's bytes,
signing payload and parser from its dataclass fields.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, TypeVar

__all__ = [
    "ProtocolError",
    "ProvisionRequest",
    "ProvisionResponse",
    "LicenseRequest",
    "WrappedKey",
    "KeyControl",
    "LicenseResponse",
    "canonical_bytes",
    "decode",
    "encode",
]

R = TypeVar("R")
M = TypeVar("M", bound="_Message")


class ProtocolError(ValueError):
    """Malformed or unverifiable protocol message."""


def canonical_bytes(payload: dict[str, Any]) -> bytes:
    """Canonical serialization used for MACs and signatures."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _unhex(value: Any, name: str) -> bytes:
    try:
        return bytes.fromhex(value)
    except (ValueError, TypeError):
        raise ProtocolError(f"field {name!r} is not valid hex") from None


def _exactly(kind: type) -> Callable[[Any, str], Any]:
    def check(value: Any, name: str) -> Any:
        if type(value) is not kind:  # so a JSON true is not an int
            raise ProtocolError(f"field {name!r} must be a JSON {kind.__name__}")
        return value

    return check


def _codec(tp: Any) -> tuple[Callable | None, Callable[[Any, str], Any]]:
    """(encode, decode) of one field type; encode None = the value as is."""
    args = typing.get_args(tp)
    if tp is bytes:
        return bytes.hex, _unhex
    if tp in (str, int):
        return None, _exactly(tp)
    if type(None) in args:  # X | None
        (inner,) = [arg for arg in args if arg is not type(None)]
        enc, dec = _codec(inner)
        return (
            enc and (lambda value: None if value is None else enc(value)),
            lambda value, name: None if value is None else dec(value, name),
        )
    if typing.get_origin(tp) is list:
        (enc, dec), is_list = _codec(args[0]), _exactly(list)
        return (
            lambda value: [enc(item) for item in value],
            lambda value, name: [dec(item, name) for item in is_list(value, name)],
        )
    if dataclasses.is_dataclass(tp):
        return encode, functools.partial(decode, tp)
    raise TypeError(f"no wire form for {tp!r}")


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, Callable | None, Callable, bool], ...]:
    """(name, encode, decode, required) per field of *cls*. Every field
    of a message is required; a nested record's field is optional
    exactly when it has a default."""
    hints, message = typing.get_type_hints(cls), issubclass(cls, _Message)
    return tuple(
        (f.name, *_codec(hints[f.name]), message or (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ))
        for f in dataclasses.fields(cls)
    )


def encode(record: Any, *, leave_out: str | None = None) -> dict[str, Any]:
    """The JSON object of a wire record, optionally without one field."""
    payload = {}
    for name, enc, _, _ in _plan(type(record)):
        if name != leave_out:
            value = getattr(record, name)
            payload[name] = value if enc is None else enc(value)
    return payload


def decode(cls: type[R], payload: Any, name: str | None = None) -> R:
    """The *cls* record of a JSON object: the inverse of :func:`encode`.
    *name* is the field that holds a nested record, for errors."""
    if type(payload) is not dict:
        where = cls.__name__ if name is None else f"field {name!r}"
        raise ProtocolError(f"{where} must be a JSON object")
    values = {}
    for key, _, dec, required in _plan(cls):
        if key in payload:
            values[key] = dec(payload[key], key)
        elif required:
            raise ProtocolError(f"missing field {key!r}")
    return cls(**values)


class _Message:
    """A top-level message: ``TYPE`` tags its JSON object and ``SEAL``
    names the field its signing payload leaves out."""

    TYPE: ClassVar[str]
    SEAL: ClassVar[str]

    def signing_payload(self) -> bytes:
        return canonical_bytes({**encode(self, leave_out=self.SEAL), "type": self.TYPE})

    def serialize(self) -> bytes:
        return canonical_bytes({**encode(self), "type": self.TYPE})

    @classmethod
    def parse(cls: type[M], data: bytes) -> M:
        try:
            payload = json.loads(data.decode())
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ProtocolError(f"not a protocol message: {exc}") from exc
        if type(payload) is not dict:
            raise ProtocolError("protocol message must be a JSON object")
        if payload.get("type") != cls.TYPE:
            raise ProtocolError(
                f"expected message type {cls.TYPE!r}, got {payload.get('type')!r}"
            )
        return decode(cls, payload)


# -- the messages ---------------------------------------------------------------


@dataclass
class ProvisionRequest(_Message):
    """CDM → provisioning server.

    Authenticated by an AES-CMAC under a key derived from the keybox
    device key, proving the request comes from a device holding a valid
    keybox.
    """

    TYPE = "provision_request"
    SEAL = "mac"

    device_id: bytes
    nonce: bytes
    cdm_version: str
    security_level: str
    mac: bytes = b""


@dataclass
class ProvisionResponse(_Message):
    """Provisioning server → CDM: the wrapped device RSA key.

    ``wrapped_rsa_key`` is AES-CBC under a provisioning key derived from
    the keybox device key and the request nonce — "the installation
    process is protected by the keybox" (§IV-D).
    """

    TYPE = "provision_response"
    SEAL = "mac"

    device_id: bytes
    iv: bytes
    wrapped_rsa_key: bytes
    mac: bytes = b""


@dataclass
class LicenseRequest(_Message):
    """CDM → license server, signed with the device RSA key."""

    TYPE = "license_request"
    SEAL = "signature"

    session_id: bytes
    device_id: bytes
    rsa_fingerprint: bytes
    pssh_data: bytes
    nonce: bytes
    cdm_version: str
    security_level: str
    device_model: str
    signature: bytes = b""


@dataclass(frozen=True)
class KeyControl:
    """Usage constraints attached to one content key."""

    max_height: int | None = None  # resolution cap (None = unlimited)
    require_security_level: str | None = None
    license_duration_s: int | None = None  # None = unbounded


@dataclass
class WrappedKey:
    """One content key, AES-CBC-wrapped under the session encryption key."""

    key_id: bytes
    iv: bytes
    wrapped_key: bytes
    control: KeyControl = field(default_factory=KeyControl)


@dataclass
class LicenseResponse(_Message):
    """License server → CDM.

    ``wrapped_session_key`` is RSAES-OAEP to the device RSA key;
    ``derivation_context`` tells the CDM what to feed the CMAC KDF
    (the serialized request's signing payload); the MAC is HMAC-SHA256
    under the derived server MAC key.
    """

    TYPE = "license"
    SEAL = "mac"

    session_id: bytes
    wrapped_session_key: bytes
    derivation_context: bytes
    keys: list[WrappedKey] = field(default_factory=list)
    mac: bytes = b""
