"""Widevine-style CMAC key derivation.

The Widevine key ladder derives session keys from the device key via
AES-CMAC in counter mode over structured context strings (this is the
NIST SP 800-108 KDF in counter mode with CMAC as the PRF, which is what
OEMCrypto's ``DeriveKeysFromSessionKey``/``GenerateDerivedKeys`` do).

Context layout, mirroring the public OEMCrypto documentation:

    counter(1) || label || 0x00 || context || length_bits(4, BE)

Three derivations hang off each session:

- ``ENCRYPTION`` — 128-bit AES key protecting key material in licenses;
- ``AUTHENTICATION`` — 256-bit (two CMAC blocks) signing key for
  request/response HMACs;
- ``GENERIC`` — keys for the non-DASH generic crypto API (the "secure
  channel" Netflix uses for its URI manifests).

Every output block of every derivation is its own CMAC chain over the
whole context (for a license, the serialized request: ~35 blocks), and
the chains do not depend on each other. :func:`derive_session_keys`
therefore hands all eight chains of a session's derivations to
:func:`repro.crypto.cmac.aes_cmac_many` as one batch, which steps them
together through the whole-buffer AES kernel, and :func:`derive_key`
does the same with its own counter blocks. Both are memoized: a session
as one entry (the license server and the CDM derive the same keys), a
standalone derivation as another.
"""

from __future__ import annotations

from functools import lru_cache

from repro.crypto.cmac import aes_cmac_many

__all__ = [
    "LABEL_ENCRYPTION",
    "LABEL_AUTHENTICATION",
    "LABEL_GENERIC",
    "derive_key",
    "derive_session_keys",
    "SessionKeys",
]

LABEL_ENCRYPTION = b"ENCRYPTION"
LABEL_AUTHENTICATION = b"AUTHENTICATION"
LABEL_GENERIC = b"GENERIC"


def _counter_messages(label: bytes, context: bytes, bits: int) -> list[bytes]:
    """The PRF inputs of one derivation: one message per output block."""
    if bits % 8:
        raise ValueError("bits must be a multiple of 8")
    tail = label + b"\x00" + context + bits.to_bytes(4, "big")
    return [
        counter.to_bytes(1, "big") + tail
        for counter in range(1, (bits + 127) // 128 + 1)
    ]


@lru_cache(maxsize=4096)
def derive_key(base_key: bytes, label: bytes, context: bytes, bits: int) -> bytes:
    """SP 800-108 counter-mode KDF with AES-CMAC as the PRF.

    The output blocks are independent CMAC chains, so they run as one
    :func:`aes_cmac_many` batch. Memoized: the derivation is a pure
    function of its inputs, and the deterministic simulation re-derives
    the same keys whenever a study world is rebuilt (every benchmark
    round, most tests), so the CMAC chains only ever run once per
    distinct derivation.
    """
    messages = _counter_messages(label, context, bits)
    return b"".join(aes_cmac_many(base_key, messages))[: bits // 8]


# The four derivations of a session, as (label, context suffix, bits).
# Their batch holds AUTHENTICATION in tags 0-3, ENCRYPTION in 4, the
# GENERIC encryption key in 5 and the GENERIC signing key in 6-7.
_SESSION_DERIVATIONS = (
    (LABEL_AUTHENTICATION, b"", 512),
    (LABEL_ENCRYPTION, b"", 128),
    (LABEL_GENERIC, b"enc", 128),
    (LABEL_GENERIC, b"sig", 256),
)


@lru_cache(maxsize=1024)
def _session_key_material(base_key: bytes, context: bytes) -> tuple[bytes, ...]:
    """The five keys of :class:`SessionKeys`, in its field order.

    All eight CMAC chains of the session's four derivations run as one
    batch. Memoized per session, like :func:`derive_key` per derivation:
    the license server and the CDM derive the same keys from the same
    request, and the second derivation is one lookup. 1024 sessions is
    what :func:`derive_key`'s 4096 entries held at four derivations per
    session. Values are tuples of bytes, which no caller can mutate, and
    :func:`derive_session_keys` wraps them in a fresh :class:`SessionKeys`
    on every call.
    """
    messages: list[bytes] = []
    for label, suffix, bits in _SESSION_DERIVATIONS:
        messages += _counter_messages(label, context + suffix, bits)
    tags = aes_cmac_many(base_key, messages)
    auth = b"".join(tags[0:4])
    return (tags[4], auth[:32], auth[32:], tags[5], tags[6] + tags[7])


class SessionKeys:
    """The derived key set for one CDM session.

    Attributes
    ----------
    encryption:
        16-byte AES key unwrapping content keys inside a license.
    mac_server / mac_client:
        32-byte HMAC keys authenticating license-server responses and
        client requests respectively.
    generic_encryption / generic_signing:
        keys for the generic (non-DASH) crypto API.
    """

    __slots__ = (
        "encryption",
        "mac_server",
        "mac_client",
        "generic_encryption",
        "generic_signing",
    )

    def __init__(
        self,
        encryption: bytes,
        mac_server: bytes,
        mac_client: bytes,
        generic_encryption: bytes,
        generic_signing: bytes,
    ):
        self.encryption = encryption
        self.mac_server = mac_server
        self.mac_client = mac_client
        self.generic_encryption = generic_encryption
        self.generic_signing = generic_signing

    def __repr__(self) -> str:  # avoid leaking key bytes in logs
        return "SessionKeys(<redacted>)"


def derive_session_keys(base_key: bytes, context: bytes) -> SessionKeys:
    """Run the full per-session derivation from *base_key*.

    *context* binds the derivation to the license request (the real
    protocol uses the serialized request message), so two sessions never
    share derived keys even under the same device key.
    """
    return SessionKeys(*_session_key_material(base_key, context))
