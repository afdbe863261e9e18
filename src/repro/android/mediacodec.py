"""The Android ``MediaCodec`` secure decode path.

``queue_secure_input_buffer`` is the Figure 1 arrow into Media Crypto:
the codec hands the encrypted sample plus its CryptoInfo to the CDM,
receives either clear bytes (L3) or a secure-buffer handle (L1),
decodes, and surfaces only frame *metadata* to the application — the
decrypted bitstream is never application-visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.android.mediacrypto import MediaCrypto
from repro.media.codecs import validate_sample
from repro.widevine.oemcrypto import OemCryptoError

__all__ = ["CryptoInfo", "DecodedFrame", "MediaCodec", "CodecException"]


class CodecException(Exception):
    pass


@dataclass(frozen=True)
class CryptoInfo:
    """Per-sample encryption parameters (android.media.MediaCodec.CryptoInfo)."""

    key_id: bytes
    iv: bytes
    subsamples: tuple[tuple[int, int], ...] = ()
    mode: str = "cenc"  # "cenc" | "cbcs" | "unencrypted"


@dataclass(frozen=True)
class DecodedFrame:
    """What the application gets back: metadata, never the bitstream."""

    valid: bool
    kind: str | None
    label: str | None
    sequence: int | None
    secure: bool
    reason: str = ""


@dataclass
class MediaCodec:
    """A decoder instance, optionally configured with a MediaCrypto."""

    mime_type: str
    secure: bool = False
    _crypto: MediaCrypto | None = field(default=None, repr=False)
    frames: list[DecodedFrame] = field(default_factory=list)

    @classmethod
    def create_decoder(cls, mime_type: str, *, secure: bool = False) -> "MediaCodec":
        return cls(mime_type=mime_type, secure=secure)

    def configure(self, crypto: MediaCrypto | None) -> None:
        if crypto is not None:
            needs_secure = crypto.requires_secure_decoder_component(self.mime_type)
            if needs_secure and not self.secure:
                raise CodecException(
                    "L1 session requires a secure decoder component"
                )
        self._crypto = crypto

    def queue_secure_input_buffer(self, data: bytes, info: CryptoInfo) -> DecodedFrame:
        """Decrypt-and-decode one sample through the CDM."""
        if self._crypto is None:
            raise CodecException("codec not configured with a MediaCrypto")
        device = self._crypto.device
        device.flows(
            ("Application", "Media Crypto", "queueSecureInputBuffer()"),
            ("Media Crypto", "CDM", "Decrypt()"),
        )

        if info.mode == "unencrypted":
            clear = data
            secure = False
        else:
            try:
                result = self._crypto._decrypt(
                    info.key_id,
                    data,
                    info.iv,
                    list(info.subsamples),
                    mode=info.mode,
                )
            except OemCryptoError as exc:
                raise CodecException(f"decrypt failed: {exc}") from exc
            if result.secure:
                assert result.handle is not None
                clear = self._crypto.media_drm._cdm.resolve_secure_handle(
                    result.handle, requester="secure-decoder"
                )
                secure = True
            else:
                assert result.data is not None
                clear = result.data
                secure = False

        validation = validate_sample(clear)
        frame = DecodedFrame(
            valid=validation.valid,
            kind=validation.kind,
            label=validation.label,
            sequence=validation.sequence,
            secure=secure,
            reason=validation.reason,
        )
        self.frames.append(frame)
        return frame

    def queue_input_buffer(self, data: bytes) -> DecodedFrame:
        """Clear (non-DRM) input path."""
        validation = validate_sample(data)
        frame = DecodedFrame(
            valid=validation.valid,
            kind=validation.kind,
            label=validation.label,
            sequence=validation.sequence,
            secure=False,
            reason=validation.reason,
        )
        self.frames.append(frame)
        return frame
