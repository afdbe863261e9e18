"""MovieStealer — the 2013 baseline attack, and why it no longer works.

Wang et al. (USENIX Security 2013) stole streams by scanning the
*player application's* memory for decrypted media buffers, exploiting
pre-TEE DRM designs where the app itself held the clear content. §II-B:
"MovieStealer as defined in [6] does not work anymore, since the app
has never access to the decrypted buffer."

This module implements both halves of that claim:

- :class:`MovieStealer` — the baseline: scan a process's memory for
  decodable media samples;
- :class:`InsecureSoftwarePlayer` — a deliberately archaic app: an
  :class:`~repro.ott.app.OttApp` on the embedded-DRM path (it decrypts
  in-process) that also keeps every clear sample in its own heap (the
  2013-era design), against which the baseline still succeeds.

Against any modern :class:`~repro.ott.app.OttApp` the scan comes back
empty: on the Widevine path decrypted samples exist only inside the
CDM/codec path, and the embedded-DRM path keeps none in mapped memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.android.device import AndroidDevice
from repro.android.mediacodec import DecodedFrame, MediaCodec
from repro.android.process import Process
from repro.media.codecs import SAMPLE_MAGIC, validate_sample
from repro.ott.app import OttApp
from repro.ott.backend import OttBackend
from repro.ott.profile import OttProfile

__all__ = ["MovieStealer", "MovieStealerResult", "InsecureSoftwarePlayer"]

_HEADER_SEQ_OFFSET = 6 + 24  # magic+kind+len+label
_HEADER_LEN = 4 + 1 + 1 + 24 + 4 + 4
_CHECKSUM_LEN = 8


@dataclass
class MovieStealerResult:
    """What the memory scan recovered."""

    process_name: str
    recovered_samples: list[bytes] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return bool(self.recovered_samples)


class MovieStealer:
    """Scan a process's readable memory for clear media samples."""

    def scan_process(self, process: Process) -> MovieStealerResult:
        result = MovieStealerResult(process_name=process.name)
        for region in process.readable_regions():
            blob = bytes(region.data)
            start = 0
            while True:
                index = blob.find(SAMPLE_MAGIC, start)
                if index < 0:
                    break
                start = index + 1
                header = blob[index : index + _HEADER_LEN]
                if len(header) < _HEADER_LEN:
                    continue
                payload_len = int.from_bytes(
                    header[_HEADER_LEN - 4 : _HEADER_LEN], "big"
                )
                total = _HEADER_LEN + payload_len + _CHECKSUM_LEN
                candidate = blob[index : index + total]
                if validate_sample(candidate).valid:
                    result.recovered_samples.append(candidate)
        return result

    def run(self, device: AndroidDevice, package: str) -> MovieStealerResult:
        """Attack an installed app by process name (needs root)."""
        if not device.rooted:
            raise PermissionError("memory scanning requires a rooted device")
        return self.scan_process(device.find_process(package))


class InsecureSoftwarePlayer(OttApp):
    """A 2013-style app: in-process DRM, decoded frames on the heap.

    An :class:`~repro.ott.app.OttApp` that always plays through the
    embedded software CDM (the service must expose the embedded-license
    endpoint) and — the fatal design — writes every clear sample it
    renders into its own mapped memory.
    """

    def __init__(
        self, profile: OttProfile, device: AndroidDevice, backend: OttBackend
    ):
        if not profile.custom_drm_on_l3:
            raise ValueError(
                "the insecure player needs a service with an embedded-"
                "license endpoint (custom_drm_on_l3=True)"
            )
        super().__init__(profile, device, backend)
        self._frames: list[bytes] = []
        self._heap = self.process.map_region(f"{profile.package}:decoded-frames", 0)

    def _embedded_drm(self) -> bool:
        """The 2013 design: in-process DRM whatever the device offers."""
        return True

    def _render(self, codec: MediaCodec, sample: bytes) -> DecodedFrame:
        self._frames.append(sample)
        return super()._render(codec, sample)

    def play(self, title_id: str | None = None, *, language: str = "en") -> bool:
        """Play a title, leaving decoded frames strewn across the heap."""
        ok = super().play(title_id, language=language).ok
        frames, self._frames = self._frames, []
        if ok:
            # The 2013 mistake: clear frames linger in app memory.
            heap = b"".join(frames)
            self.process.unmap_region(self._heap)
            self._heap = self.process.map_region(
                f"{self.profile.package}:decoded-frames", len(heap)
            )
            self._heap.write(0, heap)
        return ok
