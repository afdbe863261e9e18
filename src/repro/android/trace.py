"""Message-flow tracing, used to regenerate the paper's Figure 1.

``FlowTrace`` is a thin consumer of the observability bus: components
on the playback path emit their arrows (application → Media DRM Server
→ CDM, application → license server / CDN) through
:meth:`repro.obs.bus.ObservabilityBus.flow`, and the device's trace —
registered as a flow consumer at boot — appends them here. The Figure 1
benchmark asserts the captured sequence against the published diagram,
byte-identical to the pre-bus recording.

Record/clear are lock-guarded, like the repo's other mutable
registries (its REG001/LRU004 invariants). Each device owns its trace
and the program drives a device from one thread, but a caller that
shares a device across threads must still never see a ``clear()``
interleave with an append.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["FlowEvent", "FlowTrace"]


class FlowEvent(NamedTuple):
    """One arrow of the sequence diagram."""

    source: str
    target: str
    label: str

    def __str__(self) -> str:
        return f"{self.source} -> {self.target}: {self.label}"


# Builds a FlowEvent in C, skipping the named tuple's generated Python
# ``__new__``; a study records ~1,500 arrows.
_make_event = functools.partial(tuple.__new__, FlowEvent)


@dataclass
class FlowTrace:
    """An append-only sequence of message arrows."""

    events: list[FlowEvent] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, source: str, target: str, label: str) -> None:
        event = _make_event((source, target, label))
        with self._lock:
            self.events.append(event)

    def labels(self) -> list[tuple[str, str, str]]:
        with self._lock:
            return [(e.source, e.target, e.label) for e in self.events]

    def clear(self) -> None:
        with self._lock:
            self.events.clear()

    def render(self) -> str:
        with self._lock:
            return "\n".join(str(e) for e in self.events)
