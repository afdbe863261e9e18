"""Message-flow tracing, used to regenerate the paper's Figure 1.

Each device owns one ``FlowTrace``: components on its playback path
draw their arrows (application → Media DRM Server → CDM, application →
license server / CDN) through ``AndroidDevice.flows``, so a trace holds
its own device's arrows only, whatever the bus. It keeps the last
:data:`FLOW_TRACE_SIZE`: a playback draws at most ~110, a full study's
L1 device ~980. The Figure 1 benchmark asserts the captured sequence
against the published diagram.

Record/clear are lock-guarded, like the repo's other mutable
registries (its REG001/LRU004 invariants). Each device owns its trace
and the program drives a device from one thread, but a caller that
shares a device across threads must still never see a ``clear()``
interleave with an append.
"""

from __future__ import annotations

import functools
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["FlowEvent", "FlowTrace", "FLOW_TRACE_SIZE"]

# Arrows each device's trace keeps (the most recent ones).
FLOW_TRACE_SIZE = 1024


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
    """The last :data:`FLOW_TRACE_SIZE` message arrows, oldest first."""

    events: deque[FlowEvent] = field(
        default_factory=lambda: deque(maxlen=FLOW_TRACE_SIZE)
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, *arrows: tuple[str, str, str]) -> None:
        """Append consecutive ``(source, target, label)`` arrows, in order."""
        with self._lock:
            self.events.extend(map(_make_event, arrows))

    def labels(self) -> list[tuple[str, str, str]]:
        with self._lock:
            return [(e.source, e.target, e.label) for e in self.events]

    def clear(self) -> None:
        with self._lock:
            self.events.clear()

    def render(self) -> str:
        with self._lock:
            return "\n".join(str(e) for e in self.events)
