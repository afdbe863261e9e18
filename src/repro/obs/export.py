"""Exporters: turn one bus's recordings into shareable artifacts.

Three output formats, one per consumer class:

- :func:`to_jsonl` — a JSON-lines event log (one span or event per
  line), the greppable archive format;
- :func:`to_chrome_trace` — the Chrome ``trace_event`` JSON object
  format, loadable in ``chrome://tracing`` / Perfetto: complete
  (``"ph": "X"``) events per span, instant events per span point, and
  thread-name metadata per track so per-app trees render as lanes;
- :func:`render_metrics_table` — the aggregate counters/histograms as
  a fixed-width table for study summaries and reports.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.bus import ObservabilityBus
from repro.obs.span import Span

__all__ = [
    "to_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_metrics_table",
]

_TRACE_PID = 1


def to_jsonl(bus: ObservabilityBus) -> str:
    """One JSON object per line: spans in open order, then root events,
    then the metrics snapshot, then the sampling record (what
    head-based sampling kept and dropped — truncation is never
    silent)."""
    def dump(payload: dict[str, Any]) -> str:
        return json.dumps(payload, sort_keys=True, default=_json_safe)

    lines: list[str] = []
    for span in bus.spans:
        lines.append(dump({"type": "span", **span.to_dict()}))
    for event in bus.events:
        lines.append(dump({"type": "event", **event.to_dict()}))
    lines.append(dump({"type": "metrics", **bus.metrics.snapshot()}))
    lines.append(dump({"type": "sampling", **bus.sampling_snapshot()}))
    return "\n".join(lines) + "\n"


def _track_ids(spans: list[Span]) -> dict[str, int]:
    """Stable track → tid mapping, in order of first appearance."""
    tids: dict[str, int] = {}
    for span in spans:
        if span.track not in tids:
            tids[span.track] = len(tids) + 1
    return tids


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    return repr(value)


def to_chrome_trace(bus: ObservabilityBus) -> dict[str, Any]:
    """The ``trace_event`` JSON object format (timestamps in µs)."""
    spans = bus.spans
    tids = _track_ids(spans)
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _TRACE_PID,
            "tid": 0,
            "args": {"name": "wideleak-study"},
        },
        # The sampling record rides along as metadata, so a truncated
        # trace opened in Perfetto still says how much it dropped.
        {
            "name": "sampling",
            "ph": "M",
            "pid": _TRACE_PID,
            "tid": 0,
            "args": bus.sampling_snapshot(),
        },
    ]
    for track, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _TRACE_PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
    for span in spans:
        tid = tids[span.track]
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "pid": _TRACE_PID,
                "tid": tid,
                "ts": span.start_ns / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "args": {k: _json_safe(v) for k, v in span.attrs.items()},
            }
        )
        for point in span.points:
            events.append(
                {
                    "name": point.name,
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "pid": _TRACE_PID,
                    "tid": tid,
                    "ts": point.ts_ns / 1000.0,
                    "args": {k: _json_safe(v) for k, v in point.attrs.items()},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(bus: ObservabilityBus, path: str | Path) -> Path:
    """Serialize :func:`to_chrome_trace` to *path*; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(bus), indent=2) + "\n")
    return path


def render_metrics_table(bus: ObservabilityBus) -> str:
    """Counters and span-duration aggregates as a fixed-width table."""
    lines: list[str] = []
    counters = bus.metrics.counters()
    if counters:
        width = max(len(name) for name in counters)
        lines.append(f"{'counter'.ljust(width)}  value")
        lines.append(f"{'-' * width}  -----")
        for name, value in counters.items():
            lines.append(f"{name.ljust(width)}  {value}")
    histograms = bus.metrics.histograms()
    if histograms:
        if lines:
            lines.append("")
        width = max(len(name) for name in histograms)
        lines.append(
            f"{'histogram'.ljust(width)}  {'count':>7s}  {'p50':>10s}"
            f"  {'p95':>10s}  {'p99':>10s}  {'total':>12s}  exemplar"
        )
        lines.append(
            f"{'-' * width}  {'-' * 7}  {'-' * 10}  {'-' * 10}"
            f"  {'-' * 10}  {'-' * 12}  --------"
        )
        for name, stat in histograms.items():
            exemplar = stat.max_exemplar()
            # The exemplar links the stream's worst outlier to its span
            # in the recorded trace (only sampled spans donate one).
            exemplar_cell = "-" if exemplar is None else f"span:{exemplar[1]}"
            lines.append(
                f"{name.ljust(width)}  {stat.count:>7d}"
                f"  {stat.percentile(50) / 1e6:>8.3f}ms"
                f"  {stat.percentile(95) / 1e6:>8.3f}ms"
                f"  {stat.percentile(99) / 1e6:>8.3f}ms"
                f"  {stat.total / 1e6:>10.3f}ms  {exemplar_cell}"
            )
    if not lines:
        return "(no metrics recorded)"
    return "\n".join(lines)
