"""``repro.obs`` — the structured observability bus.

The paper's methodology *is* observability: Frida hooks on the
``_oecc`` surface, SSL-unpinned proxy captures and the Figure 1
message-flow diagram are three views of one playback. This package
gives the reproduction a single spine for all of them:

- :mod:`repro.obs.span` — hierarchical spans with attributes and point
  events;
- :mod:`repro.obs.metrics` — counters and fixed-bucket histograms
  (p50/p95/p99 with exemplar span ids);
- :mod:`repro.obs.bus` — the :class:`ObservabilityBus` every layer
  emits through (explicitly propagated, one per device session, no
  thread-locals);
- :mod:`repro.obs.sampling` — deterministic head-based sampling per
  root span (keep 1-in-N app trees whole; counters stay exact);
- :mod:`repro.obs.profile` — trace analytics: critical paths,
  self-time profiles, collapsed-stack flame graphs, trace diff;
- :mod:`repro.obs.export` — JSON-lines, Chrome ``trace_event``
  (``chrome://tracing`` / Perfetto) and metrics-table exporters.
"""

from repro.obs.bus import NULL_BUS, ObservabilityBus
from repro.obs.export import (
    render_metrics_table,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
)
from repro.obs.metrics import HistogramStat, MetricsRegistry
from repro.obs.profile import (
    TraceDiff,
    critical_path,
    critical_paths,
    diff_traces,
    load_trace_profile,
    render_profile,
    self_time_profile,
    to_collapsed_stacks,
    write_flame_graph,
)
from repro.obs.sampling import TraceSampler, parse_rate
from repro.obs.span import NULL_SPAN, Span, SpanPoint, structural_tree

__all__ = [
    "ObservabilityBus",
    "NULL_BUS",
    "Span",
    "SpanPoint",
    "NULL_SPAN",
    "structural_tree",
    "MetricsRegistry",
    "HistogramStat",
    "TraceSampler",
    "parse_rate",
    "critical_path",
    "critical_paths",
    "self_time_profile",
    "render_profile",
    "to_collapsed_stacks",
    "write_flame_graph",
    "TraceDiff",
    "diff_traces",
    "load_trace_profile",
    "to_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_metrics_table",
]
