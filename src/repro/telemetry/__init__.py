"""Unified run telemetry: metrics registry, spans, and the run manifest.

The paper's argument is quantitative — kernel-launch counts, lane
utilization, and stage timings justify its segmentation strategy — so
this package makes every run self-describing:

* :class:`MetricsRegistry` — process-wide but explicitly injectable
  ledger of counters, gauges, fixed-edge histograms, stage timers, and
  nested :meth:`~MetricsRegistry.span` measurements (wall + CPU time);
* :mod:`repro.telemetry.manifest` — the JSON run manifest
  (``repro-track --metrics-out``) with a validated schema and a
  deterministic ``counters``/``histograms`` section that is
  bit-identical between serial and multi-worker runs;
* measured host spans merge into the modeled Chrome trace via
  :func:`repro.gpu.trace_export.write_chrome_trace`.

Instrumented layers: :mod:`repro.mcmc` (proposals/accepts, burn-in vs
sampling spans), :mod:`repro.tracking` (per-segment kernel spans, step
and compaction counters, length histograms), and :mod:`repro.runtime`
(per-shard snapshots shipped back with payloads and merged in task
order; retries and timeouts folded in as operational counters).
"""

from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_V1,
    SUPPORTED_SCHEMAS,
    build_manifest,
    cache_section,
    deterministic_sections,
    load_manifest,
    manifest_config,
    manifest_from_json,
    manifest_to_json,
    validate_manifest,
    write_manifest,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanRecord,
    get_registry,
    set_registry,
    use_registry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "get_registry",
    "set_registry",
    "use_registry",
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_V1",
    "SUPPORTED_SCHEMAS",
    "build_manifest",
    "cache_section",
    "deterministic_sections",
    "load_manifest",
    "manifest_config",
    "manifest_from_json",
    "manifest_to_json",
    "validate_manifest",
    "write_manifest",
]
