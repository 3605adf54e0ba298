"""The JSON run manifest: a self-describing record of one run's metrics.

A manifest is the registry's :meth:`~repro.telemetry.MetricsRegistry.snapshot`
wrapped with a schema tag and free-form run metadata.  It is the machine-
readable counterpart of ``WorkflowResult.report()`` — benchmarks and the
``EXPERIMENTS.md`` tables source their numbers from it rather than from
ad-hoc accumulators (``repro-track --metrics-out run.json`` writes one).

The ``counters`` and ``histograms`` sections are **deterministic**: for
the same workload they are bit-identical between a serial run and any
``n_workers`` (see :mod:`repro.telemetry.registry`).  The ``ops``,
``gauges``, ``timers``, and ``spans`` sections are measured and vary run
to run.

Since schema v2 a manifest also records *provenance*: the resolved
:class:`~repro.config.spec.RunSpec` dict under ``config`` and its
content hash under ``config_hash`` — which is what lets ``repro-track
--replay manifest.json`` reconstruct and rerun the exact configuration
that produced an output.  v1 manifests (results without provenance)
still load and validate.

Examples
--------
>>> from repro.telemetry import MetricsRegistry
>>> reg = MetricsRegistry()
>>> reg.count("demo.events", 2)
>>> doc = build_manifest(reg, meta={"command": "doctest"})
>>> doc["schema"]
'repro.telemetry.manifest/2'
>>> roundtrip = manifest_from_json(manifest_to_json(doc))
>>> roundtrip["counters"]["demo.events"]
2
>>> from repro.config import RunSpec
>>> doc = build_manifest(reg, config=RunSpec().to_dict())
>>> doc["config_hash"] == RunSpec().content_hash()
True
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import TelemetryError
from repro.telemetry.registry import MetricsRegistry

__all__ = [
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_V1",
    "SUPPORTED_SCHEMAS",
    "build_manifest",
    "cache_section",
    "manifest_to_json",
    "manifest_from_json",
    "validate_manifest",
    "write_manifest",
    "load_manifest",
    "deterministic_sections",
    "manifest_config",
]

#: Schema identifier written into every new manifest (v2: + provenance).
MANIFEST_SCHEMA = "repro.telemetry.manifest/2"

#: The pre-provenance schema; still accepted by the loader.
MANIFEST_SCHEMA_V1 = "repro.telemetry.manifest/1"

#: Every schema :func:`validate_manifest` accepts.
SUPPORTED_SCHEMAS = (MANIFEST_SCHEMA_V1, MANIFEST_SCHEMA)

#: Top-level keys every valid manifest must carry.
_REQUIRED_KEYS = (
    "schema",
    "meta",
    "counters",
    "ops",
    "gauges",
    "histograms",
    "timers",
    "spans",
)

#: Keys additionally required by schema v2 (``config`` may be null when
#: a producer has no run spec, but the keys must be present).
_REQUIRED_KEYS_V2 = ("config", "config_hash")


def build_manifest(
    registry: MetricsRegistry,
    meta: dict | None = None,
    config: dict | None = None,
    cache: dict | None = None,
) -> dict:
    """Assemble a (v2) manifest dict from a registry.

    Parameters
    ----------
    registry:
        The run's metrics.
    meta:
        Free-form, JSON-serializable run metadata (command line, worker
        count, dataset name, ...).
    config:
        The resolved run-spec dict (``RunSpec.to_dict()``) that produced
        this run; its content hash is computed and embedded alongside.
        ``None`` records a run with no spec (library-level use).
    cache:
        Artifact-store accounting for this run (:func:`cache_section`).
        The section is *operational*, never part of
        :func:`deterministic_sections`: whether a run hit the cache is a
        property of the disk, not of the workload, and cold-vs-warm runs
        must stay bit-identical elsewhere.  Omitted when ``None`` (runs
        without a store).

    Returns
    -------
    dict
        A manifest passing :func:`validate_manifest`.
    """
    config_hash = None
    if config is not None:
        from repro.config import hash_spec_dict

        config_hash = hash_spec_dict(config)
    snap = registry.snapshot()
    doc = {
        "schema": MANIFEST_SCHEMA,
        "meta": dict(meta or {}),
        "config": config,
        "config_hash": config_hash,
        "counters": snap["counters"],
        "ops": snap["ops"],
        "gauges": snap["gauges"],
        "histograms": snap["histograms"],
        "timers": snap["timers"],
        "spans": snap["spans"],
    }
    if cache is not None:
        doc["cache"] = dict(cache)
    return doc


def cache_section(store, stages: dict) -> dict | None:
    """The manifest ``cache`` section for a run against ``store``.

    ``stages`` maps each stage the run reached to ``(hit, key)``: a
    ``<stage>_hit`` flag per stage, the non-``None`` keys under
    ``stage_keys``, then the store root and its
    :meth:`~repro.store.StoreStats.to_dict` counters.  ``None`` when
    ``store`` is ``None`` (runs without a store have no section).
    """
    if store is None:
        return None
    section = {f"{name}_hit": hit for name, (hit, _key) in stages.items()}
    section["stage_keys"] = {
        name: key for name, (_hit, key) in stages.items() if key is not None
    }
    section["store"] = str(store.root)
    section.update(store.stats.to_dict())
    return section


def validate_manifest(doc: dict) -> dict:
    """Check a manifest's schema; return it unchanged if valid.

    Parameters
    ----------
    doc:
        A parsed manifest dict.

    Returns
    -------
    dict
        ``doc``, for chaining.

    Raises
    ------
    TelemetryError
        On a missing key, an unknown schema tag, a non-integer counter,
        a histogram whose counts don't line up with its edges, or a v2
        ``config`` section that is invalid or contradicts its hash.
    """
    if not isinstance(doc, dict):
        raise TelemetryError(f"manifest must be a dict, got {type(doc).__name__}")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise TelemetryError(f"manifest missing keys: {missing}")
    if doc["schema"] not in SUPPORTED_SCHEMAS:
        raise TelemetryError(
            f"unknown manifest schema {doc['schema']!r} "
            f"(expected one of {list(SUPPORTED_SCHEMAS)})"
        )
    if doc["schema"] == MANIFEST_SCHEMA:
        missing = [k for k in _REQUIRED_KEYS_V2 if k not in doc]
        if missing:
            raise TelemetryError(f"v2 manifest missing keys: {missing}")
        _validate_config_section(doc)
    if "cache" in doc and not isinstance(doc["cache"], dict):
        raise TelemetryError(
            f"manifest 'cache' section must be a dict, got "
            f"{type(doc['cache']).__name__}"
        )
    for section in ("counters", "ops"):
        for name, value in doc[section].items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise TelemetryError(
                    f"{section}[{name!r}] must be an int, got {value!r}"
                )
    for name, h in doc["histograms"].items():
        if len(h.get("counts", [])) != len(h.get("edges", [])) + 1:
            raise TelemetryError(
                f"histogram {name!r}: need len(edges)+1 buckets, got "
                f"{len(h.get('counts', []))} for {len(h.get('edges', []))} edges"
            )
        if sum(h["counts"]) != h.get("n"):
            raise TelemetryError(
                f"histogram {name!r}: bucket counts sum to {sum(h['counts'])}, "
                f"n says {h.get('n')}"
            )
    for i, span in enumerate(doc["spans"]):
        parent = span.get("parent")
        if parent is not None and not 0 <= parent < i:
            raise TelemetryError(
                f"span {i} ({span.get('name')!r}): parent {parent} must "
                f"point to an earlier span"
            )
    return doc


def _validate_config_section(doc: dict) -> None:
    """v2 provenance checks: spec dict validity and hash agreement."""
    config, config_hash = doc["config"], doc["config_hash"]
    if config is None:
        if config_hash is not None:
            raise TelemetryError(
                "manifest has config_hash but no config section"
            )
        return
    # Deferred import: repro.config pulls in layers above telemetry.
    from repro.config import RunSpec, hash_spec_dict
    from repro.errors import ConfigurationError

    try:
        RunSpec.from_dict(config)
    except ConfigurationError as exc:
        raise TelemetryError(f"manifest config section invalid: {exc}") from exc
    expected = hash_spec_dict(config)
    if config_hash != expected:
        raise TelemetryError(
            f"manifest config_hash {config_hash!r} does not match its "
            f"config section (expected {expected!r})"
        )


def manifest_config(doc: dict):
    """The embedded run spec of a validated manifest, or ``None``.

    Returns a :class:`~repro.config.spec.RunSpec` for v2 manifests that
    carry provenance; ``None`` for v1 manifests or v2 manifests written
    without a spec.  This is what ``repro-track --replay`` runs from.
    """
    validate_manifest(doc)
    config = doc.get("config")
    if config is None:
        return None
    from repro.config import RunSpec

    return RunSpec.from_dict(config)


def manifest_to_json(doc: dict) -> str:
    """Serialize a manifest to a stable (sorted-key) JSON string."""
    return json.dumps(validate_manifest(doc), sort_keys=True, indent=2)


def manifest_from_json(text: str) -> dict:
    """Parse and validate a manifest from its JSON form."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TelemetryError(f"manifest is not valid JSON: {exc}") from exc
    return validate_manifest(doc)


def write_manifest(
    path: str | Path,
    registry: MetricsRegistry,
    meta: dict | None = None,
    config: dict | None = None,
    cache: dict | None = None,
) -> dict:
    """Build, validate, and write a manifest; returns the manifest dict.

    Parameters
    ----------
    path:
        Output file path.
    registry:
        The run's metrics.
    meta:
        Free-form run metadata recorded under ``meta``.
    config:
        The resolved run-spec dict for the provenance section (see
        :func:`build_manifest`).
    cache:
        Optional artifact-store accounting section (see
        :func:`build_manifest`).
    """
    doc = build_manifest(registry, meta=meta, config=config, cache=cache)
    Path(path).write_text(manifest_to_json(doc))
    return doc


def load_manifest(path: str | Path) -> dict:
    """Read and validate a manifest file."""
    return manifest_from_json(Path(path).read_text())


def deterministic_sections(doc: dict) -> dict:
    """The bit-identity subset of a manifest.

    Returns
    -------
    dict
        Only the ``counters`` and ``histograms`` sections — the parts
        guaranteed identical between serial and any-worker runs of the
        same workload.
    """
    validate_manifest(doc)
    return {"counters": doc["counters"], "histograms": doc["histograms"]}
