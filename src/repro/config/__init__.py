"""Unified run configuration: the :class:`RunSpec` tree and its layering.

One declarative, validated, content-hashed specification drives both
pipeline stages (see :mod:`repro.config.spec`).  Specs are resolved by
layering ``defaults < spec file < CLI flags < --set overrides``
(:mod:`repro.config.layering`), serialized to TOML or JSON
(:mod:`repro.config.toml_io`), embedded in telemetry run manifests for
provenance, and reconstructed from a manifest by ``repro-track
--replay`` — closing the loop from "this output" back to "the exact
configuration that produced it".

See ``docs/configuration.md`` for the schema and workflow.
"""

from repro.config.layering import (
    apply_override,
    deep_merge,
    parse_override_value,
    parse_set_argument,
    resolve_run_spec,
)
from repro.config.spec import (
    ATLAS_NAME_RE,
    CONNECTOME_NORMALIZATIONS,
    HASH_EXCLUDED_SECTIONS,
    INTERPOLATIONS,
    NOISE_MODELS,
    ORDER_POLICIES,
    ConnectomeSpec,
    RunSpec,
    RuntimeSpec,
    SamplingSpec,
    TelemetrySpec,
    TrackingSpec,
    hash_spec_dict,
)
from repro.config.stages import (
    CONNECTOME,
    RUNTIME_DETERMINISTIC_FIELDS,
    SAMPLING,
    TRACKING,
    StageDef,
    get_stage,
    stage_hash,
    stage_names,
    stage_subtree,
)
from repro.config.toml_io import HAVE_TOML, dumps_json, dumps_toml, load_spec_file

__all__ = [
    "RunSpec",
    "SamplingSpec",
    "TrackingSpec",
    "ConnectomeSpec",
    "RuntimeSpec",
    "TelemetrySpec",
    "hash_spec_dict",
    "stage_hash",
    "stage_subtree",
    "StageDef",
    "get_stage",
    "stage_names",
    "SAMPLING",
    "TRACKING",
    "CONNECTOME",
    "RUNTIME_DETERMINISTIC_FIELDS",
    "HASH_EXCLUDED_SECTIONS",
    "NOISE_MODELS",
    "INTERPOLATIONS",
    "ORDER_POLICIES",
    "ATLAS_NAME_RE",
    "CONNECTOME_NORMALIZATIONS",
    "resolve_run_spec",
    "apply_override",
    "deep_merge",
    "parse_override_value",
    "parse_set_argument",
    "HAVE_TOML",
    "load_spec_file",
    "dumps_toml",
    "dumps_json",
]
