"""The declarative stage registry: the pipeline's shape as data.

The pipeline used to be a hardcoded two-tuple — sampling then tracking —
with an if/elif subtree chain here and per-stage copy-paste in the
store, the workflow, and the reporting layers.  Each stage is now a
:class:`StageDef` record declaring everything those layers need:

* ``name`` and ``upstream`` — the stage graph (registration order is
  topological order, enforced by :func:`register_stage`);
* ``spec_sections`` and ``runtime_fields`` — which parts of a
  :class:`~repro.config.spec.RunSpec` participate in the stage's content
  hash (:func:`stage_subtree` / :func:`stage_hash`);
* ``runner`` — a ``"module:callable"`` reference (or a direct callable,
  for test stages) to the pure stage runner the generic workflow walk
  invokes;
* ``shard`` — an optional reference to the stage's
  :class:`~repro.runtime.stage.StageShard` contract;
* ``artifact_files`` — the payload files a store entry for this stage
  carries.

Downstream layers — :class:`~repro.store.ArtifactStore` validation and
``ls``/``verify`` iteration, the :func:`~repro.pipeline.workflow.run_workflow`
memoization walk, :meth:`WorkflowResult.report`, the manifest ``cache``
section, and service job keys — all consume the registry, so adding a
stage is a :func:`register_stage` call, not a cross-cutting surgery.

Hashing rules (unchanged from the two-stage era)
------------------------------------------------

Each stage hashes only the *subtree* of the spec it actually depends on,
plus a caller-supplied ``inputs`` mapping fingerprinting the stage's
data inputs (see :func:`repro.store.fingerprint_arrays`).  Execution
policy (worker counts, retries, timeouts, fault plans, array backend,
checkpoint cadence) and the ``telemetry`` section are excluded from
every stage hash: results are bit-identical across all of them, so a
re-run with a different worker count is a cache *hit*.  The only
``runtime`` fields that may participate are a stage's declared
``runtime_fields`` — deterministic machine presets that shape stage
*outputs* (the modeled timeline), not how the computation executes.

Examples
--------
>>> stage_names()
('sampling', 'tracking', 'connectome')
>>> get_stage("tracking").upstream
('sampling',)
>>> a = stage_hash({}, "sampling")
>>> b = stage_hash({"tracking": {"max_steps": 7}}, "sampling")
>>> a == b                     # tracking edits never touch stage 1
True
>>> stage_hash({}, "tracking") == stage_hash(
...     {"runtime": {"n_workers": 4}}, "tracking"
... )                          # worker count is execution policy
True
>>> stage_hash({}, "sampling") == stage_hash(
...     {"sampling": {"seed": 1}}, "sampling"
... )
False
>>> stage_hash({}, "connectome") == stage_hash(
...     {"connectome": {"atlas": "octant"}}, "connectome"
... )                          # atlas choice keys the connectome stage
False
>>> stage_hash({}, "tracking") == stage_hash(
...     {"connectome": {"atlas": "octant"}}, "tracking"
... )                          # ...but never stages 1-2: sweeps reuse them
True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError

__all__ = [
    "StageDef",
    "register_stage",
    "unregister_stage",
    "get_stage",
    "stage_names",
    "stage_defs",
    "resolve_stage_ref",
    "SAMPLING",
    "TRACKING",
    "CONNECTOME",
    "STAGES",
    "RUNTIME_DETERMINISTIC_FIELDS",
    "stage_subtree",
    "stage_hash",
]

#: ``runtime`` fields that deterministically shape stage *outputs* (the
#: modeled timeline) rather than how the computation is executed.
RUNTIME_DETERMINISTIC_FIELDS = ("device", "host")


@dataclass(frozen=True)
class StageDef:
    """One pipeline stage, declared: hashing, execution, and artifacts.

    Every layer that used to special-case stage names reads these fields
    instead.  ``runner`` and ``shard`` are lazy ``"module:callable"``
    references (or direct objects, for in-test stages) so this module
    never imports the pipeline layers it describes.
    """

    #: Stage name — the store directory, cache-key prefix, and report label.
    name: str
    #: Names of stages whose outputs this stage consumes (must already be
    #: registered, so registration order is topological order).
    upstream: tuple[str, ...] = ()
    #: RunSpec sections participating in this stage's content hash.
    spec_sections: tuple[str, ...] = ()
    #: ``runtime`` fields participating in the hash (deterministic
    #: machine presets only — never execution policy).
    runtime_fields: tuple[str, ...] = ()
    #: ``"module:callable"`` (or callable) running the stage against a
    #: :class:`~repro.pipeline.workflow.StageContext`; None = not
    #: runnable via the generic workflow walk.
    runner: str | Callable | None = None
    #: ``"module:attribute"`` (or object) naming the stage's
    #: :class:`~repro.runtime.stage.StageShard` contract, if sharded.
    shard: str | object | None = None
    #: Payload files a store entry for this stage carries (documentation
    #: + ``repro-store verify`` context; ``entry.json`` is implicit).
    artifact_files: tuple[str, ...] = ()

    def resolve_runner(self) -> Callable | None:
        """The runner callable, importing lazily if declared by path."""
        return None if self.runner is None else resolve_stage_ref(self.runner)

    def resolve_shard(self):
        """The ``StageShard`` contract, importing lazily if by path."""
        return None if self.shard is None else resolve_stage_ref(self.shard)


def resolve_stage_ref(ref):
    """Resolve a ``"module:attribute"`` reference (pass objects through).

    Raises
    ------
    ConfigurationError
        If the reference does not name an importable attribute.
    """
    if not isinstance(ref, str):
        return ref
    module_name, _, attr = ref.partition(":")
    if not module_name or not attr:
        raise ConfigurationError(
            f"stage reference must look like 'module:attribute', got {ref!r}"
        )
    import importlib

    try:
        return getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError) as exc:
        raise ConfigurationError(f"cannot resolve stage reference {ref!r}: {exc}") from exc


#: The registry. Insertion order is topological order by construction:
#: ``register_stage`` requires every upstream stage to pre-exist.
_REGISTRY: dict[str, StageDef] = {}


def register_stage(sdef: StageDef) -> StageDef:
    """Add a stage to the registry; returns it for constant binding.

    Raises
    ------
    ConfigurationError
        On a duplicate name or an unregistered upstream stage.
    """
    if not sdef.name or not isinstance(sdef.name, str):
        raise ConfigurationError(f"stage name must be a non-empty string, got {sdef.name!r}")
    if sdef.name in _REGISTRY:
        raise ConfigurationError(f"stage {sdef.name!r} is already registered")
    for up in sdef.upstream:
        if up not in _REGISTRY:
            raise ConfigurationError(
                f"stage {sdef.name!r} lists unregistered upstream stage {up!r} "
                f"(known stages: {list(_REGISTRY)})"
            )
    _REGISTRY[sdef.name] = sdef
    return sdef


def unregister_stage(name: str) -> None:
    """Remove a stage (test cleanup); refuses if another depends on it."""
    get_stage(name)
    dependents = [s.name for s in _REGISTRY.values() if name in s.upstream]
    if dependents:
        raise ConfigurationError(
            f"cannot unregister stage {name!r}: upstream of {dependents}"
        )
    del _REGISTRY[name]


def get_stage(name: str) -> StageDef:
    """The :class:`StageDef` for ``name``, or ``ConfigurationError``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown stage {name!r} (known stages: {list(_REGISTRY)})"
        ) from None


def stage_names() -> tuple[str, ...]:
    """Registered stage names, in topological (execution) order."""
    return tuple(_REGISTRY)


def stage_defs() -> tuple[StageDef, ...]:
    """Registered :class:`StageDef` records, in topological order."""
    return tuple(_REGISTRY.values())


def __getattr__(name: str):
    """Back-compat: ``STAGES`` stays importable, now registry-backed."""
    if name == "STAGES":
        return stage_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def stage_subtree(doc: dict, stage: str) -> dict:
    """The normalized spec subtree one stage's outputs depend on.

    ``doc`` is any (possibly partial) plain spec dict; it is normalized
    through :meth:`~repro.config.spec.RunSpec.from_dict` first, so
    missing sections hash identically to explicit defaults.  The subtree
    is the stage's declared ``spec_sections`` plus (when it declares
    ``runtime_fields``) the matching slice of the ``runtime`` section.

    Raises
    ------
    ConfigurationError
        On an unknown ``stage`` or an invalid spec dict.
    """
    from repro.config.spec import RunSpec

    sdef = get_stage(stage)
    normalized = RunSpec.from_dict(doc).to_dict()
    subtree = {section: normalized[section] for section in sdef.spec_sections}
    if sdef.runtime_fields:
        subtree["runtime"] = {
            name: normalized["runtime"][name] for name in sdef.runtime_fields
        }
    return subtree


def stage_hash(doc: dict, stage: str, inputs: dict | None = None) -> str:
    """Content hash keying one stage of one run in the artifact store.

    Parameters
    ----------
    doc:
        A plain (possibly partial) run-spec dict.
    stage:
        A registered stage name (see :func:`stage_names`).
    inputs:
        JSON-safe fingerprints of the stage's data inputs (e.g.
        ``{"data": fingerprint_arrays(dwi=...)}``).  Two runs with the
        same spec subtree but different input data must key different
        artifacts.

    Returns
    -------
    str
        ``sha256:<hex>`` over the canonical JSON of
        ``{stage, spec-subtree, inputs}``.
    """
    body = {
        "stage": stage,
        "spec": stage_subtree(doc, stage),
        "inputs": dict(inputs or {}),
    }
    try:
        blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"stage inputs must be JSON-safe fingerprints: {exc}"
        ) from exc
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Stage 1 — bedpost-style MCMC posterior sampling, sharded by voxel
#: block.  Machine presets, worker counts, and telemetry routing do not
#: change the posterior samples (proven by the parallel-invariance and
#: telemetry property suites), so only the ``sampling`` section hashes.
SAMPLING = register_stage(StageDef(
    name="sampling",
    spec_sections=("sampling",),
    runner="repro.pipeline.runners:run_sampling_stage",
    shard="repro.mcmc.shards:BEDPOST_BLOCK_SHARD",
    artifact_files=("samples.npz", "meta.json", "telemetry.json"),
))

#: Stage 2 — segmented probabilistic streamlining.  Consumes the
#: posterior (so the ``sampling`` section participates) plus its own
#: section and the machine presets shaping the modeled timeline.
TRACKING = register_stage(StageDef(
    name="tracking",
    upstream=("sampling",),
    spec_sections=("sampling", "tracking"),
    runtime_fields=RUNTIME_DETERMINISTIC_FIELDS,
    runner="repro.pipeline.runners:run_tracking_stage",
    shard="repro.tracking.shards:TRACKING_SHARD",
    artifact_files=("arrays.npz", "timeline.json", "telemetry.json"),
))

#: Stage 3 — ROI-atlas parcellation -> endpoint connectivity matrix ->
#: graph export, folded in-process over the endpoints stage 2 recorded.
#: Those endpoints depend on the sampling and tracking sections but not
#: on machine presets (which shape only the modeled timeline) — so an
#: atlas sweep over one tracked dataset recomputes only this stage.
CONNECTOME = register_stage(StageDef(
    name="connectome",
    upstream=("sampling", "tracking"),
    spec_sections=("sampling", "tracking", "connectome"),
    runner="repro.pipeline.runners:run_connectome_stage",
    artifact_files=("connectome.npz", "graph.json", "telemetry.json"),
))
