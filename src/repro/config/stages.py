"""The pipeline's three fixed stages and their content hashes.

The pipeline has a fixed shape: stage 1 samples the local posterior
(MCMC), stage 2 tracks streamlines through it, and stage 3 folds the
tracked endpoints into an ROI connectome.  Each stage is a
:class:`StageDef` constant — :data:`SAMPLING`, :data:`TRACKING`,
:data:`CONNECTOME` — recording only what hashing needs: its ``name``
(the store directory, cache-key prefix, and report label), the
``spec_sections`` of a :class:`~repro.config.spec.RunSpec` that feed
its content hash, and its ``runtime_fields``.  The store validates stage
names against :func:`stage_names`; the workflow
(:func:`~repro.pipeline.workflow.run_workflow`) calls the three stage
runners directly, in order.

Hashing rules
-------------

Each stage hashes the spec sections that parameterise it plus a
caller-supplied ``inputs`` mapping fingerprinting the bytes it consumes
(see :func:`repro.store.fingerprint_arrays`); an upstream section
reaches it only through those bytes.  Execution policy (worker counts,
retries, timeouts, fault plans, checkpoint cadence) and the
``telemetry`` section are excluded from every stage hash: results are
bit-identical across all of them, so a re-run with a different worker
count is a cache *hit*.  The only
``runtime`` fields that may participate are a stage's declared
``runtime_fields`` — deterministic machine presets that shape stage
*outputs* (the modeled timeline), not how the computation executes.

Examples
--------
>>> stage_names()
('sampling', 'tracking', 'connectome')
>>> get_stage("tracking").spec_sections
('tracking',)
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
>>> stage_hash({}, "tracking") == stage_hash(
...     {"sampling": {"seed": 1}}, "tracking"
... )                          # ...which reaches stage 2 via its inputs
True
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

from dataclasses import dataclass

from repro.config.spec import RunSpec, _sha256_json
from repro.errors import ConfigurationError

__all__ = [
    "StageDef",
    "get_stage",
    "stage_names",
    "SAMPLING",
    "TRACKING",
    "CONNECTOME",
    "RUNTIME_DETERMINISTIC_FIELDS",
    "stage_subtree",
    "stage_hash",
]

#: ``runtime`` fields that deterministically shape stage *outputs* (the
#: modeled timeline) rather than how the computation is executed.
RUNTIME_DETERMINISTIC_FIELDS = ("device", "host")


@dataclass(frozen=True)
class StageDef:
    """One pipeline stage's hashing contract: which spec parts key it."""

    #: Stage name — the store directory, cache-key prefix, and report label.
    name: str
    #: RunSpec sections participating in this stage's content hash.
    spec_sections: tuple[str, ...] = ()
    #: ``runtime`` fields participating in the hash (deterministic
    #: machine presets only — never execution policy).
    runtime_fields: tuple[str, ...] = ()


#: Stage 1 — bedpost-style MCMC posterior sampling, sharded by voxel
#: block (:data:`repro.mcmc.shards.BEDPOST_BLOCK_SHARD`).  Upstream:
#: none (it consumes only the acquisition).  Machine presets, worker
#: counts, and telemetry routing do not change the posterior samples
#: (proven by the parallel-invariance and telemetry property suites), so
#: only the ``sampling`` section hashes.  Store entry: ``samples.npz``,
#: ``meta.json``, ``telemetry.json``.
SAMPLING = StageDef(name="sampling", spec_sections=("sampling",))

#: Stage 2 — segmented probabilistic streamlining, sharded by posterior
#: sample (:data:`repro.tracking.shards.TRACKING_SHARD`).  Upstream:
#: sampling, reached only through the posterior's ``inputs``
#: fingerprint; it hashes its own section and the machine presets
#: shaping the modeled timeline.  Store entry: ``arrays.npz``,
#: ``timeline.json``, ``telemetry.json``.
TRACKING = StageDef(
    name="tracking",
    spec_sections=("tracking",),
    runtime_fields=RUNTIME_DETERMINISTIC_FIELDS,
)

#: Stage 3 — ROI-atlas parcellation -> endpoint connectivity matrix ->
#: graph export, folded in-process over the endpoints stage 2 recorded.
#: The endpoints depend on the posterior (fingerprinted in ``inputs``)
#: and the tracking section, not on machine presets (modeled timeline
#: only) — so an atlas sweep over one tracked dataset recomputes only
#: this stage.  Store entry: ``connectome.npz``, ``graph.json``,
#: ``telemetry.json``.
CONNECTOME = StageDef(
    name="connectome",
    spec_sections=("tracking", "connectome"),
)

#: The pipeline in execution order; each stage consumes only earlier ones.
_PIPELINE = (SAMPLING, TRACKING, CONNECTOME)


def get_stage(name: str) -> StageDef:
    """The :class:`StageDef` for ``name``, or ``ConfigurationError``."""
    for sdef in _PIPELINE:
        if sdef.name == name:
            return sdef
    raise ConfigurationError(
        f"unknown stage {name!r} (known stages: {list(stage_names())})"
    )


def stage_names() -> tuple[str, ...]:
    """The stage names, in execution order."""
    return tuple(sdef.name for sdef in _PIPELINE)


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
    return _spec_subtree(RunSpec.from_dict(doc), stage)


def _spec_subtree(spec: RunSpec, stage: str) -> dict:
    """:func:`stage_subtree` of an already-validated ``RunSpec``."""
    sdef = get_stage(stage)
    subtree = {
        section: spec.section_dict(section) for section in sdef.spec_sections
    }
    if sdef.runtime_fields:
        subtree["runtime"] = {
            name: getattr(spec.runtime, name) for name in sdef.runtime_fields
        }
    return subtree


def stage_hash(doc: dict, stage: str, inputs: dict | None = None) -> str:
    """Content hash keying one stage of one run in the artifact store.

    The plain-dict form of :meth:`RunSpec.stage_hash
    <repro.config.spec.RunSpec.stage_hash>`: ``doc`` is validated and
    normalized through ``RunSpec.from_dict`` once, then hashed.

    Parameters
    ----------
    doc:
        A plain (possibly partial) run-spec dict.
    stage:
        A stage name (see :func:`stage_names`).
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
    return hash_stage(RunSpec.from_dict(doc), stage, inputs)


def hash_stage(spec: RunSpec, stage: str, inputs: dict | None = None) -> str:
    """:func:`stage_hash` of an already-validated ``RunSpec``: its own
    sections are hashed as they are, with no dict round trip."""
    body = {
        "stage": stage,
        "spec": _spec_subtree(spec, stage),
        "inputs": dict(inputs or {}),
    }
    try:
        return _sha256_json(body)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"stage inputs must be JSON-safe fingerprints: {exc}"
        ) from exc
