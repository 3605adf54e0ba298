"""The :class:`RunSpec` tree — one declarative record of a whole run.

A run of the two-stage pipeline (bedpost-style MCMC sampling followed by
segmented probabilistic streamlining) used to be described by four
disjoint dataclasses plus strategy/device/host selections, wired together
differently by every entry point.  ``RunSpec`` is the single source of
truth instead:

* five sections — ``sampling`` (stage 1), ``tracking`` (stage 2),
  ``connectome`` (stage 3, disabled unless an atlas is named),
  ``runtime`` (workers, supervision, machine presets), ``telemetry``
  (where observability artifacts and exports go);
* every field is validated on construction, and every violation raises
  :class:`~repro.errors.ConfigurationError` naming the *dotted field
  path* (``tracking.min_dot``), so a bad spec file or ``--set`` override
  fails with the exact key to fix;
* :meth:`RunSpec.to_dict` / :meth:`RunSpec.from_dict` round-trip through
  plain JSON-safe dicts (the shape spec files and run manifests carry);
* :meth:`RunSpec.content_hash` is a stable content hash — invariant
  under dict key order and under the ``telemetry`` section, which
  describes *observation* of a run, not the computation itself.

The stage configs (:class:`~repro.pipeline.bedpost.BedpostConfig`,
:class:`~repro.tracking.probtrack.ProbtrackConfig`) are *constructed
from* a resolved spec via their ``from_run_spec`` classmethods; this
module deliberately imports none of those layers at module level.

Examples
--------
>>> spec = RunSpec.from_dict({"tracking": {"max_steps": 100}})
>>> spec.tracking.max_steps
100
>>> spec.sampling.n_burnin           # untouched sections keep defaults
500
>>> RunSpec.from_dict(spec.to_dict()) == spec
True
>>> RunSpec.from_dict({"tracking": {"max_stepz": 1}})  # doctest: +ELLIPSIS
Traceback (most recent call last):
    ...
repro.errors.ConfigurationError: tracking.max_stepz: unknown field ...
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass, field, fields

from repro.errors import ConfigurationError
from repro.gpu.presets import DEVICE_PRESETS, HOST_PRESETS

__all__ = [
    "SamplingSpec",
    "TrackingSpec",
    "ConnectomeSpec",
    "RuntimeSpec",
    "TelemetrySpec",
    "RunSpec",
    "ATLAS_NAME_RE",
    "CONNECTOME_NORMALIZATIONS",
    "hash_spec_dict",
    "HASH_EXCLUDED_SECTIONS",
    "NOISE_MODELS",
    "INTERPOLATIONS",
    "ORDER_POLICIES",
    "STRATEGY_NAME_RE",
]

#: Valid ``sampling.noise_model`` values (mirrors ``LogPosterior``).
NOISE_MODELS = ("gaussian", "rician")

#: Valid ``tracking.interpolation`` values (mirrors ``BatchTracker``).
INTERPOLATIONS = ("trilinear", "nearest")

#: Valid ``tracking.order`` thread-ordering policies (mirrors the executor).
ORDER_POLICIES = ("natural", "sorted")

#: Named segmentation strategies: the paper's arrays plus ``a<k>`` uniform
#: ladders; ``custom`` requires ``tracking.strategy_array``.
STRATEGY_NAME_RE = re.compile(r"^(increasing|b|c|single|a[1-9][0-9]*)$")

#: Named parcellations the connectome stage can build over the phantom
#: grid: ``none`` (stage disabled), ``octant`` (2x2x2 midpoint split,
#: 8 ROIs), ``slabs<k>`` (k slabs along x), ``grid<k>`` (k^3 cells).
ATLAS_NAME_RE = re.compile(r"^(none|octant|slabs[1-9][0-9]*|grid[1-9][0-9]*)$")

#: Valid ``connectome.normalize`` values (mirrors ``connectome_graph``).
CONNECTOME_NORMALIZATIONS = ("count", "fraction")

#: Sections excluded from :func:`hash_spec_dict`: they say where a run is
#: *observed* (manifest / trace paths), not what it computes, so a replay
#: writing its manifest elsewhere hashes identically.
HASH_EXCLUDED_SECTIONS = ("telemetry",)


def _err(path: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"{path}: {message}")


def _check(cls: type, obj) -> None:
    """Run a section's per-field validators with dotted paths."""
    prefix = cls._PREFIX
    for f in fields(cls):
        validator = cls._VALIDATORS.get(f.name)
        if validator is not None:
            validator(f"{prefix}.{f.name}", getattr(obj, f.name))


def _int_min(lo: int):
    def check(path: str, v) -> None:
        if v < lo:
            raise _err(path, f"must be >= {lo}, got {v}")
    return check


def _float_range(lo: float, hi: float, hi_open: bool = False):
    def check(path: str, v) -> None:
        ok = lo <= v < hi if hi_open else lo <= v <= hi
        if not ok:
            bracket = ")" if hi_open else "]"
            raise _err(path, f"must be in [{lo}, {hi}{bracket}, got {v}")
    return check


def _positive(path: str, v) -> None:
    if v <= 0:
        raise _err(path, f"must be positive, got {v}")


def _opt_positive(path: str, v) -> None:
    if v is not None and v <= 0:
        raise _err(path, f"must be positive (or null), got {v}")


def _enum(values: tuple[str, ...]):
    def check(path: str, v) -> None:
        if v not in values:
            raise _err(path, f"must be one of {sorted(values)}, got {v!r}")
    return check


def _strategy_name(path: str, v) -> None:
    if v == "custom":
        raise _err(path, "'custom' requires tracking.strategy_array")
    if not STRATEGY_NAME_RE.match(v):
        raise _err(
            path,
            "must be 'increasing', 'b', 'c', 'single', 'a<k>' "
            f"(e.g. 'a20'), or 'custom' with strategy_array, got {v!r}",
        )


def _strategy_array(path: str, v) -> None:
    if v is None:
        return
    if not v or any((not isinstance(a, int)) or a < 1 for a in v):
        raise _err(
            path, f"must be a non-empty list of positive ints, got {list(v)}"
        )


def _device_name(path: str, v) -> None:
    if v not in DEVICE_PRESETS:
        raise _err(
            path, f"unknown device preset; known: {sorted(DEVICE_PRESETS)}"
        )


def _host_name(path: str, v) -> None:
    if v not in HOST_PRESETS:
        raise _err(path, f"unknown host preset; known: {sorted(HOST_PRESETS)}")


def _fault_plan(path: str, v) -> None:
    if v is None:
        return
    from repro.runtime.faults import FaultPlan

    try:
        FaultPlan.parse(v)
    except ConfigurationError as exc:
        raise _err(path, f"invalid fault plan: {exc}") from exc


def _opt_nonempty_str(path: str, v) -> None:
    if v is not None and not v:
        raise _err(path, "must be a non-empty path (or null)")


@dataclass(frozen=True)
class SamplingSpec:
    """Stage-1 section: the MCMC schedule and the multi-fiber model."""

    n_burnin: int = 500
    n_samples: int = 50
    sample_interval: int = 2
    adapt_every: int = 40
    seed: int = 0
    n_fibers: int = 2
    ard: bool = False
    noise_model: str = "gaussian"
    f_threshold: float = 0.05
    block_voxels: int = 50_000

    _PREFIX = "sampling"
    _VALIDATORS = {
        "n_burnin": _int_min(0),
        "n_samples": _int_min(1),
        "sample_interval": _int_min(1),
        "adapt_every": _int_min(1),
        "n_fibers": _int_min(1),
        "noise_model": _enum(NOISE_MODELS),
        "f_threshold": _float_range(0.0, 1.0),
        "block_voxels": _int_min(1),
    }

    def __post_init__(self) -> None:
        _check(SamplingSpec, self)


@dataclass(frozen=True)
class TrackingSpec:
    """Stage-2 section: termination criteria and streamlining policy."""

    max_steps: int = 1888
    min_dot: float = 0.8
    step_length: float = 0.2
    f_threshold: float = 0.0
    strategy: str = "increasing"
    strategy_array: tuple[int, ...] | None = None
    interpolation: str = "trilinear"
    order: str = "natural"
    overlap: bool = False
    bidirectional: bool = False

    _PREFIX = "tracking"
    _VALIDATORS = {
        "max_steps": _int_min(1),
        "min_dot": _float_range(0.0, 1.0),
        "step_length": _positive,
        "f_threshold": _float_range(0.0, 1.0, hi_open=True),
        "strategy_array": _strategy_array,
        "interpolation": _enum(INTERPOLATIONS),
        "order": _enum(ORDER_POLICIES),
    }

    def __post_init__(self) -> None:
        if self.strategy_array is None:
            # Without an explicit array the name must be a known
            # strategy; with one it is just the array's label.
            _strategy_name("tracking.strategy", self.strategy)
        elif not self.strategy:
            raise _err("tracking.strategy", "must be a non-empty label")
        _check(TrackingSpec, self)


def _atlas_name(path: str, v) -> None:
    if not isinstance(v, str) or not ATLAS_NAME_RE.match(v):
        raise _err(
            path,
            "must be 'none', 'octant', 'slabs<k>' (e.g. 'slabs4'), or "
            f"'grid<k>' (e.g. 'grid2'), got {v!r}",
        )


@dataclass(frozen=True)
class ConnectomeSpec:
    """Stage-3 section: ROI parcellation and connectivity-matrix policy.

    ``atlas = "none"`` (the default) disables the stage entirely, so
    existing two-stage runs are untouched.  The stage tracks nothing:
    it folds the endpoints stage 2 recorded, so these fields are the
    whole of its policy.
    """

    atlas: str = "none"
    #: Streamlines shorter than this many steps are excluded from the
    #: endpoint matrix (0 = keep everything).
    min_steps: int = 0
    #: Edge-weight normalization in the exported graph: raw endpoint
    #: ``count`` or ``fraction`` of counted streamlines.
    normalize: str = "count"

    _PREFIX = "connectome"
    _VALIDATORS = {
        "atlas": _atlas_name,
        "min_steps": _int_min(0),
        "normalize": _enum(CONNECTOME_NORMALIZATIONS),
    }

    def __post_init__(self) -> None:
        _check(ConnectomeSpec, self)


@dataclass(frozen=True)
class RuntimeSpec:
    """Execution section: workers, supervision policy, machine presets."""

    n_workers: int = 1
    #: Worker processes for the sampling stage's voxel-block loop
    #: (1 = serial).  Separate from the tracking pool size so the two
    #: stages scale independently; pure execution policy, excluded from
    #: stage hashes like ``n_workers``.
    bedpost_workers: int = 1
    max_retries: int = 2
    shard_timeout_s: float | None = None
    fallback_to_serial: bool = True
    fault_plan: str | None = None
    device: str = "radeon_5870"
    host: str = "phenom_x4"
    #: MCMC checkpoint cadence in loops when sampling runs against an
    #: artifact store (0 = the store's default cadence).  Pure execution
    #: policy: results are bit-identical for any value, so it is excluded
    #: from both stage hashes (see :mod:`repro.config.stages`).
    checkpoint_every_loops: int = 0

    _PREFIX = "runtime"
    _VALIDATORS = {
        "n_workers": _int_min(1),
        "bedpost_workers": _int_min(1),
        "max_retries": _int_min(0),
        "shard_timeout_s": _opt_positive,
        "fault_plan": _fault_plan,
        "device": _device_name,
        "host": _host_name,
        "checkpoint_every_loops": _int_min(0),
    }

    def __post_init__(self) -> None:
        _check(RuntimeSpec, self)


@dataclass(frozen=True)
class TelemetrySpec:
    """Output section: where the manifest and trace are written, where
    (whether) the run memoizes stage artifacts, and which streamlines
    the command line tools export.

    Excluded from :func:`hash_spec_dict` and from every stage hash — two
    runs that differ only in where they record, cache or export
    themselves are the same run: an export edit never re-tracks.
    """

    metrics_out: str | None = None
    trace_out: str | None = None
    #: Artifact-store directory for stage memoization (``--store DIR``);
    #: None disables the store entirely.
    store: str | None = None
    #: When False (``--no-cache``) the run never *reads* store entries —
    #: every stage recomputes — but still publishes what it computes.
    cache: bool = True
    #: Length floor, in steps, of the sample-0 streamlines that
    #: ``repro-track`` / ``repro-connectome`` write to ``fibers.trk``.
    min_export_steps: int = 100

    _PREFIX = "telemetry"
    _VALIDATORS = {
        "metrics_out": _opt_nonempty_str,
        "trace_out": _opt_nonempty_str,
        "store": _opt_nonempty_str,
        "min_export_steps": _int_min(0),
    }

    def __post_init__(self) -> None:
        _check(TelemetrySpec, self)


#: Coercion kind per field annotation (annotations are strings under
#: ``from __future__ import annotations``).
_ANNOTATION_KINDS = {
    "int": "int",
    "float": "float",
    "bool": "bool",
    "str": "str",
    "float | None": "opt_float",
    "str | None": "opt_str",
    "tuple[int, ...] | None": "opt_int_list",
}

#: field name -> coercion kind, per section, read off the section
#: dataclasses so each field list is written once; a field whose
#: annotation has no kind fails here, at import.
_FIELD_KINDS: dict[type, dict[str, str]] = {
    cls: {f.name: _ANNOTATION_KINDS[f.type] for f in fields(cls)}
    for cls in (SamplingSpec, TrackingSpec, ConnectomeSpec, RuntimeSpec, TelemetrySpec)
}


def _coerce(kind: str, value, path: str):
    """Coerce a raw spec value to its field kind, or raise with the path."""
    is_bool = isinstance(value, bool)
    if kind == "int":
        # Integral floats coerce (JSON/TOML authors may write 8.0).
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if is_bool or not isinstance(value, int):
            raise _err(path, f"expected an integer, got {value!r}")
        return value
    if kind == "float" or (kind == "opt_float" and value is not None):
        if is_bool or not isinstance(value, (int, float)):
            raise _err(path, f"expected a number, got {value!r}")
        return float(value)
    if kind == "bool":
        if not is_bool:
            raise _err(path, f"expected true/false, got {value!r}")
        return value
    if kind == "str" or (kind == "opt_str" and value is not None):
        if not isinstance(value, str):
            raise _err(path, f"expected a string, got {value!r}")
        return value
    if kind == "opt_int_list" and value is not None:
        if not isinstance(value, (list, tuple)):
            raise _err(path, f"expected a list of integers, got {value!r}")
        out = []
        for item in value:
            if isinstance(item, bool) or not isinstance(item, int):
                raise _err(path, f"expected a list of integers, got {value!r}")
            out.append(item)
        return tuple(out)
    return value  # optional kinds with value None


def _section_from_dict(cls: type, data: dict, prefix: str):
    """Build one section dataclass from a plain dict, defaults filled in."""
    if not isinstance(data, dict):
        raise _err(prefix, f"expected a table/dict, got {data!r}")
    kinds = _FIELD_KINDS[cls]
    unknown = sorted(set(data) - set(kinds))
    if unknown:
        raise _err(
            f"{prefix}.{unknown[0]}",
            f"unknown field (known fields: {sorted(kinds)})",
        )
    kwargs = {
        name: _coerce(kinds[name], value, f"{prefix}.{name}")
        for name, value in data.items()
    }
    return cls(**kwargs)


@dataclass(frozen=True)
class RunSpec:
    """The whole-run specification: five sections, one hash.

    Construct directly, or from a plain dict (spec file, manifest
    ``config`` section, CLI layering) via :meth:`from_dict`; missing
    sections and fields take their defaults.
    """

    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    tracking: TrackingSpec = field(default_factory=TrackingSpec)
    connectome: ConnectomeSpec = field(default_factory=ConnectomeSpec)
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)

    _SECTIONS = {
        "sampling": SamplingSpec,
        "tracking": TrackingSpec,
        "connectome": ConnectomeSpec,
        "runtime": RuntimeSpec,
        "telemetry": TelemetrySpec,
    }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Validate a plain nested dict into a ``RunSpec``.

        Unknown sections or fields raise
        :class:`~repro.errors.ConfigurationError` with the dotted path.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"run spec must be a dict, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - set(cls._SECTIONS))
        if unknown:
            raise _err(
                unknown[0],
                f"unknown section (known sections: {sorted(cls._SECTIONS)})",
            )
        return cls(**{
            name: _section_from_dict(section_cls, data.get(name, {}), name)
            for name, section_cls in cls._SECTIONS.items()
        })

    def section_dict(self, name: str) -> dict:
        """One section's JSON-safe plain-dict form (tuples become lists)."""
        doc = asdict(getattr(self, name))
        if name == "tracking" and doc["strategy_array"] is not None:
            doc["strategy_array"] = list(doc["strategy_array"])
        return doc

    def to_dict(self) -> dict:
        """The JSON-safe plain-dict form (tuples become lists)."""
        return {name: self.section_dict(name) for name in self._SECTIONS}

    def content_hash(self) -> str:
        """Stable content hash of the spec (see :func:`hash_spec_dict`)."""
        return _sha256_json({
            name: self.section_dict(name)
            for name in self._SECTIONS
            if name not in HASH_EXCLUDED_SECTIONS
        })

    def stage_hash(self, stage: str, inputs: dict | None = None) -> str:
        """Content hash of one stage's subtree (the store cache key).

        See :func:`repro.config.stages.stage_hash`; ``inputs`` carries
        JSON-safe fingerprints of the stage's data inputs.
        """
        from repro.config.stages import hash_stage

        return hash_stage(self, stage, inputs)

    def with_overrides(self, overrides: dict) -> "RunSpec":
        """A copy with dotted-path overrides applied (revalidated)."""
        from repro.config.layering import apply_override

        doc = self.to_dict()
        for dotted, value in overrides.items():
            apply_override(doc, dotted, value)
        return RunSpec.from_dict(doc)


def _sha256_json(body: dict) -> str:
    """``sha256:<hex>`` of ``body``'s canonical (sorted-key, compact) JSON."""
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def hash_spec_dict(doc: dict) -> str:
    """Content hash of a plain spec dict.

    Canonical (sorted-key, compact) JSON of every section except
    :data:`HASH_EXCLUDED_SECTIONS`, SHA-256, hex — so the hash is stable
    under dict key order and under changes to observability paths.
    Missing sections hash identically to explicit defaults, because the
    dict is normalized through :meth:`RunSpec.from_dict` first.
    """
    return RunSpec.from_dict(doc).content_hash()
