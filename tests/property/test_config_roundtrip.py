"""Property tests for the run-spec round-trip and content-hash contracts.

The contracts under test:

* ``RunSpec.from_dict(spec.to_dict()) == spec`` for every valid spec —
  serialization is lossless;
* the content hash is a pure function of the spec's *computation*
  fields: stable under dict key order and telemetry changes, and equal
  exactly when the round-tripped specs are equal;
* every sampling, tracking and runtime field of a spec reaches the
  stage configs built from it.
"""

import json
from dataclasses import asdict, fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RunSpec, hash_spec_dict
from repro.config.spec import RuntimeSpec, SamplingSpec, TrackingSpec
from repro.gpu.presets import DEVICE_PRESETS, HOST_PRESETS, device_preset, host_preset
from repro.pipeline import BedpostConfig
from repro.runtime.faults import FaultPlan
from repro.tracking import ProbtrackConfig
from repro.tracking.segmentation import strategy_from_spec

SEGMENT_ARRAYS = st.one_of(
    st.none(), st.lists(st.integers(1, 64), min_size=1, max_size=8)
)

RUN_SPEC_DICTS = st.fixed_dictionaries(
    {},
    optional={
        "sampling": st.fixed_dictionaries(
            {},
            optional={
                "n_burnin": st.integers(0, 2000),
                "n_samples": st.integers(1, 200),
                "sample_interval": st.integers(1, 10),
                "adapt_every": st.integers(1, 100),
                "seed": st.integers(0, 2**31 - 1),
                "n_fibers": st.integers(1, 4),
                "ard": st.booleans(),
                "noise_model": st.sampled_from(["gaussian", "rician"]),
                "f_threshold": st.floats(0.0, 1.0, allow_nan=False),
                "block_voxels": st.integers(1, 100_000),
            },
        ),
        "tracking": st.fixed_dictionaries(
            {},
            optional={
                "max_steps": st.integers(1, 4000),
                "min_dot": st.floats(0.0, 1.0, allow_nan=False),
                "step_length": st.floats(
                    0.01, 2.0, allow_nan=False, exclude_min=False
                ),
                "strategy": st.sampled_from(
                    ["increasing", "b", "c", "single", "a1", "a20"]
                ),
                "interpolation": st.sampled_from(["trilinear", "nearest"]),
                "order": st.sampled_from(["natural", "sorted"]),
                "overlap": st.booleans(),
                "bidirectional": st.booleans(),
                "f_threshold": st.floats(0.0, 0.99, allow_nan=False),
            },
        ),
        "runtime": st.fixed_dictionaries(
            {},
            optional={
                "n_workers": st.integers(1, 8),
                "bedpost_workers": st.integers(1, 8),
                "max_retries": st.integers(0, 5),
                "shard_timeout_s": st.one_of(
                    st.none(), st.floats(0.1, 60.0, allow_nan=False)
                ),
                "fallback_to_serial": st.booleans(),
                "fault_plan": st.sampled_from(
                    [None, "crash:0", "hang:1:*", "crash:s2,corrupt:0:1"]
                ),
                "device": st.sampled_from(sorted(DEVICE_PRESETS)),
                "host": st.sampled_from(sorted(HOST_PRESETS)),
                "checkpoint_every_loops": st.integers(0, 500),
            },
        ),
        "telemetry": st.fixed_dictionaries(
            {},
            optional={
                "metrics_out": st.one_of(
                    st.none(), st.just("m.json"), st.just("other.json")
                ),
                "min_export_steps": st.integers(0, 500),
            },
        ),
    },
)


@given(doc=RUN_SPEC_DICTS)
@settings(max_examples=200, deadline=None)
def test_dict_roundtrip_is_lossless(doc):
    spec = RunSpec.from_dict(doc)
    assert RunSpec.from_dict(spec.to_dict()) == spec


@given(doc=RUN_SPEC_DICTS)
@settings(max_examples=100, deadline=None)
def test_hash_stable_under_key_order(doc):
    spec = RunSpec.from_dict(doc)
    # Re-serialize with reversed key order at both levels.
    shuffled = {
        section: dict(reversed(list(fields.items())))
        for section, fields in reversed(list(spec.to_dict().items()))
    }
    assert hash_spec_dict(shuffled) == spec.content_hash()
    # ... and the JSON text round-trip changes nothing.
    assert hash_spec_dict(json.loads(json.dumps(shuffled))) == spec.content_hash()


@given(doc=RUN_SPEC_DICTS)
@settings(max_examples=100, deadline=None)
def test_hash_ignores_telemetry_only(doc):
    spec = RunSpec.from_dict(doc)
    rerouted = spec.with_overrides({"telemetry.metrics_out": "elsewhere.json"})
    assert rerouted.content_hash() == spec.content_hash()


def _strategy(spec):
    return strategy_from_spec(spec.tracking.strategy, spec.tracking.strategy_array)


#: Spec fields a stage config holds in another form than the spec's.
AS_HELD = {
    "tracking.strategy": _strategy,
    "tracking.strategy_array": _strategy,
    "runtime.device": lambda spec: device_preset(spec.runtime.device),
    "runtime.host": lambda spec: host_preset(spec.runtime.host),
    "runtime.fault_plan": lambda spec: (
        FaultPlan.parse(spec.runtime.fault_plan).faults
        if spec.runtime.fault_plan else None
    ),
}


def _expected(spec, paths):
    """The spec's value at each dotted path, as a stage config holds it."""
    out = {}
    for path in paths:
        section, name = path.split(".")
        convert = AS_HELD.get(path)
        out[path] = (
            convert(spec) if convert else getattr(getattr(spec, section), name)
        )
    return out


def _shared(cfg) -> dict:
    """The machine presets and supervision policy both configs hold."""
    plan = cfg.supervision.fault_plan
    return {
        "runtime.device": cfg.device,
        "runtime.host": cfg.host,
        "runtime.max_retries": cfg.supervision.max_retries,
        "runtime.shard_timeout_s": cfg.supervision.shard_timeout_s,
        "runtime.fallback_to_serial": cfg.supervision.fallback_to_serial,
        "runtime.fault_plan": plan.faults if plan else None,
    }


def _bedpost_held(cfg) -> dict:
    held = {f"sampling.{k}": v for k, v in asdict(cfg.mcmc).items()}
    for name in ("n_fibers", "ard", "noise_model", "f_threshold", "block_voxels"):
        held[f"sampling.{name}"] = getattr(cfg, name)
    held["runtime.bedpost_workers"] = cfg.n_workers
    held["runtime.checkpoint_every_loops"] = cfg.checkpoint_every_loops
    return {**held, **_shared(cfg)}


def _probtrack_held(cfg) -> dict:
    held = {f"tracking.{k}": v for k, v in asdict(cfg.criteria).items()}
    for name in ("interpolation", "order", "overlap", "bidirectional"):
        held[f"tracking.{name}"] = getattr(cfg, name)
    held["tracking.strategy"] = held["tracking.strategy_array"] = cfg.strategy
    held["runtime.n_workers"] = cfg.n_workers
    return {**held, **_shared(cfg)}


def test_stage_configs_cover_every_stage_field():
    spec = RunSpec()
    held = set(_bedpost_held(BedpostConfig.from_run_spec(spec)))
    held |= set(_probtrack_held(ProbtrackConfig.from_run_spec(spec)))
    every = {
        f"{cls._PREFIX}.{f.name}"
        for cls in (SamplingSpec, TrackingSpec, RuntimeSpec)
        for f in fields(cls)
    }
    assert held == every


@given(doc=RUN_SPEC_DICTS)
@settings(max_examples=100, deadline=None)
def test_bedpost_config_spec_embedding(doc):
    spec = RunSpec.from_dict(doc)
    held = _bedpost_held(BedpostConfig.from_run_spec(spec))
    assert held == _expected(spec, held)


@given(doc=RUN_SPEC_DICTS, array=SEGMENT_ARRAYS)
@settings(max_examples=100, deadline=None)
def test_probtrack_config_spec_embedding(doc, array):
    spec = RunSpec.from_dict(doc)
    if array is not None:
        spec = spec.with_overrides(
            {"tracking.strategy": "custom-run", "tracking.strategy_array": array}
        )
    held = _probtrack_held(ProbtrackConfig.from_run_spec(spec))
    assert held == _expected(spec, held)
