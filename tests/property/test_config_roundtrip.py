"""Property tests for the run-spec round-trip and content-hash contracts.

The contracts under test:

* ``RunSpec.from_dict(spec.to_dict()) == spec`` for every valid spec —
  serialization is lossless;
* the content hash is a pure function of the spec's *computation*
  fields: stable under dict key order and telemetry changes, and equal
  exactly when the round-tripped specs are equal;
* stage configs built from a spec embed back into an equivalent spec.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RunSpec, hash_spec_dict
from repro.tracking import ProbtrackConfig

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
                "seed": st.integers(0, 2**31 - 1),
                "n_fibers": st.integers(1, 4),
                "ard": st.booleans(),
                "noise_model": st.sampled_from(["gaussian", "rician"]),
                "f_threshold": st.floats(0.0, 1.0, allow_nan=False),
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
                "bidirectional": st.booleans(),
                "min_export_steps": st.integers(0, 500),
            },
        ),
        "runtime": st.fixed_dictionaries(
            {},
            optional={
                "n_workers": st.integers(1, 8),
                "max_retries": st.integers(0, 5),
                "fallback_to_serial": st.booleans(),
            },
        ),
        "telemetry": st.fixed_dictionaries(
            {},
            optional={
                "metrics_out": st.one_of(
                    st.none(), st.just("m.json"), st.just("other.json")
                ),
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


@given(doc=RUN_SPEC_DICTS, array=SEGMENT_ARRAYS)
@settings(max_examples=100, deadline=None)
def test_probtrack_config_spec_embedding(doc, array):
    spec = RunSpec.from_dict(doc)
    if array is not None:
        spec = spec.with_overrides(
            {"tracking.strategy": "custom-run", "tracking.strategy_array": array}
        )
    cfg = ProbtrackConfig.from_run_spec(spec)
    rebuilt = ProbtrackConfig.from_spec_dict(cfg.to_spec_dict())
    assert rebuilt == cfg
