"""The unified run-spec configuration layer.

Covers the :mod:`repro.config` contract: dotted-path validation errors,
value coercion, layering precedence (defaults < spec file < CLI flags <
``--set``), TOML/JSON spec files, the telemetry-invariant content hash,
the stage configs built from a spec, and the manifest v1/v2 provenance
handshake.
"""

import json

import pytest

from repro.config import (
    HAVE_TOML,
    RuntimeSpec,
    RUNTIME_DETERMINISTIC_FIELDS,
    RunSpec,
    apply_override,
    deep_merge,
    dumps_json,
    dumps_toml,
    hash_spec_dict,
    load_spec_file,
    parse_set_argument,
    resolve_run_spec,
    stage_hash,
    stage_names,
    stage_subtree,
)
from repro.errors import ConfigurationError, TelemetryError
from repro.gpu.presets import (
    DEVICE_PRESETS,
    HOST_PRESETS,
    device_preset,
    host_preset,
)
from repro.mcmc import MCMCConfig
from repro.pipeline import BedpostConfig
from repro.runtime.supervisor import RetryPolicy
from repro.telemetry import (
    MANIFEST_SCHEMA_V1,
    MetricsRegistry,
    build_manifest,
    manifest_config,
    validate_manifest,
)
from repro.tracking import ProbtrackConfig, TerminationCriteria
from repro.tracking.segmentation import (
    IncreasingStrategy,
    UniformStrategy,
    strategy_from_spec,
    table2_strategy,
)


class TestRunSpecValidation:
    def test_defaults_are_valid(self):
        spec = RunSpec()
        assert spec.sampling.n_samples == 50
        assert spec.tracking.max_steps == 1888
        assert spec.runtime.n_workers == 1

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"sampling": {"n_samples": 0}}, "sampling.n_samples"),
            ({"sampling": {"noise_model": "laplace"}}, "sampling.noise_model"),
            ({"sampling": {"f_threshold": 1.5}}, "sampling.f_threshold"),
            ({"tracking": {"min_dot": -0.1}}, "tracking.min_dot"),
            ({"tracking": {"step_length": 0.0}}, "tracking.step_length"),
            ({"tracking": {"interpolation": "cubic"}}, "tracking.interpolation"),
            ({"tracking": {"order": "reversed"}}, "tracking.order"),
            ({"tracking": {"strategy": "zigzag"}}, "tracking.strategy"),
            ({"runtime": {"n_workers": 0}}, "runtime.n_workers"),
            ({"runtime": {"max_retries": -1}}, "runtime.max_retries"),
            ({"runtime": {"shard_timeout_s": -2.0}}, "runtime.shard_timeout_s"),
            ({"runtime": {"device": "geforce_256"}}, "runtime.device"),
            ({"runtime": {"host": "cray_1"}}, "runtime.host"),
            ({"runtime": {"fault_plan": "explode:0"}}, "runtime.fault_plan"),
            (
                {"tracking": {"interpolation": "trilinear-reference"}},
                "tracking.interpolation",
            ),
        ],
    )
    def test_invalid_field_names_dotted_path(self, doc, path):
        with pytest.raises(ConfigurationError, match=path.replace(".", r"\.")):
            RunSpec.from_dict(doc)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            RunSpec.from_dict({"samplng": {"n_samples": 5}})

    def test_unknown_key_names_dotted_path(self):
        with pytest.raises(ConfigurationError, match=r"tracking\.max_step"):
            RunSpec.from_dict({"tracking": {"max_step": 10}})

    def test_coercion_int_from_float_and_bool_strict(self):
        spec = RunSpec.from_dict({"sampling": {"n_samples": 8.0}})
        assert spec.sampling.n_samples == 8
        with pytest.raises(ConfigurationError, match=r"sampling\.n_samples"):
            RunSpec.from_dict({"sampling": {"n_samples": 8.5}})
        with pytest.raises(ConfigurationError, match=r"sampling\.ard"):
            RunSpec.from_dict({"sampling": {"ard": "yes"}})

    def test_custom_strategy_requires_array(self):
        with pytest.raises(ConfigurationError, match="strategy_array"):
            RunSpec.from_dict({"tracking": {"strategy": "custom"}})
        spec = RunSpec.from_dict(
            {"tracking": {"strategy": "mine", "strategy_array": [4, 8, 16]}}
        )
        assert spec.tracking.strategy_array == (4, 8, 16)

    def test_with_overrides(self):
        spec = RunSpec().with_overrides({"runtime.n_workers": 4})
        assert spec.runtime.n_workers == 4
        # original untouched (frozen tree)
        assert RunSpec().runtime.n_workers == 1


class TestContentHash:
    def test_stable_under_key_order(self):
        a = {"sampling": {"n_samples": 10, "seed": 3}}
        b = {"sampling": {"seed": 3, "n_samples": 10}}
        assert hash_spec_dict(a) == hash_spec_dict(b)

    def test_telemetry_excluded(self):
        base = RunSpec()
        routed = base.with_overrides({"telemetry.metrics_out": "other.json"})
        assert base.content_hash() == routed.content_hash()

    def test_computation_fields_change_hash(self):
        base = RunSpec()
        assert (
            base.content_hash()
            != base.with_overrides({"tracking.max_steps": 99}).content_hash()
        )

    def test_hash_format(self):
        assert RunSpec().content_hash().startswith("sha256:")


class TestLayering:
    def test_precedence_file_then_flags_then_set(self, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"runtime": {"n_workers": 2, "max_retries": 5}}))
        spec = resolve_run_spec(
            config_file=cfg,
            cli_overrides={"runtime.n_workers": 3},
            set_overrides=["runtime.n_workers=4"],
        )
        assert spec.runtime.n_workers == 4      # --set beats the flag
        assert spec.runtime.max_retries == 5    # file beats defaults
        assert spec.sampling.n_samples == 50    # default survives

    def test_set_values_parse_as_json(self):
        spec = resolve_run_spec(
            set_overrides=[
                "tracking.bidirectional=true",
                "tracking.strategy_array=[4, 8]",
                "tracking.strategy=mine",
                "runtime.shard_timeout_s=1.5",
            ]
        )
        assert spec.tracking.bidirectional is True
        assert spec.tracking.strategy_array == (4, 8)
        assert spec.tracking.strategy == "mine"  # bare word -> string
        assert spec.runtime.shard_timeout_s == 1.5

    def test_malformed_set_argument(self):
        with pytest.raises(ConfigurationError, match="dotted.key=value"):
            parse_set_argument("no_equals_sign")
        with pytest.raises(ConfigurationError, match="inside a section"):
            apply_override({}, "toplevel", 1)

    def test_deep_merge_does_not_mutate(self):
        base = {"runtime": {"n_workers": 1}}
        merged = deep_merge(base, {"runtime": {"n_workers": 8}})
        assert base["runtime"]["n_workers"] == 1
        assert merged["runtime"]["n_workers"] == 8


class TestSpecFiles:
    def test_json_file_roundtrip(self, tmp_path):
        doc = RunSpec().to_dict()
        path = tmp_path / "spec.json"
        path.write_text(dumps_json(doc))
        assert load_spec_file(path) == doc

    @pytest.mark.skipif(not HAVE_TOML, reason="no tomllib/tomli available")
    def test_toml_file_roundtrip(self, tmp_path):
        doc = RunSpec().to_dict()
        path = tmp_path / "spec.toml"
        path.write_text(dumps_toml(doc))
        loaded = load_spec_file(path)
        # None-valued fields are omitted from TOML; the resolved specs agree.
        assert RunSpec.from_dict(loaded) == RunSpec.from_dict(doc)

    def test_bad_file_names_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="broken.json"):
            load_spec_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="ghost"):
            load_spec_file(tmp_path / "ghost.toml")


class TestPresets:
    def test_device_and_host_lookup(self):
        for name in DEVICE_PRESETS:
            assert device_preset(name) is DEVICE_PRESETS[name]
        for name in HOST_PRESETS:
            assert host_preset(name) is HOST_PRESETS[name]
        with pytest.raises(ConfigurationError, match="unknown host"):
            host_preset("abacus")

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError, match="unknown device"):
            device_preset("voodoo2")


class TestStageConfigRoundTrips:
    """A stage config is a one-way view of a spec.  Its dataclass
    defaults are a second copy of the spec's, pinned equal here."""

    def test_probtrack_defaults_match_spec_defaults(self):
        assert ProbtrackConfig.from_run_spec(RunSpec()) == ProbtrackConfig()

    def test_bedpost_defaults_match_spec_defaults(self):
        assert BedpostConfig.from_run_spec(RunSpec()) == BedpostConfig()

    def test_mcmc_defaults_match_spec_defaults(self):
        assert BedpostConfig.from_run_spec(RunSpec()).mcmc == MCMCConfig()

    def test_criteria_defaults_match_spec_defaults(self):
        built = ProbtrackConfig.from_run_spec(RunSpec()).criteria
        assert built == TerminationCriteria()

    def test_retry_policy_defaults_match_runtime_spec_defaults(self):
        assert RetryPolicy.from_runtime(RuntimeSpec()) == RetryPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_workers": 0},
            {"max_retries": -1},
            {"shard_timeout_s": -1.0},
            {"interpolation": "spline"},
            {"order": "shuffled"},
        ],
    )
    def test_probtrack_post_init_validation(self, kwargs):
        # The supervision keys are validated by the one RetryPolicy.
        with pytest.raises(ConfigurationError):
            if {"max_retries", "shard_timeout_s"} & kwargs.keys():
                ProbtrackConfig(supervision=RetryPolicy(**kwargs))
            else:
                ProbtrackConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_fibers": 0},
            {"noise_model": "poisson"},
            {"f_threshold": -0.5},
            {"f_threshold": 1.5},
            {"block_voxels": 0},
        ],
    )
    def test_bedpost_post_init_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            BedpostConfig(**kwargs)


class TestStrategySpec:
    @pytest.mark.parametrize("name", ["increasing", "b", "c", "single", "a4"])
    def test_named_roundtrip(self, name):
        # A name reaches the tracking config as the strategy it names.
        spec = RunSpec.from_dict({"tracking": {"strategy": name}})
        built = ProbtrackConfig.from_run_spec(spec).strategy
        assert built.segments(500) == strategy_from_spec(name).segments(500)

    def test_named_array_collapses_to_name(self):
        # An explicit array equal to a named one segments like the name.
        explicit = strategy_from_spec("increasing", table2_strategy().array)
        assert explicit.segments(1888) == table2_strategy().segments(1888)

    def test_custom_array_preserves_label(self):
        strategy = strategy_from_spec("mine", (4, 8, 16))
        assert isinstance(strategy, IncreasingStrategy)
        assert (strategy.name, list(strategy.array)) == ("mine", [4, 8, 16])

    def test_uniform(self):
        strategy = strategy_from_spec("a20")
        assert isinstance(strategy, UniformStrategy)
        assert strategy.k == 20

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            strategy_from_spec("zigzag")


class TestManifestProvenance:
    def test_v1_manifest_still_validates(self):
        reg = MetricsRegistry()
        reg.count("x", 1)
        doc = build_manifest(reg)
        doc.pop("config")
        doc.pop("config_hash")
        doc["schema"] = MANIFEST_SCHEMA_V1
        validate_manifest(doc)
        assert manifest_config(doc) is None

    def test_v2_hash_mismatch_rejected(self):
        doc = build_manifest(MetricsRegistry(), config=RunSpec().to_dict())
        doc["config_hash"] = "sha256:" + "0" * 64
        with pytest.raises(TelemetryError, match="config_hash"):
            validate_manifest(doc)

    def test_v2_invalid_config_rejected(self):
        doc = build_manifest(MetricsRegistry(), config=RunSpec().to_dict())
        doc["config"]["tracking"]["max_steps"] = -1
        doc["config_hash"] = hash_spec_dict_unchecked(doc["config"])
        with pytest.raises(TelemetryError, match="config"):
            validate_manifest(doc)

    def test_manifest_config_returns_spec(self):
        spec = RunSpec().with_overrides({"tracking.max_steps": 77})
        doc = build_manifest(MetricsRegistry(), config=spec.to_dict())
        assert manifest_config(doc) == spec


def hash_spec_dict_unchecked(doc):
    """Raw canonical-JSON hash without validation (test helper)."""
    import hashlib

    body = {k: v for k, v in doc.items() if k != "telemetry"}
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()
    return f"sha256:{digest}"


#: Table of (dotted override, which stage hashes it must move).
#: A stage hashes only the section that parameterises it: sampling
#: edits move the sampling hash alone (they reach stages 2-3 through
#: the posterior fingerprint in their inputs), tracking edits move the
#: tracking hash alone (they reach the connectome through the endpoint
#: fingerprint), connectome edits move only their own stage.
#: () means execution policy, telemetry routing or export — no stage
#: hash may move.
STAGE_HASH_CASES = [
    ("sampling.seed", 9, ("sampling",)),
    ("sampling.n_burnin", 99, ("sampling",)),
    ("sampling.n_samples", 7, ("sampling",)),
    ("sampling.sample_interval", 5, ("sampling",)),
    ("sampling.adapt_every", 11, ("sampling",)),
    ("sampling.n_fibers", 1, ("sampling",)),
    ("sampling.ard", True, ("sampling",)),
    ("sampling.noise_model", "rician", ("sampling",)),
    ("sampling.f_threshold", 0.1, ("sampling",)),
    ("sampling.block_voxels", 7, ("sampling",)),
    ("tracking.max_steps", 7, ("tracking",)),
    ("tracking.min_dot", 0.5, ("tracking",)),
    ("tracking.step_length", 0.4, ("tracking",)),
    ("tracking.strategy", "b", ("tracking",)),
    ("tracking.bidirectional", True, ("tracking",)),
    ("tracking.interpolation", "nearest", ("tracking",)),
    ("tracking.f_threshold", 0.2, ("tracking",)),
    ("tracking.strategy_array", [4, 8], ("tracking",)),
    ("tracking.order", "sorted", ("tracking",)),
    ("tracking.overlap", True, ("tracking",)),
    ("connectome.atlas", "octant", ("connectome",)),
    ("connectome.min_steps", 25, ("connectome",)),
    ("connectome.normalize", "fraction", ("connectome",)),
    # (runtime.host has a single preset, so it cannot be varied here;
    # stage_subtree coverage below proves it participates.)  The device
    # preset steers the tracking stage's modeled schedule only.
    ("runtime.device", "nvidia_warp32", ("tracking",)),
    ("runtime.n_workers", 8, ()),
    ("runtime.bedpost_workers", 2, ()),
    ("runtime.max_retries", 9, ()),
    ("runtime.shard_timeout_s", 4.0, ()),
    ("runtime.fallback_to_serial", False, ()),
    ("runtime.fault_plan", "crash:0", ()),
    ("runtime.checkpoint_every_loops", 10, ()),
    ("telemetry.metrics_out", "m.json", ()),
    ("telemetry.store", "some/store", ()),
    ("telemetry.cache", False, ()),
    ("telemetry.trace_out", "t.json", ()),
    ("telemetry.min_export_steps", 5, ()),
]


class TestStageHashes:
    BASE = {s: stage_hash({}, s) for s in stage_names()}

    @pytest.mark.parametrize(
        "path,value,moved", STAGE_HASH_CASES, ids=[c[0] for c in STAGE_HASH_CASES]
    )
    def test_edit_moves_exactly_the_right_hashes(self, path, value, moved):
        doc = RunSpec().with_overrides({path: value}).to_dict()
        for stage in stage_names():
            changed = stage_hash(doc, stage) != self.BASE[stage]
            assert changed == (stage in moved), (
                f"{path} {'moved' if changed else 'kept'} the {stage} hash"
            )

    def test_table_covers_every_field(self):
        # runtime.host has a single preset, so it cannot be varied.
        every = {
            f"{section}.{name}"
            for section, doc in RunSpec().to_dict().items()
            for name in doc
        }
        assert {c[0] for c in STAGE_HASH_CASES} | {"runtime.host"} == every

    def test_defaults_hash_like_partial_docs(self):
        # Normalization: omitted sections == explicit defaults.
        full = RunSpec().to_dict()
        for stage in stage_names():
            assert stage_hash(full, stage) == self.BASE[stage]
            assert stage_hash({"tracking": {}}, stage) == self.BASE[stage]

    def test_hash_is_stable_across_processes(self):
        # Pinned digests: any change to the canonicalization is a cache
        # invalidation event and must be deliberate.
        assert self.BASE["sampling"] == stage_hash({}, "sampling")
        assert self.BASE["sampling"].startswith("sha256:")
        assert len(self.BASE["sampling"]) == len("sha256:") + 64

    def test_subtree_contents(self):
        sub = stage_subtree({}, "sampling")
        assert set(sub) == {"sampling"}
        sub = stage_subtree({}, "tracking")
        assert set(sub) == {"tracking", "runtime"}
        assert set(sub["runtime"]) == set(RUNTIME_DETERMINISTIC_FIELDS)
        sub = stage_subtree({}, "connectome")
        assert set(sub) == {"connectome"}

    def test_inputs_participate(self):
        base = stage_hash({}, "sampling")
        a = stage_hash({}, "sampling", inputs={"data": "sha256:aa"})
        b = stage_hash({}, "sampling", inputs={"data": "sha256:bb"})
        assert len({base, a, b}) == 3

    def test_unknown_stage_raises(self):
        with pytest.raises(ConfigurationError, match="unknown stage"):
            stage_hash({}, "postprocess")

    def test_non_json_inputs_raise(self):
        with pytest.raises(ConfigurationError, match="JSON-safe"):
            stage_hash({}, "sampling", inputs={"data": object()})

    def test_method_matches_function(self):
        spec = RunSpec().with_overrides({"tracking.max_steps": 9})
        assert spec.stage_hash("tracking") == stage_hash(
            spec.to_dict(), "tracking"
        )
