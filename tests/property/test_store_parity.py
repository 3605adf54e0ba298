"""Cache-parity: a warm run is bit-identical to the cold run it reuses.

The artifact store's contract (ISSUE 7): serving a stage from the store
must be indistinguishable — bit for bit — from recomputing it.  This
suite proves it end to end on :func:`~repro.pipeline.run_workflow`:

* cold vs warm runs agree on posterior samples, streamline lengths and
  stop reasons, connectivity counts, and the deterministic manifest
  sections, across worker counts {1, 2, 4};
* a run that edits only tracking parameters *reuses* the sampling
  artifact (hash hit) while a sampling edit misses;
* a sampling edit reaches stages 2-3 only through the posterior they
  consume: over the same posterior, both are hits;
* the acceptance scenario: a tracking sweep of three specs over one
  sampling configuration runs MCMC exactly once;
* the service path (ISSUE 9): a manifest served by
  ``repro.service.TractographyService`` — computed or result-cached —
  matches a direct run of the same spec bit for bit.

Stage-hash algebra (which edits move which keys) is checked exhaustively
by Hypothesis over the spec's tracking/runtime fields.
"""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RunSpec, stage_hash
from repro.data import dataset1
from repro.pipeline import run_workflow
from repro.telemetry import (
    MetricsRegistry,
    build_manifest,
    deterministic_sections,
    use_registry,
)

#: Small-but-real MCMC settings (mirrors the telemetry suite's scale).
BASE_DOC = {
    "sampling": {
        "n_burnin": 20,
        "n_samples": 4,
        "sample_interval": 2,
        "adapt_every": 7,
    },
    "tracking": {"max_steps": 48},
}


@pytest.fixture(scope="module")
def phantom():
    return dataset1(scale=0.15, snr=40.0)


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    """One store shared by every run in this module (that is the point)."""
    return tmp_path_factory.mktemp("store")


def make_spec(store_root, **edits):
    """BASE_DOC + section edits + the shared store, as a RunSpec."""
    doc = json.loads(json.dumps(BASE_DOC))  # deep copy
    for section, fields in edits.items():
        doc.setdefault(section, {}).update(fields)
    doc.setdefault("telemetry", {})["store"] = str(store_root)
    return RunSpec.from_dict(doc)


def run_once(phantom, spec):
    """One workflow run under a fresh registry; result + manifest."""
    registry = MetricsRegistry()
    with use_registry(registry):
        wr = run_workflow(phantom, spec=spec)
    manifest = build_manifest(registry, config=spec.to_dict(), cache=wr.cache)
    return wr, manifest


def det_blob(manifest):
    """The bit-identity surface of a manifest, as one canonical string."""
    return json.dumps(deterministic_sections(manifest), sort_keys=True)


def assert_bit_identical(cold, warm):
    """Every deterministic output of two runs matches exactly."""
    wr_c, m_c = cold
    wr_w, m_w = warm
    np.testing.assert_array_equal(wr_c.bedpost.samples, wr_w.bedpost.samples)
    np.testing.assert_array_equal(
        wr_c.probtrack.run.lengths, wr_w.probtrack.run.lengths
    )
    np.testing.assert_array_equal(
        wr_c.probtrack.run.reasons, wr_w.probtrack.run.reasons
    )
    shape3 = wr_c.bedpost.fields[0].shape3
    np.testing.assert_array_equal(
        wr_c.probtrack.connectivity.visit_count_volume(shape3),
        wr_w.probtrack.connectivity.visit_count_volume(shape3),
    )
    assert det_blob(m_c) == det_blob(m_w)


class TestColdWarmParity:
    """Cold/warm bit-identity over one shared store.

    Ordered scenario: the first test populates the store (cold), the
    rest prove warm runs serve identical bits under execution-policy
    variations.
    """

    cold = {}

    def test_cold_run_populates(self, phantom, store_root):
        spec = make_spec(store_root)
        wr, manifest = run_once(phantom, spec)
        assert wr.cache["sampling_hit"] is False
        assert wr.cache["tracking_hit"] is False
        assert wr.cache["writes"] == 2
        type(self).cold["run"] = (wr, manifest)

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_warm_across_worker_counts(self, phantom, store_root, n_workers):
        # n_workers is execution policy: every count lands on the same
        # stage keys, so all three are full hits off the one cold run.
        spec = make_spec(store_root, runtime={"n_workers": n_workers})
        wr, manifest = run_once(phantom, spec)
        assert wr.cache["sampling_hit"] is True
        assert wr.cache["tracking_hit"] is True
        assert_bit_identical(self.cold["run"], (wr, manifest))

    def test_no_cache_recomputes_but_matches(self, phantom, store_root):
        spec = make_spec(store_root, telemetry={"cache": False})
        wr, manifest = run_once(phantom, spec)
        assert wr.cache["sampling_hit"] is False
        assert wr.cache["tracking_hit"] is False
        assert_bit_identical(self.cold["run"], (wr, manifest))


class TestStageReuse:
    def test_tracking_edit_reuses_sampling(self, phantom, store_root):
        spec = make_spec(store_root, tracking={"max_steps": 32})
        wr, _ = run_once(phantom, spec)
        assert wr.cache["sampling_hit"] is True, (
            "a tracking-only edit must reuse the MCMC posterior"
        )
        assert wr.cache["tracking_hit"] is False

    def test_sampling_edit_misses(self, phantom, tmp_path):
        # Fresh store: a cold run, then a seed edit — nothing reusable.
        cold = make_spec(tmp_path / "s")
        run_once(phantom, cold)
        edited = make_spec(tmp_path / "s", sampling={"seed": 1})
        wr, _ = run_once(phantom, edited)
        assert wr.cache["sampling_hit"] is False
        assert wr.cache["tracking_hit"] is False

    def test_sampling_section_keys_only_the_sampling_stage(
        self, phantom, store_root, tmp_path
    ):
        # Two specs differing only in sampling.n_burnin, run over one
        # posterior: stages 2-3 key that posterior's fingerprint, not
        # the sampling section, so the second run hits both.
        from repro.pipeline.runners import (
            StageContext,
            run_connectome_stage,
            run_tracking_stage,
        )

        fields = run_once(phantom, make_spec(store_root))[0].bedpost.fields
        hits = []
        for n_burnin in (20, 30):
            spec = make_spec(
                tmp_path / "s",
                sampling={"n_burnin": n_burnin},
                connectome={"atlas": "octant"},
            )
            ctx = StageContext.from_spec(spec, fields=fields)
            tracked = ctx.outcomes["tracking"] = run_tracking_stage(ctx)
            hits.append((tracked.hit, run_connectome_stage(ctx).hit))
        assert hits == [(False, False), (True, True)]


class TestAcceptanceSweep:
    def test_three_spec_sweep_samples_once(self, phantom, tmp_path):
        """ISSUE 7 acceptance: a >=3-spec tracking sweep over one
        sampling config performs MCMC exactly once."""
        from repro.store import ArtifactStore

        root = tmp_path / "sweep-store"
        sweep = [
            make_spec(root, tracking={"max_steps": m}) for m in (24, 36, 48)
        ]
        hits = []
        for spec in sweep:
            wr, _ = run_once(phantom, spec)
            hits.append(wr.cache["sampling_hit"])
        assert hits == [False, True, True], (
            "only the first run may compute the posterior"
        )
        listing = ArtifactStore(root).ls()
        assert sum(e["stage"] == "sampling" for e in listing) == 1
        assert sum(e["stage"] == "tracking" for e in listing) == 3


# -- stage-hash algebra (pure hashing; no MCMC) ---------------------------

_TRACKING_EDITS = st.sampled_from(
    [
        ("max_steps", 7),
        ("min_dot", 0.5),
        ("step_length", 0.3),
        ("strategy", "b"),
        ("bidirectional", True),
    ]
)

_POLICY_EDITS = st.sampled_from(
    [
        ("n_workers", 8),
        ("max_retries", 5),
        ("shard_timeout_s", 9.0),
        ("fallback_to_serial", False),
        ("checkpoint_every_loops", 10),
    ]
)


@settings(max_examples=30, deadline=None)
@given(edit=_TRACKING_EDITS)
def test_tracking_edits_keep_sampling_key(edit):
    name, value = edit
    doc = {"tracking": {name: value}}
    assert stage_hash(doc, "sampling") == stage_hash({}, "sampling")
    moved = stage_hash(doc, "tracking") != stage_hash({}, "tracking")
    default = RunSpec().to_dict()["tracking"][name]
    assert moved == (value != default)


@settings(max_examples=30, deadline=None)
@given(edit=_POLICY_EDITS)
def test_execution_policy_moves_no_key(edit):
    name, value = edit
    doc = {"runtime": {name: value}}
    assert stage_hash(doc, "sampling") == stage_hash({}, "sampling")
    assert stage_hash(doc, "tracking") == stage_hash({}, "tracking")


@settings(max_examples=30, deadline=None)
@given(
    field=st.sampled_from(
        ["n_burnin", "n_samples", "sample_interval", "seed", "n_fibers"]
    ),
    delta=st.integers(min_value=1, max_value=50),
)
def test_sampling_edits_move_only_the_sampling_key(field, delta):
    # Stages 2-3 see a sampling edit only through the posterior
    # fingerprint in their inputs: over the same inputs they keep keys.
    default = RunSpec().to_dict()["sampling"][field]
    doc = {"sampling": {field: default + delta}}
    assert stage_hash(doc, "sampling") != stage_hash({}, "sampling")
    for stage in ("tracking", "connectome"):
        inputs = {"fields": "sha256:posterior"}
        assert stage_hash(doc, stage, inputs) == stage_hash({}, stage, inputs)
        assert stage_hash(doc, stage, inputs) != stage_hash(
            doc, stage, {"fields": "sha256:other"}
        )


@settings(max_examples=20, deadline=None)
@given(tag=st.text(min_size=1, max_size=16))
def test_inputs_always_participate(tag):
    assert stage_hash({}, "sampling", inputs={"data": tag}) != stage_hash(
        {}, "sampling"
    )


class TestServiceParity:
    """ISSUE 9: the parity contract extended through the service path.

    A manifest served by :class:`~repro.service.TractographyService`
    (whose default dataset is exactly this suite's phantom) must be
    bit-identical on the deterministic sections to a direct
    ``run_workflow`` of the same spec — both when the job computes and
    when a resubmission is served from the result cache.
    """

    def test_served_manifest_matches_direct_run(self, phantom, store_root):
        from repro.service import ServiceConfig, TractographyService

        _, direct = run_once(phantom, make_spec(store_root))

        cfg = ServiceConfig(
            store_root=str(store_root), slots=1, queue_limit=4
        )
        with TractographyService(cfg) as svc:
            view = svc.submit({"spec": BASE_DOC})
            deadline = time.monotonic() + 180.0
            while time.monotonic() < deadline:
                view = svc.status(view["job_id"])
                if view["state"] in ("done", "failed", "cancelled"):
                    break
                time.sleep(0.05)
            assert view["state"] == "done", view
            served = svc.result(view["job_id"])

            again = svc.submit({"spec": BASE_DOC})
            assert again["cache_hit"] is True
            resubmitted = svc.result(again["job_id"])

        assert det_blob(served) == det_blob(direct)
        assert resubmitted == served
