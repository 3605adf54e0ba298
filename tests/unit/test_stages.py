"""The pipeline's fixed stage table and its pinned stage keys.

Every artifact-store entry is keyed by :func:`repro.config.stage_hash`,
so any drift in a stage's declared spec sections, runtime fields, or
the canonical JSON it hashes silently invalidates every stored cache.
The literal digests below pin the keys; changing one must be a
deliberate cache-invalidation event.
"""

import numpy as np
import pytest

from repro.config import get_stage, stage_hash, stage_names
from repro.errors import ConfigurationError

PINNED_DEFAULT_KEYS = {
    "sampling": "sha256:90acec57247d4d4d9bf80d726390182aa4442f1ae9f347838d954b48df7fabbc",
    "tracking": "sha256:3faf66aa7b8126589c872a9b6714f6bfe70c1deb5c2ccf562252ae46ec0c996e",
    "connectome": "sha256:3ea65e1522d51a2098552af965170d1a9e04b9c5e71e0022a78f6a8efd7e960b",
}


class TestStageTable:
    def test_stages_in_topo_order(self):
        # A stage hashes the spec sections that parameterise it: its own
        # and, for the connectome, the tracking section whose endpoints
        # it folds.  Upstream outputs reach a key only through the input
        # fingerprints, so no stage hashes a section of a later stage
        # and none hashes ``sampling`` but the sampling stage itself.
        names = stage_names()
        assert names == ("sampling", "tracking", "connectome")
        for i, name in enumerate(names):
            sections = get_stage(name).spec_sections
            assert name in sections
            for section in sections:
                if section in names:
                    assert names.index(section) <= i
            assert ("sampling" in sections) == (name == "sampling")

    def test_get_stage_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="unknown stage"):
            get_stage("nope")


class TestPinnedStageKeys:
    @pytest.mark.parametrize("stage", sorted(PINNED_DEFAULT_KEYS))
    def test_default_keys(self, stage):
        assert stage_hash({}, stage) == PINNED_DEFAULT_KEYS[stage]

    def test_non_default_key(self):
        key = stage_hash(
            {"tracking": {"max_steps": 3}, "runtime": {"n_workers": 4}},
            "tracking",
            inputs={"fields": "x"},
        )
        assert key == (
            "sha256:2959976a8391ab92b11313a904062e13df6f3c1b8cc9eb7f66d6e3adf751e74a"
        )


#: ``bedpost()``'s own sampling key for :func:`_tiny_acquisition` under
#: :data:`TINY_SAMPLING`.
PINNED_BEDPOST_KEY = (
    "sha256:169bf5e74d077f0959cf12371d050c2df32a737fef98b57552a349b8eda72c77"
)
TINY_SAMPLING = {
    "n_burnin": 4, "n_samples": 2, "sample_interval": 1, "adapt_every": 2,
    "seed": 5, "n_fibers": 1, "block_voxels": 7,
}


def _tiny_acquisition():
    from repro.data import (
        make_gradient_table,
        rasterize_bundles,
        straight_bundle,
        synthesize_dwi,
    )

    shape = (6, 4, 4)
    bundle = straight_bundle([1, 2, 2], [5, 2, 2], radius=1.0, weight=0.6)
    field = rasterize_bundles(shape, [bundle], mask=np.ones(shape, bool))
    gtab = make_gradient_table(n_directions=12, n_b0=1)
    dwi = synthesize_dwi(field, gtab, s0=1000.0, snr=50.0, seed=0)
    return dwi, gtab, field.f[..., 0] > 0


class TestPinnedBedpostKey:
    def test_bedpost_key_is_the_specs_sampling_hash(self, tmp_path):
        # bedpost() keys itself from its config; that key must be the
        # pinned one and the stage hash of the spec the config came from.
        from repro.config import RunSpec
        from repro.pipeline import BedpostConfig, bedpost
        from repro.store import ArtifactStore, fingerprint_arrays

        dwi, gtab, mask = _tiny_acquisition()
        spec = RunSpec.from_dict({
            "sampling": TINY_SAMPLING,
            "runtime": {"checkpoint_every_loops": 2},
        })
        result = bedpost(
            dwi, gtab, mask, BedpostConfig.from_run_spec(spec),
            store=ArtifactStore(tmp_path / "store"),
        )
        data = fingerprint_arrays(
            dwi=dwi.data, affine=dwi.affine, bvals=gtab.bvals,
            bvecs=gtab.bvecs, mask=mask,
        )
        assert result.stage_key == PINNED_BEDPOST_KEY
        assert result.stage_key == spec.stage_hash(
            "sampling", inputs={"data": data}
        )
