"""The pipeline's fixed stage table and its pinned stage keys.

Every artifact-store entry is keyed by :func:`repro.config.stage_hash`,
so any drift in a stage's declared spec sections, runtime fields, or
the canonical JSON it hashes silently invalidates every stored cache.
The literal digests below pin the keys; changing one must be a
deliberate cache-invalidation event.
"""

import pytest

from repro.config import get_stage, stage_hash, stage_names
from repro.errors import ConfigurationError

PINNED_DEFAULT_KEYS = {
    "sampling": "sha256:90acec57247d4d4d9bf80d726390182aa4442f1ae9f347838d954b48df7fabbc",
    "tracking": "sha256:5157520d25609f531d3f6ef9cea6e909660bb261daef98346fe390cf977bd30e",
    "connectome": "sha256:60e5245e23dbb69ba6e20bbd2c0e11c186e0c2b8c8b5c65521418e734b24a661",
}


class TestStageTable:
    def test_stages_in_topo_order(self):
        # A stage hashes the spec sections of the stages it consumes;
        # each of those must come no later than the stage itself.
        names = stage_names()
        assert names == ("sampling", "tracking", "connectome")
        for i, name in enumerate(names):
            for section in get_stage(name).spec_sections:
                if section in names:
                    assert names.index(section) <= i

    def test_get_stage_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="unknown stage"):
            get_stage("nope")


class TestPinnedStageKeys:
    @pytest.mark.parametrize("stage", sorted(PINNED_DEFAULT_KEYS))
    def test_default_keys(self, stage):
        assert stage_hash({}, stage) == PINNED_DEFAULT_KEYS[stage]

    def test_non_default_key(self):
        key = stage_hash(
            {"sampling": {"seed": 3}, "runtime": {"n_workers": 4}},
            "tracking",
            inputs={"fields": "x"},
        )
        assert key == (
            "sha256:248f6419dbb4cb4cec7012e2ebccd8f6345a868761db5606ae6c9b3381d28c02"
        )
