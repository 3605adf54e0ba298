"""The host-side tail of a stage request: payload codec and the lazy fit.

* **Codec.** Every ``.npz`` payload the three stages publish
  (``samples.npz``, tracking ``arrays.npz``, ``connectome.npz``) is
  written uncompressed (``ZIP_STORED``), as checkpoints are.  An entry
  an older version wrote with ``np.savez_compressed`` — same schema tag,
  manifest hashes matching its bytes — is still a hit for every stage,
  and serves arrays equal to the cold run's in value and dtype.
* **Lazy length fit.** ``ProbtrackResult.length_fit`` is computed on
  first read, cold or served from the store, and equals
  ``fit_exponential(lengths, truncate_at=max_steps)`` field by field;
  ``run_workflow`` itself never calls ``fit_exponential``.
"""

import dataclasses
import json
import shutil
import sys
import zipfile

import numpy as np
import pytest

import repro.tracking.lengths
from repro.config import RunSpec
from repro.data import dataset1
from repro.pipeline import run_workflow
from repro.store import ENTRY_SCHEMA, ArtifactStore
from repro.store.artifact_store import _sha256_file
from repro.telemetry import MetricsRegistry, use_registry
from repro.tracking import fit_exponential

STAGES = ("sampling", "tracking", "connectome")
MAX_STEPS = 48
DOC = {
    "sampling": {
        "n_burnin": 20,
        "n_samples": 4,
        "sample_interval": 2,
        "adapt_every": 7,
    },
    "tracking": {"max_steps": MAX_STEPS},
    "connectome": {"atlas": "octant"},
}


@pytest.fixture(scope="module")
def phantom():
    return dataset1(scale=0.15, snr=40.0)


@pytest.fixture(scope="module")
def seed_mask(phantom):
    """Eight seed voxels: enough streamlines, a cheap connectome."""
    candidates = np.flatnonzero(phantom.mask & (phantom.truth.f[..., 0] > 0))
    keep = candidates[np.linspace(0, candidates.size - 1, 8, dtype=int)]
    mask = np.zeros(phantom.mask.shape, dtype=bool)
    mask.ravel()[keep] = True
    return mask


def run(phantom, seed_mask, root):
    doc = json.loads(json.dumps(DOC))
    doc["telemetry"] = {"store": str(root)}
    with use_registry(MetricsRegistry()):
        return run_workflow(
            phantom, spec=RunSpec.from_dict(doc), seed_mask=seed_mask
        )


@pytest.fixture(scope="module")
def cold(phantom, seed_mask, tmp_path_factory):
    root = tmp_path_factory.mktemp("codec-store")
    wr = run(phantom, seed_mask, root)
    assert not any(wr.cache[f"{stage}_hit"] for stage in STAGES)
    return root, wr


def stage_payloads(root, wr):
    """``{stage: [npz paths]}`` of the entries a run published."""
    store = ArtifactStore(root)
    out = {}
    for stage in STAGES:
        entry = store.entry_dir(stage, wr.cache["stage_keys"][stage])
        out[stage] = sorted(entry.glob("*.npz"))
    return out


def recompress(entry_dir):
    """Rewrite an entry's ``.npz`` files deflated, as older versions did,
    and re-record their sha256 and size in ``entry.json``."""
    doc = json.loads((entry_dir / "entry.json").read_text())
    for path in entry_dir.glob("*.npz"):
        with np.load(path) as blob:
            arrays = {name: blob[name] for name in blob.files}
        np.savez_compressed(path, **arrays)
        digest, nbytes = _sha256_file(path)
        doc["files"][path.name] = {"sha256": digest, "bytes": nbytes}
    (entry_dir / "entry.json").write_text(json.dumps(doc, indent=2))


def assert_same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype
    np.testing.assert_array_equal(a, b)


def served_arrays(wr):
    """Every array a stage hit rebuilds from its payload."""
    pt, conn = wr.probtrack, wr.connectome
    counts = pt.connectivity.counts
    return {
        "samples": wr.bedpost.samples,
        "lengths": pt.run.lengths,
        "reasons": pt.run.reasons,
        "endpoints": pt.run.endpoints,
        "seeds": pt.seeds,
        "conn_data": counts.data,
        "conn_indices": counts.indices,
        "conn_indptr": counts.indptr,
        "connectome_counts": conn.counts,
        "connectome_labels": conn.atlas.labels,
    }


class TestPayloadCodec:
    def test_every_stage_payload_is_stored(self, cold):
        root, wr = cold
        payloads = stage_payloads(root, wr)
        for stage in STAGES:
            assert payloads[stage], f"{stage} published no .npz payload"
            for path in payloads[stage]:
                with zipfile.ZipFile(path) as zf:
                    kinds = {i.compress_type for i in zf.infolist()}
                assert kinds == {zipfile.ZIP_STORED}, path.name

    def test_compressed_entries_still_hit(
        self, cold, phantom, seed_mask, tmp_path
    ):
        root, wr_cold = cold
        old_root = tmp_path / "old-store"
        shutil.copytree(root, old_root)
        for paths in stage_payloads(old_root, wr_cold).values():
            entry_dir = paths[0].parent
            recompress(entry_dir)
            doc = json.loads((entry_dir / "entry.json").read_text())
            assert doc["schema"] == ENTRY_SCHEMA
            for path in paths:
                with zipfile.ZipFile(path) as zf:
                    kinds = {i.compress_type for i in zf.infolist()}
                assert zipfile.ZIP_DEFLATED in kinds

        wr_warm = run(phantom, seed_mask, old_root)
        assert all(wr_warm.cache[f"{stage}_hit"] for stage in STAGES)
        assert wr_warm.cache["stage_keys"] == wr_cold.cache["stage_keys"]
        cold_arrays, warm_arrays = served_arrays(wr_cold), served_arrays(wr_warm)
        for name, arr in cold_arrays.items():
            assert_same(warm_arrays[name], arr)
        assert wr_warm.connectome.graph == wr_cold.connectome.graph


@pytest.fixture
def fit_spy(monkeypatch):
    """Count ``fit_exponential`` calls through every ``repro`` binding."""
    original = repro.tracking.lengths.fit_exponential
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(
            module, "fit_exponential", None
        ) is original:
            monkeypatch.setattr(module, "fit_exponential", spy)
    return calls


def expected_fit(pt):
    return fit_exponential(
        pt.run.lengths.ravel(), truncate_at=float(MAX_STEPS)
    )


class TestLazyLengthFit:
    def test_cold_fit_matches_direct_fit(self, cold):
        _, wr = cold
        assert wr.probtrack.max_steps == MAX_STEPS
        assert dataclasses.asdict(wr.probtrack.length_fit) == (
            dataclasses.asdict(expected_fit(wr.probtrack))
        )

    def test_store_hit_fit_matches_direct_fit(self, cold, phantom, seed_mask):
        root, wr_cold = cold
        wr = run(phantom, seed_mask, root)
        assert wr.cache["tracking_hit"]
        assert dataclasses.asdict(wr.probtrack.length_fit) == (
            dataclasses.asdict(expected_fit(wr.probtrack))
        )
        assert wr.probtrack.length_fit == wr_cold.probtrack.length_fit

    def test_workflow_never_fits_unless_read(
        self, phantom, seed_mask, tmp_path, fit_spy
    ):
        wr = run(phantom, seed_mask, tmp_path / "store")
        assert not wr.cache["tracking_hit"]
        warm = run(phantom, seed_mask, tmp_path / "store")
        assert warm.cache["tracking_hit"]
        assert fit_spy == []
        fit = warm.probtrack.length_fit
        assert fit is not None
        assert warm.probtrack.length_fit is fit
        assert len(fit_spy) == 1
