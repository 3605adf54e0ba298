"""Tests for the sample-archive contract (repro.io.samples)."""

import json

import numpy as np
import pytest

from repro.config import RunSpec
from repro.errors import IOFormatError
from repro.io.samples import load_samples, save_samples
from repro.models.posterior import ParameterLayout

SAMPLING = RunSpec().section_dict("sampling")
KEY = "sha256:" + "ab" * 32


def make_archive_inputs(n_samples=3, n_fibers=2, seed=0):
    rng = np.random.default_rng(seed)
    mask = np.zeros((4, 3, 3), dtype=bool)
    mask[1, 1, 1] = mask[2, 1, 1] = mask[3, 2, 2] = True
    n_vox = int(mask.sum())
    layout = ParameterLayout(n_fibers)
    samples = np.zeros((n_samples, n_vox, layout.n_params))
    samples[:, :, 0] = 100.0  # s0
    samples[:, :, 1] = 1e-3   # d
    samples[:, :, 2] = 5.0    # sigma
    samples[:, :, layout.f] = rng.uniform(0.1, 0.4, (n_samples, n_vox, n_fibers))
    samples[:, :, layout.theta] = rng.uniform(0.2, np.pi - 0.2, (n_samples, n_vox, n_fibers))
    samples[:, :, layout.phi] = rng.uniform(0, 2 * np.pi, (n_samples, n_vox, n_fibers))
    affine = np.diag([2.0, 2.0, 2.0, 1.0])
    return samples, mask, affine


class TestSampleArchive:
    def test_round_trip(self, tmp_path):
        samples, mask, affine = make_archive_inputs()
        path = tmp_path / "samples.npz"
        save_samples(path, samples, mask, affine, SAMPLING, KEY)
        back = load_samples(path)
        assert back.n_samples == 3
        assert back.n_voxels == 3
        assert back.layout.n_fibers == 2
        assert back.f_threshold == 0.05
        np.testing.assert_allclose(back.affine, affine)
        # float64 storage: the posterior comes back bit for bit.
        assert back.samples.dtype == np.float64
        assert np.array_equal(back.samples, samples)

    def test_round_trips_sampling_section_and_stage_key(self, tmp_path):
        samples, mask, affine = make_archive_inputs(n_fibers=1)
        sampling = dict(SAMPLING, n_fibers=1, n_samples=3, f_threshold=0.1)
        path = tmp_path / "samples.npz"
        save_samples(path, samples, mask, affine, sampling, KEY)
        back = load_samples(path)
        assert back.sampling == sampling
        assert back.stage_key == KEY
        assert back.layout.n_fibers == 1
        assert back.f_threshold == 0.1

    def test_to_fields(self, tmp_path):
        samples, mask, affine = make_archive_inputs()
        path = tmp_path / "samples.npz"
        save_samples(path, samples, mask, affine, SAMPLING, KEY)
        fields = load_samples(path).to_fields()
        assert len(fields) == 3
        assert fields[0].shape3 == mask.shape
        assert np.all(fields[0].f[~mask] == 0.0)
        assert fields[0].f[mask].max() > 0.05

    def test_save_validation(self, tmp_path):
        samples, mask, affine = make_archive_inputs()
        with pytest.raises(IOFormatError, match="voxels"):
            save_samples(
                tmp_path / "x.npz", samples[:, :2], mask, affine, SAMPLING, KEY
            )
        with pytest.raises(IOFormatError, match="parameters"):
            save_samples(
                tmp_path / "x.npz", samples[..., :5], mask, affine, SAMPLING, KEY
            )
        with pytest.raises(IOFormatError):
            save_samples(
                tmp_path / "x.npz", samples[0], mask, affine, SAMPLING, KEY
            )

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(IOFormatError, match="exist"):
            load_samples(tmp_path / "nope.npz")

    def test_load_missing_keys(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, samples=np.zeros((1, 1, 9)))
        with pytest.raises(IOFormatError, match="missing"):
            load_samples(path)

    def test_archive_without_sampling_section_is_rejected(self, tmp_path):
        # The layout earlier versions wrote: no sampling section, no key.
        samples, mask, affine = make_archive_inputs()
        path = tmp_path / "samples.npz"
        np.savez(
            path, samples=samples.astype(np.float32), mask=mask,
            n_fibers=np.int64(2), f_threshold=np.float64(0.05), affine=affine,
        )
        with pytest.raises(IOFormatError, match="re-run repro-bedpost"):
            load_samples(path)


class TestParentSamplingEntry:
    def test_entry_without_sampling_section_still_hits(self, tmp_path):
        """A sampling entry in the layout earlier versions published —
        no sampling section or key inside its ``samples.npz`` — is still
        a hit, and serves the same posterior."""
        from repro.pipeline import BedpostConfig, bedpost
        from repro.store import ArtifactStore
        from tests.unit.test_stages import TINY_SAMPLING, _tiny_acquisition

        dwi, gtab, mask = _tiny_acquisition()
        cfg = BedpostConfig.from_run_spec(
            RunSpec.from_dict({"sampling": TINY_SAMPLING})
        )
        cold = bedpost(dwi, gtab, mask, cfg)
        store = ArtifactStore(tmp_path / "store")

        def write_old_layout(tmp_dir):
            np.savez(
                tmp_dir / "samples.npz",
                samples=cold.samples,
                mask=mask,
                n_fibers=np.int64(cfg.n_fibers),
                f_threshold=np.float64(cfg.f_threshold),
                affine=dwi.affine,
            )
            (tmp_dir / "meta.json").write_text(json.dumps({
                "acceptance_history": cold.acceptance_history,
                "n_voxels": cold.n_voxels,
            }, sort_keys=True))
            (tmp_dir / "telemetry.json").write_text(
                json.dumps({"counters": {}, "histograms": {}})
            )

        store.publish("sampling", cold.stage_key, write_old_layout)
        warm = bedpost(dwi, gtab, mask, cfg, store=store)
        assert warm.served_from_store
        assert warm.stage_key == cold.stage_key
        assert warm.samples.dtype == np.float64
        assert np.array_equal(warm.samples, cold.samples)
        assert warm.acceptance_history == cold.acceptance_history
