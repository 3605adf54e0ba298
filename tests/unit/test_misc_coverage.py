"""Coverage for smaller public surfaces not exercised elsewhere."""

import numpy as np
import pytest

from repro import __version__
from repro.data import straight_bundle, rasterize_bundles
from repro.mcmc.sampler import MCMCResult
from repro.models import MultiFiberModel
from repro.models.base import DiffusionModel
from repro.models.fields import FiberField
from repro.tracking import (
    ProbtrackConfig,
    TerminationCriteria,
    UniformStrategy,
    probabilistic_streamlining,
)


class TestPackageSurface:
    def test_version_string(self):
        assert __version__ == "1.0.0"

    def test_model_abc_contract(self):
        model = MultiFiberModel(2)
        assert isinstance(model, DiffusionModel)
        assert model.n_params == len(model.param_names) == 8


class TestFiberFieldSurface:
    def make(self):
        shape = (4, 4, 4)
        f = np.zeros(shape + (2,))
        f[..., 0] = 0.5
        d = np.zeros(shape + (2, 3))
        d[..., 0, 2] = 1.0
        return FiberField(f=f, directions=d, mask=np.ones(shape, bool))

    def test_properties(self):
        fld = self.make()
        assert fld.shape3 == (4, 4, 4)
        assert fld.n_fibers == 2
        assert fld.n_valid == 64
        # f (64*2*8) + directions (64*6*8) + mask (64)
        assert fld.memory_bytes() == 64 * 2 * 8 + 64 * 6 * 8 + 64

    def test_shape_validation(self):
        from repro.errors import DataError

        with pytest.raises(DataError):
            FiberField(
                f=np.zeros((4, 4, 4, 2)),
                directions=np.zeros((4, 4, 4, 2, 2)),
                mask=np.ones((4, 4, 4), bool),
            )
        with pytest.raises(DataError):
            FiberField(
                f=np.full((2, 2, 2, 2), 0.6),  # sums over 1
                directions=np.zeros((2, 2, 2, 2, 3)),
                mask=np.ones((2, 2, 2), bool),
            )


class TestMcmcResultSurface:
    def test_mean(self):
        samples = np.stack([np.zeros((2, 3)), np.full((2, 3), 2.0)])
        res = MCMCResult(samples=samples, n_loops=1, n_voxels=2, n_params=3)
        np.testing.assert_allclose(res.mean(), 1.0)


class TestTractoWithRawFields:
    def test_accepts_field_list(self):
        shape = (14, 6, 6)
        b = straight_bundle([1, 3, 3], [12, 3, 3], radius=1.5)
        field = rasterize_bundles(shape, [b], mask=np.ones(shape, bool))
        cfg = ProbtrackConfig(
            criteria=TerminationCriteria(max_steps=60, step_length=0.5),
            strategy=UniformStrategy(10),
        )
        result = probabilistic_streamlining([field, field], config=cfg)
        assert result.run.n_samples == 2
        assert result.run.total_steps > 0


class TestDegenerateLengthFit:
    def test_length_fit_none_when_degenerate(self):
        # One seed, one sample: far too few fibers to fit an exponential.
        shape = (6, 6, 6)
        f = np.zeros(shape + (1,))
        d = np.zeros(shape + (1, 3))
        field = FiberField(f=f, directions=d, mask=np.ones(shape, bool))
        cfg = ProbtrackConfig(
            criteria=TerminationCriteria(max_steps=10),
            strategy=UniformStrategy(5),
        )
        res = probabilistic_streamlining(
            [field], config=cfg, seeds=np.array([[3.0, 3.0, 3.0]])
        )
        assert res.length_fit is None


class TestBundleSurface:
    def test_tangents_unit_norm(self):
        b = straight_bundle([0, 0, 0], [3, 4, 0], n_points=10)
        t = b.tangents
        np.testing.assert_allclose(np.linalg.norm(t, axis=1), 1.0)
        np.testing.assert_allclose(t[0], [0.6, 0.8, 0.0])

    def test_length_of_diagonal(self):
        b = straight_bundle([0, 0, 0], [3, 4, 0])
        assert b.length == pytest.approx(5.0)


class TestTrackingRunResultSurface:
    def test_empty_lengths_longest_zero(self):
        from repro.gpu import Timeline
        from repro.tracking.executor import TrackingRunResult

        res = TrackingRunResult(
            lengths=np.zeros((0, 0), dtype=np.int64),
            reasons=np.zeros((0, 0), dtype=np.int64),
            endpoints=np.zeros((0, 0, 3)),
            timeline=Timeline(),
        )
        assert res.longest_fiber == 0
        assert res.total_steps == 0
        assert res.speedup == float("inf") or res.speedup >= 0
