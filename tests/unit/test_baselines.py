"""Unit tests for repro.baselines."""

import itertools

import numpy as np
import pytest

from repro.data import (
    crossing_pair,
    make_gradient_table,
    rasterize_bundles,
    straight_bundle,
    synthesize_dwi,
)
from repro.baselines import (
    PointEstimateModel,
    cpu_probabilistic_tracking,
    deterministic_tractography,
)
from repro.baselines.deterministic import tensor_field
from repro.errors import DataError, TrackingError
from repro.models.fields import FiberField
from repro.tracking import (
    ProbtrackConfig,
    SegmentedTracker,
    TerminationCriteria,
    paper_strategy_b,
    probabilistic_streamlining,
    seeds_from_mask,
)


@pytest.fixture(scope="module")
def straight_phantom():
    shape = (20, 8, 8)
    b = straight_bundle([2, 4, 4], [17, 4, 4], radius=2.0, weight=0.65)
    field = rasterize_bundles(shape, [b], mask=np.ones(shape, bool))
    gtab = make_gradient_table(n_directions=32, n_b0=3)
    dwi = synthesize_dwi(field, gtab, snr=40.0, seed=0)
    return field, gtab, dwi


@pytest.fixture(scope="module")
def crossing_phantom():
    shape = (24, 24, 8)
    b1, b2 = crossing_pair([12, 12, 4], 10.0, angle=np.pi / 2, radius=2.0, weight=0.45)
    field = rasterize_bundles(shape, [b1, b2], mask=np.ones(shape, bool))
    gtab = make_gradient_table(n_directions=32, n_b0=3)
    dwi = synthesize_dwi(field, gtab, snr=40.0, seed=1)
    return field, gtab, dwi


class TestTensorField:
    def test_fa_high_in_bundle(self, straight_phantom):
        truth, gtab, dwi = straight_phantom
        field, fit = tensor_field(dwi, gtab, truth.mask)
        in_bundle = truth.f[..., 0] > 0.5
        assert field.f[in_bundle, 0].mean() > 0.3
        outside = truth.mask & (truth.f[..., 0] == 0)
        assert field.f[outside, 0].mean() < field.f[in_bundle, 0].mean()

    def test_direction_recovered(self, straight_phantom):
        truth, gtab, dwi = straight_phantom
        field, _ = tensor_field(dwi, gtab, truth.mask)
        center = field.directions[10, 4, 4, 0]
        assert abs(center[0]) > 0.98

    def test_mask_shape_checked(self, straight_phantom):
        _, gtab, dwi = straight_phantom
        with pytest.raises(DataError):
            tensor_field(dwi, gtab, np.ones((2, 2, 2), bool))


class TestDeterministicTractography:
    def test_tracks_through_straight_bundle(self, straight_phantom):
        truth, gtab, dwi = straight_phantom
        seeds = np.array([[10.0, 4.0, 4.0]])
        res = deterministic_tractography(dwi, gtab, truth.mask, seeds)
        assert res.lengths[0] > 10
        assert res.wall_seconds > 0

    def test_fa_floor_terminates_outside_bundle(self, straight_phantom):
        truth, gtab, dwi = straight_phantom
        # Seed far from the bundle: low FA there, tracking dies instantly.
        seeds = np.array([[10.0, 1.0, 1.0]])
        res = deterministic_tractography(dwi, gtab, truth.mask, seeds)
        assert res.lengths[0] <= 3

    def test_fails_at_crossing(self, crossing_phantom):
        # The single-tensor model averages two orthogonal fiber
        # populations into an *oblate* (planar) tensor: the linear/planar
        # Westin coefficients flip, and the "principal" eigenvector
        # becomes direction-ambiguous within the crossing plane -- the
        # paper's motivation for the multi-fiber model (paper section I).
        truth, gtab, dwi = crossing_phantom
        _, fit = tensor_field(dwi, gtab, truth.mask)
        flat_mask = truth.mask.reshape(-1)
        crossing = (truth.f[..., 1] > 0.3).reshape(-1)[flat_mask]
        single = (
            (truth.f[..., 0] > 0.3) & (truth.f[..., 1] == 0)
        ).reshape(-1)[flat_mask]
        ev = fit.evals
        with np.errstate(invalid="ignore", divide="ignore"):
            cl = (ev[:, 0] - ev[:, 1]) / np.maximum(ev[:, 0], 1e-12)  # linear
            cp = (ev[:, 1] - ev[:, 2]) / np.maximum(ev[:, 0], 1e-12)  # planar
        assert cl[single].mean() > 2.0 * cl[crossing].mean()
        assert cp[crossing].mean() > 2.0 * cp[single].mean()


class TestCpuReference:
    def test_matches_segmented_executor(self, straight_phantom):
        truth, gtab, dwi = straight_phantom
        crit = TerminationCriteria(max_steps=120, min_dot=0.8, step_length=0.4)
        seeds = seeds_from_mask(truth.mask & (truth.f[..., 0] > 0))[::9]
        cpu = cpu_probabilistic_tracking([truth, truth], seeds, crit)
        gpu = SegmentedTracker().run([truth, truth], seeds, crit, paper_strategy_b())
        np.testing.assert_array_equal(cpu.lengths, gpu.lengths)
        np.testing.assert_array_equal(cpu.reasons, gpu.reasons)

        # Endpoints too, on noisy posterior-like samples, for every
        # interpolation x order x worker-count combination.
        fields = PointEstimateModel(dwi, gtab, truth.mask).sample_fields(3, seed=4)
        # One seed with no population in one sample: a born-dead row.
        fields[1].f[tuple(seeds[0].astype(int))] = 0.0
        crit = TerminationCriteria(max_steps=40, min_dot=0.8, step_length=0.4)
        for interpolation in ("trilinear", "nearest"):
            ref = cpu_probabilistic_tracking(
                fields, seeds, crit, interpolation=interpolation,
                keep_streamlines=True,
            )
            ends = np.array(
                [[line.points[-1] for line in row] for row in ref.streamlines]
            )
            for order, n_workers in itertools.product(
                ("natural", "sorted"), (1, 2)
            ):
                cfg = ProbtrackConfig(
                    criteria=crit, strategy=paper_strategy_b(),
                    interpolation=interpolation, order=order,
                    n_workers=n_workers,
                )
                run = probabilistic_streamlining(fields, cfg, seeds=seeds).run
                case = (interpolation, order, n_workers)
                assert run.lengths[1, 0] == 0, case
                assert run.endpoints.dtype == np.float64, case
                np.testing.assert_array_equal(run.lengths, ref.lengths, err_msg=str(case))
                np.testing.assert_array_equal(run.reasons, ref.reasons, err_msg=str(case))
                np.testing.assert_array_equal(run.endpoints, ends, err_msg=str(case))

    def test_keep_streamlines(self, straight_phantom):
        truth, _, _ = straight_phantom
        crit = TerminationCriteria(max_steps=50, step_length=0.4)
        seeds = np.array([[10.0, 4.0, 4.0]])
        res = cpu_probabilistic_tracking(
            [truth], seeds, crit, keep_streamlines=True
        )
        assert res.streamlines is not None
        assert res.streamlines[0][0].n_steps == res.lengths[0, 0]
        assert res.total_steps == res.lengths.sum()

    def test_validation(self, straight_phantom):
        truth, _, _ = straight_phantom
        crit = TerminationCriteria(max_steps=10)
        with pytest.raises(TrackingError):
            cpu_probabilistic_tracking([], np.zeros((1, 3)), crit)
        with pytest.raises(TrackingError):
            cpu_probabilistic_tracking([truth], np.zeros((1, 2)), crit)


class TestPointEstimate:
    def test_sample_fields_structure(self, straight_phantom):
        truth, gtab, dwi = straight_phantom
        model = PointEstimateModel(dwi, gtab, truth.mask)
        fields = model.sample_fields(3, seed=0)
        assert len(fields) == 3
        for fld in fields:
            assert isinstance(fld, FiberField)
            assert fld.n_fibers == 1
            painted = fld.f[..., 0] > 0
            norms = np.linalg.norm(fld.directions[..., 0, :][painted], axis=-1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_samples_concentrate_around_estimate(self, straight_phantom):
        truth, gtab, dwi = straight_phantom
        model = PointEstimateModel(dwi, gtab, truth.mask)
        fields = model.sample_fields(20, seed=1)
        # In the bundle core, sampled directions must hug +/-x.
        aligns = [np.abs(f.directions[10, 4, 4, 0, 0]) for f in fields]
        assert np.mean(aligns) > 0.9

    def test_dispersion_scale_widens_samples(self, straight_phantom):
        truth, gtab, dwi = straight_phantom
        tight = PointEstimateModel(dwi, gtab, truth.mask, dispersion_scale=0.5)
        wide = PointEstimateModel(dwi, gtab, truth.mask, dispersion_scale=3.0)

        def spread(model):
            fields = model.sample_fields(15, seed=2)
            dirs = np.array([f.directions[10, 4, 4, 0] for f in fields])
            dirs *= np.sign(dirs[:, 0:1])
            return 1.0 - np.abs(dirs.mean(axis=0)[0])

        assert spread(wide) > spread(tight)

    def test_low_anisotropy_voxels_disperse_more(self, crossing_phantom):
        truth, gtab, dwi = crossing_phantom
        model = PointEstimateModel(dwi, gtab, truth.mask)
        # angular_std is larger where the tensor is degenerate (crossing).
        flat_mask = truth.mask.reshape(-1)
        crossing_flat = (truth.f[..., 1] > 0.3).reshape(-1)[flat_mask]
        single_flat = ((truth.f[..., 0] > 0.3) & (truth.f[..., 1] == 0)).reshape(-1)[
            flat_mask
        ]
        assert (
            model.angular_std[crossing_flat].mean()
            > model.angular_std[single_flat].mean()
        )

    def test_trackable_output(self, straight_phantom):
        truth, gtab, dwi = straight_phantom
        model = PointEstimateModel(dwi, gtab, truth.mask)
        fields = model.sample_fields(2, seed=3)
        crit = TerminationCriteria(
            max_steps=100, min_dot=0.8, step_length=0.4, f_threshold=0.15
        )
        seeds = np.array([[10.0, 4.0, 4.0]])
        res = SegmentedTracker().run(fields, seeds, crit, paper_strategy_b())
        assert res.lengths.max() > 5

    def test_validation(self, straight_phantom):
        truth, gtab, dwi = straight_phantom
        with pytest.raises(DataError):
            PointEstimateModel(dwi, gtab, np.ones((2, 2, 2), bool))
        with pytest.raises(DataError):
            PointEstimateModel(dwi, gtab, truth.mask, dispersion_scale=0.0)
        model = PointEstimateModel(dwi, gtab, truth.mask)
        with pytest.raises(DataError):
            model.sample_fields(0)
