"""Tests for ground-truth bundle validation."""

import numpy as np
import pytest

from repro.data import arc_bundle, rasterize_bundles, straight_bundle
from repro.errors import TrackingError
from repro.tracking import (
    TerminationCriteria,
    track_streamline,
    validate_against_bundle,
)


class TestBundleValidation:
    def make_tracked_arc(self):
        shape = (8, 36, 36)
        arc = arc_bundle(
            center=[4, 18, 8], radius_of_curvature=11.0, plane="yz",
            tube_radius=2.0,
        )
        field = rasterize_bundles(shape, [arc], mask=np.ones(shape, bool))
        crit = TerminationCriteria(max_steps=2000, min_dot=0.95, step_length=0.2)
        paths = []
        for phi in (-0.6, 0.0, 0.6):
            seed = np.array(
                [4.0, 18 + 11 * np.sin(phi + np.pi / 2) * 0 + 11 * np.cos(np.pi / 2 + phi) * 0, 0.0]
            )
            # Seed at the apex of the arch (top), offset along y.
            seed = np.array([4.0, 18.0 + 6 * phi, 0.0])
            seed[2] = 8 + np.sqrt(max(11**2 - (seed[1] - 18) ** 2, 0.0))
            line = track_streamline(field, seed, [0.0, 1.0, 0.0], crit)
            if line.n_steps > 10:
                paths.append(line.points)
        return paths, arc

    def test_on_bundle_paths_score_well(self):
        paths, arc = self.make_tracked_arc()
        assert paths, "tracking produced no usable paths"
        v = validate_against_bundle(paths, arc, tolerance=1.5)
        assert v.n_paths == len(paths)
        assert v.mean_deviation < 2.0
        assert v.on_bundle_fraction > 0.5
        assert 0.2 < v.coverage <= 1.0
        assert "paths" in v.summary()

    def test_off_bundle_paths_flagged(self):
        _, arc = self.make_tracked_arc()
        stray = [np.tile([4.0, 2.0, 2.0], (10, 1))]  # far from the arch
        v = validate_against_bundle(stray, arc)
        assert v.on_bundle_fraction == 0.0
        assert v.mean_deviation > 5.0
        assert v.coverage < 0.2

    def test_full_coverage_when_tracing_whole_centerline(self):
        b = straight_bundle([0, 5, 5], [19, 5, 5], radius=2.0)
        path = [np.stack([np.linspace(0, 19, 60),
                          np.full(60, 5.0), np.full(60, 5.0)], axis=1)]
        v = validate_against_bundle(path, b)
        assert v.coverage == 1.0
        # Bounded by half the centerline resampling spacing.
        assert v.max_deviation <= 0.25 + 1e-9
        v_fine = validate_against_bundle(path, b, resample_spacing=0.05)
        assert v_fine.max_deviation <= 0.025 + 1e-9

    def test_validation_errors(self):
        b = straight_bundle([0, 0, 0], [5, 0, 0])
        with pytest.raises(TrackingError):
            validate_against_bundle([], b)
        with pytest.raises(TrackingError):
            validate_against_bundle([np.zeros((3, 2))], b)
        with pytest.raises(TrackingError):
            validate_against_bundle([np.zeros((3, 3))], b, tolerance=-1.0)
