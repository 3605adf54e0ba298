"""Tests for streamline post-processing (repro.tracking.postprocess)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrackingError
from repro.models.fields import FiberField
from repro.tracking import (
    TerminationCriteria,
    density_map,
    dice_overlap,
    filter_by_steps,
    track_streamline,
)


def uniform_x_field(shape=(20, 8, 8)):
    f = np.zeros(shape + (1,))
    f[..., 0] = 0.6
    d = np.zeros(shape + (1, 3))
    d[..., 0, 0] = 1.0
    return FiberField(f=f, directions=d, mask=np.ones(shape, bool))


class TestPostprocess:
    def make_lines(self):
        field = uniform_x_field()
        crit = TerminationCriteria(max_steps=100, step_length=0.5)
        lines = []
        for x in (2.0, 5.0, 16.0):
            lines.append(
                track_streamline(
                    field, [x, 4.0, 4.0], [1.0, 0.0, 0.0], crit
                )
            )
        return lines

    def test_filter_by_steps(self):
        lines = self.make_lines()
        steps = sorted(l.n_steps for l in lines)
        kept = filter_by_steps(lines, min_steps=steps[1])
        assert len(kept) == 2
        kept = filter_by_steps(lines, min_steps=0, max_steps=steps[0])
        assert len(kept) == 1
        with pytest.raises(TrackingError):
            filter_by_steps(lines, min_steps=-1)
        with pytest.raises(TrackingError):
            filter_by_steps(lines, min_steps=5, max_steps=2)

    def test_density_map_dedupes_per_path(self):
        # A path taking many sub-voxel steps still counts 1 per voxel.
        lines = self.make_lines()
        dm = density_map(lines, (20, 8, 8))
        assert dm.max() <= len(lines)
        assert dm.sum() > 0
        # Voxels along y=4,z=4 get hits; elsewhere zero.
        assert dm[:, 4, 4].sum() == dm.sum()

    def test_dice(self):
        a = np.zeros((4, 4, 4))
        b = np.zeros((4, 4, 4))
        a[:2] = 1
        b[1:3] = 1
        # |A|=32, |B|=32, |A&B|=16 -> dice 0.5
        assert dice_overlap(a, b) == pytest.approx(0.5)
        assert dice_overlap(a, a) == 1.0
        assert dice_overlap(np.zeros((2, 2, 2)), np.zeros((2, 2, 2))) == 1.0
        with pytest.raises(ConfigurationError):
            dice_overlap(np.zeros((2, 2)), np.zeros((3, 3)))
