"""Unit tests for interpolation, direction choice, criteria, and trackers."""

import numpy as np
import pytest

from repro.data import rasterize_bundles, straight_bundle, arc_bundle
from repro.errors import ConfigurationError, TrackingError
from repro.models.fields import FiberField
from repro.tracking import (
    BatchTracker,
    StopReason,
    TerminationCriteria,
    choose_direction,
    initial_directions,
    nearest_lookup,
    track_streamline,
    trilinear_lookup,
)
from repro.tracking.interpolate import trilinear_lookup_reference
from tests.tracking_spec import spec_stack_lookup


def uniform_x_field(shape=(12, 6, 6), f=0.6):
    """A field whose every voxel has one +x fiber."""
    fr = np.zeros(shape + (2,))
    fr[..., 0] = f
    dirs = np.zeros(shape + (2, 3))
    dirs[..., 0, 0] = 1.0
    return FiberField(f=fr, directions=dirs, mask=np.ones(shape, bool))


def crossing_field(shape=(10, 10, 4)):
    """Every voxel has +x and +y populations."""
    fr = np.full(shape + (2,), 0.4)
    dirs = np.zeros(shape + (2, 3))
    dirs[..., 0, 0] = 1.0
    dirs[..., 1, 1] = 1.0
    return FiberField(f=fr, directions=dirs, mask=np.ones(shape, bool))


class TestNearestLookup:
    def test_rounds_to_voxel(self):
        field = uniform_x_field()
        f, d = nearest_lookup(field, np.array([[3.4, 2.6, 2.2]]))
        assert f[0, 0] == 0.6
        np.testing.assert_allclose(d[0, 0], [1, 0, 0])

    def test_clamps_outside(self):
        field = uniform_x_field()
        f, d = nearest_lookup(field, np.array([[-5.0, 2.0, 2.0], [50.0, 2.0, 2.0]]))
        assert np.all(f[:, 0] == 0.6)

    def test_shape_validation(self):
        with pytest.raises(TrackingError):
            nearest_lookup(uniform_x_field(), np.zeros((3, 2)))


class TestTrilinearLookup:
    def test_matches_nearest_at_centers(self):
        field = uniform_x_field()
        pts = np.array([[3.0, 2.0, 2.0], [5.0, 4.0, 1.0]])
        f_n, d_n = nearest_lookup(field, pts)
        f_t, d_t = trilinear_lookup(field, pts, reference=np.tile([1.0, 0, 0], (2, 1)))
        np.testing.assert_allclose(f_t, f_n, atol=1e-12)
        np.testing.assert_allclose(np.abs(d_t[:, 0] @ [1, 0, 0]), 1.0, atol=1e-12)

    def test_fraction_interpolates_linearly(self):
        shape = (4, 3, 3)
        fr = np.zeros(shape + (1,))
        fr[0] = 0.2
        fr[1] = 0.6
        dirs = np.zeros(shape + (1, 3))
        dirs[..., 0, 2] = 1.0
        field = FiberField(f=fr, directions=dirs, mask=np.ones(shape, bool))
        f, _ = trilinear_lookup(field, np.array([[0.25, 1.0, 1.0]]))
        assert f[0, 0] == pytest.approx(0.2 * 0.75 + 0.6 * 0.25)

    def test_sign_alignment_prevents_cancellation(self):
        # Adjacent voxels hold antipodal directions of the same axis; a
        # naive average cancels, the axial-aware one must not.
        shape = (2, 1, 1)
        fr = np.full(shape + (1,), 0.5)
        dirs = np.zeros(shape + (1, 3))
        dirs[0, 0, 0, 0] = [1.0, 0.0, 0.0]
        dirs[1, 0, 0, 0] = [-1.0, 0.0, 0.0]
        field = FiberField(f=fr, directions=dirs, mask=np.ones(shape, bool))
        _, d = trilinear_lookup(
            field, np.array([[0.5, 0.0, 0.0]]), reference=np.array([[1.0, 0.0, 0.0]])
        )
        np.testing.assert_allclose(np.abs(d[0, 0, 0]), 1.0, atol=1e-9)

    def test_unit_norm_output(self):
        field = crossing_field()
        rng = np.random.default_rng(0)
        pts = rng.uniform(1, 8, size=(40, 3))
        ref = np.tile([1.0, 0.0, 0.0], (40, 1))
        _, d = trilinear_lookup(field, pts, reference=ref)
        norms = np.linalg.norm(d, axis=-1)
        np.testing.assert_allclose(norms[norms > 0], 1.0, atol=1e-9)

    def test_reference_shape_validated(self):
        with pytest.raises(TrackingError):
            trilinear_lookup(
                uniform_x_field(), np.zeros((2, 3)), reference=np.zeros((3, 3))
            )

    def test_packed_gather_matches_reference_bitwise(self):
        """The optimized packed gather is the reference spec, exactly."""
        field = crossing_field()
        rng = np.random.default_rng(3)
        # Interior, boundary, and out-of-grid points (clamp path).
        pts = rng.uniform(-2.0, 12.0, size=(200, 3))
        ref = rng.normal(size=(200, 3))
        ref /= np.linalg.norm(ref, axis=1, keepdims=True)
        for reference in (None, ref):
            f_opt, d_opt = trilinear_lookup(field, pts, reference=reference)
            f_ref, d_ref = trilinear_lookup_reference(
                field, pts, reference=reference
            )
            assert np.array_equal(f_opt, f_ref)
            assert np.array_equal(d_opt, d_ref)

    def test_batch_tracker_reference_mode_identical(self, monkeypatch):
        """Full batch runs agree bitwise between the packed lookup and the
        spec lookup run per sample volume."""
        field = crossing_field()
        crit = TerminationCriteria(max_steps=60, min_dot=0.6, step_length=0.3)
        seeds = np.argwhere(field.mask)[::7].astype(np.float64)
        headings = np.tile([1.0, 0.0, 0.0], (len(seeds), 1))
        runs = {}
        for mode in ("packed", "spec"):
            if mode == "spec":
                monkeypatch.setattr(
                    "repro.tracking.batch.trilinear_lookup", spec_stack_lookup
                )
            state = BatchTracker(field, crit).run_to_completion(seeds, headings)
            runs[mode] = (state.steps.copy(), state.reason.copy())
        assert np.array_equal(runs["packed"][0], runs["spec"][0])
        assert np.array_equal(runs["packed"][1], runs["spec"][1])

    @pytest.mark.parametrize(
        "lookup", [trilinear_lookup, trilinear_lookup_reference]
    )
    def test_field_linear_in_each_coordinate_is_exact(self, lookup):
        """Trilinear interpolation reproduces ``a + bx + cy + dz + exy +
        fyz + gxz + hxyz`` exactly, at any point inside the grid."""

        def g(x, y, z):
            return (
                0.1 + 0.02 * x + 0.01 * y + 0.03 * z
                + 0.001 * x * y + 0.002 * y * z + 0.003 * x * z
                + 0.0005 * x * y * z
            )

        shape = (5, 4, 3)
        fr = np.zeros(shape + (2,))
        fr[..., 0] = g(*np.indices(shape).astype(np.float64))
        dirs = np.zeros(shape + (2, 3))
        dirs[..., 0, 2] = 1.0
        field = FiberField(f=fr, directions=dirs, mask=np.ones(shape, bool))
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 1.0, size=(64, 3)) * (np.array(shape) - 1)
        f, d = lookup(field, pts, reference=np.tile([0.0, 0.0, 1.0], (64, 1)))
        np.testing.assert_allclose(f[:, 0], g(*pts.T), rtol=1e-13, atol=0)
        assert np.all(f[:, 1] == 0.0)
        np.testing.assert_array_equal(d[:, 0], np.tile([0.0, 0.0, 1.0], (64, 1)))


class TestChooseDirection:
    def test_picks_most_parallel(self):
        field = crossing_field()
        f, dirs = nearest_lookup(field, np.array([[5.0, 5.0, 2.0]]))
        chosen, dot = choose_direction(f, dirs, np.array([[0.9, 0.1, 0.0]]))
        np.testing.assert_allclose(chosen[0], [1, 0, 0], atol=1e-12)
        heading_y = np.array([[0.1, 0.9, 0.0]])
        chosen, _ = choose_direction(f, dirs, heading_y / np.linalg.norm(heading_y))
        np.testing.assert_allclose(chosen[0], [0, 1, 0], atol=1e-12)

    def test_sign_alignment(self):
        field = uniform_x_field()
        f, dirs = nearest_lookup(field, np.array([[5.0, 2.0, 2.0]]))
        chosen, dot = choose_direction(f, dirs, np.array([[-1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(chosen[0], [-1, 0, 0])
        assert dot[0] == pytest.approx(1.0)

    def test_threshold_excludes_weak_population(self):
        f = np.array([[0.5, 0.04]])
        dirs = np.zeros((1, 2, 3))
        dirs[0, 0] = [1, 0, 0]
        dirs[0, 1] = [0, 1, 0]
        heading = np.array([[0.0, 1.0, 0.0]])  # prefers the weak one
        chosen, _ = choose_direction(f, dirs, heading, f_threshold=0.05)
        np.testing.assert_allclose(np.abs(chosen[0]), [1, 0, 0])

    def test_no_population_returns_zero(self):
        f = np.zeros((1, 2))
        dirs = np.zeros((1, 2, 3))
        chosen, dot = choose_direction(f, dirs, np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(chosen, 0.0)
        assert dot[0] == 0.0

    def test_shape_validation(self):
        with pytest.raises(TrackingError):
            choose_direction(np.zeros((2, 2)), np.zeros((2, 2, 3)), np.zeros((3, 3)))

    def test_initial_directions_strongest(self):
        f = np.array([[0.2, 0.5], [0.0, 0.0]])
        dirs = np.zeros((2, 2, 3))
        dirs[0, 0] = [1, 0, 0]
        dirs[0, 1] = [0, 0, 1]
        d = initial_directions(f, dirs)
        np.testing.assert_allclose(d[0], [0, 0, 1])
        np.testing.assert_allclose(d[1], 0.0)

    def test_initial_directions_sign(self):
        f = np.array([[0.5, 0.0]])
        dirs = np.zeros((1, 2, 3))
        dirs[0, 0] = [0, 1, 0]
        np.testing.assert_allclose(initial_directions(f, dirs, sign=-1)[0], [0, -1, 0])
        with pytest.raises(TrackingError):
            initial_directions(f, dirs, sign=0)


class TestCriteria:
    def test_defaults_match_paper(self):
        c = TerminationCriteria()
        assert c.max_steps == 1888  # sum of the Table II array
        assert c.f_threshold == 0.0  # anisotropy floor off, per § III-B3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_steps=0),
            dict(min_dot=1.5),
            dict(min_dot=-0.1),
            dict(step_length=0.0),
            dict(f_threshold=1.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            TerminationCriteria(**kwargs)


class TestScalarTracker:
    def test_straight_run_to_mask_edge(self):
        field = uniform_x_field(shape=(12, 6, 6))
        crit = TerminationCriteria(max_steps=500, min_dot=0.8, step_length=0.5)
        line = track_streamline(field, [1.0, 3.0, 3.0], [1.0, 0.0, 0.0], crit)
        assert line.reason == StopReason.OUT_OF_BOUNDS
        # Travelled close to the +x boundary.
        assert line.end[0] > 10.5
        np.testing.assert_allclose(line.points[:, 1], 3.0, atol=1e-9)

    def test_max_steps(self):
        field = uniform_x_field(shape=(200, 4, 4))
        crit = TerminationCriteria(max_steps=10, step_length=0.5)
        line = track_streamline(field, [1.0, 2.0, 2.0], [1.0, 0.0, 0.0], crit)
        assert line.reason == StopReason.MAX_STEPS
        assert line.n_steps == 10

    def test_out_of_mask(self):
        shape = (12, 6, 6)
        field = uniform_x_field(shape)
        mask = field.mask.copy()
        mask[8:] = False
        field = FiberField(f=field.f, directions=field.directions, mask=mask)
        crit = TerminationCriteria(max_steps=100, step_length=0.5)
        line = track_streamline(field, [1.0, 3.0, 3.0], [1.0, 0.0, 0.0], crit)
        assert line.reason == StopReason.OUT_OF_MASK
        assert line.end[0] <= 7.5

    def test_angle_termination_at_orthogonal_boundary(self):
        # Left half fibers +x, right half +y: the turn at the boundary
        # violates min_dot and stops the path.
        shape = (10, 10, 4)
        fr = np.zeros(shape + (1,))
        fr[..., 0] = 0.6
        dirs = np.zeros(shape + (1, 3))
        dirs[:5, ..., 0, 0] = 1.0
        dirs[5:, ..., 0, 1] = 1.0
        field = FiberField(f=fr, directions=dirs, mask=np.ones(shape, bool))
        crit = TerminationCriteria(max_steps=100, min_dot=0.8, step_length=1.0)
        line = track_streamline(
            field, [1.0, 5.0, 2.0], [1.0, 0.0, 0.0], crit, interpolation="nearest"
        )
        assert line.reason == StopReason.ANGLE
        assert line.end[0] < 6.0

    def test_no_direction_at_empty_seed(self):
        shape = (6, 6, 6)
        fr = np.zeros(shape + (1,))
        dirs = np.zeros(shape + (1, 3))
        field = FiberField(f=fr, directions=dirs, mask=np.ones(shape, bool))
        crit = TerminationCriteria(max_steps=10)
        line = track_streamline(field, [3.0, 3.0, 3.0], [1.0, 0.0, 0.0], crit)
        assert line.reason == StopReason.NO_DIRECTION
        assert line.n_steps == 0

    def test_crossing_preserves_orientation(self):
        field = crossing_field()
        crit = TerminationCriteria(max_steps=50, min_dot=0.7, step_length=0.5)
        line_x = track_streamline(field, [1.0, 5.0, 2.0], [1.0, 0.0, 0.0], crit)
        # Straight through the crossing along x; y must stay constant.
        np.testing.assert_allclose(line_x.points[:, 1], 5.0, atol=1e-6)
        line_y = track_streamline(field, [5.0, 1.0, 2.0], [0.0, 1.0, 0.0], crit)
        np.testing.assert_allclose(line_y.points[:, 0], 5.0, atol=1e-6)

    def test_follows_arc(self):
        shape = (8, 40, 40)
        arc = arc_bundle(
            center=[4, 20, 8], radius_of_curvature=12.0, plane="yz", tube_radius=2.0
        )
        field = rasterize_bundles(shape, [arc], mask=np.ones(shape, bool))
        crit = TerminationCriteria(max_steps=2000, min_dot=0.95, step_length=0.2)
        # Seed at the arc apex, heading +y.
        line = track_streamline(field, [4.0, 20.0, 20.0], [0.0, 1.0, 0.0], crit)
        assert line.n_steps > 50
        # The path must descend in z (following the arch down).
        assert line.end[2] < 16.0
        # And stay near the arc radius.
        r = np.linalg.norm(line.points[:, 1:] - [20.0, 8.0], axis=1)
        assert np.all(np.abs(r - 12.0) < 3.0)

    def test_visited_voxels(self):
        field = uniform_x_field(shape=(12, 6, 6))
        crit = TerminationCriteria(max_steps=100, step_length=0.5)
        line = track_streamline(field, [1.0, 3.0, 3.0], [1.0, 0.0, 0.0], crit)
        visited = line.visited_voxels((12, 6, 6))
        assert len(visited) >= 10
        assert len(np.unique(visited)) == len(visited)

    def test_bad_interpolation_rejected(self):
        with pytest.raises(TrackingError):
            track_streamline(
                uniform_x_field(), [1, 1, 1], [1, 0, 0],
                TerminationCriteria(), interpolation="cubic",
            )


class TestBatchTracker:
    def make_setup(self, shape=(16, 8, 8)):
        field = uniform_x_field(shape)
        crit = TerminationCriteria(max_steps=200, min_dot=0.8, step_length=0.5)
        return field, crit

    def test_matches_scalar_reference_uniform(self):
        field, crit = self.make_setup()
        seeds = np.array([[1.0, 3.0, 3.0], [2.0, 4.0, 5.0], [14.0, 2.0, 2.0]])
        headings = np.tile([1.0, 0.0, 0.0], (3, 1))
        tracker = BatchTracker(field, crit)
        state = tracker.run_to_completion(seeds, headings)
        for i in range(3):
            ref = track_streamline(field, seeds[i], headings[i], crit)
            assert state.steps[i] == ref.n_steps
            assert state.reason[i] == ref.reason
            np.testing.assert_allclose(state.positions[i], ref.end, atol=1e-9)

    def test_matches_scalar_reference_phantom(self):
        # Real phantom geometry with curvature and crossings.
        shape = (8, 30, 30)
        arc = arc_bundle(
            center=[4, 15, 6], radius_of_curvature=9.0, plane="yz", tube_radius=2.0
        )
        line_b = straight_bundle([4, 2, 12], [4, 28, 12], radius=1.5, weight=0.45)
        field = rasterize_bundles(shape, [arc, line_b], mask=np.ones(shape, bool))
        crit = TerminationCriteria(max_steps=300, min_dot=0.85, step_length=0.3)
        rng = np.random.default_rng(1)
        wm = np.argwhere(field.f[..., 0] > 0)
        seeds = wm[rng.choice(len(wm), size=20, replace=False)].astype(float)
        from repro.tracking import nearest_lookup as nl, initial_directions as idirs

        f, d = nl(field, seeds)
        headings = idirs(f, d)
        tracker = BatchTracker(field, crit)
        state = tracker.run_to_completion(seeds, headings)
        for i in range(len(seeds)):
            ref = track_streamline(field, seeds[i], headings[i], crit)
            assert state.steps[i] == ref.n_steps, f"seed {i}"
            assert state.reason[i] == ref.reason, f"seed {i}"
            np.testing.assert_allclose(state.positions[i], ref.end, atol=1e-8)

    def test_segment_bounding(self):
        field, crit = self.make_setup(shape=(64, 8, 8))
        seeds = np.array([[1.0, 4.0, 4.0]])
        headings = np.array([[1.0, 0.0, 0.0]])
        tracker = BatchTracker(field, crit)
        state = tracker.init_state(seeds, headings)
        executed = tracker.run_segment(state, 10)
        assert executed[0] == 10
        assert state.steps[0] == 10
        assert state.active[0]

    def test_segmented_equals_monolithic(self):
        field, crit = self.make_setup()
        rng = np.random.default_rng(2)
        seeds = rng.uniform(1, 6, size=(10, 3))
        seeds[:, 0] = rng.uniform(1, 14, size=10)
        headings = np.tile([1.0, 0.0, 0.0], (10, 1))
        tracker = BatchTracker(field, crit)

        mono = tracker.run_to_completion(seeds, headings)
        seg_state = tracker.init_state(seeds, headings)
        for n in [1, 2, 5, 10, 20, 50, 100, 200]:
            tracker.run_segment(seg_state, n)
        np.testing.assert_array_equal(seg_state.steps, mono.steps)
        np.testing.assert_array_equal(seg_state.reason, mono.reason)
        np.testing.assert_allclose(seg_state.positions, mono.positions, atol=1e-12)

    def test_executed_counts_stop_iteration(self):
        # A thread stopping at its k-th iteration executed k iterations.
        shape = (6, 4, 4)
        field = uniform_x_field(shape)
        crit = TerminationCriteria(max_steps=100, step_length=1.0)
        tracker = BatchTracker(field, crit)
        state = tracker.init_state(
            np.array([[4.0, 2.0, 2.0]]), np.array([[1.0, 0.0, 0.0]])
        )
        executed = tracker.run_segment(state, 50)
        # Steps: 4->5 ok (step 1), 5->6 out of bounds (iteration 2 stops).
        assert state.steps[0] == 1
        assert executed[0] == 2
        assert state.reason[0] == StopReason.OUT_OF_BOUNDS

    def test_compaction_preserves_origin(self):
        field, crit = self.make_setup()
        seeds = np.array([[14.5, 4.0, 4.0], [1.0, 4.0, 4.0]])  # first dies fast
        headings = np.tile([1.0, 0.0, 0.0], (2, 1))
        tracker = BatchTracker(field, crit)
        state = tracker.init_state(seeds, headings)
        tracker.run_segment(state, 5)
        assert not state.active[0] and state.active[1]
        compacted = state.compact()
        assert compacted.n_threads == 1
        assert compacted.origin[0] == 1

    def test_dead_seed_starts_terminated(self):
        field, crit = self.make_setup()
        tracker = BatchTracker(field, crit)
        state = tracker.init_state(
            np.array([[1.0, 3.0, 3.0]]), np.array([[0.0, 0.0, 0.0]])
        )
        assert state.reason[0] == StopReason.NO_DIRECTION
        assert state.n_active == 0

    def test_visit_callback_receives_moves(self):
        field, crit = self.make_setup()
        tracker = BatchTracker(field, crit)
        state = tracker.init_state(
            np.array([[1.0, 3.0, 3.0]]), np.array([[1.0, 0.0, 0.0]])
        )
        visits = []
        tracker.run_segment(state, 4, lambda s, o, v: visits.append((o.copy(), v.copy())))
        # Visits are batched per segment (the modeled readback granularity),
        # one entry per executed move regardless of callback cadence.
        origins = np.concatenate([o for o, _ in visits])
        voxels = np.concatenate([v for _, v in visits])
        assert origins.shape == voxels.shape == (4,)
        assert np.all(origins == 0)
        assert np.all((voxels >= 0) & (voxels < 16 * 8 * 8))

    def test_validation(self):
        field, crit = self.make_setup()
        with pytest.raises(TrackingError):
            BatchTracker(field, crit, interpolation="spline")
        tracker = BatchTracker(field, crit)
        with pytest.raises(TrackingError):
            tracker.init_state(np.zeros((2, 3)), np.zeros((3, 3)))
        state = tracker.init_state(np.ones((1, 3)), np.ones((1, 3)))
        with pytest.raises(TrackingError):
            tracker.run_segment(state, -1)

    def test_payload_sizes(self):
        field, crit = self.make_setup()
        tracker = BatchTracker(field, crit)
        state = tracker.init_state(np.ones((10, 3)), np.ones((10, 3)))
        assert state.payload_bytes_down() == 280
        assert state.payload_bytes_up() == 320
