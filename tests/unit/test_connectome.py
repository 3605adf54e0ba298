"""Unit tests for the connectome stage's building blocks.

Atlas construction, endpoint counting, graph export, and the spec
section — each testable without running the MCMC or the tracker.
"""

import numpy as np
import pytest

from repro.config import ConnectomeSpec, RunSpec
from repro.connectome import build_atlas, connectome_graph, endpoint_connectome
from repro.errors import ConfigurationError


def _pairs(*lines):
    """``(starts, ends, n_steps)`` arrays from ``(start, end, steps)`` rows."""
    starts = np.array([line[0] for line in lines], dtype=np.float64)
    ends = np.array([line[1] for line in lines], dtype=np.float64)
    return starts.reshape(-1, 3), ends.reshape(-1, 3), [line[2] for line in lines]


class TestBuildAtlas:
    def test_octant_labels_and_sizes(self):
        atlas = build_atlas("octant", (4, 4, 4))
        assert atlas.n_rois == 8
        assert atlas.labels.dtype == np.int32
        assert atlas.labels.shape == (4, 4, 4)
        # Full coverage, 8 equal octants of 2x2x2 voxels.
        np.testing.assert_array_equal(atlas.roi_sizes(), np.full(8, 8))
        assert atlas.labels[0, 0, 0] == 0
        assert atlas.labels[3, 3, 3] == 7

    def test_slabs_partition_x_axis(self):
        atlas = build_atlas("slabs3", (6, 2, 2))
        assert atlas.n_rois == 3
        assert set(np.unique(atlas.labels)) == {0, 1, 2}
        # Slabs vary only along x.
        assert np.all(atlas.labels[0] == 0)
        assert np.all(atlas.labels[5] == 2)
        assert np.all(atlas.labels == atlas.labels[:, :1, :1])

    def test_grid_k_cubed(self):
        atlas = build_atlas("grid2", (4, 6, 8))
        assert atlas.n_rois == 8
        assert atlas.roi_sizes().sum() == 4 * 6 * 8

    def test_uneven_extents_still_cover(self):
        atlas = build_atlas("slabs3", (7, 1, 1))
        assert atlas.roi_sizes().sum() == 7
        assert atlas.roi_sizes().min() >= 2

    def test_determinism(self):
        a = build_atlas("grid3", (9, 9, 9))
        b = build_atlas("grid3", (9, 9, 9))
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize(
        "name", ["none", "bogus", "slabs0", "grid0", "slabs", "octants"]
    )
    def test_bad_names_raise(self, name):
        with pytest.raises(ConfigurationError):
            build_atlas(name, (4, 4, 4))

    def test_finer_than_grid_raises(self):
        with pytest.raises(ConfigurationError, match="needs at least"):
            build_atlas("grid4", (3, 8, 8))

    def test_bad_shape_raises(self):
        with pytest.raises(ConfigurationError):
            build_atlas("octant", (4, 4))
        with pytest.raises(ConfigurationError):
            build_atlas("octant", (4, 0, 4))


class TestLabelAt:
    def test_rounds_half_up_and_clips(self):
        atlas = build_atlas("slabs4", (4, 1, 1))
        pts = np.array(
            [
                [0.0, 0.0, 0.0],
                [0.49, 0.0, 0.0],
                [0.5, 0.0, 0.0],   # rounds up to voxel 1
                [3.4, 0.0, 0.0],
                [-2.0, 0.0, 0.0],  # clipped to voxel 0
                [9.0, 0.0, 0.0],   # clipped to voxel 3
            ]
        )
        np.testing.assert_array_equal(
            atlas.label_at(pts), [0, 0, 1, 3, 0, 3]
        )

    def test_bad_points_shape_raises(self):
        atlas = build_atlas("octant", (4, 4, 4))
        with pytest.raises(ConfigurationError):
            atlas.label_at(np.zeros((3, 2)))


class TestEndpointConnectome:
    def test_symmetric_counts_and_diagonal_once(self):
        atlas = build_atlas("slabs2", (4, 1, 1))
        lines = _pairs(
            ([0, 0, 0], [3, 0, 0], 1),  # ROI 0 -> ROI 1
            ([3, 0, 0], [0, 0, 0], 1),  # ROI 1 -> ROI 0 (same edge)
            ([0, 0, 0], [1, 0, 0], 1),  # ROI 0 self-loop
        )
        counts, n = endpoint_connectome(*lines, atlas)
        assert n == 3
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, [[1, 2], [2, 0]])
        np.testing.assert_array_equal(counts, counts.T)
        # The matrix invariant: upper triangle sums to n_counted.
        assert int(np.triu(counts).sum()) == n

    def test_min_steps_filters(self):
        atlas = build_atlas("slabs2", (4, 1, 1))
        lines = _pairs(
            ([0, 0, 0], [3, 0, 0], 1),  # short
            ([0, 0, 0], [3, 0, 0], 3),  # long
        )
        counts, n = endpoint_connectome(*lines, atlas, min_steps=2)
        assert n == 1
        assert counts.sum() == 2  # one off-diagonal pair, both triangles

    def test_negative_min_steps_raises(self):
        atlas = build_atlas("octant", (4, 4, 4))
        with pytest.raises(ConfigurationError):
            endpoint_connectome(*_pairs(), atlas, min_steps=-1)

    def test_empty_input(self):
        atlas = build_atlas("octant", (4, 4, 4))
        counts, n = endpoint_connectome(*_pairs(), atlas)
        assert n == 0
        assert counts.sum() == 0


class TestConnectomeGraph:
    def _fixture(self):
        atlas = build_atlas("slabs2", (4, 1, 1))
        counts = np.array([[1, 2], [2, 0]], dtype=np.int64)
        return atlas, counts

    def test_count_weights(self):
        atlas, counts = self._fixture()
        g = connectome_graph(counts, atlas, normalize="count", n_streamlines=3)
        assert g["atlas"] == "slabs2"
        assert g["n_rois"] == 2
        assert g["n_streamlines"] == 3
        assert [n["n_voxels"] for n in g["nodes"]] == [2, 2]
        # Upper triangle only, zero edges dropped.
        assert g["edges"] == [
            {"source": 0, "target": 0, "count": 1, "weight": 1},
            {"source": 0, "target": 1, "count": 2, "weight": 2},
        ]

    def test_fraction_weights(self):
        atlas, counts = self._fixture()
        g = connectome_graph(
            counts, atlas, normalize="fraction", n_streamlines=3
        )
        weights = [e["weight"] for e in g["edges"]]
        assert weights == pytest.approx([1 / 3, 2 / 3])

    def test_total_defaults_to_upper_triangle(self):
        atlas, counts = self._fixture()
        g = connectome_graph(counts, atlas)
        assert g["n_streamlines"] == 3

    def test_json_safe_and_stable(self):
        import json

        atlas, counts = self._fixture()
        g = connectome_graph(counts, atlas)
        assert json.dumps(g, sort_keys=True) == json.dumps(g, sort_keys=True)

    def test_bad_normalize_raises(self):
        atlas, counts = self._fixture()
        with pytest.raises(ConfigurationError):
            connectome_graph(counts, atlas, normalize="zscore")

    def test_shape_mismatch_raises(self):
        atlas, _ = self._fixture()
        with pytest.raises(ConfigurationError):
            connectome_graph(np.zeros((3, 3)), atlas)


class TestConnectomeSpec:
    def test_defaults_disable_the_stage(self):
        spec = RunSpec()
        assert spec.connectome.atlas == "none"
        assert spec.connectome.min_steps == 0
        assert spec.connectome.normalize == "count"

    @pytest.mark.parametrize(
        "atlas", ["none", "octant", "slabs4", "grid2", "grid10"]
    )
    def test_valid_atlas_names(self, atlas):
        assert ConnectomeSpec(atlas=atlas).atlas == atlas

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"atlas": "bogus"},
            {"atlas": "slabs0"},
            {"atlas": "grid"},
            {"min_steps": -1},
            {"normalize": "zscore"},
        ],
    )
    def test_invalid_fields_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            ConnectomeSpec(**kwargs)

    def test_round_trips_through_dict(self):
        spec = RunSpec.from_dict(
            {"connectome": {"atlas": "grid2", "min_steps": 5}}
        )
        doc = spec.to_dict()
        assert doc["connectome"]["atlas"] == "grid2"
        assert doc["connectome"]["min_steps"] == 5
        assert RunSpec.from_dict(doc) == spec

    def test_dotted_override(self):
        spec = RunSpec().with_overrides(
            {"connectome.atlas": "octant", "connectome.min_steps": 3}
        )
        assert spec.connectome.atlas == "octant"
        assert spec.connectome.min_steps == 3

