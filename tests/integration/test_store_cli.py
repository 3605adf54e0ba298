"""End-to-end ``--store`` behavior of the CLIs.

Cold/warm runs of ``repro-bedpost`` and ``repro-track`` through one
artifact store: the warm run announces the hit, writes byte/array-
identical outputs, and its manifest's deterministic sections match the
cold run's exactly, while the operational ``cache`` section records the
hit.  ``--no-cache`` forces recompute; ``--replay`` + the embedded
``telemetry.store`` gives partial stage reuse; ``repro-connectome`` and
``repro-track --connectome`` serve each other's entries.
"""

import json

import numpy as np
import pytest

from repro.cli.bedpost_cmd import main as bedpost_main
from repro.cli.connectome_cmd import main as connectome_main
from repro.cli.phantom_cmd import main as phantom_main
from repro.cli.track_cmd import main as track_main
from repro.io import read_nifti
from repro.telemetry import deterministic_sections, load_manifest


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A tiny phantom acquisition shared by the whole module."""
    root = tmp_path_factory.mktemp("store-cli")
    data = root / "data"
    phantom_main([str(data), "--scale", "0.2", "--directions", "9"])
    return data


def det_blob(manifest_path):
    return json.dumps(
        deterministic_sections(load_manifest(manifest_path)), sort_keys=True
    )


class TestBedpostStore:
    def test_cold_then_warm(self, data_dir, tmp_path, capsys):
        store = tmp_path / "store"
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        base = [str(data_dir), "--burnin", "40", "--samples", "4",
                "--store", str(store)]

        assert bedpost_main(base + ["--output-dir", str(out1),
                                    "--metrics-out", str(m1)]) == 0
        cold_out = capsys.readouterr().out
        assert "served from store" not in cold_out

        assert bedpost_main(base + ["--output-dir", str(out2),
                                    "--metrics-out", str(m2)]) == 0
        warm_out = capsys.readouterr().out
        assert "served from store" in warm_out

        # The CLI outputs are identical in content...
        a = np.load(out1 / "samples.npz")
        b = np.load(out2 / "samples.npz")
        assert sorted(a.files) == sorted(b.files)
        for name in a.files:
            np.testing.assert_array_equal(a[name], b[name])
        np.testing.assert_array_equal(
            read_nifti(out1 / "mean_f1.nii.gz").data,
            read_nifti(out2 / "mean_f1.nii.gz").data,
        )
        # ...the deterministic manifest sections bit-identical...
        assert det_blob(m1) == det_blob(m2)
        # ...and the operational cache section tells the two runs apart.
        c1, c2 = load_manifest(m1)["cache"], load_manifest(m2)["cache"]
        assert c1["sampling_hit"] is False and c2["sampling_hit"] is True
        assert c1["stage_keys"]["sampling"] == c2["stage_keys"]["sampling"]
        assert c1["writes"] == 1 and c2["hits"] == 1

    def test_no_cache_recomputes(self, data_dir, tmp_path, capsys):
        store = tmp_path / "store"
        base = [str(data_dir), "--burnin", "40", "--samples", "4",
                "--store", str(store)]
        m = tmp_path / "m.json"
        assert bedpost_main(base + ["--output-dir", str(tmp_path / "b1")]) == 0
        assert bedpost_main(base + ["--no-cache",
                                    "--output-dir", str(tmp_path / "b2"),
                                    "--metrics-out", str(m)]) == 0
        assert "served from store" not in capsys.readouterr().out
        cache = load_manifest(m)["cache"]
        assert cache["sampling_hit"] is False
        # The recompute re-published: the existing valid entry was kept
        # (race-loser semantics), so no miss and no fresh write counted.
        assert cache["misses"] == 0 and cache["hits"] == 0

    def test_seed_edit_misses(self, data_dir, tmp_path, capsys):
        store = tmp_path / "store"
        base = [str(data_dir), "--burnin", "40", "--samples", "4",
                "--store", str(store)]
        assert bedpost_main(base + ["--output-dir", str(tmp_path / "b1")]) == 0
        m = tmp_path / "m.json"
        assert bedpost_main(base + ["--seed", "3",
                                    "--output-dir", str(tmp_path / "b2"),
                                    "--metrics-out", str(m)]) == 0
        assert load_manifest(m)["cache"]["sampling_hit"] is False


@pytest.fixture(scope="module")
def bedpost_dir(data_dir):
    bedpost_main([str(data_dir), "--burnin", "40", "--samples", "4"])
    return data_dir / "bedpost"


class TestTrackStore:
    def _run(self, bedpost_dir, out, store, extra):
        args = [str(bedpost_dir), "--output-dir", str(out),
                "--max-steps", "150", "--store", str(store)] + extra
        assert track_main(args) == 0

    def test_cold_then_warm(self, bedpost_dir, tmp_path, capsys):
        store = tmp_path / "store"
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        t1, t2 = tmp_path / "t1", tmp_path / "t2"

        self._run(bedpost_dir, t1, store, ["--metrics-out", str(m1)])
        assert "served from store" not in capsys.readouterr().out
        self._run(bedpost_dir, t2, store, ["--metrics-out", str(m2)])
        assert "served from store" in capsys.readouterr().out

        # Every tracking output byte/array-identical between the runs.
        assert (t1 / "lengths.txt").read_bytes() == (
            t2 / "lengths.txt"
        ).read_bytes()
        assert (t1 / "fibers.trk").read_bytes() == (
            t2 / "fibers.trk"
        ).read_bytes()
        np.testing.assert_array_equal(
            read_nifti(t1 / "density.nii.gz").data,
            read_nifti(t2 / "density.nii.gz").data,
        )
        assert det_blob(m1) == det_blob(m2)
        c1, c2 = load_manifest(m1)["cache"], load_manifest(m2)["cache"]
        assert c1["tracking_hit"] is False and c2["tracking_hit"] is True
        assert c1["stage_keys"]["tracking"] == c2["stage_keys"]["tracking"]

    def test_no_cache_recomputes(self, bedpost_dir, tmp_path, capsys):
        store = tmp_path / "store"
        m = tmp_path / "m.json"
        self._run(bedpost_dir, tmp_path / "t1", store, [])
        self._run(
            bedpost_dir, tmp_path / "t2", store,
            ["--no-cache", "--metrics-out", str(m)],
        )
        assert "served from store" not in capsys.readouterr().out
        assert load_manifest(m)["cache"]["tracking_hit"] is False

    def test_replay_partial_stage_reuse(self, bedpost_dir, tmp_path, capsys):
        store = tmp_path / "store"
        m1, m2, m3 = (tmp_path / f"m{i}.json" for i in (1, 2, 3))
        self._run(bedpost_dir, tmp_path / "t1", store,
                  ["--metrics-out", str(m1)])
        capsys.readouterr()

        # --replay resolves the embedded config — telemetry.store
        # included — so the replayed run reuses the published stage.
        assert track_main([
            "--replay", str(m1),
            "--output-dir", str(tmp_path / "t2"),
            "--metrics-out", str(m2),
        ]) == 0
        assert "served from store" in capsys.readouterr().out
        assert load_manifest(m2)["cache"]["tracking_hit"] is True
        assert det_blob(m1) == det_blob(m2)

        # A replayed run with a tracking edit keys a new artifact.
        assert track_main([
            "--replay", str(m1),
            "--set", "tracking.max_steps=60",
            "--output-dir", str(tmp_path / "t3"),
            "--metrics-out", str(m3),
        ]) == 0
        cache = load_manifest(m3)["cache"]
        assert cache["tracking_hit"] is False
        assert (
            cache["stage_keys"]["tracking"]
            != load_manifest(m1)["cache"]["stage_keys"]["tracking"]
        )

    def test_manifest_without_store_has_no_cache_section(
        self, bedpost_dir, tmp_path
    ):
        m = tmp_path / "m.json"
        assert track_main([
            str(bedpost_dir), "--output-dir", str(tmp_path / "t1"),
            "--max-steps", "150", "--metrics-out", str(m),
        ]) == 0
        assert "cache" not in load_manifest(m)


class TestConnectomeStore:
    def test_shares_entries_with_track(self, bedpost_dir, tmp_path, capsys):
        store = tmp_path / "store"
        t, c1, c2 = tmp_path / "t", tmp_path / "c1", tmp_path / "c2"
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        common = ["--max-steps", "150", "--store", str(store)]
        assert track_main([str(bedpost_dir), "--output-dir", str(t),
                           "--connectome", "octant"] + common) == 0
        capsys.readouterr()

        # Stage 2 and stage 3 both come from repro-track's entries.
        assert connectome_main([
            str(bedpost_dir), "--output-dir", str(c1), "--atlas", "octant",
            "--set", "tracking.max_steps=150", "--store", str(store),
            "--metrics-out", str(m1),
        ]) == 0
        assert "served from store" in capsys.readouterr().out
        cache = load_manifest(m1)["cache"]
        assert cache["tracking_hit"] is True
        assert cache["connectome_hit"] is True
        for name in ("graph.json", "fibers.trk"):
            assert (c1 / name).read_bytes() == (t / name).read_bytes()

        # An atlas sweep reuses the tracked run and refolds the matrix.
        assert connectome_main([
            str(bedpost_dir), "--output-dir", str(c2), "--atlas", "slabs2",
            "--set", "tracking.max_steps=150", "--store", str(store),
            "--metrics-out", str(m2),
        ]) == 0
        cache = load_manifest(m2)["cache"]
        assert cache["tracking_hit"] is True
        assert cache["connectome_hit"] is False
        graph = json.loads((c2 / "graph.json").read_text())
        assert graph["atlas"] == "slabs2"
        assert graph["n_streamlines"] == json.loads(
            (c1 / "graph.json").read_text()
        )["n_streamlines"]
