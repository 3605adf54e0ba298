"""Integration tests for the CLI: phantom -> bedpost -> track."""

import json

import numpy as np
import pytest

from repro.cli import bedpost_main, phantom_main, track_main
from repro.io import read_nifti, read_trk


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


class TestPhantomCommand:
    def test_generates_acquisition(self, workdir):
        rc = phantom_main(
            [
                str(workdir / "data"),
                "--dataset", "dataset1",
                "--scale", "0.15",
                "--snr", "40",
                "--directions", "24",
            ]
        )
        assert rc == 0
        dwi = read_nifti(workdir / "data" / "dwi.nii.gz")
        assert dwi.data.ndim == 4
        assert dwi.data.shape[-1] == 28  # 24 directions + 4 b0
        meta = json.loads((workdir / "data" / "phantom.json").read_text())
        assert meta["dataset"] == "dataset1"
        assert (workdir / "data" / "bvals").exists()
        assert (workdir / "data" / "bvecs").exists()
        mask = read_nifti(workdir / "data" / "wm_mask.nii.gz")
        assert mask.data.sum() == meta["n_wm_voxels"]

    def test_voxel_sizes_scale(self, workdir):
        phantom_main(
            [str(workdir / "d2"), "--dataset", "dataset2", "--scale", "0.1"]
        )
        dwi = read_nifti(workdir / "d2" / "dwi.nii.gz")
        # dataset2 is 2.0 mm at scale 1.0 -> 20 mm at scale 0.1.
        np.testing.assert_allclose(dwi.voxel_sizes, 20.0, rtol=1e-5)


class TestBedpostCommand:
    def test_fits_and_writes(self, workdir):
        rc = bedpost_main(
            [
                str(workdir / "data"),
                "--burnin", "60",
                "--samples", "4",
                "--interval", "1",
            ]
        )
        assert rc == 0
        blob = np.load(workdir / "data" / "bedpost" / "samples.npz")
        assert blob["samples"].shape[0] == 4
        assert blob["samples"].shape[2] == 9
        assert int(blob["n_fibers"]) == 2
        f1 = read_nifti(workdir / "data" / "bedpost" / "mean_f1.nii.gz")
        assert float(f1.data.max()) > 0.2

    def test_rician_option(self, workdir):
        rc = bedpost_main(
            [
                str(workdir / "data"),
                "--output-dir", str(workdir / "bp_rician"),
                "--burnin", "20",
                "--samples", "2",
                "--interval", "1",
                "--noise-model", "rician",
            ]
        )
        assert rc == 0
        assert (workdir / "bp_rician" / "samples.npz").exists()

    def test_inject_fault_recovers_bit_identical(self, workdir, capsys):
        """``--inject-fault crash:0`` exits 0, reports the recovery, and
        writes posterior samples identical to the clean run."""
        common = [
            str(workdir / "data"),
            "--burnin", "20",
            "--samples", "2",
            "--interval", "1",
            "--set", "sampling.block_voxels=40",
        ]
        rc = bedpost_main(common + ["--output-dir", str(workdir / "bp_clean")])
        assert rc == 0
        rc = bedpost_main(
            common
            + [
                "--output-dir", str(workdir / "bp_fault"),
                "--workers", "2",
                "--inject-fault", "crash:0",
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "fault tolerance:" in printed
        assert "1 crash" in printed and "1 retries" in printed
        clean = np.load(workdir / "bp_clean" / "samples.npz")
        faulted = np.load(workdir / "bp_fault" / "samples.npz")
        assert np.array_equal(clean["samples"], faulted["samples"])


class TestTrackCommand:
    def test_tracks_and_exports(self, workdir):
        rc = track_main(
            [
                str(workdir / "data" / "bedpost"),
                "--step", "0.4",
                "--threshold", "0.7",
                "--max-steps", "100",
                "--strategy", "a20",
                "--min-export-steps", "5",
            ]
        )
        assert rc == 0
        out = workdir / "data" / "bedpost" / "track"
        density = read_nifti(out / "density.nii.gz")
        assert float(density.data.sum()) > 0
        lengths = np.loadtxt(out / "lengths.txt")
        assert lengths.ndim in (1, 2)
        lines, meta = read_trk(out / "fibers.trk")
        assert meta["n_count"] == len(lines)

    def test_bidirectional_flag(self, workdir):
        rc = track_main(
            [
                str(workdir / "data" / "bedpost"),
                "--output-dir", str(workdir / "track_bi"),
                "--step", "0.4",
                "--threshold", "0.7",
                "--max-steps", "60",
                "--strategy", "b",
                "--bidirectional",
                "--min-export-steps", "3",
            ]
        )
        assert rc == 0
        uni = np.loadtxt(workdir / "data" / "bedpost" / "track" / "lengths.txt")
        bi = np.loadtxt(workdir / "track_bi" / "lengths.txt")
        n_uni = uni.shape[-1] if uni.ndim > 1 else uni.shape[0]
        n_bi = bi.shape[-1] if bi.ndim > 1 else bi.shape[0]
        assert n_bi == 2 * n_uni

    def test_inject_fault_recovers_bit_identical(self, workdir, capsys):
        """``--inject-fault crash:0`` exits 0, reports the recovery, and
        produces output identical to the clean run."""
        rc = track_main(
            [
                str(workdir / "data" / "bedpost"),
                "--output-dir", str(workdir / "track_fault"),
                "--step", "0.4",
                "--threshold", "0.7",
                "--max-steps", "100",
                "--strategy", "a20",
                "--min-export-steps", "5",
                "--workers", "2",
                "--inject-fault", "crash:0",
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "fault tolerance:" in printed
        assert "1 crash" in printed and "1 retries" in printed
        clean = np.loadtxt(workdir / "data" / "bedpost" / "track" / "lengths.txt")
        faulted = np.loadtxt(workdir / "track_fault" / "lengths.txt")
        assert np.array_equal(clean, faulted)
        d_clean = read_nifti(
            workdir / "data" / "bedpost" / "track" / "density.nii.gz"
        )
        d_faulted = read_nifti(workdir / "track_fault" / "density.nii.gz")
        assert np.array_equal(d_clean.data, d_faulted.data)

    def test_metrics_out_manifest(self, workdir):
        """``--metrics-out`` writes a valid manifest whose deterministic
        section is bit-identical between serial and 4-worker runs."""
        from repro.telemetry import deterministic_sections, load_manifest

        docs = {}
        for n_workers in (1, 4):
            out = workdir / f"track_m{n_workers}"
            rc = track_main(
                [
                    str(workdir / "data" / "bedpost"),
                    "--output-dir", str(out),
                    "--step", "0.4",
                    "--threshold", "0.7",
                    "--max-steps", "100",
                    "--strategy", "a20",
                    "--min-export-steps", "5",
                    "--workers", str(n_workers),
                    "--metrics-out", str(out / "run.json"),
                ]
            )
            assert rc == 0
            docs[n_workers] = load_manifest(out / "run.json")
        for doc in docs.values():
            assert doc["meta"]["command"] == "repro-track"
            assert doc["counters"]["tracking.steps"] > 0
            assert doc["timers"], "stage timers recorded"
        assert json.dumps(
            deterministic_sections(docs[1]), sort_keys=True
        ) == json.dumps(deterministic_sections(docs[4]), sort_keys=True)
        assert docs[4]["ops"]["runtime.shard_attempts"] >= 1

    def test_trace_out_includes_measured_spans(self, workdir):
        rc = track_main(
            [
                str(workdir / "data" / "bedpost"),
                "--output-dir", str(workdir / "track_tr"),
                "--step", "0.4",
                "--threshold", "0.7",
                "--max-steps", "100",
                "--strategy", "a20",
                "--min-export-steps", "5",
                "--workers", "2",
                "--trace-out", str(workdir / "track_tr" / "trace.json"),
            ]
        )
        assert rc == 0
        doc = json.loads((workdir / "track_tr" / "trace.json").read_text())
        rows = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert {"device", "host", "measured:main"} <= rows
        assert any(r.startswith("measured:worker") for r in rows)
        measured = {
            e["name"] for e in doc["traceEvents"] if e.get("cat") == "measured"
        }
        assert "probtrack.track" in measured
        assert "tracking.segment" in measured

    def test_workers_flag_bit_identical(self, workdir):
        rc = track_main(
            [
                str(workdir / "data" / "bedpost"),
                "--output-dir", str(workdir / "track_par"),
                "--step", "0.4",
                "--threshold", "0.7",
                "--max-steps", "100",
                "--strategy", "a20",
                "--min-export-steps", "5",
                "--workers", "2",
            ]
        )
        assert rc == 0
        serial = np.loadtxt(workdir / "data" / "bedpost" / "track" / "lengths.txt")
        par = np.loadtxt(workdir / "track_par" / "lengths.txt")
        assert np.array_equal(serial, par)
        d_serial = read_nifti(
            workdir / "data" / "bedpost" / "track" / "density.nii.gz"
        )
        d_par = read_nifti(workdir / "track_par" / "density.nii.gz")
        assert np.array_equal(d_serial.data, d_par.data)

    def test_trk_export_follows_interpolation(self, workdir):
        """``fibers.trk`` is tracked with the configured interpolation:
        with ``nearest`` every exported line has the sample-0 length the
        engine recorded for its seed."""
        out = workdir / "track_nearest"
        rc = track_main(
            [
                str(workdir / "data" / "bedpost"),
                "--output-dir", str(out),
                "--step", "0.4",
                "--threshold", "0.7",
                "--max-steps", "60",
                "--min-export-steps", "0",
                "--set", "tracking.interpolation=nearest",
            ]
        )
        assert rc == 0
        lengths = np.loadtxt(out / "lengths.txt", dtype=np.int64, ndmin=2)
        lines, _ = read_trk(out / "fibers.trk")
        assert [len(pts) - 1 for pts in lines] == lengths[0].tolist()
