"""One stage, one key, one store entry — whichever entry point runs it.

* **CLI and workflow share entries.**  The command line chain
  (``repro-phantom`` -> ``repro-bedpost`` -> ``repro-track --connectome
  octant``) and :func:`~repro.pipeline.workflow.run_workflow` over the
  same files, with the same sampling and tracking sections, publish
  exactly one entry per stage into a shared store, in either order;
  whichever side runs second hits on every stage, and the CLI files
  come out the same, byte for byte, either way.  The ``.trk`` export
  floor (``telemetry.min_export_steps``) keys no stage: the workflow
  runs without the CLI's value, and an export edit is a tracking hit.
* **The archive carries its sampling section.**  ``repro-track`` takes
  its ``sampling`` section from ``samples.npz``, records it in its
  manifest and prints it with ``--print-config``; a layer that asks for
  a different sampling value is a parser error.
* **Reproducible entries.**  One spec run cold into two stores writes
  byte-identical trees for all three stages, also when one run
  recovers from a crashed shard: no measured figure is stored.  A
  sorted, overlapped run writes the same tracking entry at one and at
  two workers.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli.bedpost_cmd import main as bedpost_main
from repro.cli.connectome_cmd import main as connectome_main
from repro.cli.phantom_cmd import main as phantom_main
from repro.cli.track_cmd import main as track_main
from repro.config import RunSpec
from repro.io import read_bvals_bvecs, read_nifti
from repro.pipeline import run_workflow
from repro.store import ArtifactStore
from repro.telemetry import (
    MetricsRegistry,
    load_manifest,
    manifest_config,
    use_registry,
)

STAGES = ("sampling", "tracking", "connectome")
BURNIN, SAMPLES, MAX_STEPS, MIN_EXPORT = 20, 3, 150, 5
#: The sections both entry points run with (the CLI adds its export
#: floor, which keys no stage).
DOC = {
    "sampling": {"n_burnin": BURNIN, "n_samples": SAMPLES},
    "tracking": {"max_steps": MAX_STEPS},
    "connectome": {"atlas": "octant"},
}
CLI_OUTPUTS = ("fibers.trk", "lengths.txt", "density.nii.gz", "graph.json")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    data = tmp_path_factory.mktemp("entries") / "data"
    phantom_main([str(data), "--scale", "0.2", "--directions", "9"])
    return data


def run_cli(data_dir: Path, root: Path, store: Path) -> Path:
    """The command line chain into ``store``; returns the track dir."""
    bedpost = root / "bedpost"
    assert bedpost_main([
        str(data_dir), "--burnin", str(BURNIN), "--samples", str(SAMPLES),
        "--store", str(store), "--output-dir", str(bedpost),
        "--metrics-out", str(root / "bedpost.json"),
    ]) == 0
    assert track_main([
        str(bedpost), "--max-steps", str(MAX_STEPS),
        "--min-export-steps", str(MIN_EXPORT), "--connectome", "octant",
        "--store", str(store), "--output-dir", str(root / "track"),
        "--metrics-out", str(root / "track.json"),
    ]) == 0
    return root / "track"


def run_files_workflow(data_dir: Path, store: Path, **sections):
    """``run_workflow`` over the files ``repro-bedpost`` reads;
    ``sections`` replace whole sections of :data:`DOC`."""
    acquisition = SimpleNamespace(
        dwi=read_nifti(data_dir / "dwi.nii.gz"),
        gtab=read_bvals_bvecs(data_dir / "bvals", data_dir / "bvecs"),
        mask=read_nifti(data_dir / "wm_mask.nii.gz").data.astype(bool),
    )
    doc = dict(DOC, telemetry={"store": str(store)}, **sections)
    with use_registry(MetricsRegistry()):
        return run_workflow(acquisition, spec=RunSpec.from_dict(doc))


def entries(store: Path) -> dict[str, list[str]]:
    return {
        stage: sorted(p.name for p in (store / stage).iterdir())
        for stage in STAGES
    }


def cli_hits(root: Path) -> dict[str, bool]:
    bedpost = load_manifest(root / "bedpost.json")["cache"]
    track = load_manifest(root / "track.json")["cache"]
    return {s: (bedpost if s == "sampling" else track)[f"{s}_hit"] for s in STAGES}


def assert_one_entry_per_stage(store: Path, wr) -> None:
    """The store holds exactly the workflow's entry under each stage."""
    assert entries(store) == {
        stage: [key.split(":")[1]] for stage, key in wr.cache["stage_keys"].items()
    }


@pytest.fixture(scope="module")
def cli_first(data_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-first")
    store = root / "store"
    track_dir = run_cli(data_dir, root, store)
    return root, store, track_dir, run_files_workflow(data_dir, store)


@pytest.fixture(scope="module")
def workflow_first(data_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("workflow-first")
    store = root / "store"
    wr = run_files_workflow(data_dir, store)
    return root, store, run_cli(data_dir, root, store), wr


class TestCliAndWorkflowShareEntries:
    def test_cli_first_then_workflow_hits_every_stage(self, cli_first):
        root, store, _track, wr = cli_first
        assert not any(cli_hits(root).values())
        assert all(wr.cache[f"{s}_hit"] for s in STAGES)
        assert_one_entry_per_stage(store, wr)

    def test_workflow_first_then_cli_hits_every_stage(self, workflow_first):
        root, store, _track, wr = workflow_first
        assert not any(wr.cache[f"{s}_hit"] for s in STAGES)
        assert all(cli_hits(root).values())
        assert_one_entry_per_stage(store, wr)

    def test_cli_files_do_not_depend_on_the_order(self, cli_first, workflow_first):
        a, b = cli_first[2], workflow_first[2]
        for name in CLI_OUTPUTS:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert json.loads((a / "graph.json").read_text())["n_streamlines"] > 0
        # A hit on a workflow-made entry still exports its lines.
        assert (b / "fibers.trk").stat().st_size > 1000

    def test_cli_keys_are_the_workflows(self, cli_first):
        root, _store, _track, wr = cli_first
        keys = dict(load_manifest(root / "bedpost.json")["cache"]["stage_keys"])
        keys.update(load_manifest(root / "track.json")["cache"]["stage_keys"])
        assert keys == wr.cache["stage_keys"]

    def test_cli_files_are_the_entry_payloads(self, cli_first):
        root, store, track_dir, wr = cli_first
        entry = ArtifactStore(store).entry_dir
        keys = wr.cache["stage_keys"]
        pairs = [(root / "bedpost", entry("sampling", keys["sampling"]), "samples.npz")]
        pairs += [
            (track_dir, entry("connectome", keys["connectome"]), name)
            for name in ("connectome.npz", "graph.json")
        ]
        for out_dir, entry_dir, name in pairs:
            assert (out_dir / name).read_bytes() == (entry_dir / name).read_bytes(), name

    def test_export_floor_edit_is_a_tracking_hit(self, workflow_first, tmp_path):
        root, store, track_dir, wr = workflow_first
        out = tmp_path / "floor"
        assert track_main([
            str(root / "bedpost"), "--max-steps", str(MAX_STEPS),
            "--min-export-steps", str(MAX_STEPS), "--store", str(store),
            "--output-dir", str(out), "--metrics-out", str(tmp_path / "m.json"),
        ]) == 0
        cache = load_manifest(tmp_path / "m.json")["cache"]
        assert cache["tracking_hit"]
        assert cache["stage_keys"]["tracking"] == wr.cache["stage_keys"]["tracking"]
        assert (out / "lengths.txt").read_bytes() == (
            track_dir / "lengths.txt"
        ).read_bytes()
        assert (out / "fibers.trk").read_bytes() != (
            track_dir / "fibers.trk"
        ).read_bytes()


class TestArchiveSamplingSection:
    def test_manifest_records_the_archives_sampling(self, cli_first):
        root = cli_first[0]
        doc = load_manifest(root / "track.json")
        sampling = manifest_config(doc).sampling
        assert (sampling.n_burnin, sampling.n_samples) == (BURNIN, SAMPLES)
        assert doc["meta"]["sampling_key"] == load_manifest(
            root / "bedpost.json"
        )["cache"]["stage_keys"]["sampling"]

    @pytest.mark.parametrize("main", [track_main, connectome_main])
    def test_conflicting_set_is_a_parser_error(self, cli_first, tmp_path, capsys, main):
        bedpost = cli_first[0] / "bedpost"
        args = [str(bedpost), "--output-dir", str(tmp_path / "out"),
                "--set", f"sampling.n_samples={SAMPLES + 1}"]
        if main is connectome_main:
            args += ["--atlas", "octant"]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert f"sampling.n_samples={SAMPLES + 1}" in err
        assert not (tmp_path / "out").exists()

    def test_conflicting_config_file_is_a_parser_error(self, cli_first, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"sampling": {"seed": 9}}))
        with pytest.raises(SystemExit):
            track_main([str(cli_first[0] / "bedpost"), "--config", str(cfg)])
        assert "sampling.seed=9" in capsys.readouterr().err

    @pytest.mark.parametrize("main", [track_main, connectome_main])
    def test_print_config_shows_the_archives_sampling(self, cli_first, capsys, main):
        assert main([str(cli_first[0] / "bedpost"), "--print-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["sampling"]["n_samples"] == SAMPLES
        # Without an archive the defaults print, as before.
        assert main(["--print-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["sampling"]["n_samples"] == RunSpec().sampling.n_samples

    def test_agreeing_sampling_value_is_accepted(self, cli_first, tmp_path):
        assert track_main([
            str(cli_first[0] / "bedpost"), "--output-dir", str(tmp_path / "t"),
            "--max-steps", "20", "--set", f"sampling.n_samples={SAMPLES}",
        ]) == 0


def store_tree(root: Path, stages=STAGES) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for stage in stages
        for p in sorted((root / stage).rglob("*"))
        if p.is_file()
    }


class TestReproducibleEntries:
    def test_two_cold_stores_hold_identical_bytes(self, data_dir, tmp_path):
        # The third store's run loses a shard to a crash and retries it:
        # the recovery stays with the live run, never in an entry.
        runtimes = {
            "a": {},
            "b": {},
            "faulted": {"n_workers": 2, "fault_plan": "crash:0"},
        }
        trees = []
        for name, runtime in runtimes.items():
            wr = run_files_workflow(data_dir, tmp_path / name, runtime=runtime)
            assert not any(wr.cache[f"{s}_hit"] for s in STAGES)
            trees.append(store_tree(tmp_path / name))
        assert wr.probtrack.run.supervision.n_retries == 1
        assert wr.probtrack.run.timeline.total("retry") > 0
        a = trees[0]
        assert {p.split("/")[0] for p in a} == set(STAGES)
        for b in trees[1:]:
            assert sorted(a) == sorted(b)
            differ = [p for p in a if a[p] != b[p]]
            assert differ == []

    def test_worker_count_writes_the_same_tracking_entry(self, data_dir, tmp_path):
        # The schedule is modeled once over the merged rows, so a
        # sharded run stores the one-worker timeline: its streams and
        # its whole-stack residency included.
        tracking = dict(DOC["tracking"], order="sorted", overlap=True)
        trees = []
        for n_workers in (1, 2):
            store = tmp_path / f"w{n_workers}"
            wr = run_files_workflow(
                data_dir, store, tracking=tracking,
                runtime={"n_workers": n_workers},
            )
            assert not wr.cache["tracking_hit"]
            trees.append(store_tree(store, stages=("tracking",)))
        assert wr.probtrack.run.supervision is not None  # really sharded
        assert trees[0] and trees[0] == trees[1]

    def test_hit_reports_its_own_wall(self, cli_first):
        _root, store, _track, wr = cli_first
        key = wr.cache["stage_keys"]["tracking"]
        timeline = ArtifactStore(store).entry_dir("tracking", key) / "timeline.json"
        assert "wall_seconds" not in json.loads(timeline.read_text())
        assert wr.cache["tracking_hit"]
        assert 0 < wr.probtrack.run.wall_seconds < 60
