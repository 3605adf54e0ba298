"""End-to-end provenance: ``--metrics-out`` then ``--replay``.

The acceptance loop for the configuration layer: run ``repro-track``
with a manifest output, replay that manifest with ``--replay``, and the
second run must reproduce the first bit for bit — zero deltas in the
deterministic sections and an identical config hash (the hash ignores
the telemetry section, so writing the replay's manifest elsewhere does
not break the match).
"""

import json

import pytest

from repro.cli.bedpost_cmd import main as bedpost_main
from repro.cli.phantom_cmd import main as phantom_main
from repro.cli.track_cmd import main as track_main
from repro.config import HAVE_TOML, RunSpec
from repro.telemetry import (
    MANIFEST_SCHEMA,
    deterministic_sections,
    load_manifest,
    manifest_config,
)


@pytest.fixture(scope="module")
def bedpost_dir(tmp_path_factory):
    """A tiny phantom taken through stage 1 once for the whole module."""
    root = tmp_path_factory.mktemp("replay")
    data = root / "data"
    phantom_main([str(data), "--scale", "0.2", "--directions", "9"])
    bedpost_main([str(data), "--burnin", "40", "--samples", "4"])
    return data / "bedpost"


def run_track(bedpost_dir, out_dir, extra):
    args = [str(bedpost_dir), "--output-dir", str(out_dir), "--max-steps", "150"]
    assert track_main(args + extra) == 0


class TestReplay:
    def test_replay_reproduces_deterministic_sections(
        self, bedpost_dir, tmp_path
    ):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        run_track(
            bedpost_dir, tmp_path / "t1",
            ["--workers", "2", "--metrics-out", str(m1)],
        )
        # Replay: no positional bedpost_dir, different outputs everywhere.
        assert track_main([
            "--replay", str(m1),
            "--output-dir", str(tmp_path / "t2"),
            "--metrics-out", str(m2),
        ]) == 0

        a, b = load_manifest(m1), load_manifest(m2)
        assert deterministic_sections(a) == deterministic_sections(b)
        assert a["config_hash"] == b["config_hash"]
        # Only the telemetry routing may differ between the two configs.
        conf_a = manifest_config(a).to_dict()
        conf_b = manifest_config(b).to_dict()
        conf_a.pop("telemetry")
        conf_b.pop("telemetry")
        assert conf_a == conf_b
        assert b["meta"]["replayed_from"] == str(m1)

    def test_replay_with_set_override_diverges_and_reports(
        self, bedpost_dir, tmp_path
    ):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        run_track(bedpost_dir, tmp_path / "t1", ["--metrics-out", str(m1)])
        assert track_main([
            "--replay", str(m1),
            "--set", "tracking.max_steps=60",
            "--output-dir", str(tmp_path / "t2"),
            "--metrics-out", str(m2),
        ]) == 0
        a, b = load_manifest(m1), load_manifest(m2)
        assert a["config_hash"] != b["config_hash"]
        assert manifest_config(a).tracking.max_steps == 150
        assert manifest_config(b).tracking.max_steps == 60

    def test_manifest_carries_valid_provenance(self, bedpost_dir, tmp_path):
        m1 = tmp_path / "m1.json"
        run_track(bedpost_dir, tmp_path / "t1", ["--metrics-out", str(m1)])
        doc = load_manifest(m1)
        assert doc["schema"] == MANIFEST_SCHEMA
        spec = manifest_config(doc)
        assert isinstance(spec, RunSpec)
        assert spec.tracking.max_steps == 150
        assert doc["meta"]["bedpost_dir"] == str(bedpost_dir.resolve())

    def test_replay_rejects_v1_manifest(self, bedpost_dir, tmp_path, capsys):
        m1 = tmp_path / "m1.json"
        run_track(bedpost_dir, tmp_path / "t1", ["--metrics-out", str(m1)])
        doc = load_manifest(m1)
        doc["schema"] = "repro.telemetry.manifest/1"
        doc.pop("config")
        doc.pop("config_hash")
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(doc))
        with pytest.raises(SystemExit):
            track_main(["--replay", str(v1)])
        assert "no config section" in capsys.readouterr().err

    def test_replay_and_config_mutually_exclusive(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text("{}")
        with pytest.raises(SystemExit):
            track_main(["--replay", str(cfg), "--config", str(cfg)])
        assert "mutually exclusive" in capsys.readouterr().err


class TestConfigFileCLI:
    def test_config_file_drives_run(self, bedpost_dir, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({
            "tracking": {"max_steps": 90, "strategy": "b"},
            "runtime": {"n_workers": 2},
        }))
        m1 = tmp_path / "m1.json"
        assert track_main([
            str(bedpost_dir),
            "--config", str(cfg),
            "--output-dir", str(tmp_path / "t1"),
            "--metrics-out", str(m1),
        ]) == 0
        capsys.readouterr()
        spec = manifest_config(load_manifest(m1))
        assert spec.tracking.max_steps == 90
        assert spec.tracking.strategy == "b"
        assert spec.runtime.n_workers == 2

    def test_print_config_matches_manifest_hash(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"tracking": {"max_steps": 90}}))
        assert track_main(["--config", str(cfg), "--print-config"]) == 0
        printed = json.loads(capsys.readouterr().out)
        expected = RunSpec().with_overrides({"tracking.max_steps": 90})
        assert printed["config_hash"] == expected.content_hash()
        assert printed["config"] == expected.to_dict()

    @pytest.mark.skipif(not HAVE_TOML, reason="no tomllib/tomli available")
    def test_toml_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "spec.toml"
        cfg.write_text(
            "[tracking]\nmax_steps = 90\nstrategy = \"c\"\n"
            "[runtime]\nn_workers = 3\n"
        )
        assert track_main(["--config", str(cfg), "--print-config"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["config"]["tracking"]["max_steps"] == 90
        assert printed["config"]["tracking"]["strategy"] == "c"
        assert printed["config"]["runtime"]["n_workers"] == 3

    def test_bedpost_print_config(self, capsys):
        assert bedpost_main([
            "--set", "sampling.n_samples=7", "--print-config"
        ]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["config"]["sampling"]["n_samples"] == 7
