"""Tests for the content-addressed artifact store (repro.store).

Covers the crash/corruption/race contract the storage docs promise:
atomic write-then-rename (a simulated crash mid-write never yields a
servable entry), corrupt-artifact detection degrades to recompute,
concurrent same-key writers converge on one valid entry, and the
``repro-store`` gc/verify/ls maintenance surface.
"""

import json
import threading

import numpy as np
import pytest

from repro.errors import IOFormatError
from repro.store import (
    ENTRY_SCHEMA,
    ArtifactStore,
    StoreEntry,
    StoreStats,
    fingerprint_arrays,
)
from repro.store.cli import main as store_main
from repro.telemetry import MetricsRegistry, use_registry

KEY = "sha256:" + "ab" * 32
KEY2 = "sha256:" + "cd" * 32


def _write_payload(tmp_dir, text="payload", name="blob.txt"):
    (tmp_dir / name).write_text(text)


class TestFingerprint:
    def test_equal_arrays_equal_fingerprint(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert fingerprint_arrays(x=a) == fingerprint_arrays(x=a.copy())

    def test_dtype_sensitive(self):
        a = np.arange(4, dtype=np.float64)
        assert fingerprint_arrays(x=a) != fingerprint_arrays(
            x=a.astype(np.float32)
        )

    def test_shape_sensitive(self):
        a = np.arange(12.0)
        assert fingerprint_arrays(x=a) != fingerprint_arrays(
            x=a.reshape(3, 4)
        )

    def test_name_sensitive(self):
        a = np.arange(4.0)
        assert fingerprint_arrays(x=a) != fingerprint_arrays(y=a)

    def test_none_and_scalars(self):
        a = np.arange(4.0)
        base = fingerprint_arrays(x=a)
        assert fingerprint_arrays(x=a, extra=None) != base
        assert fingerprint_arrays(x=a, k=1) != fingerprint_arrays(x=a, k=2)
        assert fingerprint_arrays(x=a, k=1) != fingerprint_arrays(x=a, k="1")

    def test_order_insensitive(self):
        a, b = np.arange(3.0), np.arange(5.0)
        assert fingerprint_arrays(x=a, y=b) == fingerprint_arrays(y=b, x=a)

    def test_noncontiguous_matches_contiguous(self):
        a = np.arange(24.0).reshape(4, 6)
        view = a[:, ::2]
        assert fingerprint_arrays(x=view) == fingerprint_arrays(
            x=np.ascontiguousarray(view)
        )


class TestPublishLookup:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        entry = store.publish(
            "sampling", KEY, _write_payload, meta={"n": 3}
        )
        assert entry.stage == "sampling"
        assert entry.meta == {"n": 3}
        assert entry.has("blob.txt") and not entry.has("other")
        assert entry.file("blob.txt").read_text() == "payload"
        assert entry.total_bytes == len("payload")
        with pytest.raises(IOFormatError, match="no file"):
            entry.file("other")

        served = store.lookup("sampling", KEY)
        assert served is not None
        assert served.files == entry.files
        assert served.file("blob.txt").read_text() == "payload"
        assert store.stats.hits == 1 and store.stats.writes == 1

    def test_miss_on_empty_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.lookup("tracking", KEY) is None
        assert store.stats.misses == 1

    def test_entry_json_is_not_a_payload_file(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        entry = store.publish("sampling", KEY, _write_payload)
        assert "entry.json" not in entry.files

    def test_publish_rejects_empty_and_nested(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(IOFormatError, match="no files"):
            store.publish("sampling", KEY, lambda d: None)
        with pytest.raises(IOFormatError, match="flat files"):
            store.publish(
                "sampling", KEY, lambda d: (d / "sub").mkdir()
            )
        # Neither failed publish left anything servable or in-flight.
        assert store.lookup("sampling", KEY) is None
        assert list((store.root / "tmp").iterdir()) == []

    def test_bad_stage_and_key_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(IOFormatError, match="unknown store stage"):
            store.entry_dir("nonsense", KEY)
        with pytest.raises(IOFormatError, match="sha256"):
            store.entry_dir("sampling", "md5:abcd")
        with pytest.raises(IOFormatError, match="non-hex"):
            store.entry_dir("sampling", "sha256:../../etc")

    def test_lookup_rejects_unknown_stage(self, tmp_path):
        # The store serves only the pipeline's three fixed stages.
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(IOFormatError, match="unknown store stage"):
            store.lookup("toy", "sha256:" + "0" * 64)

    def test_ops_counters_not_deterministic(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        reg = MetricsRegistry()
        with use_registry(reg):
            store.publish("sampling", KEY, _write_payload)
            store.lookup("sampling", KEY)
            store.lookup("sampling", KEY2)
        snap = reg.snapshot()
        assert snap["ops"]["store.hits"] == 1
        assert snap["ops"]["store.misses"] == 1
        assert snap["ops"]["store.writes"] == 1
        # Deterministic counters stay clean: cache traffic must never
        # perturb the bit-identity sections of a manifest.
        assert not any(k.startswith("store.") for k in snap["counters"])


class TestCrashAtomicity:
    def test_callback_crash_leaves_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")

        def boom(tmp_dir):
            _write_payload(tmp_dir)
            raise RuntimeError("simulated crash mid-write")

        with pytest.raises(RuntimeError):
            store.publish("sampling", KEY, boom)
        assert store.lookup("sampling", KEY) is None
        assert list((store.root / "tmp").iterdir()) == []

    def test_hard_kill_orphan_never_served(self, tmp_path):
        # A process killed before the final rename leaves only a tmp
        # orphan: simulate the on-disk state directly.
        store = ArtifactStore(tmp_path / "store")
        orphan = store.root / "tmp" / "sampling-abababababab-dead"
        orphan.mkdir(parents=True)
        _write_payload(orphan)
        assert store.lookup("sampling", KEY) is None
        report = store.gc()
        assert report["tmp_removed"] == 1
        assert not orphan.exists()

    def test_partial_entry_dir_never_served(self, tmp_path):
        # A directory at the final path without entry.json (e.g. from a
        # partial rsync) is not an entry; it is quarantined as corrupt.
        store = ArtifactStore(tmp_path / "store")
        partial = store.entry_dir("sampling", KEY)
        partial.mkdir(parents=True)
        _write_payload(partial)
        assert store.lookup("sampling", KEY) is None
        assert store.stats.corrupt == 1
        assert not partial.exists()

    def test_missing_payload_file_never_served(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        entry = store.publish("sampling", KEY, _write_payload)
        entry.file("blob.txt").unlink()
        assert store.lookup("sampling", KEY) is None
        assert store.stats.corrupt == 1


class TestCorruption:
    def _flip_byte(self, path):
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_corrupt_payload_detected_and_recomputed(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        entry = store.publish("sampling", KEY, _write_payload)
        # Same size, different content: only the hash can catch this.
        self._flip_byte(entry.file("blob.txt"))
        assert store.lookup("sampling", KEY) is None
        assert store.stats.corrupt == 1
        # The quarantined dir is gone, so a re-publish starts clean...
        fresh = store.publish("sampling", KEY, _write_payload)
        # ...and the healthy copy serves again.
        assert store.lookup("sampling", KEY).files == fresh.files

    def test_corrupt_entry_json_detected(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        entry = store.publish("sampling", KEY, _write_payload)
        (entry.path / "entry.json").write_text("{not json")
        assert store.lookup("sampling", KEY) is None

    def test_wrong_schema_or_key_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        entry = store.publish("sampling", KEY, _write_payload)
        doc = json.loads((entry.path / "entry.json").read_text())
        doc["key"] = KEY2
        (entry.path / "entry.json").write_text(json.dumps(doc))
        assert store.lookup("sampling", KEY) is None

    def test_verify_on_read_false_skips_hashing(self, tmp_path):
        # Documented trade-off: with verification off, a flipped bit is
        # served (fast lookups for trusted local stores).
        store = ArtifactStore(tmp_path / "store", verify_on_read=False)
        entry = store.publish("sampling", KEY, _write_payload)
        self._flip_byte(entry.file("blob.txt"))
        assert store.lookup("sampling", KEY) is not None
        # Structural damage (a missing file) is still caught.
        entry.file("blob.txt").unlink()
        assert store.lookup("sampling", KEY) is None


class TestRaces:
    def test_rename_loser_serves_winner(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        winner = store.publish("sampling", KEY, _write_payload)
        # A second publish of the same key hits the existing directory,
        # validates it, and returns the winner's entry unchanged.
        loser = store.publish(
            "sampling", KEY, lambda d: _write_payload(d, text="other")
        )
        assert loser.files == winner.files
        assert loser.file("blob.txt").read_text() == "payload"

    def test_publish_replaces_invalid_existing(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        partial = store.entry_dir("sampling", KEY)
        partial.mkdir(parents=True)
        _write_payload(partial, text="garbage")
        entry = store.publish("sampling", KEY, _write_payload)
        assert entry.file("blob.txt").read_text() == "payload"
        assert store.lookup("sampling", KEY) is not None

    def test_concurrent_writers_converge(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        barrier = threading.Barrier(4)
        results, errors = [], []

        def worker(i):
            try:
                own = ArtifactStore(store.root)
                barrier.wait()
                results.append(
                    own.publish("tracking", KEY, _write_payload)
                )
            except Exception as exc:  # pragma: no cover - debug aid
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 4
        # Everyone converged on one valid on-disk entry.
        digests = {e.files["blob.txt"]["sha256"] for e in results}
        assert len(digests) == 1
        final = store.lookup("tracking", KEY)
        assert final is not None
        assert final.files["blob.txt"]["sha256"] == digests.pop()
        # No tmp debris survives the race.
        assert list((store.root / "tmp").iterdir()) == []


class TestMaintenance:
    def test_ls(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.ls() == []
        store.publish("sampling", KEY, _write_payload, meta={"n": 1})
        store.publish("tracking", KEY2, _write_payload)
        listing = store.ls()
        assert [e["stage"] for e in listing] == ["sampling", "tracking"]
        assert listing[0]["key"] == KEY
        assert listing[0]["files"] == ["blob.txt"]
        assert listing[0]["meta"] == {"n": 1}
        assert listing[0]["bytes"] == len("payload")

    def test_verify_reports_and_deletes(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        good = store.publish("sampling", KEY, _write_payload)
        bad = store.publish("tracking", KEY2, _write_payload)
        data = bytearray(bad.file("blob.txt").read_bytes())
        data[0] ^= 0xFF
        bad.file("blob.txt").write_bytes(bytes(data))

        report = store.verify()
        assert report["checked"] == 2 and report["ok"] == 1
        assert report["corrupt"] == [str(bad.path)]
        assert bad.path.exists()  # report-only keeps it

        report = store.verify(delete=True)
        assert not bad.path.exists()
        assert good.path.exists()
        assert store.verify() == {"checked": 1, "ok": 1, "corrupt": []}

    def test_gc_checkpoints(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        # Published stage: its checkpoint is superseded.
        store.publish("sampling", KEY, _write_payload)
        store.checkpoint_path("sampling", KEY, "block_0.npz").write_text("x")
        # Unpublished stage: its checkpoint is still needed for resume.
        store.checkpoint_path("sampling", KEY2, "block_0.npz").write_text("y")

        report = store.gc()
        assert report["checkpoints_removed"] == 1
        assert store.checkpoint_path("sampling", KEY2, "block_0.npz").exists()

        store.checkpoint_path("sampling", KEY2, "block_0.npz").write_text("y")
        report = store.gc(all_checkpoints=True)
        assert report["checkpoints_removed"] == 1

    def test_clear_checkpoints(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        p = store.checkpoint_path("sampling", KEY, "block_0.npz")
        p.write_text("x")
        store.clear_checkpoints("sampling", KEY)
        assert not p.exists()
        # Idempotent when nothing is there.
        store.clear_checkpoints("sampling", KEY)


class TestStoreStats:
    def test_record_and_to_dict(self):
        stats = StoreStats()
        stats.record("sampling", "miss")
        stats.record("sampling", "write", 10)
        stats.record("sampling", "hit", 10)
        stats.record("tracking", "corrupt")
        doc = stats.to_dict()
        assert doc["hits"] == 1 and doc["misses"] == 1
        assert doc["bytes_written"] == 10 and doc["bytes_read"] == 10
        assert doc["corrupt"] == 1
        assert doc["by_stage"]["sampling"]["writes"] == 1
        assert doc["by_stage"]["tracking"]["corrupt"] == 1
        assert json.loads(json.dumps(doc)) == doc


class TestEntrySchema:
    def test_entry_json_shape(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        entry = store.publish("sampling", KEY, _write_payload, meta={"a": 1})
        doc = json.loads((entry.path / "entry.json").read_text())
        assert doc["schema"] == ENTRY_SCHEMA
        assert doc["stage"] == "sampling"
        assert doc["key"] == KEY
        assert doc["meta"] == {"a": 1}
        rec = doc["files"]["blob.txt"]
        assert set(rec) == {"sha256", "bytes"}
        assert isinstance(StoreEntry(**{
            "stage": doc["stage"], "key": doc["key"], "path": entry.path,
            "files": doc["files"], "meta": doc["meta"],
        }), StoreEntry)


class TestStoreCli:
    def test_ls_empty(self, tmp_path, capsys):
        assert store_main(["ls", str(tmp_path / "store")]) == 0
        assert "(store is empty)" in capsys.readouterr().out

    def test_ls_entries(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "store")
        store.publish("sampling", KEY, _write_payload)
        assert store_main(["ls", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "sampling" in out and KEY[:19] in out
        assert "1 entries" in out

    def test_verify_exit_codes(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "store")
        entry = store.publish("sampling", KEY, _write_payload)
        assert store_main(["verify", str(store.root)]) == 0

        data = bytearray(entry.file("blob.txt").read_bytes())
        data[0] ^= 0xFF
        entry.file("blob.txt").write_bytes(bytes(data))
        assert store_main(["verify", str(store.root)]) == 1
        assert "corrupt" in capsys.readouterr().out
        assert store_main(["verify", str(store.root), "--delete"]) == 0
        assert not entry.path.exists()

    def test_gc(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "store")
        orphan = store.root / "tmp" / "sampling-x"
        orphan.mkdir(parents=True)
        assert store_main(["gc", str(store.root)]) == 0
        assert "removed 1 tmp dirs" in capsys.readouterr().out
        assert not orphan.exists()
