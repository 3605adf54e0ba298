"""The content-addressed artifact store: stage memoization on disk.

Layout (all under one user-chosen root)::

    store/
      sampling/<hex>/        one published sampling artifact
        entry.json           manifest: per-file sha256 + byte counts
        samples.npz ...      the stage's payload files
      tracking/<hex>/        one published tracking artifact
      checkpoints/<stage>/<hex>/   in-progress MCMC checkpoints
      tmp/                   in-flight publishes (atomically renamed away)

``<hex>`` is the hex part of the stage key produced by
:func:`repro.config.stage_hash` — a sha256 over the stage's spec subtree
plus fingerprints of its data inputs.  Identical (spec subtree, inputs)
therefore always lands on the same directory, across processes and
machines.

Atomicity and races
-------------------
A publish writes every payload file into a fresh directory under
``tmp/``, writes ``entry.json`` **last**, then ``os.rename``\\ s the
directory into place.  A crash mid-write leaves only a ``tmp/`` orphan
(collected by ``repro-store gc``); a reader can never observe a partial
entry because an entry without ``entry.json`` is not an entry.  When two
processes publish the same key concurrently, the rename loser simply
discards its tmp directory and serves the winner's entry — both
converge on one valid artifact.

Telemetry
---------
Hits, misses, writes, and byte counts are recorded as **operational**
(non-deterministic) counters: whether a run was served from cache is a
property of the machine's disk state, not of the workload, so it must
never enter the deterministic manifest sections that the cache-parity
suite proves bit-identical between cold and warm runs.  Manifests
instead carry a dedicated ``cache`` section (see
:func:`repro.telemetry.build_manifest`).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.config.stages import stage_names
from repro.errors import IOFormatError
from repro.telemetry.registry import get_registry

__all__ = ["ENTRY_SCHEMA", "StoreEntry", "StoreStats", "ArtifactStore"]

#: Schema tag written into every ``entry.json``.  Bumped whenever a
#: stage's payload layout changes, so entries in an older layout read as
#: misses instead of being served incomplete (``/2``: the tracking
#: ``arrays.npz`` gained ``endpoints``).
ENTRY_SCHEMA = "repro.store.entry/2"

_HASH_CHUNK = 1 << 20


def _sha256_file(path: Path) -> tuple[str, int]:
    """Full sha256 hex digest and byte count of one file."""
    h = hashlib.sha256()
    n = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_HASH_CHUNK)
            if not chunk:
                break
            h.update(chunk)
            n += len(chunk)
    return h.hexdigest(), n


def _key_hex(key: str) -> str:
    """The directory name for a ``sha256:<hex>`` stage key."""
    if not isinstance(key, str) or not key.startswith("sha256:"):
        raise IOFormatError(f"store key must look like 'sha256:<hex>', got {key!r}")
    hex_part = key.split(":", 1)[1]
    if not hex_part or any(c not in "0123456789abcdef" for c in hex_part):
        raise IOFormatError(f"store key has a non-hex digest: {key!r}")
    return hex_part


@dataclass(frozen=True)
class StoreEntry:
    """One published, validated artifact served from the store.

    Attributes
    ----------
    stage:
        Which registered pipeline stage produced it (see
        :func:`repro.config.stages.stage_names`).
    key:
        The full ``sha256:<hex>`` stage key.
    path:
        Directory holding the payload files and ``entry.json``.
    files:
        ``name -> {"sha256": hex, "bytes": int}`` for every payload file.
    meta:
        Free-form JSON metadata recorded at publish time.
    """

    stage: str
    key: str
    path: Path
    files: dict
    meta: dict = field(default_factory=dict)

    def file(self, name: str) -> Path:
        """Absolute path of payload file ``name`` (must exist in the entry)."""
        if name not in self.files:
            raise IOFormatError(
                f"store entry {self.stage}/{self.key[:19]}… has no file {name!r} "
                f"(has: {sorted(self.files)})"
            )
        return self.path / name

    def has(self, name: str) -> bool:
        """Whether the entry recorded a payload file called ``name``."""
        return name in self.files

    @property
    def total_bytes(self) -> int:
        """Sum of all payload file sizes in bytes."""
        return sum(int(f["bytes"]) for f in self.files.values())


@dataclass
class StoreStats:
    """Hit/miss/write accounting for one :class:`ArtifactStore` instance.

    All values are per-process ("this store object"), not per-directory;
    they feed the manifest's ``cache`` section and the ``store.*``
    operational counters.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    corrupt: int = 0
    by_stage: dict = field(default_factory=dict)

    def record(self, stage: str, event: str, nbytes: int = 0) -> None:
        """Count one ``hit``/``miss``/``write``/``corrupt`` event for ``stage``."""
        per = self.by_stage.setdefault(
            stage, {"hits": 0, "misses": 0, "writes": 0, "corrupt": 0}
        )
        if event == "hit":
            self.hits += 1
            self.bytes_read += nbytes
            per["hits"] += 1
        elif event == "miss":
            self.misses += 1
            per["misses"] += 1
        elif event == "write":
            self.writes += 1
            self.bytes_written += nbytes
            per["writes"] += 1
        elif event == "corrupt":
            self.corrupt += 1
            per["corrupt"] += 1
        else:  # pragma: no cover - internal misuse guard
            raise ValueError(f"unknown store event {event!r}")

    def to_dict(self) -> dict:
        """JSON-safe dump, used verbatim as the manifest ``cache`` section."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "corrupt": self.corrupt,
            "by_stage": {k: dict(v) for k, v in sorted(self.by_stage.items())},
        }


class ArtifactStore:
    """A content-addressed, stage-keyed artifact store rooted at one directory.

    Parameters
    ----------
    root:
        Store root directory (created on first use).
    verify_on_read:
        When true (the default), :meth:`lookup` re-hashes every payload
        file against ``entry.json`` before serving; a mismatch quarantines
        the entry (it is removed) and the lookup reports a miss, so a
        flipped bit on disk degrades to a recompute instead of a wrong
        result.
    """

    def __init__(self, root: str | os.PathLike, verify_on_read: bool = True) -> None:
        self.root = Path(root)
        self.verify_on_read = bool(verify_on_read)
        self.stats = StoreStats()

    # -- paths --------------------------------------------------------------

    def entry_dir(self, stage: str, key: str) -> Path:
        """Final directory for ``(stage, key)`` (not necessarily existing)."""
        if stage not in stage_names():
            raise IOFormatError(
                f"unknown store stage {stage!r} (known: {list(stage_names())})"
            )
        return self.root / stage / _key_hex(key)

    def checkpoint_path(self, stage: str, key: str, name: str) -> Path:
        """Path for an in-progress checkpoint file, parents created.

        Checkpoints live outside the published entries so an interrupted
        run can resume from them, and ``clear_checkpoints`` drops them
        once the stage publishes.
        """
        d = self.root / "checkpoints" / stage / _key_hex(key)
        d.mkdir(parents=True, exist_ok=True)
        return d / name

    def checkpoint_dir(self, stage: str, key: str) -> Path:
        """The ``(stage, key)`` checkpoint directory itself, created.

        Sharded stages hand this to worker processes (as a plain path —
        the store object never crosses the process boundary) so every
        shard reads and writes the same per-block checkpoint files at
        every worker count.
        """
        d = self.root / "checkpoints" / stage / _key_hex(key)
        d.mkdir(parents=True, exist_ok=True)
        return d

    def clear_checkpoints(self, stage: str, key: str) -> None:
        """Delete every checkpoint recorded for ``(stage, key)``."""
        d = self.root / "checkpoints" / stage / _key_hex(key)
        if d.is_dir():
            shutil.rmtree(d, ignore_errors=True)

    # -- read path ----------------------------------------------------------

    def _read_entry(self, stage: str, key: str, path: Path) -> StoreEntry | None:
        """Parse + (optionally) verify one entry dir; None if invalid."""
        entry_file = path / "entry.json"
        try:
            with open(entry_file, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(doc, dict)
            or doc.get("schema") != ENTRY_SCHEMA
            or doc.get("stage") != stage
            or doc.get("key") != key
            or not isinstance(doc.get("files"), dict)
        ):
            return None
        files = doc["files"]
        for name, rec in files.items():
            fpath = path / name
            if not fpath.is_file():
                return None
            if self.verify_on_read:
                digest, nbytes = _sha256_file(fpath)
                if digest != rec.get("sha256") or nbytes != int(rec.get("bytes", -1)):
                    return None
        meta = doc.get("meta")
        return StoreEntry(
            stage=stage,
            key=key,
            path=path,
            files={k: dict(v) for k, v in files.items()},
            meta=dict(meta) if isinstance(meta, dict) else {},
        )

    def lookup(self, stage: str, key: str) -> StoreEntry | None:
        """Serve the artifact for ``(stage, key)``, or ``None`` on a miss.

        A corrupt or partial entry (bad hash, missing file, unreadable
        ``entry.json``) is removed from disk and reported as a miss, so
        the caller recomputes and re-publishes a healthy copy.
        """
        reg = get_registry()
        path = self.entry_dir(stage, key)
        if path.is_dir():
            entry = self._read_entry(stage, key, path)
            if entry is not None:
                self.stats.record(stage, "hit", entry.total_bytes)
                reg.count("store.hits", deterministic=False)
                reg.count(
                    "store.bytes_read", entry.total_bytes, deterministic=False
                )
                return entry
            # An existing directory that fails validation is corrupt:
            # quarantine it so the re-publish starts clean.
            self.stats.record(stage, "corrupt")
            reg.count("store.corrupt", deterministic=False)
            shutil.rmtree(path, ignore_errors=True)
        self.stats.record(stage, "miss")
        reg.count("store.misses", deterministic=False)
        return None

    # -- write path ---------------------------------------------------------

    def publish(self, stage: str, key: str, write_callback, meta=None) -> StoreEntry:
        """Atomically publish one artifact; idempotent under races.

        Parameters
        ----------
        stage / key:
            The stage-key pair the artifact is addressed by.
        write_callback:
            ``callback(tmp_dir: Path) -> None`` — writes every payload
            file into ``tmp_dir``.  If it raises, nothing is published
            and the tmp directory is removed.
        meta:
            Optional JSON-safe metadata stored in ``entry.json``.

        Returns
        -------
        StoreEntry
            The published entry — ours, or (after losing a publish race)
            the concurrent winner's equivalent entry.
        """
        final = self.entry_dir(stage, key)
        tmp_root = self.root / "tmp"
        tmp_root.mkdir(parents=True, exist_ok=True)
        tmp_dir = Path(
            tempfile.mkdtemp(dir=tmp_root, prefix=f"{stage}-{_key_hex(key)[:12]}-")
        )
        try:
            write_callback(tmp_dir)
            files = {}
            for fpath in sorted(tmp_dir.iterdir()):
                if not fpath.is_file():
                    raise IOFormatError(
                        f"store publish callback may only write flat files, "
                        f"got {fpath.name!r}"
                    )
                digest, nbytes = _sha256_file(fpath)
                files[fpath.name] = {"sha256": digest, "bytes": nbytes}
            if not files:
                raise IOFormatError(
                    f"store publish callback wrote no files for {stage}/{key}"
                )
            doc = {
                "schema": ENTRY_SCHEMA,
                "stage": stage,
                "key": key,
                "files": files,
                "meta": dict(meta or {}),
            }
            # entry.json is written LAST: its presence is what makes the
            # directory an entry, so a crash before this line leaves only
            # an inert tmp orphan.
            entry_json = tmp_dir / "entry.json"
            with open(entry_json, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            final.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(tmp_dir, final)
            except OSError:
                # Lost the race (or a stale entry already exists): keep
                # whatever is there if it validates, else replace it.
                existing = self._read_entry(stage, key, final)
                shutil.rmtree(tmp_dir, ignore_errors=True)
                if existing is not None:
                    return existing
                shutil.rmtree(final, ignore_errors=True)
                return self.publish(stage, key, write_callback, meta=meta)
            nbytes = sum(int(f["bytes"]) for f in files.values())
            self.stats.record(stage, "write", nbytes)
            reg = get_registry()
            reg.count("store.writes", deterministic=False)
            reg.count("store.bytes_written", nbytes, deterministic=False)
            return StoreEntry(
                stage=stage, key=key, path=final, files=files, meta=dict(meta or {})
            )
        except BaseException:
            shutil.rmtree(tmp_dir, ignore_errors=True)
            raise

    # -- maintenance --------------------------------------------------------

    def ls(self) -> list[dict]:
        """Summaries of every published entry, stable order.

        Returns a list of ``{"stage", "key", "files", "bytes", "meta"}``
        dicts sorted by (stage, key).  Invalid directories are skipped
        (``verify`` reports them).
        """
        out = []
        for stage in stage_names():
            stage_dir = self.root / stage
            if not stage_dir.is_dir():
                continue
            for path in sorted(stage_dir.iterdir()):
                if not path.is_dir():
                    continue
                key = "sha256:" + path.name
                entry_file = path / "entry.json"
                try:
                    with open(entry_file, encoding="utf-8") as fh:
                        doc = json.load(fh)
                except (OSError, json.JSONDecodeError):
                    continue
                files = doc.get("files") or {}
                out.append(
                    {
                        "stage": stage,
                        "key": key,
                        "files": sorted(files),
                        "bytes": sum(int(f.get("bytes", 0)) for f in files.values()),
                        "meta": doc.get("meta") or {},
                    }
                )
        return out

    def verify(self, delete: bool = False) -> dict:
        """Re-hash every entry; report (and optionally delete) corrupt ones.

        Parameters
        ----------
        delete:
            When true, corrupt entries are removed from disk so the next
            run recomputes them.

        Returns
        -------
        dict
            ``{"checked": int, "ok": int, "corrupt": [paths...]}``.
        """
        checked = ok = 0
        corrupt: list[str] = []
        for stage in stage_names():
            stage_dir = self.root / stage
            if not stage_dir.is_dir():
                continue
            for path in sorted(stage_dir.iterdir()):
                if not path.is_dir():
                    continue
                checked += 1
                key = "sha256:" + path.name
                saved = self.verify_on_read
                self.verify_on_read = True
                try:
                    entry = self._read_entry(stage, key, path)
                finally:
                    self.verify_on_read = saved
                if entry is None:
                    corrupt.append(str(path))
                    if delete:
                        shutil.rmtree(path, ignore_errors=True)
                else:
                    ok += 1
        return {"checked": checked, "ok": ok, "corrupt": corrupt}

    def gc(self, all_checkpoints: bool = False) -> dict:
        """Collect garbage: tmp orphans and superseded checkpoints.

        Removes every in-flight ``tmp/`` directory (left by crashed
        publishes) and every checkpoint directory whose stage already has
        a published entry (the checkpoint did its job).  With
        ``all_checkpoints=True``, every checkpoint is removed regardless
        — a resume will then restart its stage from scratch.

        Returns
        -------
        dict
            ``{"tmp_removed": int, "checkpoints_removed": int}``.
        """
        tmp_removed = 0
        tmp_root = self.root / "tmp"
        if tmp_root.is_dir():
            for path in sorted(tmp_root.iterdir()):
                shutil.rmtree(path, ignore_errors=True)
                tmp_removed += 1
        ckpt_removed = 0
        ckpt_root = self.root / "checkpoints"
        if ckpt_root.is_dir():
            for stage_dir in sorted(ckpt_root.iterdir()):
                if not stage_dir.is_dir():
                    continue
                for path in sorted(stage_dir.iterdir()):
                    published = self.root / stage_dir.name / path.name
                    if all_checkpoints or (published / "entry.json").is_file():
                        shutil.rmtree(path, ignore_errors=True)
                        ckpt_removed += 1
        return {"tmp_removed": tmp_removed, "checkpoints_removed": ckpt_removed}
