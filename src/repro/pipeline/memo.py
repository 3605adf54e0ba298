"""Stage memoization: serialize, publish, and rehydrate stage runs.

:func:`run_memoized` is the one lookup-or-compute protocol all three
stages share (:func:`~repro.pipeline.bedpost.bedpost`,
:func:`memoized_streamlining`,
:func:`~repro.pipeline.connectome.memoized_connectome`), with the
telemetry round-trip (child-registry compute, snapshot publish, replay
on hit) built in; each stage supplies only its own serialize and
rehydrate.  The tracking stage's round-trip lives here too; its output
is richer than the sampling stage's ``samples.npz`` — per-seed lengths,
stop reasons and end positions, the modeled event timeline, and the
sparse connectivity matrix:

* on a **miss**, :func:`memoized_streamlining` runs
  :func:`~repro.tracking.probtrack.probabilistic_streamlining` under a
  child registry, publishes the arrays + timeline + deterministic
  telemetry atomically, and returns the live result;
* on a **hit**, it rebuilds a bit-identical
  :class:`~repro.tracking.probtrack.ProbtrackResult` from the entry
  (lengths, reasons, endpoints, visit counts, timeline) and replays the
  stored deterministic counters into the active registry so warm
  manifests match cold ones.

Only deterministic outputs are stored, so an entry's bytes are a
function of its key: measured quantities (wall seconds, per-worker
walls, the supervision report and its ``retry`` events) stay with the
live run, and a hit reports its own rehydrate wall as
``run.wall_seconds``.
"""

from __future__ import annotations

import json
import time

import numpy as np
from scipy import sparse

from repro.config.stages import TRACKING
from repro.gpu.timeline import Timeline
from repro.store.fingerprint import fingerprint_arrays
from repro.telemetry import MetricsRegistry, get_registry, use_registry
from repro.tracking.connectivity import ConnectivityAccumulator
from repro.tracking.executor import TrackingRunResult
from repro.tracking.probtrack import ProbtrackResult, probabilistic_streamlining

__all__ = ["fields_fingerprint", "memoized_streamlining", "run_memoized"]


def run_memoized(
    store,
    stage: str,
    key: str,
    compute,
    serialize,
    rehydrate,
    meta=None,
    use_cache: bool = True,
):
    """Serve one stage from the store, or compute and publish it.

    The shared memoization protocol every stage runs through:

    * on a **hit** (``use_cache`` and the entry exists), replay the
      entry's stored deterministic telemetry into the active registry
      and return ``rehydrate(entry)``;
    * on a **miss**, run ``compute()`` under a child registry, publish
      ``serialize(tmp_dir, result)`` + the telemetry snapshot
      atomically, and return the live result;
    * with ``store=None`` the stage just runs, unrecorded.

    ``meta`` may be a dict or a ``result -> dict`` callable (for
    metadata derived from the computed result).

    Returns ``(result, hit)``.
    """
    if store is not None and use_cache:
        entry = store.lookup(stage, key)
        if entry is not None:
            telemetry = json.loads(entry.file("telemetry.json").read_text())
            get_registry().merge_snapshot(telemetry)
            return rehydrate(entry), True
    if store is None:
        return compute(), False
    child = MetricsRegistry()
    with use_registry(child):
        result = compute()
    get_registry().merge(child)
    snap = child.snapshot()

    def _write(tmp_dir):
        serialize(tmp_dir, result)
        (tmp_dir / "telemetry.json").write_text(
            json.dumps(
                {
                    "counters": snap["counters"],
                    "histograms": snap["histograms"],
                },
                sort_keys=True,
            )
        )

    resolved_meta = meta(result) if callable(meta) else dict(meta or {})
    store.publish(stage, key, _write, meta=resolved_meta)
    return result, False


def fields_fingerprint(stack) -> str:
    """Fingerprint the posterior sample stack a tracking run consumes.

    Covers every sample's fraction and direction volumes plus the shared
    mask — the complete functional input of the tracker.  Samples are
    named and shaped one by one (``f0000``/``d0000``, ...), so the digest
    and hence the stage keys match those of per-sample field lists.
    """
    named = {"n_samples": len(stack), "mask": stack.mask}
    for i in range(len(stack)):
        named[f"f{i:04d}"] = stack.f[i]
        named[f"d{i:04d}"] = stack.directions[i]
    return fingerprint_arrays(**named)


def _serialize(tmp_dir, result: ProbtrackResult) -> None:
    """Write one tracking result's payload files into ``tmp_dir``."""
    run = result.run
    conn = result.connectivity
    counts = conn.counts
    # Uncompressed, like every store payload: deflating costs more time
    # than the bytes it saves (docs/storage.md), and np.load still reads
    # entries that were written compressed.
    np.savez(
        tmp_dir / "arrays.npz",
        lengths=run.lengths,
        reasons=run.reasons,
        endpoints=run.endpoints,
        seeds=result.seeds,
        conn_data=counts.data,
        conn_indices=counts.indices,
        conn_indptr=counts.indptr,
        conn_shape=np.asarray(counts.shape, dtype=np.int64),
        conn_n_samples=np.int64(conn.n_samples),
    )
    (tmp_dir / "timeline.json").write_text(
        json.dumps(
            {
                "events": [
                    {
                        "kind": e.kind,
                        "label": e.label,
                        "seconds": e.seconds,
                        "stream": e.stream,
                    }
                    for e in run.timeline.events
                    # Measured recovery records stay with the live run.
                    if e.kind != "retry"
                ],
                "cpu_seconds": run.cpu_seconds,
                "peak_device_bytes": run.peak_device_bytes,
            },
            sort_keys=True,
        )
    )


def _rehydrate(entry, cfg) -> ProbtrackResult:
    """Rebuild a :class:`ProbtrackResult` from one store entry.

    ``run.wall_seconds`` is this rehydrate's own wall: the entry stores
    no measured figure.
    """
    t0 = time.perf_counter()
    blob = np.load(entry.file("arrays.npz"))
    timeline_doc = json.loads(entry.file("timeline.json").read_text())
    timeline = Timeline()
    for e in timeline_doc["events"]:
        timeline.add(e["kind"], e["label"], e["seconds"], stream=e["stream"])
    run = TrackingRunResult(
        lengths=blob["lengths"],
        reasons=blob["reasons"],
        endpoints=blob["endpoints"],
        timeline=timeline,
        launches=[],
        cpu_seconds=float(timeline_doc["cpu_seconds"]),
        wall_seconds=time.perf_counter() - t0,
        peak_device_bytes=int(timeline_doc["peak_device_bytes"]),
    )
    shape = tuple(int(x) for x in blob["conn_shape"])
    connectivity = ConnectivityAccumulator(n_seeds=shape[0], n_voxels=shape[1])
    connectivity.n_samples = int(blob["conn_n_samples"])
    connectivity._counts_cache = sparse.csr_matrix(
        (blob["conn_data"], blob["conn_indices"], blob["conn_indptr"]),
        shape=shape,
    )
    return ProbtrackResult(
        run=run,
        connectivity=connectivity,
        seeds=blob["seeds"],
        max_steps=cfg.criteria.max_steps,
    )


def memoized_streamlining(
    fields,
    cfg,
    store,
    key: str,
    seed_mask=None,
    seeds=None,
    use_cache: bool = True,
) -> tuple[ProbtrackResult, bool]:
    """Run (or serve) the tracking stage through the artifact store.

    Parameters
    ----------
    fields:
        The posterior :class:`~repro.models.fields.FiberStack`.
    cfg:
        The :class:`~repro.tracking.probtrack.ProbtrackConfig` to run.
    store:
        An :class:`~repro.store.ArtifactStore`; ``None`` disables
        memoization entirely (the stage just runs).
    key:
        The tracking-stage hash (``repro.config.stage_hash`` over the
        tracking subtree + input fingerprints).
    seed_mask / seeds:
        Forwarded to
        :func:`~repro.tracking.probtrack.probabilistic_streamlining`.
    use_cache:
        ``False`` skips the lookup (forces recompute) but still
        publishes — the ``--no-cache`` semantics.

    Returns
    -------
    (ProbtrackResult, bool)
        The result, and whether it was served from the store.
    """
    return run_memoized(
        store,
        TRACKING.name,
        key,
        compute=lambda: probabilistic_streamlining(
            fields, cfg, seed_mask=seed_mask, seeds=seeds
        ),
        serialize=_serialize,
        rehydrate=lambda entry: _rehydrate(entry, cfg),
        meta=lambda result: {
            "n_samples": int(result.run.n_samples),
            "n_seeds": int(result.run.n_seeds),
        },
        use_cache=use_cache,
    )
