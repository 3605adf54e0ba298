"""Stage 3 driver: ROI-atlas connectome over stage 2's streamline endpoints.

Builds the named parcellation, maps the end positions stage 2 recorded
for every (sample, launch row) onto ROI labels, folds the endpoint pairs
into a symmetric ROI count matrix, and exports the JSON graph.  Nothing
is tracked here: the stage consumes exactly what the tracking stage
produced.  :func:`memoized_connectome` runs it through the artifact
store under the connectome stage hash, so an atlas sweep over one
tracked dataset reuses stages 1-2 and recomputes only this fold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.config.stages import CONNECTOME
from repro.connectome.atlas import Atlas, build_atlas
from repro.connectome.matrix import connectome_graph, endpoint_connectome
from repro.pipeline.memo import run_memoized
from repro.telemetry import get_registry
from repro.tracking.probtrack import ProbtrackResult

__all__ = [
    "ConnectomeResult",
    "compute_connectome",
    "memoized_connectome",
    "write_connectome",
]


@dataclass
class ConnectomeResult:
    """Stage-3 output.

    Attributes
    ----------
    atlas:
        The parcellation the matrix is defined over.
    counts:
        ``(n_rois, n_rois)`` symmetric int64 endpoint-pair counts.
    n_streamlines:
        Streamlines that passed the ``min_steps`` filter (all samples).
    graph:
        The JSON-safe graph document (nodes, weighted edges).
    """

    atlas: Atlas
    counts: np.ndarray
    n_streamlines: int
    graph: dict


def compute_connectome(
    pt: ProbtrackResult,
    grid_shape: tuple[int, int, int],
    atlas_name: str,
    min_steps: int = 0,
    normalize: str = "count",
) -> ConnectomeResult:
    """Fold one tracking result's endpoints into a connectome.

    Each streamline contributes one endpoint pair:

    * unidirectional runs (one launch row per seed) pair the seed with
      the row's end position;
    * bidirectional runs (``2 * n_seeds`` launch rows: forward block,
      then backward block) pair row ``i``'s end with row
      ``i + n_seeds``'s end — the two ends of one streamline — and
      ``min_steps`` applies to the forward plus backward length.
    """
    run = pt.run
    seeds = np.asarray(pt.seeds, dtype=np.float64)
    n_seeds = seeds.shape[0]
    ends, lengths = run.endpoints, run.lengths
    if ends.shape[1] == 2 * n_seeds:
        starts = ends[:, n_seeds:]
        ends = ends[:, :n_seeds]
        lengths = lengths[:, :n_seeds] + lengths[:, n_seeds:]
    else:
        starts = np.broadcast_to(seeds, ends.shape)
    atlas = build_atlas(atlas_name, grid_shape)
    counts, n_counted = endpoint_connectome(
        starts.reshape(-1, 3),
        ends.reshape(-1, 3),
        lengths.ravel(),
        atlas,
        min_steps=min_steps,
    )
    get_registry().count("connectome.streamlines_counted", n_counted)
    graph = connectome_graph(
        counts, atlas, normalize=normalize, n_streamlines=n_counted
    )
    return ConnectomeResult(
        atlas=atlas, counts=counts, n_streamlines=n_counted, graph=graph
    )


def write_connectome(out_dir, result: ConnectomeResult) -> None:
    """Write ``connectome.npz`` and ``graph.json`` into ``out_dir``.

    The one writer of both files: the store entry's payload and the
    CLI outputs are the same bytes.
    """
    np.savez(
        out_dir / "connectome.npz",
        counts=result.counts,
        labels=result.atlas.labels,
    )
    (out_dir / "graph.json").write_text(
        json.dumps(result.graph, sort_keys=True)
    )


def _rehydrate(entry) -> ConnectomeResult:
    """Rebuild a bit-identical :class:`ConnectomeResult` from an entry."""
    blob = np.load(entry.file("connectome.npz"))
    graph = json.loads(entry.file("graph.json").read_text())
    atlas = Atlas(
        name=graph["atlas"],
        labels=np.ascontiguousarray(blob["labels"]),
        n_rois=int(graph["n_rois"]),
    )
    return ConnectomeResult(
        atlas=atlas,
        counts=blob["counts"],
        n_streamlines=int(graph["n_streamlines"]),
        graph=graph,
    )


def memoized_connectome(
    pt: ProbtrackResult,
    grid_shape: tuple[int, int, int],
    key: str,
    store,
    atlas_name: str,
    use_cache: bool = True,
    **compute_kwargs,
) -> tuple[ConnectomeResult, bool]:
    """Run (or serve) the connectome stage through the artifact store.

    ``key`` is the connectome stage hash (spec subtree + input
    fingerprints); remaining keyword arguments go to
    :func:`compute_connectome`.  Returns ``(result, hit)`` like every
    stage memoizer.
    """
    return run_memoized(
        store,
        CONNECTOME.name,
        key,
        compute=lambda: compute_connectome(
            pt, grid_shape, atlas_name, **compute_kwargs
        ),
        serialize=write_connectome,
        rehydrate=_rehydrate,
        meta=lambda result: {
            "atlas": atlas_name,
            "n_rois": int(result.atlas.n_rois),
            "n_streamlines": int(result.n_streamlines),
        },
        use_cache=use_cache,
    )
