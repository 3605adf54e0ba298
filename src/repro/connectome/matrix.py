"""Streamline-endpoint connectivity matrices and their graph export.

The muscip-style ``generate_connectome(fibers, roi)`` shape: each kept
streamline contributes one endpoint pair; the pair's ROI labels index a
symmetric ``(n_rois, n_rois)`` count matrix.  Everything here is pure
integer arithmetic over arrays — no RNG, no floats in the counts — so
the matrix is bit-identical for any execution order as long as
streamlines are counted exactly once.
"""

from __future__ import annotations

import numpy as np

from repro.connectome.atlas import Atlas
from repro.errors import ConfigurationError

__all__ = ["endpoint_connectome", "connectome_graph"]


def endpoint_connectome(
    starts: np.ndarray,
    ends: np.ndarray,
    n_steps: np.ndarray,
    atlas: Atlas,
    min_steps: int = 0,
) -> tuple[np.ndarray, int]:
    """Count streamline endpoint pairs into a symmetric ROI matrix.

    Parameters
    ----------
    starts, ends:
        ``(n, 3)`` voxel coordinates of each streamline's two ends.
    n_steps:
        ``(n,)`` step count of each streamline.
    atlas:
        The parcellation mapping endpoints to ROI indices.
    min_steps:
        Streamlines with fewer steps are skipped (not counted at all).

    Returns
    -------
    (counts, n_counted)
        ``counts`` is ``(n_rois, n_rois)`` int64, symmetric: a pair
        ``(a, b)`` with ``a != b`` increments both ``[a, b]`` and
        ``[b, a]``; a self-connection increments the diagonal once.
        ``n_counted`` is the number of streamlines that passed the
        length filter.
    """
    if min_steps < 0:
        raise ConfigurationError(f"min_steps must be >= 0, got {min_steps}")
    keep = np.asarray(n_steps) >= min_steps
    counts = np.zeros((atlas.n_rois, atlas.n_rois), dtype=np.int64)
    a = atlas.label_at(np.asarray(starts)[keep])
    b = atlas.label_at(np.asarray(ends)[keep])
    np.add.at(counts, (a, b), 1)
    off = a != b
    np.add.at(counts, (b[off], a[off]), 1)
    return counts, int(keep.sum())


def connectome_graph(
    counts: np.ndarray,
    atlas: Atlas,
    normalize: str = "count",
    n_streamlines: int | None = None,
) -> dict:
    """The JSON-safe graph document exported alongside the matrix.

    Nodes are ROIs (id + voxel size); edges are the upper triangle of
    ``counts`` (diagonal included as self-loops), weighted by the raw
    ``count`` or by the ``fraction`` of counted streamlines.  Keys are
    emitted in a deterministic order so the serialized graph is as
    content-stable as the matrix itself.
    """
    counts = np.asarray(counts)
    if counts.shape != (atlas.n_rois, atlas.n_rois):
        raise ConfigurationError(
            f"counts must be ({atlas.n_rois}, {atlas.n_rois}), got {counts.shape}"
        )
    if normalize not in ("count", "fraction"):
        raise ConfigurationError(
            f"normalize must be 'count' or 'fraction', got {normalize!r}"
        )
    total = int(n_streamlines) if n_streamlines is not None else int(
        np.triu(counts).sum()
    )
    sizes = atlas.roi_sizes()
    nodes = [
        {"id": int(i), "n_voxels": int(sizes[i])} for i in range(atlas.n_rois)
    ]
    edges = []
    for a in range(atlas.n_rois):
        for b in range(a, atlas.n_rois):
            c = int(counts[a, b])
            if c == 0:
                continue
            weight = c if normalize == "count" else (c / total if total else 0.0)
            edges.append({"source": a, "target": b, "count": c, "weight": weight})
    return {
        "atlas": atlas.name,
        "n_rois": int(atlas.n_rois),
        "normalize": normalize,
        "n_streamlines": total,
        "nodes": nodes,
        "edges": edges,
    }
