"""Flat voxel indexing — the one place the row-major index math lives.

Every consumer of the ``(ix * ny + iy) * nz + iz`` convention (streamline
visit extraction, the batch kernel's visit emission, connectivity rows,
NIfTI volume indexing, the packed-field gather) routes through these
helpers so the convention cannot silently drift between copies.
"""

from __future__ import annotations

import numpy as np

__all__ = ["flat_voxel_index", "in_bounds_mask", "unique_sorted"]


def flat_voxel_index(
    i: np.ndarray, j: np.ndarray, k: np.ndarray, shape3: tuple[int, int, int]
) -> np.ndarray:
    """Row-major flat index for integer voxel coordinates.

    No bounds handling: callers clamp first or filter with
    :func:`in_bounds_mask`.  Accepts scalars or arrays.
    """
    _, ny, nz = shape3
    return (i * ny + j) * nz + k


def in_bounds_mask(ijk: np.ndarray, shape3: tuple[int, int, int]) -> np.ndarray:
    """Boolean mask of rows of ``(..., 3)`` integer coords inside the grid."""
    nx, ny, nz = shape3
    i, j, k = ijk[..., 0], ijk[..., 1], ijk[..., 2]
    return (
        (i >= 0) & (i < nx)
        & (j >= 0) & (j < ny)
        & (k >= 0) & (k < nz)
    )


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array: ``np.unique`` by sort.

    A sort plus an adjacent-difference mask gives the array
    ``np.unique`` returns on every NumPy version, without the hash-based
    ``unique`` NumPy 2.4 switched to, which is several times slower on
    the tracker's visit arrays (tens of thousands of int64 indices).
    """
    out = np.sort(values)
    if out.size < 2:
        return out
    keep = np.empty(out.shape, dtype=bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]
