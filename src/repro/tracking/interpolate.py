"""Field interpolation — the ``Interpolation()`` call of Algorithm 1.

The GPU binds the sample volume as read-only 3-D images and samples them
at the streamline's continuous position.  Two modes are provided:

* ``nearest`` — the value of the containing voxel (cheap; what FSL's
  probtrackx effectively does);
* ``trilinear`` — 8-corner interpolation, the GPU texture unit's native
  mode.  Fiber directions are *axial* (v ~ -v), so corners are
  sign-aligned to a per-thread reference direction (the current heading)
  before averaging; fractions interpolate linearly.

Out-of-bounds positions clamp to the edge voxel, matching
``CLK_ADDRESS_CLAMP_TO_EDGE``; the tracker terminates such threads via its
bounds criterion, so clamping only affects the final partial step.

Hot path
--------
The production implementation gathers all 8 corners from the field's
packed flat views (:meth:`~repro.models.fields.FiberField.flat_views`):
the six clipped axis index arrays are computed once per call, combined
into flat row-major indices, and both ``f`` and ``directions`` are read
with single contiguous ``take`` ops — instead of eight rounds of
three-axis fancy indexing.  A :class:`Scratch` arena lets the lockstep
tracker reuse the per-call corner buffers across iterations.  The
corner-by-corner accumulation order is unchanged, so results are
bit-identical to :func:`trilinear_lookup_reference` (the pre-optimization
implementation, kept for benchmarking and as an executable spec).

The packed views stay ``float64``: the paper's GPU images are float32,
but this reproduction asserts *exact* CPU/lockstep agreement in its test
suite, and a float32 cast would perturb results at ~1e-8 (see DESIGN.md).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import TrackingError
from repro.models.fields import FiberField, FiberStack
from repro.utils.voxels import flat_voxel_index

__all__ = [
    "Scratch",
    "nearest_flat_index",
    "nearest_lookup",
    "trilinear_lookup",
    "trilinear_lookup_reference",
]


def _check_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise TrackingError(f"points must be (n, 3), got {pts.shape}")
    return pts


class Scratch:
    """Reusable per-call buffers keyed by name.

    ``get(name, shape)`` returns a C-contiguous float64 view of a cached
    allocation, reallocating only when the requested size exceeds
    capacity — so a tracking segment's shrinking active set reuses one
    allocation instead of reallocating every iteration.
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._bufs.get(name)
        need = math.prod(shape)
        if buf is None or buf.size < need:
            buf = np.empty((max(need, 1),), dtype=np.float64)
            self._bufs[name] = buf
        return buf[:need].reshape(shape)


#: Corner offsets along the (2, n, 3) low/high axis of `_corner_indices`.
_CORNER_OFF = np.array([[[0]], [[1]]], dtype=np.int64)


def _corner_indices(pts: np.ndarray, shape3: tuple[int, int, int]):
    """Clipped flat indices and weights of the 8 surrounding corners.

    Returns ``(flat, w, frac)``: ``flat`` is ``(8, n)`` int64 and ``w``
    ``(8, n)`` float64, corner ``c`` at offset bit pattern
    ``(c & 1, (c >> 1) & 1, (c >> 2) & 1)``; ``frac`` is the ``(n, 3)``
    in-cell offset.  Built from per-axis low/high pairs broadcast over a
    ``(z, y, x)``-ordered cube, so the whole corner fan costs a handful
    of vector ops instead of eight rounds of three-axis arithmetic.
    """
    nx, ny, nz = shape3
    n = pts.shape[0]
    base_f = np.floor(pts)
    frac = pts - base_f
    base = base_f.astype(np.int64)
    # Clip both corner planes of all three axes at once: (2, n, 3), row 0
    # the low corner, row 1 the high corner.
    bb = np.maximum(base[None, :, :] + _CORNER_OFF, 0)
    bb = np.minimum(bb, np.asarray([nx - 1, ny - 1, nz - 1]), out=bb)
    x, y, z = bb[..., 0], bb[..., 1], bb[..., 2]
    # flat = (x * ny + y) * nz + z; broadcasting (z, y, x) puts corner c
    # at flat row c = xbit + 2*ybit + 4*zbit after the C-order reshape.
    flat = (
        (x * (ny * nz))[None, None, :, :]
        + (y * nz)[None, :, None, :]
        + z[:, None, None, :]
    ).reshape(8, n)

    ww = np.empty((2, n, 3))
    ww[1] = frac
    np.subtract(1.0, frac, out=ww[0])
    wx, wy, wz = ww[..., 0], ww[..., 1], ww[..., 2]
    w = (
        wx[None, None, :, :] * wy[None, :, None, :] * wz[:, None, None, :]
    ).reshape(8, n)
    return flat, w, frac


def nearest_flat_index(points, shape3: tuple[int, int, int]) -> np.ndarray:
    """Clipped flat row-major index of each point's containing voxel.

    The position→voxel half of :func:`nearest_lookup`, split out so
    callers that look the *same* points up in many sample volumes (seed
    heading initialization across samples) compute the index arithmetic
    once and reuse it for every gather.
    """
    pts = _check_points(points)
    nx, ny, nz = shape3
    idx = np.rint(pts).astype(np.int64)
    ix = np.minimum(np.maximum(idx[:, 0], 0), nx - 1)
    iy = np.minimum(np.maximum(idx[:, 1], 0), ny - 1)
    iz = np.minimum(np.maximum(idx[:, 2], 0), nz - 1)
    return flat_voxel_index(ix, iy, iz, shape3)


def nearest_lookup(
    field: FiberField | FiberStack,
    points: np.ndarray,
    *,
    row_offset=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point ``(f, directions)`` from the containing voxel.

    Returns ``f`` of shape ``(n, N)`` and ``directions`` of shape
    ``(n, N, 3)``.  Positions outside the grid clamp to the border voxel.

    ``row_offset`` is an ``(n,)`` per-point offset into stacked flat
    views: the batch tracker passes a
    :class:`~repro.models.fields.FiberStack` as ``field`` and
    ``sample * n_vox`` here, so one gather serves all samples.
    """
    flat = nearest_flat_index(points, field.shape3)
    if row_offset is not None:
        flat = flat + row_offset
    f2, d2, _ = field.flat_views()
    return f2[flat], d2[flat]


def trilinear_lookup(
    field: FiberField | FiberStack,
    points: np.ndarray,
    reference: np.ndarray | None = None,
    scratch: Scratch | None = None,
    *,
    row_offset=None,
) -> tuple[np.ndarray, np.ndarray]:
    """8-corner trilinear ``(f, directions)`` interpolation.

    Parameters
    ----------
    field:
        The sample volume (or a sample stack, with ``row_offset``).
    points:
        ``(n, 3)`` continuous voxel coordinates (voxel centers at integer
        coordinates).
    reference:
        ``(n, 3)`` per-point reference directions for axial sign
        alignment (usually the current heading).  Without it, corner
        directions are aligned to the first corner's direction per
        population.
    scratch:
        Optional :class:`Scratch` arena; pass one to reuse the corner
        buffers across calls (the lockstep tracker does, per segment).
    row_offset:
        The batch tracker's ``(n,)`` per-point stacked-view offset (see
        :func:`nearest_lookup`).

    Returns
    -------
    (f, directions):
        ``f`` is ``(n, N)``; ``directions`` is ``(n, N, 3)``, renormalized
        to unit length where non-zero.  ``f`` and ``directions`` are
        freshly allocated (never scratch views), so callers may keep them.
    """
    pts = _check_points(points)
    n = pts.shape[0]
    if reference is not None:
        ref = np.asarray(reference, dtype=np.float64)
        if ref.shape != (n, 3):
            raise TrackingError(f"reference must be ({n}, 3), got {ref.shape}")
    else:
        ref = None
    return _trilinear_packed(
        field, pts, ref, scratch, row_offset=row_offset
    )


def _trilinear_packed(
    field: FiberField | FiberStack,
    pts: np.ndarray,
    ref: np.ndarray | None,
    scratch: Scratch | None = None,
    *,
    row_offset=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Validation-free trilinear core over the packed flat views.

    The scalar reference tracker calls this directly with ``(1, 3)``
    arrays — the same code path as the lockstep batch, so scalar and
    batch interpolation agree bitwise by construction.
    """
    n = pts.shape[0]
    n_fib = field.n_fibers
    f2, d2, _ = field.flat_views()
    flat, w, _ = _corner_indices(pts, field.shape3)
    if row_offset is not None:
        flat = flat + row_offset[None, :]
    sc = scratch if scratch is not None else Scratch()

    # One contiguous gather for all 8 corners of both images.
    flat_all = flat.reshape(8 * n)
    cf = np.take(
        f2, flat_all, axis=0, out=sc.get("cf", (8, n, n_fib)).reshape(8 * n, n_fib)
    ).reshape(8, n, n_fib)
    cd = np.take(
        d2,
        flat_all,
        axis=0,
        out=sc.get("cd", (8, n, n_fib, 3)).reshape(8 * n, n_fib, 3),
    ).reshape(8, n, n_fib, 3)

    # Axial sign alignment for every corner at once.  The dot products
    # are unrolled over the 3 components (einsum's generic loop is ~4x
    # slower at tracking batch sizes); only the *sign* of the dot is
    # consumed, so its last-ulp accumulation order cannot matter short
    # of a dot within one ulp of zero.
    r = ref[None, :, None, :] if ref is not None else cd[0][None]
    sign = np.multiply(cd[..., 0], r[..., 0], out=sc.get("sign", (8, n, n_fib)))
    tmp = np.multiply(cd[..., 1], r[..., 1], out=sc.get("tmp", (8, n, n_fib)))
    sign += tmp
    tmp = np.multiply(cd[..., 2], r[..., 2], out=tmp)
    sign += tmp
    np.sign(sign, out=sign)
    np.copyto(sign, 1.0, where=sign == 0.0)

    # Weighted corner accumulation; the reductions over the 8-corner
    # axis run in corner order, matching the reference loop.
    wf = np.multiply(w[:, :, None], cf, out=sc.get("wf", (8, n, n_fib)))
    f_out = wf.sum(axis=0)
    wf = np.multiply(wf, sign, out=wf)
    wfd = np.multiply(wf[..., None], cd, out=sc.get("wfd", (8, n, n_fib, 3)))
    d_out = wfd.sum(axis=0)

    # Renormalize: x*x is bitwise abs(x)**2, so this matches the
    # reference path's np.linalg.norm over the 3-vector exactly.
    nrm = np.multiply(d_out[..., 0], d_out[..., 0], out=sc.get("nrm", (n, n_fib)))
    t0 = np.multiply(d_out[..., 1], d_out[..., 1], out=tmp[0])
    nrm += t0
    t0 = np.multiply(d_out[..., 2], d_out[..., 2], out=tmp[0])
    nrm += t0
    np.sqrt(nrm, out=nrm)
    ok3 = (nrm > 1e-12)[:, :, None]
    np.divide(d_out, nrm[:, :, None], out=d_out, where=ok3)
    np.copyto(d_out, 0.0, where=~ok3)
    return f_out, d_out


def trilinear_lookup_reference(
    field: FiberField,
    points: np.ndarray,
    reference: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-optimization trilinear implementation (executable spec).

    Eight separate rounds of three-axis fancy indexing — kept as the
    behavioral reference the packed gather must match bit-for-bit, and as
    the "before" side of ``benchmarks/bench_parallel_scaling.py``'s
    kernel-pass measurement.
    """
    pts = _check_points(points)
    n = pts.shape[0]
    nx, ny, nz = field.shape3
    n_fib = field.n_fibers

    base = np.floor(pts).astype(np.int64)
    frac = pts - base
    f_out = np.zeros((n, n_fib))
    d_out = np.zeros((n, n_fib, 3))

    if reference is not None:
        ref = np.asarray(reference, dtype=np.float64)
        if ref.shape != (n, 3):
            raise TrackingError(f"reference must be ({n}, 3), got {ref.shape}")
    else:
        ref = None

    ref_dirs = None
    for corner in range(8):
        ox, oy, oz = corner & 1, (corner >> 1) & 1, (corner >> 2) & 1
        ix = np.clip(base[:, 0] + ox, 0, nx - 1)
        iy = np.clip(base[:, 1] + oy, 0, ny - 1)
        iz = np.clip(base[:, 2] + oz, 0, nz - 1)
        wx = frac[:, 0] if ox else 1.0 - frac[:, 0]
        wy = frac[:, 1] if oy else 1.0 - frac[:, 1]
        wz = frac[:, 2] if oz else 1.0 - frac[:, 2]
        w = wx * wy * wz
        cf = field.f[ix, iy, iz]  # (n, N)
        cd = field.directions[ix, iy, iz]  # (n, N, 3)
        if ref is not None:
            sign = np.sign(np.einsum("nkj,nj->nk", cd, ref))
        else:
            if ref_dirs is None:
                ref_dirs = cd.copy()
            sign = np.sign(np.einsum("nkj,nkj->nk", cd, ref_dirs))
        sign = np.where(sign == 0.0, 1.0, sign)
        f_out += w[:, None] * cf
        d_out += (w[:, None] * cf * sign)[:, :, None] * cd

    norm = np.linalg.norm(d_out, axis=-1)
    ok = norm > 1e-12
    d_out[ok] /= norm[ok][:, None]
    d_out[~ok] = 0.0
    return f_out, d_out
