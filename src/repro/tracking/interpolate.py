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
The production core, :func:`trilinear_rows`, keeps the thread (row)
axis innermost.  It gathers all 8 corners with one contiguous ``take``
per image from the field's packed flat views
(:meth:`~repro.models.fields.FiberField.flat_views`, ``(n_vox, N)`` and
``(n_vox, N, 3)``), then copies the gathered directions once into
corner-major, row-innermost scratch ``(8, 3, N, n)`` (the fractions are
read once, through a transposed view).  Every later ufunc — sign
alignment, weighting, the corner sum and the renormalization — then
runs an inner loop of length ``n`` over contiguous memory instead of one
of length N (2) or 3 behind a broadcast, which is what made the
thread-major form slow at tracking batch sizes.  The transpose is of the gathered corners only: the
resident stack keeps its one ``(n_vox, ...)`` layout, so no second copy
of the posterior is ever built.  A :class:`Scratch` arena lets the
lockstep tracker reuse the per-call corner buffers across iterations.
The corner-by-corner accumulation order is the reference loop's, so
results are bit-identical to :func:`trilinear_lookup_reference` (the
pre-optimization implementation, kept for benchmarking and as an
executable spec).  :func:`trilinear_lookup` is the same core behind the
public ``(n, ...)`` signature.

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
    "trilinear_rows",
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


#: Corner offsets along the (2, 3, n) low/high axis of `_corner_indices`.
_CORNER_OFF = np.array([[[0]], [[1]]], dtype=np.int64)
#: ``frac * _W_SCALE + _W_SHIFT`` is ``(1 - frac, frac)`` on that axis
#: (``-frac + 1`` is ``1 - frac`` bitwise).
_W_SCALE = np.array([[[-1.0]], [[1.0]]])
_W_SHIFT = np.array([[[1.0]], [[0.0]]])


def _corner_indices(pts: np.ndarray, shape3: tuple[int, int, int]):
    """Clipped flat indices and weights of the 8 surrounding corners.

    ``pts`` is ``(3, n)``.  Returns ``(flat, w)``: ``flat`` is ``(8, n)``
    int64 and ``w`` ``(8, n)`` float64, corner ``c`` at offset bit
    pattern ``(c & 1, (c >> 1) & 1, (c >> 2) & 1)``.  Built from per-axis
    low/high pairs broadcast over a ``(z, y, x)``-ordered cube, so the
    whole corner fan costs a handful of vector ops instead of eight
    rounds of three-axis arithmetic.
    """
    nx, ny, nz = shape3
    n = pts.shape[1]
    base_f = np.floor(pts)
    frac = pts - base_f
    # Both corner planes of all three axes at once, (2, 3, n) with row 0
    # the low corner and row 1 the high one: clipped to the grid, then
    # scaled by the row-major axis strides.
    lim = np.array([[nx - 1, ny * nz], [ny - 1, nz], [nz - 1, 1]])
    bb = base_f.astype(np.int64) + _CORNER_OFF
    np.maximum(bb, 0, out=bb)
    np.minimum(bb, lim[:, :1], out=bb)
    bb *= lim[:, 1:]
    x, y, z = bb[:, 0], bb[:, 1], bb[:, 2]
    # flat = (x * ny + y) * nz + z; broadcasting (z, y, x) puts corner c
    # at flat row c = xbit + 2*ybit + 4*zbit after the C-order reshape.
    flat = (x[None, None] + y[None, :, None] + z[:, None, None]).reshape(8, n)

    ww = frac * _W_SCALE + _W_SHIFT
    wx, wy, wz = ww[:, 0], ww[:, 1], ww[:, 2]
    w = (wx[None, None] * wy[None, :, None] * wz[:, None, None]).reshape(8, n)
    return flat, w


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
        Optional :class:`Scratch` arena for the corner buffers.
    row_offset:
        ``(n,)`` per-point stacked-view offset (see
        :func:`nearest_lookup`).

    Returns
    -------
    (f, directions):
        ``f`` is ``(n, N)``; ``directions`` is ``(n, N, 3)``, renormalized
        to unit length where non-zero.  Both are transposed views of
        :func:`trilinear_rows`' freshly allocated outputs, so callers may
        keep them.
    """
    pts = _check_points(points)
    n = pts.shape[0]
    ref = None
    if reference is not None:
        ref = np.asarray(reference, dtype=np.float64)
        if ref.shape != (n, 3):
            raise TrackingError(f"reference must be ({n}, 3), got {ref.shape}")
        ref = np.ascontiguousarray(ref.T)
    f, d = trilinear_rows(
        field, np.ascontiguousarray(pts.T), ref, scratch, row_offset=row_offset
    )
    return f.T, d.transpose(2, 1, 0)


def trilinear_rows(
    field: FiberField | FiberStack,
    pts: np.ndarray,
    ref: np.ndarray | None,
    scratch: Scratch | None = None,
    *,
    row_offset=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Validation-free trilinear core, thread axis innermost.

    ``pts`` and ``ref`` are ``(3, n)`` (``ref`` may be None: align to
    corner 0, as :func:`trilinear_lookup`); ``row_offset`` is the batch
    tracker's ``(n,)`` stacked-view offset.  Returns ``f`` ``(N, n)``
    and ``directions`` ``(3, N, n)``, views of one freshly allocated
    array (never scratch).  The lockstep tracker calls this with its
    live rows and the scalar reference tracker with one row, so scalar
    and batch interpolation agree bitwise by construction.
    """
    n = pts.shape[1]
    n_fib = field.n_fibers
    f2, d2, _ = field.flat_views()
    flat, w = _corner_indices(pts, field.shape3)
    if row_offset is not None:
        flat += row_offset
    sc = scratch if scratch is not None else Scratch()

    # One contiguous gather per image for all 8 corners; the directions
    # are then copied once into corner-major, row-innermost scratch
    # cd (8, 3, N, n), and the fractions read through a transposed view.
    # The indices are in range by construction (clipped corners, sample
    # offsets below the stack size), and ``mode="clip"`` lets ``take``
    # write straight into ``out``: the default mode gathers into a
    # temporary and copies it over.
    flat_all = flat.reshape(8 * n)
    gf = sc.get("gf", (8 * n, n_fib))
    np.take(f2, flat_all, axis=0, out=gf, mode="clip")
    gd = sc.get("gd", (8 * n, n_fib, 3))
    np.take(d2, flat_all, axis=0, out=gd, mode="clip")
    cd = sc.get("cd", (8, 3, n_fib, n))
    cd[...] = gd.reshape(8, n, n_fib, 3).transpose(0, 3, 2, 1)

    # Axial sign alignment for every corner at once.  Only the sign of
    # the dot is consumed, so its last-ulp accumulation order cannot
    # matter short of a dot within one ulp of zero.
    r = ref[:, None, :] if ref is not None else cd[0]
    dot = np.multiply(cd[:, 0], r[0], out=sc.get("dot", (8, n_fib, n)))
    tmp = np.multiply(cd[:, 1], r[1], out=sc.get("tmp", (8, n_fib, n)))
    dot += tmp
    np.multiply(cd[:, 2], r[2], out=tmp)
    dot += tmp

    # Weighted corner terms, ``terms[c]`` = (w f, sign-aligned w f d) of
    # corner c.  Sign alignment uses the reference's sign 0 -> +1:
    # ``+ 0.0`` turns a -0.0 dot into +0.0, and copysign onto ``dot * wf``
    # (not ``dot``) keeps the sign of a negative fraction, so ``swf``
    # equals ``wf * sign`` for every finite input.
    terms = sc.get("terms", (8, 4, n_fib, n))
    wf = np.multiply(
        w[:, None, :], gf.reshape(8, n, n_fib).transpose(0, 2, 1), out=terms[:, 0]
    )
    dot += 0.0
    swf = np.multiply(dot, wf, out=tmp)
    np.copysign(wf, swf, out=swf)
    np.multiply(swf[:, None], cd, out=terms[:, 1:])
    # Corner-major terms make the sum over axis 0 add whole (4, N, n)
    # slabs corner by corner, the reference loop's order; NumPy sums
    # pairwise only along the contiguous axis, which is never the
    # corner axis here (4 N n >= 4).
    acc = np.add.reduce(terms, axis=0)
    f_out, d_out = acc[0], acc[1:]

    # Renormalize: x*x is bitwise abs(x)**2, so this matches the
    # reference path's np.linalg.norm over the 3-vector exactly.
    nrm = np.multiply(d_out[0], d_out[0], out=tmp[0])
    t0 = np.multiply(d_out[1], d_out[1], out=tmp[1])
    nrm += t0
    np.multiply(d_out[2], d_out[2], out=t0)
    nrm += t0
    np.sqrt(nrm, out=nrm)
    # Zero the populations whose norm is not above 1e-12 (NaN included);
    # dividing them by 1 first keeps the division unmasked (a ``where=``
    # ufunc runs several times slower).
    zero = ~(nrm > 1e-12)
    np.copyto(nrm, 1.0, where=zero)
    d_out /= nrm
    np.copyto(d_out, 0.0, where=zero)
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
