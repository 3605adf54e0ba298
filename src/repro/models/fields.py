"""Realized per-voxel fiber configurations: one field, or a sample stack.

These structures are the bridge between the two pipeline stages (Fig 1).
Each posterior *sample* is six 3-D volumes (``f1, f2, theta1, theta2,
phi1, phi2``), stored here as volume fractions plus Cartesian direction
volumes — the "sample volume" a GPU kernel binds as read-only 3-D images.

* :class:`FiberStack` is the one layout the MCMC stage hands to the
  tracker: every sample on one grid, stacked on a leading axis and built
  once, straight from the ``(S, n_mask_vox, n_params)`` posterior.  The
  lockstep kernel gathers from its flat views (a reshape, no copy), and
  a sample slice is a view — what a tracking shard pickles.
* :class:`FiberField` is one sample volume.  ``stack[s]`` is a view of
  sample ``s``; phantoms build their ground truth as a field, and the
  scalar tracker, the baselines and the ``.trk`` export consume one.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import DataError, TrackingError
from repro.utils.geometry import spherical_to_cartesian

__all__ = ["FiberField", "FiberStack"]

#: ``(sample, voxel)`` rows :meth:`FiberStack.from_posterior` converts
#: per pass, so its temporaries stay a few MB beside the stack it fills.
POSTERIOR_CHUNK_ROWS = 65_536


@dataclass
class FiberField:
    """Per-voxel fiber orientations and volume fractions on a grid.

    Attributes
    ----------
    f:
        ``(nx, ny, nz, N)`` volume fractions; zero where no fiber exists.
    directions:
        ``(nx, ny, nz, N, 3)`` unit fiber directions (undefined — any
        value — where the matching ``f`` is zero).
    mask:
        ``(nx, ny, nz)`` bool; True for valid (tracked/estimated) voxels.
    """

    f: np.ndarray
    directions: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        self.f = np.asarray(self.f, dtype=np.float64)
        self.directions = np.asarray(self.directions, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.f.ndim != 4:
            raise DataError(f"f must be 4-D (x, y, z, N), got shape {self.f.shape}")
        if self.directions.shape != self.f.shape + (3,):
            raise DataError(
                f"directions must have shape {self.f.shape + (3,)}, "
                f"got {self.directions.shape}"
            )
        if self.mask.shape != self.f.shape[:3]:
            raise DataError(
                f"mask must have shape {self.f.shape[:3]}, got {self.mask.shape}"
            )
        if np.any(self.f < -1e-9) or np.any(self.f.sum(axis=-1) > 1.0 + 1e-9):
            raise DataError("volume fractions must be >= 0 and sum to <= 1")

    @property
    def shape3(self) -> tuple[int, int, int]:
        """Spatial grid shape."""
        return tuple(self.f.shape[:3])  # type: ignore[return-value]

    @property
    def n_fibers(self) -> int:
        """Maximum number of fiber compartments per voxel."""
        return self.f.shape[3]

    @property
    def n_valid(self) -> int:
        """Number of masked-in voxels."""
        return int(self.mask.sum())

    def memory_bytes(self) -> int:
        """Bytes this field occupies (the per-sample GPU image footprint)."""
        return self.f.nbytes + self.directions.nbytes + self.mask.nbytes

    def flat_views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Packed C-contiguous flat views for fast voxel gathers.

        Returns ``(f2, d2, mask_flat)`` with shapes ``(n_vox, N)``,
        ``(n_vox, N, 3)`` and ``(n_vox,)`` — the layout a GPU binds as
        read-only images, so a trilinear corner gather is one flat
        ``take`` instead of three-axis fancy indexing.  Built lazily and
        cached; the field is treated as immutable once tracking starts
        (mutate ``f``/``directions``/``mask`` only before first use).
        """
        cache = getattr(self, "_flat_cache", None)
        if cache is None:
            n_vox = int(np.prod(self.shape3))
            cache = (
                np.ascontiguousarray(self.f.reshape(n_vox, self.n_fibers)),
                np.ascontiguousarray(
                    self.directions.reshape(n_vox, self.n_fibers, 3)
                ),
                np.ascontiguousarray(self.mask.reshape(n_vox)),
            )
            self._flat_cache = cache
        return cache

    def __getstate__(self) -> dict:
        # The flat cache holds views of f/directions/mask; pickling it
        # would ship every volume twice (workers rebuild it lazily).
        state = dict(self.__dict__)
        state.pop("_flat_cache", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


@dataclass(eq=False)
class FiberStack:
    """S sample volumes on one grid, stacked on a leading sample axis.

    Attributes
    ----------
    f:
        ``(S, nx, ny, nz, N)`` volume fractions.
    directions:
        ``(S, nx, ny, nz, N, 3)`` unit fiber directions.
    mask:
        ``(nx, ny, nz)`` bool, shared by every sample.

    Build one with :meth:`from_posterior` (stage 1's samples) or
    :meth:`from_fields` (any field sequence); both produce C-contiguous
    arrays, so :meth:`flat_views` and contiguous slices never copy.
    """

    f: np.ndarray
    directions: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        self.f = np.asarray(self.f, dtype=np.float64)
        self.directions = np.asarray(self.directions, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.f.ndim != 5:
            raise DataError(
                f"f must be 5-D (sample, x, y, z, N), got shape {self.f.shape}"
            )
        if self.directions.shape != self.f.shape + (3,):
            raise DataError(
                f"directions must have shape {self.f.shape + (3,)}, "
                f"got {self.directions.shape}"
            )
        if self.mask.shape != self.f.shape[1:4]:
            raise DataError(
                f"mask must have shape {self.f.shape[1:4]}, got {self.mask.shape}"
            )

    @classmethod
    def from_posterior(
        cls,
        samples: np.ndarray,
        mask: np.ndarray,
        layout,
        f_threshold: float = 0.05,
    ) -> "FiberStack":
        """Scatter a ``(S, n_mask_vox, n_params)`` posterior into a stack.

        Realizes Fig 1's "six 4-D volumes" handoff for every sample at
        once: each masked voxel's fractions and angles (per ``layout``,
        a :class:`~repro.models.posterior.ParameterLayout`) land at its
        grid position.  Fractions below ``f_threshold`` are zeroed (FSL
        applies the same cutoff so noise fibers do not divert
        streamlines), clipped to ``[0, 1]``, and rows summing over one
        are renormalized.  Every step is elementwise or per voxel row,
        so each sample equals converting it alone.
        """
        samples = np.asarray(samples, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        at = np.flatnonzero(mask.reshape(-1))
        if samples.ndim != 3 or samples.shape[1] != at.size:
            raise DataError(
                f"samples must be (n_samples, {at.size} masked voxels, "
                f"n_params), got {samples.shape}"
            )
        n_samples, n_fib = samples.shape[0], layout.n_fibers
        f = np.zeros((n_samples,) + mask.shape + (n_fib,))
        directions = np.zeros((n_samples,) + mask.shape + (n_fib, 3))
        f_rows = f.reshape(n_samples, mask.size, n_fib)
        d_rows = directions.reshape(n_samples, mask.size, n_fib, 3)
        step = max(1, POSTERIOR_CHUNK_ROWS // max(n_samples, 1))
        for lo in range(0, at.size, step):
            hi = lo + step
            p = samples[:, lo:hi]
            frac = p[..., layout.f].copy()
            frac[frac < f_threshold] = 0.0
            # Clip tiny negative / super-unit pathologies defensively.
            frac = np.clip(frac, 0.0, 1.0)
            over = frac.sum(axis=-1) > 1.0
            if over.any():
                frac[over] /= frac[over].sum(axis=-1, keepdims=True)
            f_rows[:, at[lo:hi]] = frac
            d_rows[:, at[lo:hi]] = spherical_to_cartesian(
                p[..., layout.theta], p[..., layout.phi]
            )
        return cls(f=f, directions=directions, mask=mask)

    @classmethod
    def from_fields(
        cls, fields: "FiberStack | FiberField | Sequence[FiberField]"
    ) -> "FiberStack":
        """The tracker's one input normaliser.

        A non-empty stack is returned as it is; a bare field, or a
        one-field sequence, becomes a one-sample stack of views; a longer
        field sequence is stacked once (a copy).  Samples must share one
        grid shape, fiber count and mask.
        """
        if isinstance(fields, FiberStack):
            if not fields.n_samples:
                raise TrackingError("need at least one sample volume")
            return fields
        if isinstance(fields, FiberField):
            fields = [fields]
        fields = list(fields)
        if not fields:
            raise TrackingError("need at least one sample volume")
        first = fields[0]
        for i, fld in enumerate(fields):
            if fld.shape3 != first.shape3 or fld.n_fibers != first.n_fibers:
                raise TrackingError(
                    f"sample {i} has shape {fld.shape3} x {fld.n_fibers} fibers; "
                    f"tracking needs homogeneous samples "
                    f"({first.shape3} x {first.n_fibers})"
                )
            if not np.array_equal(fld.mask, first.mask):
                raise TrackingError(
                    f"sample {i} has a different mask; tracking needs "
                    f"homogeneous samples sharing one mask"
                )
        if len(fields) == 1:
            return cls(
                f=first.f[None], directions=first.directions[None], mask=first.mask
            )
        return cls(
            f=np.stack([fld.f for fld in fields]),
            directions=np.stack([fld.directions for fld in fields]),
            mask=first.mask,
        )

    @property
    def n_samples(self) -> int:
        return self.f.shape[0]

    def __len__(self) -> int:
        return self.n_samples

    @property
    def shape3(self) -> tuple[int, int, int]:
        """Spatial grid shape."""
        return tuple(self.f.shape[1:4])  # type: ignore[return-value]

    @property
    def n_fibers(self) -> int:
        """Maximum number of fiber compartments per voxel."""
        return self.f.shape[4]

    def __getitem__(self, index):
        """``stack[s]`` is a :class:`FiberField` view of sample ``s``;
        ``stack[lo:hi]`` a :class:`FiberStack` view of those samples."""
        if isinstance(index, slice):
            return FiberStack(
                f=self.f[index], directions=self.directions[index], mask=self.mask
            )
        s = range(self.n_samples)[index]
        return FiberField(f=self.f[s], directions=self.directions[s], mask=self.mask)

    def __iter__(self) -> Iterator[FiberField]:
        return (self[s] for s in range(self.n_samples))

    def flat_views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked ``(f2, d2, mask_flat)`` over all samples (no copy).

        ``f2`` is ``(S * n_vox, N)`` and ``d2`` ``(S * n_vox, N, 3)``:
        row-major voxel ``v`` of sample ``s`` lives at row
        ``s * n_vox + v``, the tracker's stacked gather offset.
        ``mask_flat`` is the one shared ``(n_vox,)`` mask.
        """
        n_vox = self.mask.size
        rows = self.n_samples * n_vox
        return (
            self.f.reshape(rows, self.n_fibers),
            self.directions.reshape(rows, self.n_fibers, 3),
            self.mask.reshape(n_vox),
        )
