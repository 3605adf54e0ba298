"""Global connectivity estimation (paper § III-B1, Fig 1's output).

``P(exists A -> B | Y)`` is estimated by counting, over posterior sample
volumes, the fraction of samples whose streamline from seed ``A`` passes
through voxel ``B``.  The accumulator receives raw per-step visits from
the tracker (a streamline revisits a voxel many times when the step
length is a fraction of a voxel), dedupes them within each sample, and
maintains a sparse ``(n_seeds, n_voxels)`` count matrix — the paper's
connectivity matrix ``P`` with rows restricted to seed voxels.

Internally each closed sample contributes one deduplicated array of
``seed * n_voxels + voxel`` pairs; the CSR count arrays are assembled
*once*, lazily, from the pooled pairs (and cached until the next sample
closes) rather than by per-sample CSR addition — integer summation is
associative, so the counts are identical either way, and the assembly
cost drops from O(samples * nnz) to O(nnz).  The per-sample pair arrays
are also the unit of transfer for sharded tracking
(:mod:`repro.tracking.shards`): :meth:`ConnectivityAccumulator.absorb`
folds a worker's closed samples into the parent accumulator
deterministically.

The CSR arrays are built with NumPy (:meth:`~ConnectivityAccumulator.csr_arrays`)
and are what the store and the density map read; only the SciPy matrix
views (:attr:`~ConnectivityAccumulator.counts`,
:meth:`~ConnectivityAccumulator.probability`) import ``scipy.sparse``,
on first use, so a tracking request never loads it
(docs/parallelism.md, "Lean workers").
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrackingError
from repro.utils.voxels import unique_sorted

__all__ = ["ConnectivityAccumulator"]

_INT32_MAX = np.iinfo(np.int32).max


def _csr_from_pairs(
    sample_pairs: list[np.ndarray], n_seeds: int, n_voxels: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(data, indices, indptr)`` of the pooled pairs' count matrix.

    Equal in values and dtypes to SciPy's
    ``coo_matrix((ones, divmod(pairs, n_voxels))).tocsr()``: one entry per
    distinct ``(row, col)``, columns sorted within each row, int64 data
    (each sample holds a pair at most once, so an entry's count is its
    number of samples), and int32 index arrays unless the shape or the
    pooled pair count exceeds int32 — SciPy's index-dtype rule, so stored
    entries keep their bytes.
    """
    pooled = (
        np.concatenate(sample_pairs) if sample_pairs else np.empty(0, np.int64)
    )
    fits = max(n_seeds, n_voxels, pooled.size) <= _INT32_MAX
    index_dtype = np.int32 if fits else np.int64
    keys, data = np.unique(pooled, return_counts=True)
    rows, cols = np.divmod(keys, n_voxels)
    indptr = np.zeros(n_seeds + 1, dtype=index_dtype)
    np.cumsum(np.bincount(rows, minlength=n_seeds), out=indptr[1:])
    return data.astype(np.int64, copy=False), cols.astype(index_dtype), indptr


class ConnectivityAccumulator:
    """Streams per-step visits into a sparse seed-by-voxel count matrix.

    Parameters
    ----------
    n_seeds, n_voxels:
        Matrix dimensions.
    seed_map:
        Optional array mapping incoming thread indices to seed rows —
        used by bidirectional seeding, where threads ``i`` and
        ``i + n_seeds`` are the two senses of seed ``i`` and their visits
        must merge into one row.
    """

    def __init__(
        self,
        n_seeds: int,
        n_voxels: int,
        seed_map: np.ndarray | None = None,
    ) -> None:
        if n_seeds < 1 or n_voxels < 1:
            raise TrackingError(
                f"need n_seeds >= 1 and n_voxels >= 1, got {n_seeds}, {n_voxels}"
            )
        self.n_seeds = n_seeds
        self.n_voxels = n_voxels
        self.n_samples = 0
        self._sample_pairs: list[np.ndarray] = []
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._pending: list[np.ndarray] | None = None
        if seed_map is not None:
            seed_map = np.asarray(seed_map, dtype=np.int64)
            if seed_map.ndim != 1 or np.any(
                (seed_map < 0) | (seed_map >= n_seeds)
            ):
                raise TrackingError("seed_map entries must index seed rows")
        self.seed_map = seed_map

    @classmethod
    def from_csr(
        cls,
        n_seeds: int,
        n_voxels: int,
        n_samples: int,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
    ) -> "ConnectivityAccumulator":
        """An accumulator holding stored counts (:meth:`csr_arrays` output).

        A store hit's rehydrate: it carries no per-sample pairs, so it
        reads counts but is not meant to absorb further samples.
        """
        acc = cls(n_seeds, n_voxels)
        acc.n_samples = n_samples
        acc._csr = (data, indices, indptr)
        return acc

    def begin_sample(self) -> None:
        """Open a sample volume's visit stream."""
        if self._pending is not None:
            raise TrackingError("begin_sample() called twice without end_sample()")
        self._pending = []

    def visit(self, seed_indices: np.ndarray, voxel_indices: np.ndarray) -> None:
        """Record one tracking step's visits (vectors of equal length)."""
        if self._pending is None:
            raise TrackingError("visit() outside begin_sample()/end_sample()")
        s = np.asarray(seed_indices, dtype=np.int64)
        v = np.asarray(voxel_indices, dtype=np.int64)
        if s.shape != v.shape or s.ndim != 1:
            raise TrackingError(
                f"seed/voxel index shapes differ: {s.shape} vs {v.shape}"
            )
        if s.size == 0:
            return
        if self.seed_map is not None:
            if np.any((s < 0) | (s >= self.seed_map.size)):
                raise TrackingError("thread index out of seed_map range")
            s = self.seed_map[s]
        elif np.any((s < 0) | (s >= self.n_seeds)):
            raise TrackingError("seed index out of range")
        if np.any((v < 0) | (v >= self.n_voxels)):
            raise TrackingError("voxel index out of range")
        self._pending.append(s * self.n_voxels + v)

    def end_sample(self) -> None:
        """Close the sample: dedupe its visits and pool the pairs."""
        if self._pending is None:
            raise TrackingError("end_sample() without begin_sample()")
        pairs = (
            unique_sorted(np.concatenate(self._pending))
            if self._pending
            else np.empty(0, dtype=np.int64)
        )
        self._pending = None
        self._sample_pairs.append(pairs)
        self.n_samples += 1
        self._csr = None

    def sample_pairs(self) -> list[np.ndarray]:
        """Per-sample deduplicated pair arrays (the mergeable state)."""
        if self._pending is not None:
            raise TrackingError("sample still open; call end_sample() first")
        return list(self._sample_pairs)

    def absorb(self, sample_pairs: list[np.ndarray]) -> None:
        """Fold another accumulator's closed samples into this one.

        ``sample_pairs`` is :meth:`sample_pairs` output from an
        accumulator with identical dimensions and seed mapping (e.g. a
        sharded run's worker).  Counts after absorbing shards
        in sample order are bit-identical to a serial accumulation.
        """
        if self._pending is not None:
            raise TrackingError("cannot absorb while a sample is open")
        for pairs in sample_pairs:
            self._sample_pairs.append(np.asarray(pairs, dtype=np.int64))
            self.n_samples += 1
        self._csr = None

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The count matrix as CSR ``(data, indices, indptr)`` arrays.

        Shape ``(n_seeds, n_voxels)``; built with NumPy from the pooled
        pairs on first call and cached until the next sample closes.
        """
        if self._csr is None:
            self._csr = _csr_from_pairs(
                self._sample_pairs, self.n_seeds, self.n_voxels
            )
        return self._csr

    @property
    def counts(self):
        """Raw visit counts, ``(n_seeds, n_voxels)``, as a
        ``scipy.sparse.csr_matrix`` over :meth:`csr_arrays`."""
        from scipy import sparse

        return sparse.csr_matrix(
            self.csr_arrays(), shape=(self.n_seeds, self.n_voxels)
        )

    def probability(self):
        """``P(exists seed -> voxel | Y)``: counts / n_samples, as a
        ``scipy.sparse.csr_matrix``."""
        if self.n_samples == 0:
            raise TrackingError("no samples accumulated yet")
        return self.counts.multiply(1.0 / self.n_samples).tocsr()

    def connected_voxels(self, seed_index: int, threshold: float = 0.0) -> np.ndarray:
        """Flat voxel indices with connection probability > ``threshold``."""
        if not 0 <= seed_index < self.n_seeds:
            raise TrackingError(f"seed_index {seed_index} out of range")
        row = self.probability().getrow(seed_index)
        cols = row.indices[row.data > threshold]
        return np.sort(cols)

    def visit_count_volume(self, shape3: tuple[int, int, int]) -> np.ndarray:
        """Total visits per voxel, reshaped to the grid — a "density map"."""
        nx, ny, nz = shape3
        if nx * ny * nz != self.n_voxels:
            raise TrackingError(
                f"grid {shape3} has {nx * ny * nz} voxels, expected {self.n_voxels}"
            )
        data, indices, _ = self.csr_arrays()
        total = np.zeros(self.n_voxels, dtype=np.int64)
        np.add.at(total, indices, data)
        return total.reshape(shape3)
