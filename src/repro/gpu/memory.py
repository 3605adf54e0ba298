"""Device memory accounting: buffers and read-only 3-D images.

The tracking kernel binds each posterior sample volume as read-only 3-D
images shared by all threads (§ IV-B), and § IV-A's argument for on-device
RNG is a *memory* argument — so the simulator tracks allocations against
the device's capacity and raises :class:`~repro.errors.DeviceError` on
exhaustion, letting tests reproduce the ">20 GB does not fit" reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DeviceError
from repro.gpu.device import DeviceSpec

__all__ = ["DeviceBuffer", "Image3D", "DeviceMemory"]


@dataclass(frozen=True)
class DeviceBuffer:
    """A linear device allocation."""

    label: str
    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise DeviceError(f"buffer size must be >= 0, got {self.nbytes}")


@dataclass(frozen=True)
class Image3D:
    """A read-only 3-D image (texture) allocation.

    ``channels`` scalar values of ``itemsize`` bytes per voxel.
    """

    label: str
    shape: tuple[int, int, int]
    channels: int = 1
    itemsize: int = 4

    def __post_init__(self) -> None:
        if len(self.shape) != 3 or any(s < 1 for s in self.shape):
            raise DeviceError(f"bad image shape {self.shape}")
        if self.channels < 1 or self.itemsize < 1:
            raise DeviceError("channels and itemsize must be >= 1")

    @property
    def nbytes(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz * self.channels * self.itemsize


class DeviceMemory:
    """Tracks live allocations against a device's capacity."""

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self._live: dict[int, DeviceBuffer | Image3D] = {}
        self._next_id = 0
        self._used = 0
        self.peak_bytes = 0

    @property
    def used_bytes(self) -> int:
        """Sum of live allocation sizes (maintained as a running total,
        so alloc/free stay O(1) regardless of how many allocations are
        live)."""
        return self._used

    @property
    def free_bytes(self) -> int:
        """Remaining capacity."""
        return self.spec.memory_bytes - self.used_bytes

    def alloc(self, allocation: DeviceBuffer | Image3D) -> int:
        """Register an allocation; returns a handle.

        Raises
        ------
        DeviceError
            If the allocation exceeds the remaining capacity.
        """
        if allocation.nbytes > self.free_bytes:
            raise DeviceError(
                f"out of device memory allocating {allocation.label!r} "
                f"({allocation.nbytes} B; {self.free_bytes} B free of "
                f"{self.spec.memory_bytes} B)"
            )
        handle = self._next_id
        self._next_id += 1
        self._live[handle] = allocation
        self._used += allocation.nbytes
        self.peak_bytes = max(self.peak_bytes, self._used)
        return handle

    def free(self, handle: int) -> None:
        """Release an allocation by handle."""
        if handle not in self._live:
            raise DeviceError(f"unknown or already-freed handle {handle}")
        self._used -= self._live[handle].nbytes
        del self._live[handle]

    def alloc_array(self, label: str, array: np.ndarray) -> int:
        """Allocate a buffer sized like a host array."""
        return self.alloc(DeviceBuffer(label=label, nbytes=int(array.nbytes)))
