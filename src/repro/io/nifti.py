"""Minimal single-file NIfTI-1 reader/writer.

Implements the subset of the NIfTI-1.1 specification needed to round-trip
the pipeline's volumes (and to read typical DTI datasets like the CABI ones
the paper downloads): single-file ``.nii`` or ``.nii.gz``, 3-D/4-D scalar
images, little- or big-endian headers, scl_slope/scl_inter scaling, and the
sform affine (falling back to pixdim when no sform is set).

Layout notes
------------
NIfTI stores voxel data in Fortran order (x fastest); :class:`~repro.io.volume.Volume`
uses C-contiguous ``(nx, ny, nz, ...)`` arrays, so read/write transposes
accordingly.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

from repro.errors import IOFormatError
from repro.io.volume import Volume

__all__ = ["read_nifti", "write_nifti"]

_HDR_SIZE = 348
_MAGIC = b"n+1\x00"

#: NIfTI datatype code -> numpy dtype (the scalar types we support).
_DTYPES: dict[int, np.dtype] = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    8: np.dtype(np.int32),
    16: np.dtype(np.float32),
    64: np.dtype(np.float64),
    256: np.dtype(np.int8),
    512: np.dtype(np.uint16),
    768: np.dtype(np.uint32),
}
_CODES = {v: k for k, v in _DTYPES.items()}


def _open(path: Path, mode: str):
    if str(path).endswith(".gz"):
        # A zero gzip timestamp: identical volumes write identical bytes.
        return gzip.GzipFile(path, mode, mtime=0)
    return open(path, mode)


def read_nifti(path: str | Path) -> Volume:
    """Read a single-file NIfTI-1 image into a :class:`Volume`.

    Scaling (``scl_slope``/``scl_inter``) is applied when present, in which
    case the returned data is float64.
    """
    path = Path(path)
    with _open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HDR_SIZE + 4:
        raise IOFormatError(f"{path}: file too short for a NIfTI-1 header")

    sizeof_hdr = struct.unpack("<i", raw[:4])[0]
    endian = "<"
    if sizeof_hdr != _HDR_SIZE:
        sizeof_hdr = struct.unpack(">i", raw[:4])[0]
        endian = ">"
        if sizeof_hdr != _HDR_SIZE:
            raise IOFormatError(f"{path}: not a NIfTI-1 file (bad sizeof_hdr)")

    if raw[344:348] not in (b"n+1\x00", b"ni1\x00"):
        raise IOFormatError(f"{path}: bad NIfTI magic {raw[344:348]!r}")
    if raw[344:348] == b"ni1\x00":
        raise IOFormatError(f"{path}: two-file (.hdr/.img) NIfTI is not supported")

    dim = struct.unpack(endian + "8h", raw[40:56])
    ndim = dim[0]
    if not 1 <= ndim <= 7:
        raise IOFormatError(f"{path}: invalid dim[0]={ndim}")
    shape = tuple(max(1, d) for d in dim[1 : 1 + max(3, ndim)])

    datatype = struct.unpack(endian + "h", raw[70:72])[0]
    if datatype not in _DTYPES:
        raise IOFormatError(f"{path}: unsupported NIfTI datatype code {datatype}")
    dtype = _DTYPES[datatype].newbyteorder(endian)

    pixdim = struct.unpack(endian + "8f", raw[76:108])
    vox_offset = int(struct.unpack(endian + "f", raw[108:112])[0])
    scl_slope = struct.unpack(endian + "f", raw[112:116])[0]
    scl_inter = struct.unpack(endian + "f", raw[116:120])[0]
    sform_code = struct.unpack(endian + "h", raw[254:256])[0]
    srow = np.frombuffer(raw[280:328], dtype=np.dtype(np.float32).newbyteorder(endian))

    n_items = int(np.prod(shape))
    data_bytes = raw[vox_offset : vox_offset + n_items * dtype.itemsize]
    if len(data_bytes) < n_items * dtype.itemsize:
        raise IOFormatError(f"{path}: truncated data section")
    flat = np.frombuffer(data_bytes, dtype=dtype)
    data = flat.reshape(shape[::-1]).transpose(range(len(shape))[::-1])
    data = np.ascontiguousarray(data)

    if scl_slope not in (0.0, 1.0) or scl_inter != 0.0:
        slope = scl_slope if scl_slope != 0.0 else 1.0
        data = data.astype(np.float64) * slope + scl_inter

    if sform_code > 0:
        affine = np.eye(4)
        affine[:3, :] = srow.reshape(3, 4).astype(np.float64)
    else:
        affine = np.eye(4)
        affine[0, 0], affine[1, 1], affine[2, 2] = pixdim[1], pixdim[2], pixdim[3]

    if len(shape) < 3:
        data = data.reshape(shape + (1,) * (3 - len(shape)))
    return Volume(data=data, affine=affine)


def write_nifti(path: str | Path, volume: Volume) -> None:
    """Write a :class:`Volume` as a little-endian single-file NIfTI-1 image.

    The affine is stored as the sform (code 2, "aligned"); qform is left
    unset.  Data dtype is preserved when it is a supported NIfTI scalar
    type, otherwise cast to float32.
    """
    path = Path(path)
    data = volume.data
    if data.ndim > 7:
        raise IOFormatError(f"cannot write ndim={data.ndim} > 7 to NIfTI-1")
    dtype = np.dtype(data.dtype).newbyteorder("=")
    if np.dtype(data.dtype.newbyteorder("=")) not in _CODES:
        if np.issubdtype(data.dtype, np.complexfloating):
            raise IOFormatError("complex data cannot be written to NIfTI-1")
        dtype = np.dtype(np.float32)
    data = np.asarray(data, dtype=dtype.newbyteorder("<"))

    dim = [data.ndim] + list(data.shape) + [1] * (7 - data.ndim)
    voxel_sizes = volume.voxel_sizes
    pixdim = [0.0, voxel_sizes[0], voxel_sizes[1], voxel_sizes[2]] + [1.0] * 4

    hdr = bytearray(_HDR_SIZE)
    struct.pack_into("<i", hdr, 0, _HDR_SIZE)
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<h", hdr, 70, _CODES[np.dtype(dtype.newbyteorder("="))])
    struct.pack_into("<h", hdr, 72, dtype.itemsize * 8)  # bitpix
    struct.pack_into("<8f", hdr, 76, *pixdim)
    struct.pack_into("<f", hdr, 108, 352.0)  # vox_offset
    struct.pack_into("<f", hdr, 112, 1.0)  # scl_slope
    struct.pack_into("<f", hdr, 116, 0.0)  # scl_inter
    struct.pack_into("<h", hdr, 252, 0)  # qform_code
    struct.pack_into("<h", hdr, 254, 2)  # sform_code = aligned
    struct.pack_into(
        "<12f", hdr, 280, *volume.affine[:3, :].astype(np.float32).ravel()
    )
    hdr[344:348] = _MAGIC

    # Fortran-order voxel stream: x varies fastest.
    payload = np.transpose(data, range(data.ndim)[::-1]).tobytes()
    with _open(path, "wb") as fh:
        fh.write(bytes(hdr))
        fh.write(b"\x00\x00\x00\x00")  # no extensions
        fh.write(payload)
