"""The spec trilinear lookup, shaped to stand in for the batch tracker's.

``BatchTracker`` interpolates every live row of a sample stack in one
packed gather, through the module-level hook
``repro.tracking.batch.trilinear_rows`` (row-innermost: ``(3, n)``
points and references in, ``(N, n)`` fractions and ``(3, N, n)``
directions out, with a per-row ``row_offset``).  :class:`SpecStackLookup`
has the same call signature and layout but groups the rows by sample and
runs the executable spec, ``trilinear_lookup_reference``, on each sample
volume.  Patch an instance over that hook to run a whole (in-process)
tracking run on the spec lookup; its ``calls`` count lets the test prove
the patch reached the kernel.
"""

import numpy as np

from repro.tracking.interpolate import trilinear_lookup_reference

#: The kernel's lookup hook, as ``monkeypatch.setattr`` takes it.
KERNEL_LOOKUP = "repro.tracking.batch.trilinear_rows"


class SpecStackLookup:
    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, stack, pts, ref, scratch=None, *, row_offset=None):
        self.calls += 1
        n = pts.shape[1]
        n_fib = stack.n_fibers
        samp = np.asarray(row_offset) // int(np.prod(stack.shape3))
        f = np.empty((n_fib, n), dtype=np.float64)
        d = np.empty((3, n_fib, n), dtype=np.float64)
        for s in np.unique(samp):
            rows = samp == s
            fs, ds = trilinear_lookup_reference(
                stack[int(s)], pts[:, rows].T, reference=ref[:, rows].T
            )
            f[:, rows] = fs.T
            d[:, :, rows] = ds.transpose(2, 1, 0)
        return f, d
