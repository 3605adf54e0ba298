"""The spec trilinear lookup, shaped to stand in for the batch tracker's.

``BatchTracker`` interpolates every active row of a sample stack in one
packed gather (``trilinear_lookup`` with a per-row ``row_offset``).
:func:`spec_stack_lookup` has the same call signature but groups the rows
by sample and runs the executable spec, ``trilinear_lookup_reference``,
on each sample volume.  Patch it over ``repro.tracking.batch.trilinear_lookup``
to run a whole (in-process) tracking run on the spec lookup.
"""

import numpy as np

from repro.tracking.interpolate import trilinear_lookup_reference


def spec_stack_lookup(stack, points, reference=None, scratch=None, *, row_offset=None):
    n = points.shape[0]
    n_fib = stack.n_fibers
    samp = np.asarray(row_offset) // int(np.prod(stack.shape3))
    f = np.empty((n, n_fib), dtype=np.float64)
    d = np.empty((n, n_fib, 3), dtype=np.float64)
    for s in np.unique(samp):
        rows = samp == s
        fs, ds = trilinear_lookup_reference(
            stack[int(s)], points[rows], reference=reference[rows]
        )
        f[rows] = fs
        d[rows] = ds
    return f, d
