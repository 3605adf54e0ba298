"""Connectome workloads: ROI atlases, endpoint matrices, graph export.

The third pipeline stage (see :data:`repro.config.stages.CONNECTOME`):
parcellate the tracked volume with a named atlas, map the endpoint pair
of every streamline stage 2 tracked onto ROI labels, and accumulate a
symmetric connectivity matrix plus its JSON graph export.  Memoized and
orchestrated by :mod:`repro.pipeline.connectome`.
"""

from repro.connectome.atlas import Atlas, build_atlas
from repro.connectome.matrix import connectome_graph, endpoint_connectome

__all__ = [
    "Atlas",
    "build_atlas",
    "endpoint_connectome",
    "connectome_graph",
]
