"""Shared utilities: geometry helpers.

Process-level parallelism lives in :mod:`repro.runtime` (stage-generic
shards with supervision); the old ``utils.parallel`` chunked-map
helpers it superseded are gone.
"""

from repro.utils.geometry import (
    angle_between,
    cartesian_to_spherical,
    fibonacci_sphere,
    normalize,
    random_unit_vectors,
    rotation_between,
    rotation_matrix,
    spherical_to_cartesian,
)

__all__ = [
    "angle_between",
    "cartesian_to_spherical",
    "fibonacci_sphere",
    "normalize",
    "random_unit_vectors",
    "rotation_between",
    "rotation_matrix",
    "spherical_to_cartesian",
]
