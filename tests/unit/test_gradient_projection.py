"""``gradient_projection`` equals the einsum it replaced, bit for bit.

The multi-fiber model (and through it the phantom generator) and the
MCMC sweep's compartment cache project stick directions on the gradient
table with :func:`gradient_projection`.  Before it, both used
``np.einsum``; stored phantoms and samples stay byte-identical only while
the two agree exactly.
"""

import numpy as np
import pytest

from repro.models.multi_fiber import gradient_projection


def _shapes(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng, int(rng.integers(1, 800)), int(rng.integers(1, 131)), int(rng.integers(1, 4))


@pytest.mark.parametrize("seed", range(3))
def test_n_fiber_projection_matches_einsum(seed):
    for rng, n, m, n_fib in _shapes(seed, 40):
        dirs = rng.normal(size=(n, n_fib, 3))
        bvecs = rng.normal(size=(m, 3))
        want = np.einsum("vnj,mj->vnm", dirs, bvecs)
        got = gradient_projection(dirs[..., 0], dirs[..., 1], dirs[..., 2], bvecs.T)
        assert got.shape == (n, n_fib, m)
        assert got.tobytes() == want.tobytes(), (n, n_fib, m)


@pytest.mark.parametrize("seed", range(3))
def test_one_fiber_projection_matches_einsum(seed):
    for rng, n, m, _ in _shapes(seed + 10, 40):
        dirs = rng.normal(size=(n, 3))
        bvecs = rng.normal(size=(m, 3))
        want = np.einsum("vj,mj->vm", dirs, bvecs)
        g = np.ascontiguousarray(bvecs.T)
        out, scratch = np.empty((n, m)), np.empty((n, m))
        x, y, z = (np.ascontiguousarray(dirs[:, i]) for i in range(3))
        got = gradient_projection(x, y, z, g, out=out, scratch=scratch)
        assert got is out
        assert got.tobytes() == want.tobytes(), (n, m)


def test_unit_vectors_on_a_real_table():
    """Unit directions from angles against a gradient table with b=0
    rows (the shapes and values the sampler sees), N = 1, 2, 3.

    Against a zero gradient the helper may give ``-0.0`` where the
    einsum's accumulator gave ``+0.0``; every consumer squares the
    projection, and the squares are bitwise equal."""
    from repro.utils.geometry import fibonacci_sphere, spherical_to_cartesian

    rng = np.random.default_rng(3)
    bvecs = np.concatenate([np.zeros((4, 3)), fibonacci_sphere(64)])
    for n_fib in (1, 2, 3):
        theta = rng.uniform(0, np.pi, (500, n_fib))
        phi = rng.uniform(-np.pi, 3 * np.pi, (500, n_fib))
        dirs = spherical_to_cartesian(theta, phi)
        want = np.einsum("vnj,mj->vnm", dirs, bvecs)
        sin_t = np.sin(theta)
        got = gradient_projection(
            sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta), bvecs.T
        )
        assert np.array_equal(got, want), n_fib
        assert (got**2).tobytes() == (want**2).tobytes(), n_fib
