"""The prior's support at its edges, in the spec and in the sampler's cache.

``MultiFiberPriors.log_prior`` is the executable spec of the prior; the
MCMC sweep's ``CompartmentCache`` composes the same terms one parameter
at a time.  Each edge case below is checked against the spec, and then
pushed through ``CompartmentCache.propose`` at every parameter index
(the edge value either moving or sitting in the cached terms), which
must give the full posterior's ``lp`` bit for bit.
"""

import numpy as np
import pytest

from repro.io import GradientTable
from repro.models import CompartmentCache, LogPosterior, MultiFiberModel, MultiFiberPriors
from repro.utils.geometry import fibonacci_sphere

PRIORS = MultiFiberPriors()
LO, HI = PRIORS.sigma_bounds

#: (name, {parameter: value}, finite?) for a two-fiber state; every
#: other parameter keeps a valid value.  ``theta`` at the float ``pi``
#: is not a pole: ``sin(np.pi)`` is 1.2e-16, not 0.
EDGES = [
    ("theta1 at 0", {"theta1": 0.0}, False),
    ("theta2 at -0", {"theta2": -0.0}, False),
    ("theta1 at pi", {"theta1": np.pi}, True),
    ("sigma at lo", {"sigma": LO}, True),
    ("sigma at hi", {"sigma": HI}, True),
    ("sigma below lo", {"sigma": np.nextafter(LO, 0.0)}, False),
    ("sigma above hi", {"sigma": np.nextafter(HI, np.inf)}, False),
    ("f summing to 1", {"f1": 0.75, "f2": 0.25}, True),
    ("f summing past 1", {"f1": 0.75, "f2": 0.25 + 2.0**-52}, False),  # 1 + 1 ulp
    ("negative f1", {"f1": -1e-12}, False),
    ("negative f2", {"f2": -1e-300}, False),
    ("f2 at 0", {"f2": 0.0}, True),
    ("f2 below the ARD floor", {"f2": 1e-9}, True),
    ("s0 at its max", {"s0": PRIORS.s0_max}, True),
    ("s0 past its max", {"s0": np.nextafter(PRIORS.s0_max, np.inf)}, False),
    ("s0 at 0", {"s0": 0.0}, False),
    ("d at its max", {"d": PRIORS.d_max}, True),
    ("d past its max", {"d": np.nextafter(PRIORS.d_max, 1.0)}, False),
    ("d at 0", {"d": 0.0}, False),
]


def _valid_state(n):
    """``(n, 9)`` states well inside the support."""
    rng = np.random.default_rng(7)
    return np.column_stack([
        rng.uniform(90, 110, n),  # s0
        rng.uniform(8e-4, 1.5e-3, n),  # d
        rng.uniform(1.0, 5.0, n),  # sigma
        rng.uniform(0.3, 0.5, n),  # f1
        rng.uniform(0.05, 0.2, n),  # f2
        rng.uniform(0.3, np.pi - 0.3, (n, 2)),  # theta
        rng.uniform(0, 2 * np.pi, (n, 2)),  # phi
    ])


def _edge_states(post):
    """One row per entry of :data:`EDGES`, plus the valid state it edits."""
    names = post.layout.names
    valid = _valid_state(len(EDGES))
    edge = valid.copy()
    for row, (_, values, _) in enumerate(EDGES):
        for name, value in values.items():
            edge[row, names.index(name)] = value
    return valid, edge


def _prior(priors, params, layout):
    p = layout.unpack(params)
    return priors.log_prior(p["s0"], p["d"], p["sigma"], p["f"], p["theta"], p["phi"])


@pytest.fixture
def post_for():
    bvals = np.concatenate([np.zeros(2), np.full(20, 1000.0)])
    bvecs = np.concatenate([np.zeros((2, 3)), fibonacci_sphere(20)])
    gtab = GradientTable(bvals, bvecs)
    truth = _valid_state(len(EDGES))
    data = MultiFiberModel(2).predict(
        gtab, s0=truth[:, 0], d=truth[:, 1], f=truth[:, 3:5],
        theta=truth[:, 5:7], phi=truth[:, 7:9],
    )

    def make(ard, noise_model="gaussian"):
        return LogPosterior(
            gtab, np.abs(data), priors=MultiFiberPriors(ard=ard),
            n_fibers=2, noise_model=noise_model,
        )

    return make


class TestSpecAtTheEdges:
    @pytest.mark.parametrize("ard", [False, True])
    def test_support(self, post_for, ard):
        post = post_for(ard)
        _, edge = _edge_states(post)
        lp = _prior(post.priors, edge, post.layout)
        for (name, _, finite), value in zip(EDGES, lp):
            assert np.isfinite(value) == finite, name
            if not finite:
                assert np.isneginf(value), name

    def test_fraction_sums_are_exact(self):
        sums = {name: v["f1"] + v["f2"] for name, v, _ in EDGES
                if name.startswith("f summing")}
        assert sums["f summing to 1"] == 1.0
        assert sums["f summing past 1"] == np.nextafter(1.0, 2.0)

    def test_theta_at_pi_is_finite_and_tiny(self, post_for):
        post = post_for(False)
        valid, edge = _edge_states(post)
        row = [name for name, _, _ in EDGES].index("theta1 at pi")
        lp = _prior(post.priors, edge, post.layout)[row]
        base = _prior(post.priors, valid, post.layout)[row]
        want = base - np.log(np.abs(np.sin(valid[row, 5]))) + np.log(np.sin(np.pi))
        assert lp == pytest.approx(want, rel=1e-12)

    def test_ard_floor(self, post_for):
        post = post_for(True)
        lay = post.layout
        floor = post.priors.f_min_ard
        state = np.repeat(_valid_state(1), 4, axis=0)
        state[:, 4] = [0.0, 1e-9, floor, 1e-3]
        lp = _prior(post.priors, state, lay)
        assert lp[0] == lp[1] == lp[2]  # at or below the floor: the floor
        assert lp[3] < lp[2]
        no_ard = _prior(MultiFiberPriors(), state, lay)
        assert lp[0] - no_ard[0] == pytest.approx(-np.log(floor), rel=1e-12)


class TestCacheAtTheEdges:
    @pytest.mark.parametrize("ard", [False, True])
    @pytest.mark.parametrize("noise_model", ["gaussian", "rician"])
    def test_propose_matches_spec_at_every_index(self, post_for, ard, noise_model):
        post = post_for(ard, noise_model)
        valid, edge = _edge_states(post)
        want = post(edge)
        for k in range(post.layout.n_params):
            # The cached state differs from the edge state in parameter k
            # only: at k = the edited parameter the edge value moves in;
            # elsewhere it sits in the cached terms.
            base = edge.copy()
            base[:, k] = valid[:, k]
            cache = CompartmentCache(post, base)
            got = cache.propose(edge, k)
            assert got.tobytes() == want.tobytes(), post.layout.names[k]

    @pytest.mark.parametrize("ard", [False, True])
    def test_edge_state_cache_equals_rebuild(self, post_for, ard):
        """Accepting every finite edge proposal leaves the cache equal to
        one built from the resulting state."""
        post = post_for(ard)
        valid, edge = _edge_states(post)
        params = valid.copy()
        cache = CompartmentCache(post, params)
        for k in range(post.layout.n_params):
            proposal = params.copy()
            proposal[:, k] = edge[:, k]
            lp = cache.propose(proposal, k)
            assert lp.tobytes() == post(proposal).tobytes(), post.layout.names[k]
            accepted = np.isfinite(lp)
            cache.commit(accepted)
            params[accepted, k] = proposal[accepted, k]
        fresh = CompartmentCache(post, params)
        for name in ("support", "poles", "neg_log_sigma", "log_sin",
                     "log_sin_sum", "prior_body", "prior", "sticks", "mix"):
            assert getattr(cache, name).tobytes() == getattr(fresh, name).tobytes(), name
