"""Unit tests for the diffusion models (repro.models)."""

import numpy as np
import pytest

from repro.errors import DataError, ModelError
from repro.io import GradientTable
from repro.models import (
    MultiFiberModel,
    TensorModel,
)
from repro.utils.geometry import (
    cartesian_to_spherical,
    fibonacci_sphere,
    spherical_to_cartesian,
)


@pytest.fixture
def gtab():
    n_dwi = 32
    bvals = np.concatenate([np.zeros(4), np.full(n_dwi, 1000.0)])
    bvecs = np.concatenate([np.zeros((4, 3)), fibonacci_sphere(n_dwi)])
    return GradientTable(bvals, bvecs)


class TestTensorModel:
    def test_b0_prediction_is_s0(self, gtab):
        D = np.eye(3) * 1e-3
        mu = TensorModel().predict(gtab, s0=np.array([100.0]), tensors=D[None])
        np.testing.assert_allclose(mu[0, gtab.b0_mask], 100.0)

    def test_isotropic_attenuation(self, gtab):
        d = 1e-3
        mu = TensorModel().predict(
            gtab, s0=np.array([1.0]), tensors=(np.eye(3) * d)[None]
        )
        dw = ~gtab.b0_mask
        np.testing.assert_allclose(mu[0, dw], np.exp(-1000.0 * d), rtol=1e-12)

    def test_fit_recovers_tensor(self, gtab):
        rng = np.random.default_rng(0)
        # Random SPD tensors around physiological scale.
        tensors = []
        for _ in range(20):
            A = rng.normal(size=(3, 3)) * 3e-4
            tensors.append(A @ A.T + np.eye(3) * 3e-4)
        tensors = np.array(tensors)
        s0 = rng.uniform(80, 120, size=20)
        mu = TensorModel().predict(gtab, s0=s0, tensors=tensors)
        fit = TensorModel().fit(gtab, mu)
        np.testing.assert_allclose(fit.tensors, tensors, atol=1e-7)
        np.testing.assert_allclose(fit.s0, s0, rtol=1e-6)

    def test_fit_weighted_close_to_lls_noiseless(self, gtab):
        tensors = (np.diag([1.7, 0.3, 0.3]) * 1e-3)[None]
        mu = TensorModel().predict(gtab, s0=np.array([100.0]), tensors=tensors)
        fit = TensorModel().fit(gtab, mu, weighted=True)
        np.testing.assert_allclose(fit.tensors, tensors, atol=1e-8)

    def test_principal_direction(self, gtab):
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        D = 1.5e-3 * np.outer(v, v) + 0.2e-3 * np.eye(3)
        mu = TensorModel().predict(gtab, s0=np.array([1.0]), tensors=D[None])
        fit = TensorModel().fit(gtab, mu)
        pd = fit.principal_direction[0]
        assert abs(np.dot(pd, v)) > 0.999

    def test_fa_md_bounds(self, gtab):
        iso = (np.eye(3) * 1e-3)[None]
        fit_iso = TensorModel().fit(
            gtab, TensorModel().predict(gtab, s0=np.array([1.0]), tensors=iso)
        )
        assert fit_iso.fa[0] == pytest.approx(0.0, abs=1e-6)
        assert fit_iso.md[0] == pytest.approx(1e-3, rel=1e-6)
        stick = (np.diag([1.0, 1e-12, 1e-12]) * 2e-3)[None]
        fit_stick = TensorFitFromTensors(stick)
        assert fit_stick.fa[0] == pytest.approx(1.0, abs=1e-3)

    def test_eigen_sorted_descending(self, gtab):
        fit = TensorFitFromTensors((np.diag([0.3, 1.7, 0.9]) * 1e-3)[None])
        assert fit.evals[0, 0] >= fit.evals[0, 1] >= fit.evals[0, 2]
        # Eigenvector pairing: first column pairs with largest eigenvalue (y).
        assert abs(fit.evecs[0, 1, 0]) > 0.999

    def test_fit_requires_enough_measurements(self):
        bvals = np.full(5, 1000.0)
        bvecs = fibonacci_sphere(5)
        small = GradientTable(bvals, bvecs)
        with pytest.raises(DataError, match="measurements"):
            TensorModel().fit(small, np.ones((1, 5)))

    def test_fit_rejects_mismatched_signal(self, gtab):
        with pytest.raises(DataError):
            TensorModel().fit(gtab, np.ones((1, 7)))

    def test_predict_rejects_bad_tensor_shape(self, gtab):
        with pytest.raises(ModelError):
            TensorModel().predict(gtab, s0=np.ones(1), tensors=np.ones((1, 2, 3)))


def TensorFitFromTensors(tensors):
    from repro.models import TensorFit

    return TensorFit(tensors=tensors, s0=np.ones(len(tensors)))


class TestMultiFiberModel:
    def test_param_names_count(self):
        assert len(MultiFiberModel(2).param_names) == 8  # + sigma = 9 sampled
        assert MultiFiberModel(3).n_params == 11

    def test_rejects_bad_n_fibers(self):
        with pytest.raises(ModelError):
            MultiFiberModel(0)

    def test_rejects_wrong_fiber_axis(self, gtab):
        with pytest.raises(ModelError, match="trailing"):
            MultiFiberModel(2).predict(
                gtab,
                s0=np.ones(1),
                d=np.array([1e-3]),
                f=np.ones((1, 3)) / 4,
                theta=np.ones((1, 2)),
                phi=np.ones((1, 2)),
            )

    def test_b0_is_s0(self, gtab):
        mu = MultiFiberModel(2).predict(
            gtab,
            s0=np.array([10.0]),
            d=np.array([1e-3]),
            f=np.array([[0.4, 0.3]]),
            theta=np.array([[1.0, 0.5]]),
            phi=np.array([[0.0, 1.5]]),
        )
        np.testing.assert_allclose(mu[0, gtab.b0_mask], 10.0)

    def test_fractions_sum_zero_is_isotropic(self, gtab):
        mu = MultiFiberModel(2).predict(
            gtab,
            s0=np.array([1.0]),
            d=np.array([1e-3]),
            f=np.zeros((1, 2)),
            theta=np.ones((1, 2)),
            phi=np.ones((1, 2)),
        )
        dw = ~gtab.b0_mask
        np.testing.assert_allclose(mu[0, dw], np.exp(-1.0), rtol=1e-12)

    def test_symmetric_under_fiber_swap(self, gtab):
        f = np.array([[0.4, 0.2]])
        theta = np.array([[0.7, 1.9]])
        phi = np.array([[0.3, 2.2]])
        a = MultiFiberModel(2).predict(
            gtab, s0=np.ones(1), d=np.array([1e-3]), f=f, theta=theta, phi=phi
        )
        b = MultiFiberModel(2).predict(
            gtab,
            s0=np.ones(1),
            d=np.array([1e-3]),
            f=f[:, ::-1],
            theta=theta[:, ::-1],
            phi=phi[:, ::-1],
        )
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_antipodal_direction_invariance(self, gtab):
        # v and -v are the same fiber: signal must be identical.
        theta, phi = np.array([[0.7, 1.1]]), np.array([[0.3, 2.0]])
        v = spherical_to_cartesian(theta, phi)
        t2, p2 = cartesian_to_spherical(-v)
        a = MultiFiberModel(2).predict(
            gtab,
            s0=np.ones(1),
            d=np.array([1e-3]),
            f=np.array([[0.4, 0.2]]),
            theta=theta,
            phi=phi,
        )
        b = MultiFiberModel(2).predict(
            gtab,
            s0=np.ones(1),
            d=np.array([1e-3]),
            f=np.array([[0.4, 0.2]]),
            theta=t2,
            phi=p2,
        )
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_predict_dirs_matches_predict(self, gtab):
        theta, phi = np.array([[0.7, 1.1]]), np.array([[0.3, 2.0]])
        dirs = spherical_to_cartesian(theta, phi)
        m = MultiFiberModel(2)
        a = m.predict(
            gtab,
            s0=np.array([2.0]),
            d=np.array([1e-3]),
            f=np.array([[0.4, 0.2]]),
            theta=theta,
            phi=phi,
        )
        b = m.predict_dirs(
            gtab,
            s0=np.array([2.0]),
            d=np.array([1e-3]),
            f=np.array([[0.4, 0.2]]),
            dirs=dirs,
        )
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_vectorized_over_voxels(self, gtab):
        rng = np.random.default_rng(5)
        n = 17
        kwargs = dict(
            s0=rng.uniform(50, 150, n),
            d=rng.uniform(5e-4, 2e-3, n),
            f=rng.dirichlet([2, 1, 4], size=n)[:, :2],
            theta=rng.uniform(0.1, np.pi - 0.1, (n, 2)),
            phi=rng.uniform(0, 2 * np.pi, (n, 2)),
        )
        batch = MultiFiberModel(2).predict(gtab, **kwargs)
        for v in range(n):
            single = MultiFiberModel(2).predict(
                gtab, **{k: val[v : v + 1] for k, val in kwargs.items()}
            )
            np.testing.assert_allclose(batch[v], single[0], rtol=1e-13)
