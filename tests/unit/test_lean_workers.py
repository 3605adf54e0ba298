"""Lean workers: SciPy stays off the pipeline's import graph and requests.

Every shard worker and service job is forked from a process that has
imported the pipeline, so whatever that import graph loads, each fork
inherits and each child's exit tears down.  SciPy is needed only by
the Fig 5 length fit (``scipy.stats``), the Rician likelihood
(``scipy.special``) and the SciPy matrix views of the connectivity
accumulator (``scipy.sparse``); each imports it on first use.

* **Import graph.** In a fresh interpreter, importing the pipeline,
  runtime, service and every CLI and then running all three stages
  (cold at two workers so shards fork, warm, and cold at one worker so
  the kernels run in-process) loads none of those SciPy modules.
* **The SciPy users still agree with SciPy.** The lazy length fit, the
  Rician posterior and the connection-probability matrix match
  references computed with SciPy directly.
* **NumPy CSR.** The accumulator's CSR arrays equal
  ``coo_matrix(...).tocsr()`` in values and dtypes, so the stored
  tracking entries keep their bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse, stats

from repro.config import RunSpec
from repro.data import dataset1
from repro.io import GradientTable
from repro.models import LogPosterior, MultiFiberModel
from repro.pipeline import run_workflow
from repro.tracking import ConnectivityAccumulator
from repro.utils.geometry import fibonacci_sphere

SRC = Path(__file__).resolve().parents[2] / "src"
HEAVY = ("scipy.stats", "scipy.special", "scipy.sparse")

PROBE = r"""
import json, pkgutil, sys, tempfile
from importlib import import_module

import numpy as np

import repro, repro.cli, repro.pipeline, repro.runtime, repro.service
import repro.service.serve_cmd, repro.service.submit_cmd, repro.store.cli
for info in pkgutil.iter_modules(repro.cli.__path__):
    if info.name.endswith("_cmd"):
        import_module(f"repro.cli.{info.name}")
from repro.config import RunSpec
from repro.data import dataset1
from repro.pipeline import run_workflow

HEAVY = sys.argv[1:]
loaded = {"import": sorted(m for m in HEAVY if m in sys.modules)}
phantom = dataset1(scale=0.14, snr=40.0)

def spec(store, workers):
    return RunSpec.from_dict({
        "sampling": {"n_burnin": 4, "n_samples": 2, "sample_interval": 1,
                     "block_voxels": 100},
        "tracking": {"max_steps": 30},
        "connectome": {"atlas": "octant"},
        "runtime": {"n_workers": workers, "bedpost_workers": workers},
        "telemetry": {"store": store},
    })

with tempfile.TemporaryDirectory() as tmp:
    cold = run_workflow(phantom, spec(tmp + "/a", 2))
    warm = run_workflow(phantom, spec(tmp + "/a", 2))
    serial = run_workflow(phantom, spec(tmp + "/b", 1))
    for wr in (cold, warm, serial):
        wr.probtrack.connectivity.visit_count_volume(phantom.mask.shape)
loaded["requests"] = sorted(m for m in HEAVY if m in sys.modules)
loaded["cache"] = [cold.cache, warm.cache]
loaded["sharded"] = [
    cold.bedpost.supervision is not None,
    cold.probtrack.run.supervision is not None,
]
loaded["same"] = bool(
    np.array_equal(cold.probtrack.run.lengths, warm.probtrack.run.lengths)
    and np.array_equal(cold.probtrack.run.lengths, serial.probtrack.run.lengths)
)
print(json.dumps(loaded))
"""


def test_pipeline_imports_and_requests_load_no_scipy_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *HEAVY],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["import"] == [], "imported at module level"
    assert got["requests"] == [], "imported on a request path"
    cold, warm = got["cache"]
    for stage in ("sampling", "tracking", "connectome"):
        assert cold[f"{stage}_hit"] is False and warm[f"{stage}_hit"] is True
    assert got["sharded"] == [True, True], "both stages forked shards"
    assert got["same"]


# -- the SciPy users, against SciPy ------------------------------------------


@pytest.fixture(scope="module")
def workflow():
    return run_workflow(dataset1(scale=0.14, snr=40.0), RunSpec.from_dict({
        "sampling": {"n_burnin": 4, "n_samples": 3, "sample_interval": 1},
        "tracking": {"max_steps": 40},
    }))


def test_length_fit_matches_scipy(workflow):
    pt = workflow.probtrack
    fit = pt.length_fit
    assert fit is not None
    x = pt.run.lengths.ravel().astype(np.float64)
    x = x[(x >= 1.0) & (x < pt.max_steps)]
    shifted = x - 1.0
    ks = stats.kstest(shifted, "expon", args=(0.0, shifted.mean()))
    assert fit.n == x.size
    assert fit.mean == shifted.mean()
    assert fit.ks_statistic == ks.statistic
    assert fit.ks_pvalue == ks.pvalue


def test_rician_posterior_matches_scipy_rice():
    bvals = np.concatenate([np.zeros(3), np.full(28, 1000.0)])
    gtab = GradientTable(bvals, np.concatenate([np.zeros((3, 3)),
                                                fibonacci_sphere(28)]))
    rng = np.random.default_rng(5)
    data = np.abs(rng.normal(300.0, 30.0, size=(3, 31)))
    post = LogPosterior(gtab, data, noise_model="rician")
    params = post.initial_params()
    p = post.layout.unpack(params)
    mu = MultiFiberModel(post.model.n_fibers).predict(
        gtab, s0=p["s0"], d=p["d"], f=p["f"], theta=p["theta"], phi=p["phi"]
    )
    sigma = p["sigma"]
    loglike = np.array([
        stats.rice.logpdf(data[i], np.abs(mu[i]) / sigma[i], scale=sigma[i]).sum()
        for i in range(data.shape[0])
    ])
    lp = post.priors.log_prior(
        p["s0"], p["d"], p["sigma"], p["f"], p["theta"], p["phi"]
    )
    np.testing.assert_allclose(post(params), lp + loglike, rtol=1e-10)


def test_connectivity_probability_matches_scipy(workflow):
    acc = workflow.probtrack.connectivity
    pairs = np.concatenate(acc.sample_pairs())
    rows, cols = np.divmod(pairs, acc.n_voxels)
    expect = sparse.coo_matrix(
        (np.ones(pairs.size, dtype=np.int64), (rows, cols)),
        shape=(acc.n_seeds, acc.n_voxels),
    ).tocsr().multiply(1.0 / acc.n_samples).tocsr()
    got = workflow.probtrack.connectivity_probability
    assert isinstance(got, sparse.csr_matrix)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b)


# -- NumPy CSR assembly ------------------------------------------------------


@st.composite
def pair_sets(draw):
    n_seeds = draw(st.integers(1, 6))
    n_voxels = draw(st.integers(1, 40))
    bidirectional = draw(st.booleans())
    n_threads = 2 * n_seeds if bidirectional else n_seeds
    seed_map = np.tile(np.arange(n_seeds), 2) if bidirectional else None
    samples = draw(st.lists(
        st.lists(
            st.tuples(st.integers(0, n_threads - 1), st.integers(0, n_voxels - 1)),
            max_size=30,
        ),
        max_size=5,
    ))
    return n_seeds, n_voxels, seed_map, samples


@given(pair_sets())
@settings(max_examples=80, deadline=None)
def test_numpy_csr_equals_scipy_coo_to_csr(case):
    n_seeds, n_voxels, seed_map, samples = case
    acc = ConnectivityAccumulator(n_seeds, n_voxels, seed_map=seed_map)
    for visits in samples:
        acc.begin_sample()
        if visits:
            threads, voxels = np.array(visits).T
            acc.visit(threads, voxels)
        acc.end_sample()
    pairs = (
        np.concatenate(acc.sample_pairs())
        if acc.sample_pairs() else np.empty(0, np.int64)
    )
    rows, cols = np.divmod(pairs, n_voxels)
    expect = sparse.coo_matrix(
        (np.ones(pairs.size, dtype=np.int64), (rows, cols)),
        shape=(n_seeds, n_voxels),
    ).tocsr()
    got = acc.csr_arrays()
    for a, name in zip(got, ("data", "indices", "indptr")):
        b = getattr(expect, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    volume = acc.visit_count_volume((n_voxels, 1, 1)).ravel()
    scipy_volume = np.asarray(expect.sum(axis=0)).ravel()
    assert volume.dtype == scipy_volume.dtype
    np.testing.assert_array_equal(volume, scipy_volume)
