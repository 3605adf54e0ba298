"""Shared fixtures for the benchmark harness.

Scale
-----
The paper's runs cover 205k-402k voxels and 50 posterior samples; the
benches default to a proportionally scaled replica (``REPRO_BENCH_SCALE``,
default 0.3) and fewer samples so the whole harness completes in minutes.
Machine-model times are *also* reported at full paper scale where the
model permits (Table III), since those need no functional execution.

Posterior sample volumes
------------------------
Stage-2 benches need many sample volumes; running real MCMC for them at
bench scale would dominate the harness runtime without changing what is
being measured (tracking + machine model).  Instead,
:func:`sample_fields_from_truth` perturbs the phantom's ground-truth
directions with per-sample angular noise — the same statistical structure
MCMC samples have (direction dispersion around the posterior mode), and
the mechanism that makes fiber lengths exponential (per-step survival
against the curvature threshold).  The MCMC-fidelity path is exercised by
the integration tests and the quickstart example.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.data import dataset1, dataset2
from repro.data.phantoms import Phantom
from repro.models.fields import FiberField
from repro.utils.geometry import normalize

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))
N_SAMPLES = int(os.environ.get("REPRO_BENCH_SAMPLES", "10"))


def sample_fields_from_truth(
    phantom: Phantom,
    n_samples: int,
    angular_noise: float = 0.12,
    fraction_noise: float = 0.1,
    seed: int = 0,
) -> list[FiberField]:
    """Pseudo-posterior sample volumes from the ground-truth field."""
    rng = np.random.default_rng(seed)
    truth = phantom.truth
    fields = []
    for _ in range(n_samples):
        has_fiber = truth.f > 0  # (x, y, z, N)
        noise = rng.normal(scale=angular_noise, size=truth.directions.shape)
        dirs = normalize(truth.directions + noise * has_fiber[..., None])
        dirs = dirs * has_fiber[..., None]
        f = truth.f * (1.0 + rng.normal(scale=fraction_noise, size=truth.f.shape))
        f = np.clip(f, 0.0, 1.0) * has_fiber
        over = f.sum(axis=-1) > 0.95
        if over.any():
            f[over] *= (0.95 / f.sum(axis=-1)[over])[:, None]
        fields.append(FiberField(f=f, directions=dirs, mask=truth.mask))
    return fields


@pytest.fixture(scope="session")
def phantom1() -> Phantom:
    """Dataset-1 replica at bench scale."""
    return dataset1(scale=BENCH_SCALE, snr=40.0)


@pytest.fixture(scope="session")
def phantom2() -> Phantom:
    """Dataset-2 replica at bench scale."""
    return dataset2(scale=BENCH_SCALE, snr=40.0)


@pytest.fixture(scope="session")
def fields1(phantom1) -> list[FiberField]:
    """Sample volumes for dataset 1."""
    return sample_fields_from_truth(phantom1, N_SAMPLES, seed=1)


@pytest.fixture(scope="session")
def fields2(phantom2) -> list[FiberField]:
    """Sample volumes for dataset 2."""
    return sample_fields_from_truth(phantom2, N_SAMPLES, seed=2)


def write_report(path: Path, report: dict) -> None:
    """Write a bench's JSON report, but only at the default scale.

    The committed ``BENCH_*.json`` figures are default-scale runs; a
    run with ``REPRO_BENCH_SCALE`` set (CI's smoke steps) prints that it
    skipped instead of overwriting them.
    """
    if "REPRO_BENCH_SCALE" in os.environ:
        print(f"REPRO_BENCH_SCALE is set: not writing {path.name}")
        return
    path.write_text(json.dumps(report, indent=2) + "\n")


def emit(capsys, text: str) -> None:
    """Print a table straight to the terminal, bypassing capture."""
    with capsys.disabled():
        print()
        print(text)
