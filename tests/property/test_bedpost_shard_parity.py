"""Worker-count invariance of the sharded bedpost MCMC stage.

The determinism bar: for any ``n_workers`` (one included: it is the
executor's one-task case, not a separate path), the posterior is
bit-identical to the sampling kernel called directly —
:func:`~repro.mcmc.shards.run_blocks` over one task holding every block
— in raw samples, acceptance history, and the deterministic telemetry
sections (``mcmc.*`` / ``bedpost.*`` counters and histograms), because
shards are contiguous runs of one block decomposition, every voxel's
chains come from :func:`~repro.rng.streams.block_streams`, and task
snapshots merge in task order.
"""

import json
import logging

import numpy as np
import pytest

from repro.data import dataset1
from repro.mcmc import MCMCConfig
from repro.pipeline import BedpostConfig, bedpost
from repro.telemetry import MetricsRegistry, use_registry
from tests.stage_reference import direct_bedpost

FAST = MCMCConfig(n_burnin=16, n_samples=4, sample_interval=2, adapt_every=7)


@pytest.fixture(scope="module")
def phantom():
    return dataset1(scale=0.15, snr=40.0)


def _cfg(n_workers, **kwargs):
    # Small blocks so even the tiny phantom yields several shardable
    # units (the block decomposition itself must not vary with workers).
    return BedpostConfig(mcmc=FAST, block_voxels=11, n_workers=n_workers,
                         **kwargs)


def _run(phantom, n_workers, **kwargs):
    registry = MetricsRegistry()
    with use_registry(registry):
        result = bedpost(
            phantom.dwi, phantom.gtab, phantom.mask, _cfg(n_workers, **kwargs)
        )
    snap = registry.snapshot()
    det = json.dumps(
        {"counters": snap["counters"], "histograms": snap["histograms"]},
        sort_keys=True,
    )
    return result, det


def test_worker_count_invariance(phantom):
    samples, history, ref_det = direct_bedpost(
        phantom.dwi, phantom.gtab, phantom.mask, _cfg(1)
    )
    for n_workers in (1, 2, 4):
        result, det = _run(phantom, n_workers)
        np.testing.assert_array_equal(samples, result.samples)
        assert history == result.acceptance_history
        assert det == ref_det
        sup = result.supervision
        if n_workers == 1:
            assert sup is None  # one fault-free task runs in-parent
        else:
            assert sup is not None and sup.n_shards == n_workers
            assert sup.n_failures == 0


def test_sharded_fields_match_serial(phantom):
    one, _ = _run(phantom, 1)
    sharded, _ = _run(phantom, 3)
    for a, b in zip(one.fields, sharded.fields):
        np.testing.assert_array_equal(a.f, b.f)
        np.testing.assert_array_equal(a.directions, b.directions)


def test_store_keys_and_entries_shared_across_worker_counts(phantom, tmp_path):
    # Execution policy is excluded from stage hashes: a store populated
    # by a 1-worker run must serve a 4-worker request bit-identically.
    from repro.store import ArtifactStore

    store = ArtifactStore(tmp_path / "store")
    cold = bedpost(phantom.dwi, phantom.gtab, phantom.mask, _cfg(1),
                   store=store)
    warm = bedpost(phantom.dwi, phantom.gtab, phantom.mask, _cfg(4),
                   store=store)
    assert warm.served_from_store
    assert warm.stage_key == cold.stage_key
    np.testing.assert_array_equal(cold.samples, warm.samples)


def test_worker_clamp_shares_stage_unit_label(phantom, caplog):
    # The clamp warning is the stage-generic one, phrased in this
    # stage's unit ("voxel block"), and the result still matches the
    # kernel called directly.
    samples, _, _ = direct_bedpost(
        phantom.dwi, phantom.gtab, phantom.mask, _cfg(1)
    )
    n_blocks = -(-samples.shape[1] // 11)
    with caplog.at_level(logging.INFO, logger="repro.runtime.stage"):
        clamped, _ = _run(phantom, n_blocks + 5)
    clamps = [m for m in caplog.messages if "clamping n_workers" in m]
    assert len(clamps) == 1 and "voxel block" in clamps[0]
    np.testing.assert_array_equal(samples, clamped.samples)
    assert clamped.supervision.n_shards == n_blocks


def _block_tasks(phantom, n_shards, n_blocks=6, **kwargs):
    """Tasks over the first ``n_blocks`` 11-voxel blocks of the phantom."""
    from repro.mcmc.shards import make_block_tasks

    flat = phantom.dwi.data.reshape(-1, phantom.dwi.data.shape[-1])
    data = flat[np.flatnonzero(phantom.mask.reshape(-1))]
    n_vox = data.shape[0]
    blocks = [(s, min(s + 11, n_vox)) for s in range(0, n_vox, 11)][:n_blocks]
    return make_block_tasks(
        data, blocks, n_shards, n_total_voxels=n_vox, mcmc=FAST, n_fibers=2,
        ard=False, noise_model="gaussian", gtab=phantom.gtab, **kwargs,
    )


def _run_tasks(tasks):
    from repro.mcmc.shards import run_blocks

    registry = MetricsRegistry()
    with use_registry(registry):
        payloads = [run_blocks(task) for task in tasks]
    snap = registry.snapshot()
    det = json.dumps(
        {"counters": snap["counters"], "histograms": snap["histograms"]},
        sort_keys=True,
    )
    samples = np.concatenate([p["samples"] for p in payloads], axis=1)
    histories = [h for p in payloads for h in p["histories"]]
    batches = [
        s.attrs["blocks"] for s in registry.spans if s.name == "bedpost.block"
    ]
    return samples, histories, det, batches


@pytest.mark.parametrize("batch_voxels", [None, 25])
def test_lockstep_batch_equals_single_block_tasks(
    phantom, monkeypatch, batch_voxels
):
    # One k-block task sweeps its blocks as one lockstep batch (or, with
    # a 25-voxel cap, as batches of two blocks); it must be bitwise k
    # single-block tasks.  At 11-voxel blocks a tensor-fit
    # initialisation over the whole batch would move the last bits, so
    # this also pins the per-block initial state.
    if batch_voxels is not None:
        monkeypatch.setattr("repro.mcmc.shards.BATCH_VOXELS", batch_voxels)
    (batch,) = _block_tasks(phantom, 1)
    singles = _block_tasks(phantom, len(batch.blocks))
    assert len(batch.blocks) == len(singles) == 6
    b_samples, b_hist, b_det, b_batches = _run_tasks([batch])
    s_samples, s_hist, s_det, _ = _run_tasks(singles)
    assert b_batches == ([6] if batch_voxels is None else [2, 2, 2])
    np.testing.assert_array_equal(b_samples, s_samples)
    assert len(b_hist) == len(s_hist) == 6
    for a, b in zip(b_hist, s_hist):
        np.testing.assert_array_equal(a, b)
    assert b_det == s_det
