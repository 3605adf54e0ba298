"""The one posterior layout: :class:`FiberStack` from stage 1 to the kernel.

Pins the stack against the per-sample definitions it replaced — the
per-sample posterior scatter, the per-sample fingerprint that keys the
tracking and connectome stages — and checks that shards ship views of
their own samples only.
"""

import pickle

import numpy as np
import pytest

import repro.models.fields as fields_mod
from repro.errors import TrackingError
from repro.models.fields import FiberField, FiberStack
from repro.models.posterior import ParameterLayout
from repro.pipeline.memo import fields_fingerprint
from repro.store import fingerprint_arrays
from repro.tracking import BatchTracker, SegmentedTracker, TerminationCriteria
from repro.tracking.shards import ShardTask
from repro.tracking.segmentation import table2_strategy
from repro.utils.geometry import spherical_to_cartesian

LAYOUT = ParameterLayout(2)


def per_sample_fields(samples, mask, layout, f_threshold):
    """The per-sample scatter the stack replaced, one field per sample."""
    n_fib = layout.n_fibers
    flat_idx = np.flatnonzero(mask.reshape(-1))
    out = []
    for s in range(samples.shape[0]):
        p = samples[s]
        f = p[:, layout.f].copy()
        dirs = spherical_to_cartesian(p[:, layout.theta], p[:, layout.phi])
        f[f < f_threshold] = 0.0
        f = np.clip(f, 0.0, 1.0)
        over = f.sum(axis=1) > 1.0
        if over.any():
            f[over] /= f[over].sum(axis=1, keepdims=True)
        fvol = np.zeros(mask.shape + (n_fib,))
        dvol = np.zeros(mask.shape + (n_fib, 3))
        fvol.reshape(-1, n_fib)[flat_idx] = f
        dvol.reshape(-1, n_fib, 3)[flat_idx] = dirs
        out.append((fvol, dvol))
    return out


def synthetic_posterior(n_samples=4, shape=(6, 5, 4), seed=0):
    """Random posterior over a ragged mask, with every fraction pathology:
    sub-threshold, negative, and rows summing over one."""
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < 0.6
    n_vox = int(mask.sum())
    samples = rng.normal(size=(n_samples, n_vox, LAYOUT.n_params))
    samples[..., LAYOUT.f] = rng.uniform(-0.2, 0.9, size=(n_samples, n_vox, 2))
    samples[..., LAYOUT.theta] = rng.uniform(0, np.pi, size=(n_samples, n_vox, 2))
    samples[..., LAYOUT.phi] = rng.uniform(-np.pi, np.pi, size=(n_samples, n_vox, 2))
    frac = samples[..., LAYOUT.f]
    assert (frac < 0).any() and ((frac > 0) & (frac < 0.05)).any()
    assert (frac.clip(0, 1).sum(axis=-1) > 1.0).any()
    return samples, mask


def test_from_posterior_matches_per_sample_scatter_bitwise(monkeypatch):
    samples, mask = synthetic_posterior()
    # Several 7-voxel chunks of the 4 samples, the last one ragged.
    monkeypatch.setattr(fields_mod, "POSTERIOR_CHUNK_ROWS", 28)
    stack = FiberStack.from_posterior(samples, mask, LAYOUT, f_threshold=0.05)
    ref = per_sample_fields(samples, mask, LAYOUT, 0.05)
    assert len(stack) == len(ref)
    for s, (fvol, dvol) in enumerate(ref):
        assert stack.f[s].tobytes() == fvol.tobytes()
        assert stack.directions[s].tobytes() == dvol.tobytes()
    assert np.array_equal(stack.mask, mask)


def test_fingerprint_matches_per_sample_definition():
    samples, mask = synthetic_posterior(n_samples=3)
    stack = FiberStack.from_posterior(samples, mask, LAYOUT)
    fields = [
        FiberField(f=f, directions=d, mask=mask)
        for f, d in per_sample_fields(samples, mask, LAYOUT, 0.05)
    ]
    named = {"n_samples": len(fields), "mask": np.asarray(fields[0].mask)}
    for i, fld in enumerate(fields):
        named[f"f{i:04d}"] = fld.f
        named[f"d{i:04d}"] = fld.directions
    assert fields_fingerprint(stack) == fingerprint_arrays(**named)


def test_views_share_the_stack_memory():
    samples, mask = synthetic_posterior()
    stack = FiberStack.from_posterior(samples, mask, LAYOUT)
    f2, d2, mask_flat = stack.flat_views()
    assert np.shares_memory(f2, stack.f) and np.shares_memory(d2, stack.directions)
    assert f2.shape == (len(stack) * mask.size, 2)
    assert mask_flat.shape == (mask.size,)
    part = stack[1:3]
    assert isinstance(part, FiberStack) and len(part) == 2
    assert np.shares_memory(part.flat_views()[0], stack.f)
    one = stack[-1]
    assert isinstance(one, FiberField) and np.shares_memory(one.f, stack.f)
    assert [fld.f.tobytes() for fld in stack] == [stack.f[s].tobytes() for s in range(4)]


def test_from_fields_normalises():
    samples, mask = synthetic_posterior()
    stack = FiberStack.from_posterior(samples, mask, LAYOUT)
    assert FiberStack.from_fields(stack) is stack
    single = FiberStack.from_fields(stack[2])
    assert len(single) == 1 and np.shares_memory(single.f, stack.f)
    restacked = FiberStack.from_fields(list(stack))
    assert restacked.f.tobytes() == stack.f.tobytes()
    assert not np.shares_memory(restacked.f, stack.f)
    with pytest.raises(TrackingError):
        FiberStack.from_fields([])


def _field(shape=(5, 4, 3), n_fib=2, mask=None):
    f = np.zeros(shape + (n_fib,))
    f[..., 0] = 0.6
    d = np.zeros(shape + (n_fib, 3))
    d[..., 0, 0] = 1.0
    return FiberField(f=f, directions=d, mask=np.ones(shape, bool) if mask is None else mask)


@pytest.mark.parametrize(
    "other",
    [
        pytest.param(lambda: _field(shape=(5, 4, 2)), id="grid-shape"),
        pytest.param(lambda: _field(n_fib=3), id="fiber-count"),
        pytest.param(
            lambda: _field(mask=np.arange(60).reshape(5, 4, 3) % 2 == 0), id="mask"
        ),
    ],
)
def test_mixed_samples_rejected(other):
    seeds = np.array([[2.0, 2.0, 1.0]])
    with pytest.raises(TrackingError, match="homogeneous"):
        FiberStack.from_fields([_field(), other()])
    with pytest.raises(TrackingError, match="homogeneous"):
        SegmentedTracker().run(
            [_field(), other()], seeds, TerminationCriteria(), table2_strategy()
        )


def test_bare_field_tracks_as_sample_zero():
    field = _field(shape=(12, 4, 4))
    tracker = BatchTracker(field, TerminationCriteria(max_steps=20, step_length=0.5))
    assert len(tracker.stack) == 1 and np.shares_memory(tracker.stack.f, field.f)
    state = tracker.init_state(np.array([[1.0, 2.0, 2.0]]), np.array([[1.0, 0.0, 0.0]]))
    assert state.sample.tolist() == [0]
    seen = []
    tracker.run_segment(state, 5, lambda s, o, v: seen.append(s))
    assert np.concatenate(seen).tolist() == [0] * 5


def test_shard_task_pickles_only_its_samples():
    samples, mask = synthetic_posterior(n_samples=8, shape=(16, 16, 8))
    stack = FiberStack.from_posterior(samples, mask, LAYOUT)
    seeds = np.array([[2.0, 2.0, 2.0]])

    def task(part):
        return ShardTask(
            tracker=SegmentedTracker(),
            stack=part,
            seeds=seeds,
            criteria=TerminationCriteria(),
            segments=table2_strategy().segments(TerminationCriteria().max_steps),
            heading_signs=None,
            sample_offset=2,
            connectivity_spec=None,
        )

    per_sample = stack.f[0].nbytes + stack.directions[0].nbytes
    shard = len(pickle.dumps(task(stack[2:4])))
    assert 2 * per_sample <= shard < 2 * per_sample + 64 * 1024
    assert len(pickle.dumps(task(stack))) > 7 * per_sample
