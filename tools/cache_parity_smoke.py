#!/usr/bin/env python
"""Cache-parity smoke: cold run, warm run, zero deterministic deltas.

The CI-facing distillation of the artifact-store contract (ISSUE 7):

1. run the full workflow cold into a fresh store;
2. run it again warm (both stages must be served from the store);
3. assert the warm run's deterministic manifest sections and tracking
   outputs are bit-identical to the cold run's;
4. sweep three tracking configurations over the shared sampling entry
   and assert MCMC ran exactly once.

Exits non-zero (with a diff summary) on any violation.  Usage::

    PYTHONPATH=src python tools/cache_parity_smoke.py [store_dir]
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.config import RunSpec
from repro.data import dataset1
from repro.pipeline import run_workflow
from repro.store import ArtifactStore
from repro.telemetry import (
    MetricsRegistry,
    build_manifest,
    deterministic_sections,
    use_registry,
)

BASE = {
    "sampling": {
        "n_burnin": 30,
        "n_samples": 4,
        "sample_interval": 2,
        "adapt_every": 7,
    },
    "tracking": {"max_steps": 64},
}


def run(phantom, store_root, **edits):
    doc = json.loads(json.dumps(BASE))
    for section, fields in edits.items():
        doc.setdefault(section, {}).update(fields)
    doc.setdefault("telemetry", {})["store"] = str(store_root)
    spec = RunSpec.from_dict(doc)
    registry = MetricsRegistry()
    with use_registry(registry):
        wr = run_workflow(phantom, spec=spec)
    manifest = build_manifest(registry, config=spec.to_dict(), cache=wr.cache)
    return wr, manifest


def det_blob(manifest):
    return json.dumps(deterministic_sections(manifest), sort_keys=True)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    store_root = Path(argv[0]) if argv else Path(tempfile.mkdtemp()) / "store"
    phantom = dataset1(scale=0.15, snr=40.0)

    print(f"cache-parity smoke: store at {store_root}")
    cold, cold_manifest = run(phantom, store_root)
    assert not cold.cache["sampling_hit"], "first run must be cold"
    print(f"  cold: writes={cold.cache['writes']}")

    warm, warm_manifest = run(phantom, store_root)
    assert warm.cache["sampling_hit"], "warm run missed the sampling entry"
    assert warm.cache["tracking_hit"], "warm run missed the tracking entry"

    if det_blob(cold_manifest) != det_blob(warm_manifest):
        print("FAIL: deterministic manifest sections differ cold vs warm")
        print("  cold:", det_blob(cold_manifest)[:400])
        print("  warm:", det_blob(warm_manifest)[:400])
        return 1
    np.testing.assert_array_equal(cold.bedpost.samples, warm.bedpost.samples)
    np.testing.assert_array_equal(
        cold.probtrack.run.lengths, warm.probtrack.run.lengths
    )
    shape3 = cold.bedpost.fields.shape3
    np.testing.assert_array_equal(
        cold.probtrack.connectivity.visit_count_volume(shape3),
        warm.probtrack.connectivity.visit_count_volume(shape3),
    )
    print("  warm: bit-identical (samples, lengths, visit map, manifest)")

    # Acceptance sweep: three tracking specs, one MCMC.
    hits = [cold.cache["sampling_hit"]]
    for max_steps in (32, 48):
        wr, _ = run(phantom, store_root, tracking={"max_steps": max_steps})
        hits.append(wr.cache["sampling_hit"])
    if hits != [False, True, True]:
        print(f"FAIL: sampling hit pattern {hits}, expected [False, True, True]")
        return 1
    listing = ArtifactStore(store_root).ls()
    n_sampling = sum(e["stage"] == "sampling" for e in listing)
    if n_sampling != 1:
        print(f"FAIL: {n_sampling} sampling entries after the sweep, expected 1")
        return 1
    print(
        f"  sweep: 3 tracking specs, {n_sampling} sampling entry, "
        f"{sum(e['stage'] == 'tracking' for e in listing)} tracking entries"
    )
    print("cache parity OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
