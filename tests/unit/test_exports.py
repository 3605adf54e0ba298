"""Every name a ``repro`` module lists in ``__all__`` resolves.

A re-export left behind when a module is deleted or a name moves then
fails here, naming the module, instead of at some later import.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [
        attr for attr in getattr(module, "__all__", ())
        if not hasattr(module, attr)
    ]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_runtime_imports_no_stage():
    # The runtime runs any stage's shard tasks; importing it must not
    # pull in a stage, its models, or the pipeline drivers.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = "import sys, repro.runtime; print('\\n'.join(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    ).stdout.split()
    stages = ("repro.tracking", "repro.mcmc", "repro.pipeline", "repro.models")
    leaked = sorted(
        m for m in loaded if any(m == s or m.startswith(s + ".") for s in stages)
    )
    assert not leaked, f"import repro.runtime loaded {leaked}"
