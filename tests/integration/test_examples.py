"""Smoke test: every script in ``examples/`` runs to completion.

Each script is imported from its file and its ``main()`` called, so a
library change that breaks an example fails tier-1.  Scripts that write
files take ``main(out_dir=...)``; they write into ``tmp_path`` here and
the expected files are checked, so the checkout stays clean.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent.parent / "examples"

# Files each writing example must leave in its ``out_dir``.
OUTPUTS = {
    "corpus_callosum": ["cc_fibers.trk", "cc_visits.nii.gz"],
    "roi_connectivity": ["schedule.json"],
}


def load_example(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.py")), ids=lambda p: p.stem
)
def test_example_runs(path, tmp_path):
    module = load_example(path)
    if path.stem in OUTPUTS:
        module.main(out_dir=tmp_path)
        for name in OUTPUTS[path.stem]:
            assert (tmp_path / name).stat().st_size > 0
    else:
        module.main()
