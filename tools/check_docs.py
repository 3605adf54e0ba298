#!/usr/bin/env python
"""Documentation checks: local markdown links + docstring doctests.

No external dependencies — this is what the CI ``docs`` job runs (and a
unit test keeps it honest locally):

* every relative link/image target in the repo's markdown pages must
  exist on disk (external ``http(s)``/``mailto`` targets and pure
  ``#anchors`` are skipped);
* the doctest-bearing modules (``repro.telemetry.*``,
  ``repro.config.*``, ``repro.store.fingerprint``,
  ``repro.service.jobs``) must pass
  ``doctest.testmod``;
* every example run spec in ``examples/specs/`` must resolve to a valid
  ``RunSpec`` that builds both stage configs (the CI job additionally
  resolves each through ``repro-track --config ... --print-config``);
* the field table in ``docs/configuration.md`` must name every
  ``RunSpec`` field (read from ``dataclasses.fields``) exactly once, and
  nothing else.

Exit status is the number of failures (0 = clean).
"""

from __future__ import annotations

import doctest
import importlib
import re
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Markdown files whose local links must resolve.
MARKDOWN = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/architecture.md",
    "docs/observability.md",
    "docs/fault-tolerance.md",
    "docs/parallelism.md",
    "docs/configuration.md",
    "docs/connectome.md",
    "docs/storage.md",
    "docs/service.md",
    "docs/operations.md",
    "docs/api.md",
)

#: Modules whose doctests the docs job executes.
DOCTEST_MODULES = (
    "repro.telemetry.registry",
    "repro.telemetry.manifest",
    "repro.config.spec",
    "repro.config.layering",
    "repro.config.stages",
    "repro.store.fingerprint",
    "repro.service.jobs",
)

#: The page whose table classifies every ``RunSpec`` field.
SPEC_TABLE_PAGE = "docs/configuration.md"

_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)
#: A table row whose first cell is a dotted field path: | `a.b` | ...
_FIELD_ROW = re.compile(r"^\|\s*`(\w+\.\w+)`\s*\|", re.MULTILINE)


def iter_local_links(text: str):
    """Yield relative link targets from markdown, skipping code fences."""
    for target in _LINK.findall(_CODE_FENCE.sub("", text)):
        target = target.split("#", 1)[0]
        if not target or "://" in target or target.startswith("mailto:"):
            continue
        yield target


def check_links() -> list[str]:
    """Return one error string per broken local link."""
    errors = []
    for name in MARKDOWN:
        page = REPO / name
        if not page.exists():
            errors.append(f"{name}: page listed in MARKDOWN does not exist")
            continue
        for target in iter_local_links(page.read_text()):
            if not (page.parent / target).exists():
                errors.append(f"{name}: broken link -> {target}")
    return errors


def check_doctests() -> list[str]:
    """Return one error string per failing doctest module."""
    errors = []
    for name in DOCTEST_MODULES:
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        if result.attempted == 0:
            errors.append(f"{name}: expected doctests, found none")
        elif result.failed:
            errors.append(f"{name}: {result.failed}/{result.attempted} doctests failed")
    return errors


def check_example_specs() -> list[str]:
    """Return one error string per invalid ``examples/specs/`` file: one
    that fails to validate, or validates but cannot build a stage config."""
    from repro.config import RunSpec, load_spec_file
    from repro.errors import ConfigurationError
    from repro.pipeline import BedpostConfig
    from repro.tracking import ProbtrackConfig

    specs = sorted((REPO / "examples" / "specs").glob("*"))
    if not specs:
        return ["examples/specs: expected example run specs, found none"]
    errors = []
    for path in specs:
        try:
            spec = RunSpec.from_dict(load_spec_file(path))
            BedpostConfig.from_run_spec(spec)
            ProbtrackConfig.from_run_spec(spec)
        except ConfigurationError as exc:
            errors.append(f"examples/specs/{path.name}: {exc}")
    return errors


def check_spec_table(text: str | None = None) -> list[str]:
    """Return one error string per ``RunSpec`` field the configuration
    table names other than exactly once, and per row naming no field."""
    from repro.config import RunSpec

    if text is None:
        text = (REPO / SPEC_TABLE_PAGE).read_text()
    spec = RunSpec()
    every = {
        f"{section.name}.{f.name}"
        for section in fields(spec)
        for f in fields(getattr(spec, section.name))
    }
    rows = Counter(_FIELD_ROW.findall(_CODE_FENCE.sub("", text)))
    errors = [
        f"{SPEC_TABLE_PAGE}: field table names {path} {rows[path]} times"
        for path in sorted(every)
        if rows[path] != 1
    ]
    errors += [
        f"{SPEC_TABLE_PAGE}: field table row {path} is no RunSpec field"
        for path in sorted(set(rows) - every)
    ]
    return errors


def main() -> int:
    """Run every check; print failures; exit with their count."""
    sys.path.insert(0, str(REPO / "src"))
    errors = (
        check_links() + check_doctests() + check_example_specs()
        + check_spec_table()
    )
    for err in errors:
        print(f"FAIL {err}")
    if not errors:
        print(f"docs OK: {len(MARKDOWN)} pages, {len(DOCTEST_MODULES)} doctest modules")
    return len(errors)


if __name__ == "__main__":
    sys.exit(main())
