"""The docs satellite stays honest: links resolve, doctests pass.

Runs the same checks as the CI ``docs`` job (``tools/check_docs.py``)
so a broken link or a drifted doctest fails tier-1 locally, not just in
the workflow.
"""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_markdown_links_resolve():
    checker = load_checker()
    assert checker.check_links() == []


def test_doctest_modules_pass():
    checker = load_checker()
    sys.path.insert(0, str(REPO / "src"))
    try:
        assert checker.check_doctests() == []
    finally:
        sys.path.remove(str(REPO / "src"))


def test_link_extractor_skips_external_and_fences():
    checker = load_checker()
    text = (
        "[ok](docs/architecture.md) [web](https://example.com) "
        "[anchor](#section)\n```\n[fenced](nope.md)\n```\n"
        "![img](figs/a.png)"
    )
    assert list(checker.iter_local_links(text)) == [
        "docs/architecture.md",
        "figs/a.png",
    ]


def test_readme_links_every_docs_page():
    readme = (REPO / "README.md").read_text()
    for page in (
        "docs/architecture.md",
        "docs/observability.md",
        "docs/fault-tolerance.md",
        "docs/parallelism.md",
        "docs/configuration.md",
    ):
        assert page in readme, f"README must link {page}"


def test_example_specs_resolve():
    checker = load_checker()
    sys.path.insert(0, str(REPO / "src"))
    try:
        assert checker.check_example_specs() == []
    finally:
        sys.path.remove(str(REPO / "src"))


def test_spec_table_names_every_field_once():
    checker = load_checker()
    sys.path.insert(0, str(REPO / "src"))
    try:
        assert checker.check_spec_table() == []
        page = (REPO / checker.SPEC_TABLE_PAGE).read_text()
        row = next(
            line for line in page.splitlines()
            if line.startswith("| `tracking.max_steps`")
        )
        assert checker.check_spec_table(page.replace(row + "\n", "")) == [
            f"{checker.SPEC_TABLE_PAGE}: field table names "
            "tracking.max_steps 0 times"
        ]
        assert len(checker.check_spec_table(page + row + "\n")) == 1
    finally:
        sys.path.remove(str(REPO / "src"))
