"""Spec layering: defaults < spec file < CLI overrides.

A resolved :class:`~repro.config.spec.RunSpec` is assembled from up to
four layers, each overriding the one below it field by field:

1. **defaults** — the dataclass defaults (or, for ``--replay``, the
   config embedded in a run manifest);
2. **spec file** — a TOML/JSON file given with ``--config``;
3. **explicit CLI flags** — the classic per-field flags (``--workers``,
   ``--max-steps``, ...), applied only when actually passed;
4. **``--set dotted.key=value``** — the final word, for one-off tweaks.

Values on the ``--set`` layer are parsed as JSON when possible (so
``--set runtime.n_workers=4`` yields an int and ``--set
runtime.shard_timeout_s=null`` clears a field) and fall back to bare
strings (``--set tracking.strategy=b``).

Examples
--------
>>> spec = resolve_run_spec(set_overrides=["runtime.n_workers=4"])
>>> spec.runtime.n_workers
4
>>> resolve_run_spec(set_overrides=["runtime=4"])  # doctest: +ELLIPSIS
Traceback (most recent call last):
    ...
repro.errors.ConfigurationError: runtime: override must target a field ...
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from repro.config.spec import RunSpec
from repro.config.toml_io import load_spec_file
from repro.errors import ConfigurationError

__all__ = [
    "apply_override",
    "deep_merge",
    "parse_override_value",
    "parse_set_argument",
    "resolve_run_spec",
]


def deep_merge(base: dict, overlay: dict) -> dict:
    """A new dict: ``overlay`` wins over ``base``, recursing into tables."""
    out = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def parse_override_value(text: str):
    """JSON if it parses (numbers, booleans, null, arrays), else a string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_set_argument(text: str) -> tuple[str, object]:
    """Split one ``--set dotted.key=value`` argument."""
    key, sep, value = text.partition("=")
    if not sep or not key.strip():
        raise ConfigurationError(
            f"--set expects dotted.key=value, got {text!r}"
        )
    return key.strip(), parse_override_value(value)


def apply_override(doc: dict, dotted: str, value) -> None:
    """Set ``doc[a][b][c] = value`` for dotted path ``a.b.c``, in place.

    Intermediate tables are created as needed; a path that tries to
    descend *through* a scalar, or that stops at a section instead of a
    field, raises with the offending path.
    """
    parts = [p for p in dotted.split(".") if p]
    if len(parts) < 2:
        raise ConfigurationError(
            f"{dotted}: override must target a field inside a section "
            "(e.g. runtime.n_workers)"
        )
    node = doc
    for i, part in enumerate(parts[:-1]):
        nxt = node.get(part)
        if nxt is None:
            nxt = node[part] = {}
        elif not isinstance(nxt, dict):
            raise ConfigurationError(
                f"{'.'.join(parts[: i + 1])}: cannot override through a "
                f"non-table value {nxt!r}"
            )
        node = nxt
    node[parts[-1]] = value


def resolve_run_spec(
    config_file: str | Path | None = None,
    cli_overrides: dict | None = None,
    set_overrides: list[str] | tuple[str, ...] = (),
    base: dict | None = None,
) -> RunSpec:
    """Layer a run spec and validate the result.

    Parameters
    ----------
    config_file:
        Optional TOML/JSON spec file (layer 2).
    cli_overrides:
        ``dotted.path -> value`` from explicit per-field CLI flags
        (layer 3); pass only flags the user actually supplied.
    set_overrides:
        Raw ``dotted.key=value`` strings from ``--set`` (layer 4,
        applied in order).
    base:
        The layer-1 starting dict; defaults to ``{}`` (pure dataclass
        defaults).  ``--replay`` passes a manifest's config section.
    """
    # A deep copy: overrides land in nested tables, never in the caller's.
    doc = copy.deepcopy(base) if base else {}
    if config_file is not None:
        doc = deep_merge(doc, load_spec_file(config_file))
    for dotted, value in (cli_overrides or {}).items():
        apply_override(doc, dotted, value)
    for raw in set_overrides:
        dotted, value = parse_set_argument(raw)
        apply_override(doc, dotted, value)
    return RunSpec.from_dict(doc)
