"""Shared CLI surface for ``repro-bedpost`` and ``repro-track``.

Both commands resolve one :class:`~repro.config.spec.RunSpec` from the
same layered sources — ``defaults < --config FILE < explicit flags <
--set dotted.key=value`` — and both expose the same flag groups.  This
module owns those groups (previously duplicated per command):

* the **configuration** group: ``--config``, ``--set``,
  ``--print-config``;
* the **runtime** group: ``--workers``, ``--max-retries``,
  ``--shard-timeout``, ``--inject-fault``;
* the **telemetry** group: ``--metrics-out`` (and, where the command
  produces a modeled schedule, ``--trace-out``), and the manifest
  writer behind ``--metrics-out``.

Explicit flags default to ``None`` (or ``False`` for switches) so a
command can tell "the user passed this" from "use the spec/default
value"; :func:`cli_flag_overrides` turns only the passed ones into
dotted-path overrides for :func:`repro.config.resolve_run_spec`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.config import RunSpec, resolve_run_spec
from repro.errors import ReproError
from repro.telemetry import write_manifest

__all__ = [
    "add_config_group",
    "add_runtime_group",
    "add_telemetry_group",
    "add_store_group",
    "RUNTIME_FLAG_MAP",
    "BEDPOST_RUNTIME_FLAG_MAP",
    "TELEMETRY_FLAG_MAP",
    "STORE_FLAG_MAP",
    "cli_flag_overrides",
    "resolve_spec_from_args",
    "print_resolved_config",
    "write_run_manifest",
]

#: ``args`` attribute -> run-spec dotted path, for the runtime group.
RUNTIME_FLAG_MAP = {
    "workers": "runtime.n_workers",
    "max_retries": "runtime.max_retries",
    "shard_timeout": "runtime.shard_timeout_s",
    "inject_fault": "runtime.fault_plan",
}

#: Runtime flag map for ``repro-bedpost``: same retry/timeout/fault
#: knobs as tracking, but ``--workers`` steers the *sampling* stage's
#: voxel-block shards (``runtime.bedpost_workers``).
BEDPOST_RUNTIME_FLAG_MAP = {
    "workers": "runtime.bedpost_workers",
    "max_retries": "runtime.max_retries",
    "shard_timeout": "runtime.shard_timeout_s",
    "inject_fault": "runtime.fault_plan",
}

#: ``args`` attribute -> run-spec dotted path, for the telemetry group.
TELEMETRY_FLAG_MAP = {
    "metrics_out": "telemetry.metrics_out",
    "trace_out": "telemetry.trace_out",
}

#: ``args`` attribute -> run-spec dotted path, for the artifact-store
#: group.  ``--no-cache`` is handled specially in
#: :func:`resolve_spec_from_args` (a False switch is normally "not
#: passed", but here False-by-flag must force ``telemetry.cache``).
STORE_FLAG_MAP = {
    "store": "telemetry.store",
}


def add_config_group(p: argparse.ArgumentParser) -> None:
    """The ``--config`` / ``--set`` / ``--print-config`` group."""
    g = p.add_argument_group(
        "configuration",
        "one declarative run spec drives the whole command; layering is "
        "defaults < --config file < explicit flags < --set overrides",
    )
    g.add_argument("--config", type=Path, default=None, metavar="FILE",
                   help="TOML or JSON run-spec file "
                        "(see docs/configuration.md)")
    g.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="override one spec field by dotted path, e.g. "
                        "--set runtime.n_workers=4 (repeatable; values "
                        "parse as JSON, bare words as strings)")
    g.add_argument("--print-config", action="store_true",
                   help="print the resolved spec and its content hash "
                        "as JSON, then exit without running")


def add_runtime_group(p: argparse.ArgumentParser, *, unit: str = "sample") -> None:
    """The workers / retries / shard-timeout / fault-injection group.

    ``unit`` names what a shard holds in the ``--workers`` /
    ``--inject-fault`` help text ("sample" for tracking, "voxel block"
    for bedpost).
    """
    g = p.add_argument_group("runtime")
    g.add_argument("--workers", type=int, default=None,
                   help=f"worker processes for the {unit} loop (default 1; "
                        "results are bit-identical for any count)")
    g.add_argument("--max-retries", type=int, default=None,
                   help="supervised retries per failed shard before "
                        "re-sharding / serial fallback (default 2)")
    g.add_argument("--shard-timeout", type=float, default=None, metavar="S",
                   help="per-shard attempt deadline in seconds "
                        "(default: no hang watchdog)")
    g.add_argument("--inject-fault", default=None, metavar="SPEC",
                   help="DEV ONLY: deterministic fault injection, e.g. "
                        "'crash:0' (shard 0's first attempt crashes), "
                        "'hang:1:*', 'corrupt:s2' (the third global "
                        f"{unit}); recovery keeps output bit-identical "
                        "to a clean run")


def add_telemetry_group(
    p: argparse.ArgumentParser, trace: bool = True
) -> None:
    """The ``--metrics-out`` (+ optionally ``--trace-out``) group."""
    g = p.add_argument_group("telemetry")
    g.add_argument("--metrics-out", type=Path, default=None, metavar="JSON",
                   help="write a telemetry run manifest (counters, "
                        "histograms, timers, spans, resolved config) to "
                        "this path")
    if trace:
        g.add_argument("--trace-out", type=Path, default=None, metavar="JSON",
                       help="write a chrome://tracing / Perfetto trace of "
                            "the modeled schedule plus measured host spans")


def add_store_group(p: argparse.ArgumentParser) -> None:
    """The artifact-store group: ``--store`` / ``--no-cache``."""
    g = p.add_argument_group(
        "artifact store",
        "content-addressed stage memoization: identical (config, data) "
        "stage runs are served from the store bit-identically instead "
        "of recomputing (see docs/storage.md)",
    )
    g.add_argument("--store", type=Path, default=None, metavar="DIR",
                   help="artifact store root; stages are looked up by "
                        "their config-subtree hash before computing and "
                        "published atomically after")
    g.add_argument("--no-cache", action="store_true",
                   help="never serve store entries (forces recompute); "
                        "computed stages are still published, refreshing "
                        "the store")


def cli_flag_overrides(
    args: argparse.Namespace, flag_map: dict[str, str]
) -> dict:
    """Dotted-path overrides for the flags the user actually passed.

    ``None`` means "not passed" and ``False`` is a switch at its
    default; both are skipped so lower layers (spec file, defaults)
    stay in charge.  :class:`~pathlib.Path` values become strings —
    the spec is a plain JSON-safe tree.
    """
    overrides = {}
    for attr, dotted in flag_map.items():
        value = getattr(args, attr, None)
        if value is None or value is False:
            continue
        overrides[dotted] = str(value) if isinstance(value, Path) else value
    return overrides


def resolve_spec_from_args(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    flag_map: dict[str, str],
    base: dict | None = None,
) -> RunSpec:
    """Resolve the command's :class:`RunSpec` from all four layers.

    An invalid spec is a ``parser.error``.  ``--no-cache`` gets special
    treatment: it is a switch whose *active* value is False
    (``telemetry.cache = false``), so it cannot ride the normal flag map
    (which treats False as "not passed").
    """
    cli_overrides = cli_flag_overrides(args, flag_map)
    if getattr(args, "no_cache", False):
        cli_overrides["telemetry.cache"] = False
    try:
        return resolve_run_spec(
            config_file=args.config,
            cli_overrides=cli_overrides,
            set_overrides=args.overrides,
            base=base,
        )
    except ReproError as exc:
        parser.error(str(exc))


def print_resolved_config(spec: RunSpec, stream=None) -> None:
    """``--print-config``: the resolved spec + hash as stable JSON."""
    doc = {"config": spec.to_dict(), "config_hash": spec.content_hash()}
    print(json.dumps(doc, sort_keys=True, indent=2),
          file=stream if stream is not None else sys.stdout)


def write_run_manifest(
    spec: RunSpec, registry, meta: dict, cache: dict | None
) -> None:
    """``--metrics-out``: write the run manifest when the spec names one."""
    if spec.telemetry.metrics_out is None:
        return
    path = Path(spec.telemetry.metrics_out)
    write_manifest(path, registry, meta=meta, config=spec.to_dict(), cache=cache)
    print(f"wrote telemetry manifest to {path}")
