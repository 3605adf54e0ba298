"""Deterministic fault injection for the supervised shard pool.

A :class:`FaultPlan` describes *exactly* which shard attempts misbehave
and how — crash the worker process, hang until the supervisor's deadline
fires, or ship a payload whose bytes no longer match their digest.
Plans are data, not monkeypatching: they travel inside the supervision
policy, are applied by the worker entry point, and therefore behave identically under ``fork`` and
``spawn`` start methods.  Tests (and the dev-only ``repro-track
--inject-fault`` flag) use plans to prove that recovery reproduces a
clean run bit for bit.

Spec grammar (comma-separated)::

    kind:target[:attempt]

    kind    = crash | hang | corrupt
    target  = shard index (bare int) | s<N> (global sample index N)
    attempt = int (default 0: only the first try) | * (every attempt)

Examples: ``crash:0`` (shard 0's first attempt crashes, the retry
succeeds), ``hang:1:*`` (shard 1 hangs on every attempt — forces the
serial fallback), ``corrupt:s3`` (whichever shard owns global sample 3
ships a damaged payload once).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan"]

#: The injectable misbehaviours (matching the supervisor's taxonomy).
FAULT_KINDS = ("crash", "hang", "corrupt")

#: ``attempt`` value meaning "every attempt, including retries".
EVERY_ATTEMPT = -1


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what goes wrong, where, and on which attempt.

    Exactly one of ``shard`` / ``sample`` is set: ``shard`` targets a
    shard task by position in task order, ``sample`` targets whichever
    shard's contiguous sample range contains that global sample index.
    """

    kind: str
    shard: int | None = None
    sample: int | None = None
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if (self.shard is None) == (self.sample is None):
            raise ConfigurationError(
                "a fault targets exactly one of shard= or sample="
            )
        target = self.shard if self.shard is not None else self.sample
        if target < 0:
            raise ConfigurationError(f"fault target must be >= 0, got {target}")
        if self.attempt < EVERY_ATTEMPT:
            raise ConfigurationError(
                f"attempt must be >= 0 (or -1 for every attempt), got {self.attempt}"
            )

    def matches(self, shard: int, samples: range, attempt: int) -> bool:
        """Does this fault fire for the given shard attempt?"""
        if self.attempt not in (EVERY_ATTEMPT, attempt):
            return False
        if self.shard is not None:
            return self.shard == shard
        return self.sample in samples


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of injected faults plus hang behaviour.

    ``hang_seconds`` bounds how long a ``hang`` fault sleeps, so an
    injected hang cannot outlive a misconfigured (absent) timeout by
    more than that — tests pair small hangs with small
    ``shard_timeout_s`` values to exercise the timeout path quickly.
    """

    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.hang_seconds <= 0:
            raise ConfigurationError(
                f"hang_seconds must be > 0, got {self.hang_seconds}"
            )

    def lookup(self, shard: int, samples: range, attempt: int) -> FaultSpec | None:
        """The first fault firing for this attempt, or None."""
        for spec in self.faults:
            if spec.matches(shard, samples, attempt):
                return spec
        return None

    def __bool__(self) -> bool:
        return bool(self.faults)

    @classmethod
    def parse(cls, text: str, hang_seconds: float = 3600.0) -> "FaultPlan":
        """Parse the CLI/spec grammar (see module docstring)."""
        specs = []
        for raw in text.split(","):
            part = raw.strip()
            if not part:
                continue
            pieces = part.split(":")
            if len(pieces) not in (2, 3):
                raise ConfigurationError(
                    f"bad fault spec {part!r}; expected kind:target[:attempt]"
                )
            kind, target = pieces[0], pieces[1]
            attempt = 0
            if len(pieces) == 3:
                attempt = (
                    EVERY_ATTEMPT if pieces[2] == "*" else _parse_int(pieces[2], part)
                )
            if target.startswith("s"):
                spec = FaultSpec(
                    kind=kind, sample=_parse_int(target[1:], part), attempt=attempt
                )
            else:
                spec = FaultSpec(
                    kind=kind, shard=_parse_int(target, part), attempt=attempt
                )
            specs.append(spec)
        if not specs:
            raise ConfigurationError(f"no fault specs in {text!r}")
        return cls(faults=tuple(specs), hang_seconds=hang_seconds)


def _parse_int(text: str, context: str) -> int:
    """Parse an int from a fault spec, raising ConfigurationError on junk."""
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(
            f"bad integer {text!r} in fault spec {context!r}"
        ) from None
