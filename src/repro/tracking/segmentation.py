"""Segmentation strategies (paper § IV-B — the core contribution).

A strategy turns the maximum step budget into a *segmentation array*
``NumIteration[NumSegments]``: kernel ``i`` advances unfinished paths by
at most ``NumIteration[i]`` steps, then the host compacts.  The paper
studies:

* ``A_k`` (:class:`UniformStrategy`) — every segment ``k`` iterations;
  ``A_1`` is Mittmann 2008's reduce-every-step extreme, ``A_MaxStep``
  (:class:`SingleSegmentStrategy`) the no-segmentation extreme;
* the increasing-interval arrays ``B`` = {1,2,5,10,20,50,100,200,500} and
  ``C`` = {1,1,2,2,5,5,...,200,200} (:func:`paper_strategy_b` /
  :func:`paper_strategy_c`), plus the Table II production array
  {1,2,5,10,20,50,100,200,500,1000} (:func:`table2_strategy`);
* generated increasing ladders (:func:`increasing_intervals`) matched to
  the exponential fiber-length distribution: early segments are short
  (every thread is still alive; divergence waste per segment is bounded
  by ``active * NumIteration[i]``), late segments are long (few threads
  remain; launch/transfer overhead dominates).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError
from repro.telemetry import get_registry

__all__ = [
    "SegmentationStrategy",
    "UniformStrategy",
    "SingleSegmentStrategy",
    "IncreasingStrategy",
    "increasing_intervals",
    "paper_strategy_b",
    "paper_strategy_c",
    "table2_strategy",
    "strategy_from_spec",
]


class SegmentationStrategy(ABC):
    """Produces a segmentation array covering a step budget."""

    name: str = "strategy"

    @abstractmethod
    def segments(self, max_steps: int) -> list[int]:
        """Positive iteration counts summing to at least ``max_steps``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"

    def __eq__(self, other) -> bool:
        """Structural equality, so configs built from the same spec
        compare equal (strategies are parameter records, not state)."""
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        items = tuple(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in sorted(self.__dict__.items())
        )
        return hash((type(self).__name__, items))

    @staticmethod
    def _check_budget(max_steps: int) -> None:
        if max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {max_steps}")

    def _record_plan(self, out: list[int]) -> list[int]:
        """Count a produced plan in the telemetry registry; returns it.

        A run plans once, in the parent, whatever its shard count; a
        run served from the store plans nothing.  The counts are
        therefore *operational* metrics, excluded from the manifest's
        deterministic section.
        """
        registry = get_registry()
        registry.count("segmentation.plans", 1, deterministic=False)
        registry.count("segmentation.segments_planned", len(out), deterministic=False)
        return out


class UniformStrategy(SegmentationStrategy):
    """``A_k``: every segment runs ``k`` iterations."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.k = k
        self.name = f"A_{k}"

    def segments(self, max_steps: int) -> list[int]:
        self._check_budget(max_steps)
        n_full, rem = divmod(max_steps, self.k)
        out = [self.k] * n_full
        if rem:
            out.append(rem)
        return self._record_plan(out)


class SingleSegmentStrategy(SegmentationStrategy):
    """``A_MaxStep``: no segmentation — one monolithic kernel."""

    name = "A_MaxStep"

    def segments(self, max_steps: int) -> list[int]:
        self._check_budget(max_steps)
        return self._record_plan([max_steps])


class IncreasingStrategy(SegmentationStrategy):
    """An explicit segmentation array (e.g. the paper's B and C).

    If the array sums to less than ``max_steps`` the final entry repeats
    until the budget is covered; if it over-covers, the tail is trimmed
    so the total equals ``max_steps`` exactly.
    """

    def __init__(self, array: list[int] | np.ndarray, name: str = "custom") -> None:
        arr = [int(a) for a in np.asarray(array).ravel()]
        if not arr or any(a < 1 for a in arr):
            raise ConfigurationError(
                f"segmentation array must be non-empty positive ints, got {array}"
            )
        self.array = arr
        self.name = name

    def segments(self, max_steps: int) -> list[int]:
        self._check_budget(max_steps)
        out: list[int] = []
        total = 0
        i = 0
        while total < max_steps:
            nxt = self.array[i] if i < len(self.array) else self.array[-1]
            nxt = min(nxt, max_steps - total)
            out.append(nxt)
            total += nxt
            i += 1
        return self._record_plan(out)


def increasing_intervals(
    max_steps: int, first: int = 1, ratio: float = 2.5
) -> list[int]:
    """A generated geometric ladder covering ``max_steps``.

    The paper picks its arrays by hand; this generator produces the same
    shape automatically: ``first, ~first*ratio, ...`` capped so the sum
    equals the budget.
    """
    if max_steps < 1:
        raise ConfigurationError(f"max_steps must be >= 1, got {max_steps}")
    if first < 1:
        raise ConfigurationError(f"first must be >= 1, got {first}")
    if ratio <= 1.0:
        raise ConfigurationError(f"ratio must be > 1, got {ratio}")
    out: list[int] = []
    total = 0
    step = float(first)
    while total < max_steps:
        nxt = min(int(round(step)), max_steps - total)
        nxt = max(nxt, 1)
        out.append(nxt)
        total += nxt
        step *= ratio
    return out


def paper_strategy_b() -> IncreasingStrategy:
    """Table IV strategy B: {1, 2, 5, 10, 20, 50, 100, 200, 500}."""
    return IncreasingStrategy([1, 2, 5, 10, 20, 50, 100, 200, 500], name="B")


def paper_strategy_c() -> IncreasingStrategy:
    """Table IV strategy C: {1,1,2,2,5,5,10,10,20,20,50,50,100,100,200,200}."""
    return IncreasingStrategy(
        [1, 1, 2, 2, 5, 5, 10, 10, 20, 20, 50, 50, 100, 100, 200, 200], name="C"
    )


def table2_strategy() -> IncreasingStrategy:
    """The Table II production array: {1,2,5,10,20,50,100,200,500,1000}."""
    return IncreasingStrategy(
        [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000], name="increasing"
    )


#: Run-spec strategy names -> constructors (``a<k>`` handled by pattern).
_NAMED_STRATEGIES = {
    "increasing": table2_strategy,
    "b": paper_strategy_b,
    "c": paper_strategy_c,
    "single": SingleSegmentStrategy,
}


def strategy_from_spec(
    name: str, array: list[int] | tuple[int, ...] | None = None
) -> SegmentationStrategy:
    """Build a strategy from its run-spec form (``tracking.strategy``).

    ``array`` (``tracking.strategy_array``) wins when given: the result
    is an explicit :class:`IncreasingStrategy` labeled ``name``.
    Otherwise ``name`` selects a named strategy: the paper's
    ``increasing``/``b``/``c`` arrays, ``single`` (no segmentation), or
    ``a<k>`` uniform ladders.
    """
    if array is not None:
        return IncreasingStrategy(list(array), name=name or "custom")
    if name in _NAMED_STRATEGIES:
        return _NAMED_STRATEGIES[name]()
    if len(name) > 1 and name.startswith("a") and name[1:].isdigit():
        return UniformStrategy(int(name[1:]))
    raise ConfigurationError(
        f"unknown strategy {name!r}; expected one of "
        f"{sorted(_NAMED_STRATEGIES)}, 'a<k>', or 'custom' with an array"
    )

