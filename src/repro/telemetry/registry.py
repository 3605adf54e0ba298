"""The metrics registry: counters, gauges, histograms, timers, and spans.

One :class:`MetricsRegistry` describes one run.  A process-wide default
registry exists so library code can instrument itself unconditionally
(:func:`get_registry`), but every entry point accepts an explicit
registry — inject one with :func:`use_registry` (scoped) or
:func:`set_registry` (global) to isolate a run's metrics.

Determinism contract
--------------------
The registry partitions its state into two classes:

* **Deterministic** — counters created with ``deterministic=True`` (the
  default) and all histograms.  These hold integer event counts that are
  pure functions of the work performed, so a serial run and an
  ``n_workers=4`` run of the same workload produce **bit-identical**
  values (worker increments are snapshotted per shard and merged in task
  order; integer addition is associative).
* **Measured** — timers, spans, gauges, and counters created with
  ``deterministic=False`` (operational counters such as retry counts).
  These record wall-clock reality and scheduling accidents; they are
  reported but never part of the bit-identity contract.

Examples
--------
>>> reg = MetricsRegistry()
>>> reg.count("demo.events", 3)
>>> reg.counter("demo.events").value
3
>>> h = reg.histogram("demo.sizes", edges=(1, 10, 100))
>>> h.observe_many([0, 5, 50, 500])
>>> h.counts
[1, 1, 1, 1]
>>> with reg.span("demo.outer"):
...     with reg.span("demo.inner", step=1):
...         pass
>>> [s.name for s in reg.spans]
['demo.outer', 'demo.inner']
>>> reg.spans[1].parent == 0  # inner's parent is the outer record
True
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.errors import TelemetryError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "SpanRecord",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]


@dataclass
class Counter:
    """A monotonically increasing integer event count.

    Parameters
    ----------
    name:
        Dotted metric name, e.g. ``"tracking.steps"``.
    deterministic:
        Whether the value is a pure function of the work performed (and
        therefore part of the serial-vs-parallel bit-identity contract).
    """

    name: str
    deterministic: bool = True
    value: int = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (a non-negative int) to the counter.

        Parameters
        ----------
        n:
            Increment; must be an integer >= 0 (floats would break the
            bit-identity contract).
        """
        if n < 0:
            raise TelemetryError(f"counter {self.name!r}: increment must be >= 0")
        self.value += int(n)


@dataclass
class Gauge:
    """A last-value metric merged by ``max`` (e.g. a peak footprint).

    Gauges are *measured* state: they never participate in the
    deterministic section of the manifest.
    """

    name: str
    value: float | None = None

    def set(self, v: float) -> None:
        """Record the latest value."""
        self.value = float(v)

    def set_max(self, v: float) -> None:
        """Record ``v`` only if it exceeds the current value."""
        v = float(v)
        if self.value is None or v > self.value:
            self.value = v


@dataclass
class Histogram:
    """An integer-count histogram over **fixed** bucket edges.

    ``counts[i]`` counts observations in ``(edges[i-1], edges[i]]`` with
    open-ended underflow/overflow buckets at the ends, so ``len(counts)
    == len(edges) + 1``.  Edges are fixed at creation — two runs of the
    same workload always bucket identically, which is what makes
    histogram merges deterministic.
    """

    name: str
    edges: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    n: int = 0

    def __post_init__(self) -> None:
        if not self.edges or list(self.edges) != sorted(self.edges):
            raise TelemetryError(
                f"histogram {self.name!r}: edges must be non-empty and sorted"
            )
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)

    def observe(self, value: float) -> None:
        """Count one observation into its bucket."""
        idx = int(np.searchsorted(self.edges, value, side="left"))
        self.counts[idx] += 1
        self.n += 1

    def observe_many(self, values) -> None:
        """Count every element of ``values`` (any array-like) at once."""
        arr = np.asarray(values).ravel()
        if arr.size == 0:
            return
        idx = np.searchsorted(self.edges, arr, side="left")
        binned = np.bincount(idx, minlength=len(self.edges) + 1)
        for i, c in enumerate(binned):
            self.counts[i] += int(c)
        self.n += int(arr.size)


@dataclass
class SpanRecord:
    """One completed :meth:`MetricsRegistry.span` measurement.

    Attributes
    ----------
    name:
        Stage name, e.g. ``"tracking.segment"``.
    attrs:
        User attributes passed to :meth:`MetricsRegistry.span`.
    start_s:
        Start offset in seconds from the registry's epoch.
    wall_s / cpu_s:
        Measured wall-clock and process CPU time of the span body.
    parent:
        Index (into the registry's span list) of the enclosing span, or
        ``None`` for a top-level span.
    worker:
        0 for spans measured in this process; shard index + 1 for spans
        merged back from a worker snapshot.
    """

    name: str
    attrs: dict
    start_s: float
    wall_s: float
    cpu_s: float
    parent: int | None = None
    worker: int = 0


class MetricsRegistry:
    """Counters, gauges, histograms, timers, and spans for one run.

    The registry is cheap enough to leave permanently enabled: a counter
    increment is a dict lookup plus an integer add.  It is *not*
    thread-safe — use one registry per thread or guard externally.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        #: name -> [total_seconds, count]; the flat stage ledger that
        #: :meth:`add_time` and closed spans fill.
        self.timers: dict[str, list] = {}
        self.spans: list[SpanRecord] = []
        self._span_stack: list[int] = []
        self._epoch_perf = time.perf_counter()
        #: Wall-clock epoch, for aligning worker snapshots to the parent.
        self.epoch_unix = time.time()

    # -- counters -----------------------------------------------------------

    def counter(self, name: str, deterministic: bool = True) -> Counter:
        """Return (creating if needed) the counter called ``name``.

        Parameters
        ----------
        name:
            Dotted metric name.
        deterministic:
            Classification of the counter (see module docstring); a
            mismatch with an existing counter's class raises
            :class:`~repro.errors.TelemetryError`.
        """
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name, deterministic=deterministic)
        elif c.deterministic != deterministic:
            raise TelemetryError(
                f"counter {name!r} already registered with "
                f"deterministic={c.deterministic}"
            )
        return c

    def count(self, name: str, n: int = 1, deterministic: bool = True) -> None:
        """Increment counter ``name`` by ``n`` (creating it if needed)."""
        self.counter(name, deterministic=deterministic).inc(n)

    # -- gauges -------------------------------------------------------------

    def gauge(self, name: str) -> Gauge:
        """Return (creating if needed) the gauge called ``name``."""
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    # -- histograms ---------------------------------------------------------

    def histogram(self, name: str, edges) -> Histogram:
        """Return (creating if needed) the histogram called ``name``.

        Parameters
        ----------
        name:
            Dotted metric name.
        edges:
            Fixed, sorted bucket edges.  Re-registering with different
            edges raises :class:`~repro.errors.TelemetryError` — edges
            may never drift within a run.
        """
        h = self.histograms.get(name)
        edges = tuple(float(e) for e in edges)
        if h is None:
            h = self.histograms[name] = Histogram(name, edges)
        elif h.edges != edges:
            raise TelemetryError(
                f"histogram {name!r} already registered with edges {h.edges}"
            )
        return h

    # -- timers & spans -----------------------------------------------------

    def add_time(self, name: str, seconds: float, count: int = 1) -> None:
        """Fold ``seconds`` of measured time into timer ``name``."""
        if seconds < 0:
            raise TelemetryError(f"timer {name!r}: seconds must be >= 0")
        t = self.timers.get(name)
        if t is None:
            self.timers[name] = [float(seconds), int(count)]
        else:
            t[0] += float(seconds)
            t[1] += int(count)

    @contextmanager
    def span(self, name: str, **attrs):
        """Measure a named stage: wall-clock + CPU time, nesting-aware.

        Spans nest: a span opened inside another records the enclosing
        span's index as its ``parent``, giving the manifest and the
        Chrome trace a call-tree.  Each completed span also folds its
        wall time into the flat ``timers`` ledger under ``name``.

        Parameters
        ----------
        name:
            Stage name (dotted, e.g. ``"mcmc.burnin"``).
        **attrs:
            JSON-serializable attributes recorded on the span.

        Yields
        ------
        SpanRecord
            The (mutable) record; its timing fields are filled on exit.
        """
        parent = self._span_stack[-1] if self._span_stack else None
        rec = SpanRecord(
            name=name,
            attrs=dict(attrs),
            start_s=time.perf_counter() - self._epoch_perf,
            wall_s=0.0,
            cpu_s=0.0,
            parent=parent,
        )
        self.spans.append(rec)
        idx = len(self.spans) - 1
        self._span_stack.append(idx)
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            yield rec
        finally:
            rec.wall_s = time.perf_counter() - t0
            rec.cpu_s = time.process_time() - c0
            popped = self._span_stack.pop()
            if popped != idx:  # pragma: no cover - misuse guard
                raise TelemetryError(
                    f"span {name!r} closed out of order (expected index "
                    f"{popped}, got {idx})"
                )
            self.add_time(name, rec.wall_s)

    # -- serialization & merging --------------------------------------------

    def snapshot(self) -> dict:
        """A picklable/JSON-able dump of the registry's full state.

        Returns
        -------
        dict
            Keys ``counters``, ``ops`` (non-deterministic counters),
            ``gauges``, ``histograms``, ``timers``, ``spans``, and
            ``epoch_unix``.  Mapping keys are sorted so the dump is
            byte-stable for identical state.
        """
        det = {c.name: c.value for c in self.counters.values() if c.deterministic}
        ops = {c.name: c.value for c in self.counters.values() if not c.deterministic}
        return {
            "counters": dict(sorted(det.items())),
            "ops": dict(sorted(ops.items())),
            "gauges": {
                k: g.value for k, g in sorted(self.gauges.items())
                if g.value is not None
            },
            "histograms": {
                k: {"edges": list(h.edges), "counts": list(h.counts), "n": h.n}
                for k, h in sorted(self.histograms.items())
            },
            "timers": {
                k: {"total_s": v[0], "count": v[1]}
                for k, v in sorted(self.timers.items())
            },
            "spans": [
                {
                    "name": s.name,
                    "attrs": s.attrs,
                    "start_s": s.start_s,
                    "wall_s": s.wall_s,
                    "cpu_s": s.cpu_s,
                    "parent": s.parent,
                    "worker": s.worker,
                }
                for s in self.spans
            ],
            "epoch_unix": self.epoch_unix,
        }

    def merge_snapshot(self, snap: dict, worker: int = 0) -> None:
        """Fold a worker snapshot into this registry, deterministically.

        Counters and histogram buckets add (integer addition — call this
        in task order and totals are bit-identical to a serial run);
        gauges merge by ``max``; timers add; spans are appended with
        their start offsets rebased onto this registry's epoch and
        tagged with ``worker``.

        Parameters
        ----------
        snap:
            A :meth:`snapshot` dict (typically shipped back from a
            worker process alongside its payload).
        worker:
            Value for the merged spans' ``worker`` field (shard index +
            1 by convention; 0 means "this process").
        """
        for name, v in snap.get("counters", {}).items():
            self.count(name, int(v))
        for name, v in snap.get("ops", {}).items():
            self.count(name, int(v), deterministic=False)
        for name, v in snap.get("gauges", {}).items():
            self.gauge(name).set_max(v)
        for name, h in snap.get("histograms", {}).items():
            mine = self.histogram(name, h["edges"])
            for i, c in enumerate(h["counts"]):
                mine.counts[i] += int(c)
            mine.n += int(h["n"])
        for name, t in snap.get("timers", {}).items():
            self.add_time(name, t["total_s"], t["count"])
        base = len(self.spans)
        shift = float(snap.get("epoch_unix", self.epoch_unix)) - self.epoch_unix
        for s in snap.get("spans", []):
            self.spans.append(
                SpanRecord(
                    name=s["name"],
                    attrs=dict(s["attrs"]),
                    start_s=s["start_s"] + shift,
                    wall_s=s["wall_s"],
                    cpu_s=s["cpu_s"],
                    parent=None if s["parent"] is None else base + s["parent"],
                    worker=worker,
                )
            )

    def merge(self, other: "MetricsRegistry", worker: int = 0) -> None:
        """Fold another registry into this one (via its snapshot)."""
        self.merge_snapshot(other.snapshot(), worker=worker)

    # -- reporting ----------------------------------------------------------

    def summary(self) -> str:
        """A compact fixed-width text summary (counters + stage timers)."""
        lines: list[str] = []
        names = sorted(self.counters)
        if names:
            width = max(len(n) for n in names)
            for n in names:
                c = self.counters[n]
                tag = "" if c.deterministic else "  (ops)"
                lines.append(f"{n:<{width}}  {c.value:>12d}{tag}")
        for n, (total, count) in sorted(self.timers.items()):
            lines.append(f"{n}  {total:10.4f} s  x{count}")
        return "\n".join(lines) if lines else "(no metrics recorded)"


# -- the ambient registry ----------------------------------------------------

_default_registry = MetricsRegistry()
_active_registry = _default_registry


def get_registry() -> MetricsRegistry:
    """The currently active registry (the process-wide default unless
    overridden by :func:`set_registry` / :func:`use_registry`)."""
    return _active_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the active registry globally; returns the previous one."""
    global _active_registry
    previous = _active_registry
    _active_registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Scoped injection: activate ``registry`` for the ``with`` body.

    >>> reg = MetricsRegistry()
    >>> with use_registry(reg):
    ...     get_registry() is reg
    True
    """
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
