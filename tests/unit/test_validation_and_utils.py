"""Unit tests for the error hierarchy and the profiling helpers."""

from repro.errors import ConfigurationError, DataError, ReproError
from repro.utils import Stopwatch, TimingAccumulator


class TestChecks:
    def test_errors_share_base(self):
        assert issubclass(ConfigurationError, ReproError)
        assert issubclass(DataError, ReproError)
        # Library errors remain catchable as stdlib categories too.
        assert issubclass(ConfigurationError, ValueError)


class TestProfiling:
    def test_stopwatch_measures(self):
        with Stopwatch() as sw:
            sum(range(100))
        assert sw.elapsed >= 0.0

    def test_accumulator_sections(self):
        acc = TimingAccumulator()
        with acc.section("a"):
            pass
        with acc.section("a"):
            pass
        assert acc.counts["a"] == 2
        assert acc.totals["a"] >= 0.0

    def test_accumulator_merge(self):
        a, b = TimingAccumulator(), TimingAccumulator()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.totals == {"x": 3.0, "y": 3.0}
        assert a.counts == {"x": 2, "y": 1}

    def test_summary_renders(self):
        acc = TimingAccumulator()
        assert "no sections" in acc.summary()
        acc.add("kernel", 1.25)
        assert "kernel" in acc.summary()
