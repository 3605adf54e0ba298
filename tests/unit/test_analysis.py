"""Unit tests for repro.analysis (tables, utilization, histograms)."""

import numpy as np
import pytest

from repro.analysis import (
    Table2Row,
    Table3Row,
    Table4Row,
    ascii_histogram,
    load_profile,
    neighbor_variation,
    render_table,
    sorted_profile,
    strategy_utilization,
    table2_row,
    table3_row,
    table4_row,
    utilization_report,
)
from repro.errors import ConfigurationError
from repro.gpu import PHENOM_X4, RADEON_5870
from repro.mcmc import MCMCConfig
from repro.tracking import (
    SingleSegmentStrategy,
    UniformStrategy,
    paper_strategy_b,
)


class TestReport:
    def test_render_alignment(self):
        out = render_table(
            ["name", "value"], [["kernel", 3.02], ["reduce", 0.78]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "3.02" in out and "reduce" in out

    def test_render_validation(self):
        with pytest.raises(ConfigurationError):
            render_table([], [])
        with pytest.raises(ConfigurationError):
            render_table(["a"], [[1, 2]])

    def test_render_empty_rows(self):
        out = render_table(["a", "bb"], [])
        assert "bb" in out



class TestSpeedupRows:
    def test_table3_row_matches_paper_band(self):
        # Paper defaults (burn-in 500, L=2) at dataset-1 voxel count:
        # speedup must land in the tens (paper: 33.6x / 34.0x).
        row = table3_row(
            "dataset1",
            205_082,
            MCMCConfig(n_burnin=500, n_samples=50, sample_interval=2),
            n_params=9,
            device=RADEON_5870,
            host=PHENOM_X4,
        )
        assert 10 < row.speedup < 100
        assert row.cpu_s > row.gpu_s
        assert len(row.cells()) == len(Table3Row.HEADERS)

    def test_table3_speedup_stable_across_sizes(self):
        # The paper's MCMC speedup is ~identical for both datasets: no
        # divergence, so the ratio barely depends on voxel count.
        cfg = MCMCConfig(n_burnin=500, n_samples=50, sample_interval=2)
        r1 = table3_row("d1", 205_082, cfg, 9, RADEON_5870, PHENOM_X4)
        r2 = table3_row("d2", 402_194, cfg, 9, RADEON_5870, PHENOM_X4)
        assert abs(r1.speedup - r2.speedup) / r1.speedup < 0.05

    def test_table2_and_4_from_run(self):
        from repro.models.fields import FiberField
        from repro.tracking import SegmentedTracker, TerminationCriteria, seeds_from_mask

        shape = (16, 8, 8)
        f = np.zeros(shape + (1,))
        f[..., 0] = 0.6
        d = np.zeros(shape + (1, 3))
        d[..., 0, 0] = 1.0
        field = FiberField(f=f, directions=d, mask=np.ones(shape, bool))
        crit = TerminationCriteria(max_steps=60, step_length=0.5)
        seeds = seeds_from_mask(field.mask)[::17]
        run = SegmentedTracker().run([field], seeds, crit, paper_strategy_b())
        r2 = table2_row("t", 0.5, 0.8, run)
        assert r2.total_fiber_length == run.total_steps
        assert len(r2.cells()) == len(Table2Row.HEADERS)
        r4 = table4_row("B", run)
        assert r4.total_s == pytest.approx(r4.kernel_s + r4.reduction_s + r4.transfer_s)
        assert len(r4.cells()) == len(Table4Row.HEADERS)


class TestUtilization:
    def test_single_vs_fine(self):
        rng = np.random.default_rng(0)
        lengths = rng.exponential(scale=40.0, size=2000)
        max_steps = int(lengths.max()) + 1
        mono = strategy_utilization(lengths, SingleSegmentStrategy(), max_steps)
        fine = strategy_utilization(lengths, UniformStrategy(5), max_steps)
        incr = strategy_utilization(lengths, paper_strategy_b(), max_steps)
        assert mono.utilization < fine.utilization
        assert mono.utilization < incr.utilization
        # Fig 6(c) claim: increasing intervals waste less than the
        # monolithic kernel.
        assert incr.wasted_area < mono.wasted_area

    def test_report_order(self):
        lengths = np.random.default_rng(1).exponential(scale=20.0, size=500)
        strategies = [SingleSegmentStrategy(), UniformStrategy(10), paper_strategy_b()]
        rows = utilization_report(lengths, strategies, 200)
        assert [r.strategy for r in rows] == ["A_MaxStep", "A_10", "B"]
        for r in rows:
            assert 0 < r.utilization <= 1.0
            assert r.useful_area == pytest.approx(lengths.sum())

    def test_rectangles_exposed(self):
        lengths = np.array([3.0, 10.0])
        u = strategy_utilization(lengths, UniformStrategy(5), 10)
        assert u.rectangles == ((2, 5), (1, 5))
        assert u.n_segments == 2


class TestHistograms:
    def test_load_and_sorted_profiles(self):
        x = np.array([5.0, 1.0, 3.0])
        assert load_profile(x).tolist() == [5.0, 1.0, 3.0]
        s, order = sorted_profile(x)
        assert s.tolist() == [1.0, 3.0, 5.0]
        assert order.tolist() == [1, 2, 0]

    def test_neighbor_variation_sorted_smaller(self):
        rng = np.random.default_rng(2)
        x = rng.exponential(scale=30.0, size=5000)
        s, _ = sorted_profile(x)
        assert neighbor_variation(s) < 0.05 * neighbor_variation(x)

    def test_sorted_order_does_not_transfer(self):
        # The Fig 4(c) result: sorting sample A by itself helps, applying
        # A's order to an independent sample B does not.
        rng = np.random.default_rng(3)
        a = rng.exponential(scale=30.0, size=5000)
        b = rng.exponential(scale=30.0, size=5000)
        _, order = sorted_profile(a)
        applied = b[order]
        assert neighbor_variation(applied) > 0.5 * neighbor_variation(b)

    def test_ascii_histogram_renders(self):
        x = np.random.default_rng(4).exponential(scale=10.0, size=1000)
        out = ascii_histogram(x, bins=10, width=30)
        assert out.count("\n") == 9
        assert "#" in out
        log_out = ascii_histogram(x, bins=10, width=30, log=True)
        assert log_out != out

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            load_profile(np.array([]))
        with pytest.raises(ConfigurationError):
            ascii_histogram(np.array([]))
        with pytest.raises(ConfigurationError):
            ascii_histogram(np.ones(5), bins=0)
        assert neighbor_variation(np.array([1.0])) == 0.0
