"""Tests for multi-kernel application runs."""

import pytest

from repro.config import baseline_sram, config_c1
from repro.errors import SimulationError
from repro.gpu import run_application, compare_applications
from repro.gpu.simulator import GPUSimulator
from repro.workloads import build_workload


def make_kernels(n=2, length=2500):
    return [build_workload("kmeans", num_accesses=length, seed=s) for s in range(n)]


class TestApplicationRun:
    def test_one_kernel_matches_simulate(self):
        kernels = make_kernels(1)
        app = run_application(baseline_sram(), kernels)
        from repro.gpu.simulator import simulate

        single = simulate(baseline_sram(), kernels[0])
        assert app.kernels[0].ipc == pytest.approx(single.ipc)
        assert app.aggregate_ipc == pytest.approx(single.ipc, rel=1e-6)

    def test_l2_stays_warm_between_kernels(self):
        """A repeated kernel must hit more on its second run (same data)."""
        workload = build_workload("kmeans", num_accesses=2500, seed=0)
        app = run_application(config_c1(), [workload, workload])
        assert app.kernels[1].l2_hit_rate > app.kernels[0].l2_hit_rate

    def test_per_kernel_energy_is_delta_not_cumulative(self):
        workload = build_workload("kmeans", num_accesses=2500, seed=0)
        app = run_application(config_c1(), [workload, workload])
        first, second = app.kernels
        # a warm second run spends *less* energy, so cumulative reporting
        # would show second > first
        assert second.l2_dynamic_energy_j < first.l2_dynamic_energy_j

    def test_total_time_sums(self):
        app = run_application(baseline_sram(), make_kernels(2))
        assert app.total_time_s == pytest.approx(
            sum(k.sim_time_s for k in app.kernels)
        )

    def test_speedup_over(self):
        kernels = make_kernels(2)
        base = run_application(baseline_sram(), kernels)
        c1 = run_application(config_c1(), kernels)
        assert c1.speedup_over(base) > 0.9

    def test_empty_application_rejected(self):
        with pytest.raises(SimulationError):
            run_application(baseline_sram(), [])

    def test_compare_applications(self):
        kernels = make_kernels(1, length=1200)
        results = compare_applications(
            {"baseline": baseline_sram(), "C1": config_c1()}, kernels
        )
        assert set(results) == {"baseline", "C1"}

    def test_retention_clock_monotone_across_kernels(self):
        """The L2's replay clock must not jump backwards at boundaries."""
        kernels = make_kernels(2, length=1500)
        from repro.core.factory import build_l2

        l2 = build_l2(config_c1().l2)
        start = 0.0
        for workload in kernels:
            sim = GPUSimulator(config_c1(), workload, l2=l2, start_time_s=start)
            sim.run()
            assert sim.end_time_s > start
            start = sim.end_time_s

    def test_negative_start_time_rejected(self):
        workload = build_workload("nn", num_accesses=200, seed=0)
        with pytest.raises(SimulationError):
            GPUSimulator(baseline_sram(), workload, start_time_s=-1.0)
