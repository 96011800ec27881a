"""Tests for ATE, latency breakdowns and CPU accounting."""

import numpy as np
import pytest

from repro.geometry import SE3, Trajectory, so3
from repro.metrics import (
    CpuAccountant,
    LatencyBreakdown,
    absolute_trajectory_error,
    associate,
    average_breakdowns,
    cumulative_ate_series,
    format_table4,
    short_term_ate_series,
)


def _traj(positions, t0=0.0, dt=0.1):
    times = t0 + np.arange(len(positions)) * dt
    return Trajectory.from_arrays(times, np.asarray(positions, dtype=float))


def _line(n=50, dt=0.1, speed=1.0):
    return _traj([[speed * i * dt, 0, 0] for i in range(n)], dt=dt)


class TestAssociate:
    def test_exact_timestamps(self):
        a = _line()
        b = _line()
        est, gt, times = associate(a, b)
        assert len(est) == 50

    def test_max_dt_filter(self):
        a = _line(dt=0.1)
        b = _traj([[i, 0, 0] for i in range(5)], t0=0.55, dt=10.0)
        est, gt, _ = associate(a, b, max_dt=0.01)
        assert len(est) == 0

    def test_empty_inputs(self):
        est, gt, _ = associate(Trajectory(), _line())
        assert len(est) == 0


class TestATE:
    def test_identical_trajectories_zero(self):
        result = absolute_trajectory_error(_line(), _line())
        assert result.rmse == pytest.approx(0.0, abs=1e-12)

    def test_rigid_offset_removed_by_alignment(self):
        est = _line()
        shift = SE3(so3.exp([0, 0, 1.0]), np.array([5.0, -2.0, 1.0]))
        gt = Trajectory.from_arrays(est.timestamps, shift.apply(est.positions))
        result = absolute_trajectory_error(est, gt, align=True)
        assert result.rmse < 1e-9

    def test_offset_not_removed_without_alignment(self):
        est = _line()
        gt = Trajectory.from_arrays(est.timestamps, est.positions + [1.0, 0, 0])
        result = absolute_trajectory_error(est, gt, align=False)
        assert result.rmse == pytest.approx(1.0)

    def test_scale_recovered_for_mono(self):
        est = _line(speed=0.5)
        gt = _line(speed=1.0)
        with_scale = absolute_trajectory_error(est, gt, with_scale=True)
        assert with_scale.rmse < 1e-9
        assert with_scale.transform.scale == pytest.approx(2.0)

    def test_known_noise_level(self):
        rng = np.random.default_rng(0)
        gt_pos = rng.normal(size=(200, 3))
        est_pos = gt_pos + rng.normal(scale=0.05, size=(200, 3))
        result = absolute_trajectory_error(_traj(est_pos), _traj(gt_pos))
        assert result.rmse == pytest.approx(0.05 * np.sqrt(3), rel=0.2)

    def test_too_few_pairs_inf(self):
        result = absolute_trajectory_error(_line(2), _line(2))
        assert result.rmse == float("inf")

    def test_stat_fields_consistent(self):
        rng = np.random.default_rng(1)
        gt_pos = rng.normal(size=(100, 3))
        est_pos = gt_pos + rng.normal(scale=0.1, size=(100, 3))
        r = absolute_trajectory_error(_traj(est_pos), _traj(gt_pos))
        assert r.mean <= r.rmse <= r.max
        assert r.median <= r.rmse
        assert r.n_pairs == 100


class TestAteSeries:
    def test_cumulative_monotone_under_drift(self):
        # Linearly growing drift: cumulative ATE should rise with time.
        n = 100
        gt = _line(n)
        drift = np.column_stack(
            [np.zeros(n), 0.01 * np.arange(n), np.zeros(n)]
        )
        est = _traj(gt.positions + drift)
        series = cumulative_ate_series(est, gt, eval_times=[2.0, 5.0, 9.0])
        values = [v for _, v in series]
        assert values[0] < values[-1]

    def test_short_term_reflects_recent_error_only(self):
        # Early error, clean tail: short-term ATE at the end is small
        # even though cumulative stays inflated.
        n = 100
        gt = _line(n)
        noise = np.zeros((n, 3))
        noise[:30, 1] = 0.5
        est = _traj(gt.positions + noise)
        cum = cumulative_ate_series(est, gt, [9.5])[0][1]
        short = short_term_ate_series(est, gt, [9.5], window=2.0)[0][1]
        assert short < cum

    def test_short_term_insufficient_data(self):
        series = short_term_ate_series(_line(2), _line(2), [0.05])
        assert series[0][1] == float("inf")


class TestLatencyBreakdown:
    def test_total_and_na(self):
        row = LatencyBreakdown("x")
        row.set("map_merging", 190.0)
        row.set("encoding", 3.0)
        assert row.total_ms == pytest.approx(193.0)
        assert row.format_row("serialization") == "N/A"

    def test_unknown_component_rejected(self):
        with pytest.raises(KeyError):
            LatencyBreakdown("x").set("warp_drive", 1.0)

    def test_average(self):
        rows = []
        for v in (100.0, 200.0):
            row = LatencyBreakdown("x")
            row.set("map_merging", v)
            rows.append(row)
        merged = average_breakdowns(rows, "avg")
        assert merged.get("map_merging") == pytest.approx(150.0)

    def test_format_table(self):
        a = LatencyBreakdown("Baseline")
        a.set("hold_down", 5000.0)
        b = LatencyBreakdown("SLAM-Share")
        b.set("map_merging", 190.0)
        table = format_table4({"Baseline": a, "SLAM-Share": b})
        assert "Hold-down" in table and "N/A" in table and "190.0" in table


class TestCpuAccountant:
    def test_full_slam_costs_much_more_than_lightweight(self):
        # The Fig. 13 contrast: client running full SLAM vs IMU+encode.
        heavy = CpuAccountant()
        light = CpuAccountant()
        for _ in range(300):  # 10 s at 30 FPS
            heavy.add_full_slam_frame(752 * 480, 1000)
            light.add_lightweight_frame(752 * 480, 7)
        for i, acc in enumerate((heavy, light)):
            acc.add_keyframe_work() if acc is heavy else None
            acc.close_window(10.0)
        ratio = heavy.mean_utilization() / light.mean_utilization()
        assert ratio > 10.0

    def test_window_accounting(self):
        acc = CpuAccountant()
        acc.add_lightweight_frame(1000, 10)
        sample = acc.close_window(1.0)
        assert sample.utilization_pct > 0
        # Next window starts clean.
        assert acc.close_window(2.0).utilization_pct == 0.0

    def test_mean_cores(self):
        acc = CpuAccountant()
        acc.add_full_slam_frame(752 * 480, 1000)
        acc.close_window(0.033)
        assert acc.mean_cores() == pytest.approx(
            acc.mean_utilization() / 100.0 * 40
        )
