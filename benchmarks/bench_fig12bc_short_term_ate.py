"""Fig. 12b/c: short-term ATE — SLAM-Share vs baseline under shaping.

Paper: with 300 ms added delay the baseline's short-term (trailing 5 s)
ATE fluctuates up to ~12 cm while SLAM-Share stays under ~4 cm; under
bandwidth caps the baseline degrades further (38% of its map updates
arrive late at 9.4 Mbit/s) while SLAM-Share (needing ~1-2 Mbit/s)
doesn't care.
"""

import numpy as np
import pytest

from repro.core import BaselineConfig, BaselineSession, SlamShareSession
from repro.metrics import short_term_ate_series
from repro.net import PROFILE_BW_9_4, PROFILE_BW_18_7, PROFILE_DELAY_300MS

from .conftest import euroc_scenarios, share_config


def _short_term(trajectory, ground_truth, t_last):
    # Evaluation starts after the VI-initialization warmup (the client
    # dead-reckons from unknown velocity until its first server fix).
    eval_times = np.arange(8.0, t_last, 1.0)
    return short_term_ate_series(
        trajectory.slice_time(2.0, 1e9), ground_truth, eval_times, window=5.0
    )


def _run_pair(profile):
    share = SlamShareSession(
        euroc_scenarios(duration_a=16.0, duration_b=12.0),
        share_config(shaping=profile),
    ).run()
    baseline = BaselineSession(
        euroc_scenarios(duration_a=16.0, duration_b=12.0),
        share_config(shaping=profile),
        BaselineConfig(hold_down_frames=50),
    ).run()
    return share, baseline


@pytest.mark.parametrize(
    "profile", [PROFILE_DELAY_300MS, PROFILE_BW_18_7, PROFILE_BW_9_4],
    ids=lambda p: p.name,
)
def test_fig12bc_short_term_ate(profile, benchmark):
    share, baseline = benchmark.pedantic(
        lambda: _run_pair(profile), rounds=1, iterations=1
    )
    # User B's view in both systems.
    share_traj = share.outcomes[1].display_trajectory()
    gt = share.outcomes[1].scenario.dataset.ground_truth
    share_series = _short_term(share_traj, gt, 12.0)

    base_state = baseline.clients[1]
    from repro.geometry import Trajectory

    base_traj = Trajectory(list(base_state.global_display))
    base_series = _short_term(base_traj, gt, 12.0)

    print(f"\nFig. 12b/c — short-term ATE, {profile.name}")
    print(f"{'t (s)':>6} {'SLAM-Share (cm)':>17} {'Baseline (cm)':>15}")
    for (t, sv), (_, bv) in zip(share_series, base_series):
        sv_txt = f"{sv * 100:.2f}" if np.isfinite(sv) else "-"
        bv_txt = f"{bv * 100:.2f}" if np.isfinite(bv) else "-"
        print(f"{t:>6.1f} {sv_txt:>17} {bv_txt:>15}")

    share_vals = [v for _, v in share_series if np.isfinite(v)]
    base_vals = [v for _, v in base_series if np.isfinite(v)]
    # SLAM-Share stays low throughout (paper: < 4 cm).
    assert max(share_vals) < 0.06
    # The baseline's worst short-term error exceeds SLAM-Share's.
    assert max(base_vals) > max(share_vals)


def test_fig12c_baseline_misses_updates_at_low_bandwidth(benchmark):
    """Paper: at 9.4 Mbit/s the baseline misses 38% of its updates."""
    def run_two():
        out = {}
        for profile in (PROFILE_BW_18_7, PROFILE_BW_9_4):
            result = BaselineSession(
                euroc_scenarios(duration_a=16.0, duration_b=12.0),
                share_config(shaping=profile),
                BaselineConfig(hold_down_frames=35),
            ).run()
            rounds = [r for st in result.clients.values() for st_r in [st.rounds]
                      for r in st_r]
            late = [r for r in rounds if r.missed]
            out[profile.name] = (len(late), len(rounds),
                                 np.mean([r.transfer1_ms for r in rounds]))
        return out

    stats = benchmark.pedantic(run_two, rounds=1, iterations=1)
    print("\nFig. 12c — baseline update delivery under bandwidth caps")
    for name, (late, total, mean_tx) in stats.items():
        print(f"  {name:<14} late {late}/{total} rounds, "
              f"mean upload {mean_tx:.0f} ms")
    # Halving bandwidth lengthens uploads.
    tx_18, tx_9 = (stats[p.name][2] for p in (PROFILE_BW_18_7, PROFILE_BW_9_4))
    assert tx_9 > 1.7 * tx_18
