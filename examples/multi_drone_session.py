#!/usr/bin/env python
"""Three drones explore one hall and co-build a global map (paper Fig. 10a).

The paper's §4.1 running example: drones flying through an AR interface
that highlights obstacles stored in the shared map.  Drone A maps the
hall; B joins mid-session; C joins later still.  Each join first
*degrades* the pooled map consistency (the newcomer's map floats in its
own frame) and each merge snaps it back within ~150 ms.

Run:  python examples/multi_drone_session.py
"""

import numpy as np

from repro.core import ClientScenario, SlamShareConfig, SlamShareSession
from repro.datasets import euroc_dataset


def main() -> None:
    hall_a = euroc_dataset("MH04", duration=18.0, rate=10.0)
    hall_b = euroc_dataset("MH05", duration=14.0, rate=10.0)
    hall_c = euroc_dataset("MH04", duration=9.0, rate=10.0)

    scenarios = [
        ClientScenario(0, hall_a),
        ClientScenario(1, hall_b, start_time=4.0, oracle_seed=9, imu_seed=13),
        ClientScenario(2, hall_c, start_time=9.0, oracle_seed=21, imu_seed=23),
    ]
    config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
    session = SlamShareSession(scenarios, config, ate_sample_interval=0.5)

    print("Running 3-drone SLAM-Share session...")
    result = session.run()

    merge_times = {round(m.session_time, 1): m for m in result.merges}
    print("\nGlobal-map consistency over the session:")
    print(f"{'t (s)':>7} {'pooled ATE':>12}   event")
    for t, v in result.live_global_ate:
        event = ""
        for mt, merge in merge_times.items():
            if abs(t - mt) <= 0.26:
                event = (f"<- drone {merge.client_id} merged "
                         f"({merge.merge_ms:.0f} ms)")
        ate_txt = f"{v * 100:9.1f} cm" if v < 50 else f"{v:9.1f} m "
        print(f"{t:>7.1f} {ate_txt:>12}   {event}")

    # One drone places an AR obstacle highlight; the others read it.
    print("\nAR obstacle highlight consistency:")
    hologram = result.holograms.place(
        np.array([1.5, 0.5, 1.2]), client_id=0, timestamp=10.0
    )
    from repro.core.holograms import perceived_position

    placer_frame = result.client_frame(0)
    truth = perceived_position(hologram, placer_frame)
    for client_id in sorted(result.outcomes):
        seen = perceived_position(hologram, result.client_frame(client_id))
        err = np.linalg.norm(seen - truth)
        print(f"  drone {client_id} renders the highlight "
              f"{err * 100:5.2f} cm from where drone 0 placed it")

    print("\nServer-side stats:")
    print(f"  shared-memory store: {result.server.store.stats().n_keyframes} "
          f"keyframes, {result.server.store.stats().n_mappoints} map points, "
          f"{result.server.store.stats().arena.allocated / 1e6:.1f} MB of "
          f"shard log (superseded versions stay until compaction)")
    for client_id, outcome in sorted(result.outcomes.items()):
        print(f"  drone {client_id}: GPU tracking "
              f"{np.mean(outcome.tracking_latencies_ms):.1f} ms/frame "
              f"({outcome.frames_processed} frames, "
              f"{outcome.frames_lost} lost)")


if __name__ == "__main__":
    main()
