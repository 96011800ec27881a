"""Adaptive-offloading benchmark: mixed fleets where no static policy wins.

Two legs, matching the PR's acceptance gates:

1. **Mixed fleet** — weak devices on clean links (server placement is
   right for them: ~21 ms round trips vs ~310 ms on-device) share the
   session with strong devices on *flappy* links that oscillate between
   clean and +300 ms of added delay (client placement is right while
   the link is bad: ~60 ms on-device vs ~640 ms round trips).  Each
   static policy is optimal for one half of the fleet and terrible for
   the other; the adaptive controller migrates the strong clients back
   and forth as their links flap.  Gates: adaptive pooled frame p95
   <= best static pooled p95, zero tracking gaps (nothing shed or
   dropped; every captured frame tracked or provably superseded by a
   post-handoff frame whose IMU delta covers its interval), >= 10
   committed handoffs (full; >= 2 smoke) in both directions, every
   handoff carrying its IMU anchor, ATE continuity (< 0.15 m).
2. **Load spike** — admission slots are held mid-run so every arriving
   frame overflows the bounded queue.  Under ``static-server`` those
   frames are discarded (sheds); under ``adaptive`` they degrade to
   on-device tracking and the controller then migrates the clients off
   the congested server.  Gates: adaptive discards nothing and rescues
   >= 1 frame on-device, the same spike makes the static policy shed,
   and a shed/load-reason handoff commits.

Usage::

    PYTHONPATH=src python benchmarks/bench_offload.py               # full run
    PYTHONPATH=src python benchmarks/bench_offload.py --smoke       # CI-sized
    PYTHONPATH=src python benchmarks/bench_offload.py --smoke \
        --check BENCH_PR9.json                                      # gate

All latencies are simulated (SimClock) and the gates compare booleans,
so results are machine-independent: smoke runs on CI compare against
the committed baseline's ``smoke_ops`` section, full runs against
``ops``.  ``--trace-jsonl PATH`` records the adaptive leg's
frame-lifecycle traces (handoff instants included) for CI artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

import numpy as np

from repro.core import ClientScenario, SlamShareConfig, SlamShareSession
from repro.datasets import make_dataset
from repro.gpu.device import CpuCostModel
from repro.net.tc import PROFILE_DELAY_300MS, PROFILE_IDEAL
from repro.obs import get_tracer

POLICIES = ("static-server", "static-client", "adaptive")

#: Device classes for the mixed fleet.  The weak model is ~2x the
#: default mobile-class silicon (~310 ms/frame on-device); the strong
#: model is near-server-class (~60 ms/frame).
WEAK_CPU = CpuCostModel(pixel_ns=400.0, pair_ns=180.0, feature_match_ns=6000.0)
STRONG_CPU = CpuCostModel(pixel_ns=70.0, pair_ns=40.0, feature_match_ns=1500.0)

BAD_DELAY_S = 0.300


def _fleet(smoke: bool) -> Dict[str, object]:
    """The scenario sweep: clients, link-flap schedules, duration."""
    if smoke:
        return {
            "duration": 14.0,
            "clients": [
                {"trace": "MH04", "cpu": None, "flaps": None},       # weak/clean
                {"trace": "MH05", "cpu": STRONG_CPU,
                 "flaps": [(6.0, 0.0)]},                             # bad -> good
                {"trace": "MH04", "cpu": STRONG_CPU,
                 "flaps": [(7.0, 0.0)]},
            ],
            "min_handoffs": 2,
        }
    return {
        "duration": 36.0,
        "clients": [
            {"trace": "MH04", "cpu": None, "flaps": None},
            {"trace": "MH05", "cpu": None, "flaps": None},
            {"trace": "MH04", "cpu": STRONG_CPU,
             "flaps": [(6.0, 0.0), (12.0, BAD_DELAY_S), (18.0, 0.0),
                       (24.0, BAD_DELAY_S), (30.0, 0.0)]},
            {"trace": "MH05", "cpu": STRONG_CPU,
             "flaps": [(9.0, 0.0), (15.0, BAD_DELAY_S), (21.0, 0.0),
                       (27.0, BAD_DELAY_S), (33.0, 0.0)]},
        ],
        "min_handoffs": 10,
    }


def _run_fleet(policy: str, smoke: bool, seed: int = 7,
               spike: Optional[Dict[str, object]] = None):
    """One session of the mixed fleet under ``policy``."""
    fleet = _fleet(smoke)
    config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
    config.serving.offload.policy = policy
    scenarios = []
    for i, spec in enumerate(fleet["clients"]):
        # Flapping clients start on the bad link; the weak clients'
        # links are clean throughout.
        shaping = PROFILE_DELAY_300MS if spec["flaps"] else PROFILE_IDEAL
        scenarios.append(ClientScenario(
            client_id=i,
            dataset=make_dataset(spec["trace"], duration=fleet["duration"],
                                 rate=10.0),
            oracle_seed=seed + 2 * i,
            imu_seed=seed + 2 * i + 1,
            shaping=shaping,
            device_cpu=spec["cpu"],
        ))
    session = SlamShareSession(scenarios, config)

    def set_delay(cid: int, delay_s: float) -> None:
        link = session.clients[cid].link
        link.uplink.delay_s = delay_s
        link.downlink.delay_s = delay_s

    for i, spec in enumerate(fleet["clients"]):
        for t, delay_s in (spec["flaps"] or ()):
            session.clock.schedule_at(
                t, lambda cid=i, d=delay_s: set_delay(cid, d))

    if spike is not None:
        held: Dict[int, int] = {}

        def start_spike() -> None:
            for i in range(len(scenarios)):
                taken = 0
                free = (config.serving.queue_depth
                        - session.server.in_flight(i))
                for _ in range(free):
                    if session.server.try_admit(i) == "ok":
                        taken += 1
                held[i] = taken

        def end_spike() -> None:
            for cid, taken in held.items():
                for _ in range(taken):
                    session.server.release_frame(cid)

        session.clock.schedule_at(spike["start"], start_spike)
        session.clock.schedule_at(spike["end"], end_spike)

    result = session.run()
    return session, result


def _policy_summary(result) -> Dict[str, object]:
    pooled: List[float] = []
    per_client = {}
    for cid, outcome in sorted(result.outcomes.items()):
        pooled.extend(outcome.pose_rtts_ms)
        ate = result.client_ate(cid).rmse
        per_client[str(cid)] = {
            "captured": outcome.frames_captured,
            "processed": outcome.frames_processed,
            "local": outcome.frames_local,
            "degraded": outcome.frames_degraded,
            "superseded": outcome.frames_superseded,
            "shed": outcome.frames_shed,
            "uplink_drops": outcome.uplink_drops,
            "pose_drops": outcome.pose_drops,
            "handoffs": outcome.handoffs,
            "ate_m": round(float(ate), 4),
        }
    committed = result.offload.committed_handoffs()
    return {
        "p50_ms": round(float(np.percentile(pooled, 50)), 2),
        "p95_ms": round(float(np.percentile(pooled, 95)), 2),
        "p99_ms": round(float(np.percentile(pooled, 99)), 2),
        "pose_samples": len(pooled),
        "handoffs": len(committed),
        "handoffs_aborted": sum(1 for h in result.offload.handoffs
                                if h.aborted),
        "handoff_reasons": sorted({h.reason for h in committed}),
        "clients": per_client,
    }


def _zero_gaps(result) -> bool:
    """No frame was discarded; every captured frame is accounted for.

    A superseded frame is not a gap: it was overtaken by a
    post-handoff frame whose anchor-bridged IMU delta covers its
    interval, so the tracked timeline has no hole.
    """
    for outcome in result.outcomes.values():
        if outcome.frames_shed or outcome.uplink_drops or outcome.pose_drops:
            return False
        accounted = (outcome.frames_processed + outcome.frames_superseded
                     + outcome.frames_offline)
        if accounted != outcome.frames_captured:
            return False
    return True


def bench_mixed_fleet(smoke: bool) -> Dict[str, object]:
    """Sweep all three policies over the mixed fleet; adaptive must win."""
    fleet = _fleet(smoke)
    policies: Dict[str, Dict[str, object]] = {}
    results = {}
    for policy in POLICIES:
        _, result = _run_fleet(policy, smoke)
        results[policy] = result
        policies[policy] = _policy_summary(result)
        print(f"  fleet[{policy}]: p95 {policies[policy]['p95_ms']} ms, "
              f"{policies[policy]['handoffs']} handoffs, "
              f"reasons {policies[policy]['handoff_reasons']}")
    adaptive = results["adaptive"]
    adaptive_p95 = policies["adaptive"]["p95_ms"]
    best_static_p95 = min(policies["static-server"]["p95_ms"],
                          policies["static-client"]["p95_ms"])
    committed = adaptive.offload.committed_handoffs()
    directions = {h.dst for h in committed}
    ate_max = max(adaptive.client_ate(cid).rmse
                  for cid in adaptive.outcomes)
    gates = {
        "adaptive_beats_best_static": adaptive_p95 <= best_static_p95,
        "zero_gaps": _zero_gaps(adaptive),
        "handoffs_min": len(committed) >= fleet["min_handoffs"],
        "both_directions": {"client", "server"} <= directions,
        "anchor_preserved": all(h.imu_anchor_ts is not None
                                for h in committed),
        "ate_continuity": ate_max < 0.15,
        "statics_never_migrate": (
            policies["static-server"]["handoffs"] == 0
            and policies["static-client"]["handoffs"] == 0
        ),
    }
    print(f"  fleet: adaptive p95 {adaptive_p95} ms vs best static "
          f"{best_static_p95} ms, {len(committed)} handoffs "
          f"(need >= {fleet['min_handoffs']}), ate_max {ate_max * 100:.2f} cm")
    return {
        "detail": f"{len(fleet['clients'])} clients (weak/clean + "
                  f"strong/flappy links), {fleet['duration']:.0f} s at "
                  "10 fps, three placement policies",
        "adaptive_p95_ms": adaptive_p95,
        "best_static_p95_ms": best_static_p95,
        "handoffs": len(committed),
        "ate_max_m": round(float(ate_max), 4),
        "policies": policies,
        "gates": gates,
    }


def bench_load_spike(smoke: bool) -> Dict[str, object]:
    """Overload the admission queue; adaptive degrades instead of shedding."""
    spike = ({"start": 4.0, "end": 5.2} if smoke
             else {"start": 6.0, "end": 8.0})
    legs = {}
    for policy in ("static-server", "adaptive"):
        _, result = _run_fleet(policy, smoke=True, spike=spike)
        legs[policy] = result
        summary = _policy_summary(result)
        shed = sum(o.frames_shed for o in result.outcomes.values())
        degraded = sum(o.frames_degraded for o in result.outcomes.values())
        print(f"  spike[{policy}]: shed {shed}, degraded {degraded}, "
              f"handoffs {summary['handoffs']}")
    adaptive = legs["adaptive"]
    static = legs["static-server"]
    static_shed = sum(o.frames_shed for o in static.outcomes.values())
    adaptive_shed = sum(o.frames_shed for o in adaptive.outcomes.values())
    degraded = sum(o.frames_degraded for o in adaptive.outcomes.values())
    committed = adaptive.offload.committed_handoffs()
    spike_reasons = {h.reason for h in committed} & {"shed", "load"}
    gates = {
        "static_discards_under_spike": static_shed >= 1,
        "adaptive_zero_discards": adaptive_shed == 0,
        "adaptive_rescues_frames": degraded >= 1,
        "spike_triggers_handoff": bool(spike_reasons),
        "zero_gaps": _zero_gaps(adaptive),
    }
    return {
        "detail": "admission slots held for "
                  f"{spike['end'] - spike['start']:.1f} s mid-run; "
                  "static-server sheds, adaptive degrades to on-device "
                  "tracking and migrates off the congested server",
        "static_shed": static_shed,
        "adaptive_shed": adaptive_shed,
        "adaptive_degraded": degraded,
        "spike_handoff_reasons": sorted(spike_reasons),
        "gates": gates,
    }


def bench_offload(smoke: bool) -> Dict[str, Dict[str, object]]:
    print(f"offload benchmarks ({'smoke' if smoke else 'full'}):")
    return {
        "mixed_fleet": bench_mixed_fleet(smoke),
        "load_spike": bench_load_spike(smoke),
    }


# --------------------------------------------------------------- regression
def check_regression(report: Dict, baseline_path: str) -> int:
    """Fail if any gate fails now, or a baseline-passing gate regressed."""
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    section = "smoke_ops" if report["mode"] == "smoke" else "ops"
    baseline_ops = baseline.get(section) or baseline.get("ops", {})
    failures = []
    for op, entry in report["ops"].items():
        for gate, passed in entry.get("gates", {}).items():
            if not passed:
                failures.append(f"{op}.{gate}: failed")
    for op, entry in baseline_ops.items():
        current = report["ops"].get(op)
        if current is None:
            failures.append(f"{op}: missing from current run")
            continue
        for gate, passed in entry.get("gates", {}).items():
            if passed and not current.get("gates", {}).get(gate, False):
                failures.append(f"{op}.{gate}: passed in baseline, fails now")
    if failures:
        print("OFFLOAD REGRESSION:")
        for line in sorted(set(failures)):
            print(f"  {line}")
        return 1
    n_gates = sum(len(e.get("gates", {})) for e in report["ops"].values())
    print(f"regression check vs {baseline_path} [{section}]: ok "
          f"({n_gates} gates)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes / short runs (CI)")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (e.g. BENCH_PR9.json)")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare gates against a committed baseline; "
                             "exit non-zero on any gate failure")
    parser.add_argument("--trace-jsonl", default=None, metavar="PATH",
                        help="record frame-lifecycle spans (handoff instants "
                             "included) across the runs as JSON lines")
    args = parser.parse_args(argv)

    tracer = get_tracer()
    if args.trace_jsonl:
        tracer.reset()
        tracer.configure(enabled=True)

    report = {
        "schema": 1,
        "mode": "smoke" if args.smoke else "full",
        "generated_by": "benchmarks/bench_offload.py",
        "ops": bench_offload(args.smoke),
    }
    if not args.smoke and args.out:
        # Also record smoke-sized gates so CI smoke runs have a
        # like-for-like section to regression-check against.
        print("smoke-sized reference pass (for CI --check):")
        report["smoke_ops"] = bench_offload(True)
    if args.trace_jsonl:
        n = tracer.export_jsonl(args.trace_jsonl)
        print(f"wrote {n} spans to {args.trace_jsonl}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.check:
        return check_regression(report, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
