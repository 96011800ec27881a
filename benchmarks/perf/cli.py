"""Command line of the perf ledger.

Two ways in, one measuring path (a fresh process per repeat):

* ``--workload NAME --seed N --seconds S --trace 0|1`` — the contract of
  ``BENCHMARK.json``: one repeat of one workload, its metrics as one JSON
  object on the last line of standard output.
* no ``--workload`` — the suite: every workload as one throw-away short
  repeat plus three measured repeats, pooled percentiles, quartiles, and
  with ``--trace`` one more instrumented repeat per workload; ``--smoke``,
  ``--selfcheck``, ``--compare`` and ``--list`` are variations of it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from functools import partial
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional, Sequence

import numpy as np

from .repeat import percentile, run_repeat

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

REPEATS = 3
SMOKE_SECONDS = 0.6
#: A repeat whose host-calibration kernel reads this much apart before
#: and after the timed region ran on a disturbed host; the suite reruns
#: it once.
DISTURBED = 0.10
CHILD_TIMEOUT_S = 170

#: Gated by ``--selfcheck`` / ``--compare`` only.  ``BENCHMARK.json``
#: cannot carry them: its end-to-end metrics must exist on every workload
#: and never read 0, and the tail is structural only in the session while
#: ``failed_frac`` is 0 on a healthy run.
SUITE_ONLY = {
    "frame_ms_p95": {"unit": "ms", "better": "lower", "bound": 0.25,
                     "workloads": ("session_4c",)},
    "frame_ms_p99": {"unit": "ms", "better": "lower", "bound": 0.25,
                     "workloads": ("session_4c",)},
    "failed_frac": {"unit": "ratio", "better": "lower", "bound": 0.0,
                    "workloads": None},
}


class RepeatFailed(RuntimeError):
    pass


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def spawn_repeat(workload: str, seed: int, seconds: float, trace: bool = False,
                 setup_only: bool = False,
                 out_dir: Optional[str] = None) -> dict:
    """Run one repeat in a fresh interpreter and return what it printed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if out_dir:
        cmd += ["--out-dir", out_dir]
    env = dict(os.environ)
    # One BLAS thread and a fixed hash seed: the repeat's speed must not
    # depend on what the pool or dict ordering happened to do.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepeatFailed(
            f"{workload} repeat exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(repeat: dict, setups: Sequence[float]) -> Dict[str, float]:
    """The contract's end-to-end metrics of one measured repeat.

    ``setups`` are the set-up times of fresh processes of this workload;
    what the timed call spent outside its timed wall is added on top.
    """
    return {
        "setup_s": median(setups) + repeat["outside_s"],
        "frames_per_s": repeat["frames"] / repeat["wall_s"],
        "frame_ms_p50": median(repeat["frame_ms"]),
        "peak_rss_mb": repeat["peak_rss_mb"],
    }


def print_checks(repeat: dict) -> bool:
    ok = True
    for name, passed, detail in repeat["checks"]:
        print(f"  check {name:<28} {'ok' if passed else 'FAILED'}  {detail}")
        ok = ok and passed
    return ok


# ------------------------------------------------------------ contract mode
def run_contract(args, spec: dict) -> int:
    """One workload, one measured repeat, the last line is the result."""
    spawn = partial(spawn_repeat, args.workload, args.seed, args.seconds)
    if args.trace:
        repeat = spawn(trace=True, out_dir=args.out_dir)
        # Every per-layer name is reported on every workload; a layer the
        # workload bypasses reads 0.
        values = {m["name"]: (0.0, m["unit"]) for m in spec["per_layer"]}
        unknown = set(repeat["layers"]) - set(values)
        if unknown:
            raise RepeatFailed(f"layer metrics not in BENCHMARK.json: "
                               f"{sorted(unknown)}")
        values.update({k: tuple(v) for k, v in repeat["layers"].items()})
    else:
        # Set-up is taken three times in fresh processes, before and after
        # the measured repeat; the first also warms the page cache.
        setups = [spawn(setup_only=True)["setup_s"]]
        repeat = spawn()
        setups += [repeat["setup_s"], spawn(setup_only=True)["setup_s"]]
        measured = end_to_end(repeat, setups)
        values = {m["name"]: (measured[m["name"]], m["unit"])
                  for m in spec["end_to_end"]}
        print(f"  set-up times {['%.3f' % s for s in setups]} s")
    print(f"{args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"traced {bool(args.trace)}: {repeat['frames']} frames in "
          f"{repeat['wall_s']:.3f} s")
    for name, (value, unit) in values.items():
        print(f"  {name:<58} {value:>14.6g} {unit}")
    for key, value in repeat["info"].items():
        print(f"  info {key}: {value}")
    print(f"  host_calib_ms before/after {repeat['host_calib_ms']}")
    correct = print_checks(repeat)
    print(json.dumps({
        "correct": correct,
        "attempted": repeat["attempted"],
        "failed": repeat["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0 if correct else 1


# --------------------------------------------------------------- suite mode
def _quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return quantiles(values, n=4)


def _metric(value: float, repeats: Sequence[float], meta: dict) -> dict:
    return {"value": value, "unit": meta["unit"], "better": meta["better"],
            "bound": meta["bound"], "repeats": list(repeats),
            "quartiles": _quartiles(repeats)}


def measure_workload(name: str, spec: dict, args) -> dict:
    """Throw-away repeat, the measured repeats, and the traced one."""
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    n_repeats = 1 if args.smoke else REPEATS
    if not args.smoke:
        spawn_repeat(name, args.seed, seconds / 10)
    repeats, disturbed = [], []
    for _ in range(n_repeats):
        repeat = spawn_repeat(name, args.seed, seconds)
        before, after = repeat["host_calib_ms"]
        moved = abs(after - before) / min(before, after) > DISTURBED
        if moved and not args.smoke:
            repeat = spawn_repeat(name, args.seed, seconds)
        disturbed.append(moved)
        repeats.append(repeat)
    per_repeat = [end_to_end(r, [r["setup_s"]]) for r in repeats]
    meta = {m["name"]: m for m in spec["end_to_end"]}
    metrics = {}
    for key in meta:
        values = [e[key] for e in per_repeat]
        metrics[key] = _metric(median(values), values, meta[key])
    # Per-frame samples pool over the repeats, so the percentiles have
    # three times the samples beyond them.
    pooled = [ms for r in repeats for ms in r["frame_ms"]]
    metrics["frame_ms_p50"]["value"] = median(pooled)
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    for key, q in (("frame_ms_p95", 95), ("frame_ms_p99", 99)):
        if name in SUITE_ONLY[key]["workloads"]:
            metrics[key] = _metric(
                percentile(pooled, q),
                [percentile(r["frame_ms"], q) for r in repeats],
                SUITE_ONLY[key])
    metrics["failed_frac"] = _metric(
        failed / attempted,
        [r["failed"] / r["attempted"] for r in repeats],
        SUITE_ONLY["failed_frac"])
    entry = {
        "ops_attempted": attempted, "ops_failed": failed,
        "correct": all(ok for r in repeats for _, ok, _ in r["checks"]),
        "checks": repeats[-1]["checks"],
        "metrics": metrics,
        "info": {
            "frame_ms_pooled_n": len(pooled),
            "host_calib_ms": [r["host_calib_ms"] for r in repeats],
            "disturbed": disturbed,
            "repeat_info": [r["info"] for r in repeats],
        },
    }
    if args.trace:
        traced = spawn_repeat(name, args.seed, seconds, trace=True,
                              out_dir=args.out_dir)
        layers = traced["layers"]
        entry["layers"] = {k: {"value": v[0], "unit": v[1]}
                           for k, v in layers.items()}
        entry["correct"] = entry["correct"] and all(
            ok for _, ok, _ in traced["checks"])
        traced_fps = layers["perf.trace.frames_per_s"][0]
        entry["info"]["trace_overhead_frac"] = (
            1.0 - traced_fps / metrics["frames_per_s"]["value"])
        if "spans_path" in traced:
            entry["info"]["spans_path"] = traced["spans_path"]
            entry["info"]["spans"] = traced["spans"]
    return entry


def print_workload(name: str, entry: dict) -> None:
    print(f"{name}: {entry['ops_attempted']} ops attempted, "
          f"{entry['ops_failed']} failed")
    for key, m in entry["metrics"].items():
        q1, _, q3 = m["quartiles"]
        print(f"  {key:<58} {m['value']:>14.6g} {m['unit']:<6}"
              f" q1 {q1:.6g} q3 {q3:.6g} bound {m['bound']:.0%}")
    for key, m in entry.get("layers", {}).items():
        print(f"  {key:<58} {m['value']:>14.6g} {m['unit']}")
    for key in ("frame_ms_pooled_n", "disturbed", "trace_overhead_frac",
                "spans_path"):
        if key in entry["info"]:
            print(f"  info {key}: {entry['info'][key]}")
    print_checks(entry)


def run_suite(args, spec: dict) -> dict:
    ledger = {
        "manifest": {
            "seed": args.seed,
            "seconds": SMOKE_SECONDS if args.smoke else args.seconds,
            "repeats": 1 if args.smoke else REPEATS,
            "smoke": args.smoke, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = measure_workload(name, spec, args)
        ledger["workloads"][name] = entry
        print_workload(name, entry)
    return ledger


def compare(a: dict, b: dict) -> List[dict]:
    """Row per workload and metric: both medians and by how much B is worse."""
    rows = []
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for key, ma in entry_a["metrics"].items():
            mb = entry_b["metrics"].get(key)
            if mb is None:
                continue
            va, vb = ma["value"], mb["value"]
            sign = 1.0 if ma["better"] == "lower" else -1.0
            worse = sign * (vb - va) / va if va else float(vb > va)
            spread = max(
                (max(m["repeats"]) - min(m["repeats"])) / m["value"]
                if m["value"] else 0.0 for m in (ma, mb))
            overlap = (min(ma["repeats"]) <= max(mb["repeats"])
                       and min(mb["repeats"]) <= max(ma["repeats"]))
            if worse <= ma["bound"]:
                verdict = "ok"
            elif spread > ma["bound"] and overlap:
                verdict = "unresolved"
            else:
                verdict = "regressed"
            rows.append({
                "workload": name, "metric": key, "unit": ma["unit"],
                "a": va, "b": vb, "worse": worse, "bound": ma["bound"],
                "spread": spread, "verdict": verdict,
            })
    return rows


def print_comparison(rows: Sequence[dict]) -> None:
    print(f"{'workload':<16} {'metric':<14} {'A':>12} {'B':>12} "
          f"{'B worse by':>11} {'bound':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:<16} {r['metric']:<14} {r['a']:>12.5g} "
              f"{r['b']:>12.5g} {r['worse']:>+10.1%} {r['bound']:>6.0%}  "
              f"{r['verdict']}")


def print_list(spec: dict) -> None:
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:<16} {w['why']}")
    print("end-to-end metrics (every workload; bound = allowed regression):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<14} {m['unit']:<6} {m['better']:<6} "
              f"bound {m['bound']:.0%}")
    print("end-to-end metrics of the suite only (--selfcheck, --compare):")
    for key, m in SUITE_ONLY.items():
        where = ", ".join(m["workloads"]) if m["workloads"] else "all"
        print(f"  {key:<14} {m['unit']:<6} {m['better']:<6} "
              f"bound {m['bound']:.0%}  on {where}")
    print("per-layer metrics (--trace):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<58} {m['unit']:<6} {m['better']}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one repeat of this workload "
                        "and print the BENCHMARK.json result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="instrumented repeat: per-layer "
                        "metrics instead of (suite: besides) end-to-end ones")
    parser.add_argument("--out-dir", help="write the traced spans here as "
                        "JSONL (nothing is written without it)")
    parser.add_argument("--out", help="write the suite ledger here as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="suite at a twentieth of the size, one repeat")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the untraced suite twice and fail when two "
                        "medians of one metric differ by more than its bound")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two saved suite ledgers")
    parser.add_argument("--list", action="store_true",
                        help="print workloads, metrics, units and bounds")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.child:
        result = run_repeat(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.setup_only, args.out_dir)
        print(json.dumps(result))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.list:
        print_list(spec)
        return 0
    if args.compare:
        ledgers = []
        for path in args.compare:
            with open(path) as fh:
                ledgers.append(json.load(fh))
        rows = compare(*ledgers)
        print_comparison(rows)
        return 1 if any(r["verdict"] == "regressed" for r in rows) else 0
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload:
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            print(f"unknown workload {args.workload!r}; one of {names}",
                  file=sys.stderr)
            return 2
        return run_contract(args, spec)
    ledger = run_suite(args, spec)
    status = 0 if all(e["correct"]
                      for e in ledger["workloads"].values()) else 1
    if args.selfcheck:
        second = run_suite(args, spec)
        rows = compare(ledger, second)
        print_comparison(rows)
        ledger = {"first": ledger, "second": second, "comparison": rows}
        if any(abs(r["worse"]) > r["bound"] for r in rows):
            print("selfcheck FAILED: identical code disagreed with itself "
                  "by more than a bound")
            status = 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(ledger, fh, indent=1)
    return status
