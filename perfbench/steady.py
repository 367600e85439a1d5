#!/usr/bin/env python3
"""Steadiness check of the benchmark: is it quieter than its own bounds?

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--sets 2] [--floor]

Runs the benchmark's command exactly as BENCHMARK.json states it, once per
seed 1..runs, for every workload (workloads round-robin, so a slow spell of
the host spreads over all of them). It does this in --sets sets, one after
the other, so the sets are separated in time. Per workload and end-to-end
metric it prints each set's median, IQR as a share of the median ("spread"),
min and max, and the drift of each set's median from the first set's.

It fails (exit 1) when a spread exceeds the metric's bound (setup_s exempt)
or a drift exceeds it (setup_s included), or when a run was not correct.
--floor first measures the host's own noise floor: an ALU loop and a 16 MiB
pointer chase, ten times each.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """IQR as a share of the median, as the acceptance check computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def floor(runs):
    binary = ROOT / ".bench_build" / "perfbench"
    samples = {"alu_s": [], "chase_s": []}
    for _ in range(runs):
        out = json.loads(subprocess.run([str(binary), "--floor"], capture_output=True,
                                        text=True, check=True).stdout)
        for k in samples:
            samples[k].append(out[k])
    print("host noise floor (fresh process each, %d runs):" % runs)
    for k, v in samples.items():
        print(f"  {k:8s} median {statistics.median(v):.4f}  spread {spread(v):.3f}  "
              f"min {min(v):.4f}  max {max(v):.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--floor", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.floor:
        run_once(spec, workloads[0], 1, 1)  # builds the bench binary if needed
        floor(args.runs)

    # results[set][workload][metric] -> values over seeds
    results = []
    ok = True
    for s in range(args.sets):
        t0 = time.monotonic()
        res = {w: {m: [] for m in bounds} for w in workloads}
        for seed in range(1, args.runs + 1):
            for w in workloads:
                out = run_once(spec, w, seed, spec["run_seconds"])
                if not out["correct"] or out["failed"]:
                    print(f"set {s + 1} {w} seed {seed}: NOT CORRECT")
                    ok = False
                for m in bounds:
                    res[w][m].append(out["metrics"][m]["value"])
        print(f"set {s + 1}: {args.runs} runs x {len(workloads)} workloads "
              f"in {time.monotonic() - t0:.0f} s")
        results.append(res)

    raw = ROOT / ".bench_build" / "steady.json"
    raw.write_text(json.dumps(results))
    print(f"raw values per set, workload and metric (seeds in order): "
          f"{raw.relative_to(ROOT)}")
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':18s} {'set':>3s} {'median':>12s} {'spread':>7s} "
              f"{'min':>12s} {'max':>12s} {'drift':>7s} {'bound':>6s}")
        for m, bound in bounds.items():
            base = statistics.median(results[0][w][m])
            for s, res in enumerate(results):
                v = res[w][m]
                med = statistics.median(v)
                sp = spread(v)
                drift = (med - base) / base
                flag = ""
                if m != "setup_s" and sp > bound:
                    flag += " SPREAD>BOUND"
                if abs(drift) > bound:
                    flag += " DRIFT>BOUND"
                ok = ok and not flag
                print(f"  {m:18s} {s + 1:3d} {med:12.6g} {sp:7.3f} {min(v):12.6g} "
                      f"{max(v):12.6g} {drift:+7.3f} {bound:6.2f}{flag}")
    print("\nsteady: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
