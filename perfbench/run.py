#!/usr/bin/env python3
"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload serve_gray --seed 1 --seconds 20 --trace 0

Builds the bench binary from source into .bench_build/ (first run only; later runs
are an up-to-date check), then launches repetitions ("reps") of the workload,
each a fresh process doing fixed work for one input instance of the seed,
until --seconds have passed. Every rep's outputs are checked: reps of one
input must produce the same digest, it must match perfbench/golden.json
when the seed has one, and the workload's own checks (ledgers, interpreter
oracle) must pass.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, medians over
reps. --trace 1 alternates plain and traced reps (plus, on serve_gray, reps
with the tracer and rollups off) and reports the per-layer metrics.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when every output check passed.

    --digest   print the output digests of the seed's input instances
               (to author golden.json)
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
WORKLOADS = ("serve_gray", "fabric_churn", "lsm_analytics")
# A --trace 0 run cycles through this many input instances of its seed, so
# its medians average over inputs as well as over reps: serve_gray's cost
# depends on how each gray episode plays out. --trace 1 runs instance 0
# only, so per-layer counts repeat exactly.
INPUTS_PER_SEED = 4
MIN_CYCLES = INPUTS_PER_SEED  # each rep variant runs at least this often
MAX_SECONDS = 150       # no rep cycle starts that would end past this
REP_TIMEOUT_S = 120


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build the bench binary (a no-op when up to date)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("toolkit sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        die("cmake not found")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                f.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die("build failed (full log: .bench_build/build.log)", 1)


def run_rep(workload, seed, traced=False, telemetry=True, trace_out=None):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if not telemetry:
        cmd.append("--no-telemetry")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        die(f"rep of {workload} exited with code {proc.returncode}", 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprint():
    fp = json.loads(subprocess.run([str(BINARY), "--fingerprint"], capture_output=True,
                                   text=True, check=True).stdout)
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fp["cpu"] = cpu
    fp["nproc"] = os.cpu_count()
    fp["git_sha"] = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            fp["git_sha"] = git.stdout.strip()
    # Checkouts without git metadata still identify their sources.
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    fp["src_sha256"] = h.hexdigest()[:16]
    return fp


def input_seed(seed, k):
    """Seed of the bench binary for input instance k of a run seed."""
    return seed * 16 + k


def golden_digests(workload, seed):
    """{input seed: committed digest} of a golden run seed, else {}."""
    golden = json.loads((HERE / "golden.json").read_text())
    listed = golden.get(workload, {}).get(str(seed), [])
    return {input_seed(seed, k): d for k, d in enumerate(listed)}


def check_outputs(reps, expected):
    """Returns (errors, attempted ops, failed ops) over one run's reps.

    Reps of one input seed do the same simulated work, so they must share
    one digest (tracing and telemetry may not change simulated outputs),
    equal to expected[input seed] when the run seed is golden. A rep that
    fails its own checks or its golden digest fails all its ops."""
    errors = sorted({e for r in reps for e in r["errors"]})
    for seed in sorted({r["seed"] for r in reps}):
        digests = {r["digest"] for r in reps if r["seed"] == seed}
        if len(digests) != 1:
            errors.append(f"reps of input seed {seed} disagree: {sorted(digests)}")
        if seed in expected and digests != {expected[seed]}:
            errors.append(f"input seed {seed}: digest {sorted(digests)} != golden "
                          f"{expected[seed]}")
    attempted = sum(len(r["op_ns"]) for r in reps)
    failed = 0
    for r in reps:
        if r["errors"] or expected.get(r["seed"], r["digest"]) != r["digest"]:
            failed += len(r["op_ns"])
        else:
            failed += r["failed_ops"]
    if errors and failed == 0:
        failed = attempted  # reps disagree: no rep can be trusted
    return errors, attempted, failed


def variants(workload, trace):
    """Rep kinds of one cycle: (label, traced, telemetry)."""
    if not trace:
        return [("plain", False, True)]
    v = [("plain", False, True), ("traced", True, True)]
    if workload == "serve_gray":
        v.append(("no_telemetry", False, False))
    return v


def percentile(values, p):
    s = sorted(values)
    rank = p / 100 * (len(s) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def end_to_end(plain):
    ops_us = [ns / 1e3 for r in plain for ns in r["op_ns"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "throughput_per_s": statistics.median(r["units"] / r["wall_s"] for r in plain),
        "op_p50_us": percentile(ops_us, 50),
        "op_p90_us": percentile(ops_us, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(reps, names):
    traced = reps["traced"]
    values = {n: 0.0 for n in names}
    for n in names:
        samples = [r["layers"][n] for r in traced if n in r["layers"]]
        if samples:
            values[n] = statistics.median(samples)
    for part in ("setup.topology_s", "setup.preload_s", "setup.tables_s"):
        values[part] = statistics.median(r["setup_parts"][part] for r in reps["plain"])
    plain_wall = statistics.median(r["wall_s"] for r in reps["plain"])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["bench.trace_overhead_pct"] = (traced_wall / plain_wall - 1.0) * 100.0
    if reps.get("no_telemetry"):
        off = statistics.median(r["wall_s"] for r in reps["no_telemetry"])
        values["obs.tracer_share"] = (plain_wall - off) / plain_wall
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digest", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    build()
    if args.digest:
        print(json.dumps([run_rep(args.workload, input_seed(args.seed, k))["digest"]
                          for k in range(INPUTS_PER_SEED)]))
        return 0

    fp = fingerprint()
    kinds = variants(args.workload, args.trace)
    reps = {label: [] for label, _, _ in kinds}
    trace_dir = BUILD / "traces"
    trace_dir.mkdir(exist_ok=True)
    trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
    start = time.monotonic()
    cycles = 0
    cycle_s = 0.0
    while True:
        elapsed = time.monotonic() - start
        if cycles >= MIN_CYCLES and elapsed >= seconds:
            break
        if cycles >= 1 and elapsed + cycle_s > MAX_SECONDS:
            break  # a very slow program still reports inside the run limit
        inputs = 1 if args.trace else INPUTS_PER_SEED
        seed = input_seed(args.seed, cycles % inputs)
        for label, traced, telemetry in kinds:
            first_traced = traced and not reps[label]
            reps[label].append(run_rep(args.workload, seed, traced, telemetry,
                                       trace_file if first_traced else None))
        cycles += 1
        cycle_s = time.monotonic() - start - elapsed

    all_reps = [r for rs in reps.values() for r in rs]
    expected = golden_digests(args.workload, args.seed)
    errors, attempted, failed = check_outputs(all_reps, expected)
    digests = {r["digest"] for r in all_reps}
    correct = not errors and failed == 0

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(reps, names)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(reps["plain"])

    print(f"workload {args.workload} seed {args.seed}: "
          + ", ".join(f"{len(v)} {k} reps" for k, v in reps.items())
          + f", digest {','.join(sorted(digests))}"
          + (" (golden)" if expected and not errors else ""))
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    if args.trace:
        shares = reps["traced"][0]["self_shares"]
        print("self time share of the traced timed phase: "
              + ", ".join(f"{k} {v:.4f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        print(f"chrome trace: {trace_file.relative_to(ROOT)}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
