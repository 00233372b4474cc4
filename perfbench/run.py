#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload table1|scenario_large|service_mix \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It configures and builds the
`perfbench` binary (and the library it links) under .bench_build/perfbench,
runs one workload, prints every metric with its unit and better direction,
and ends with the binary's JSON result line.  It exits non-zero, without a
result line, when the build, the run or the metric set fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("table1", "scenario_large", "service_mix")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(ROOT, BUILD)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            raise SystemExit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_workload(binary, workload, seed, seconds, trace, env=None):
    """Runs one workload; returns (stdout lines, parsed result)."""
    work_dir = os.path.join(BUILD, "work")
    os.makedirs(os.path.join(ROOT, work_dir), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: %s timed out" % workload)
    if proc.returncode != 0:
        raise SystemExit("perfbench: %s exited with %d"
                         % (workload, proc.returncode))
    lines = proc.stdout.splitlines()
    if not lines:
        raise SystemExit("perfbench: %s printed nothing" % workload)
    return lines, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    lines, result = run_workload(binary, args.workload, args.seed,
                                 args.seconds, args.trace)
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise SystemExit("perfbench: metric set differs from BENCHMARK.json: "
                         "%s" % sorted(set(metrics) ^ {m["name"] for m in wanted}))
    for line in lines[:-1]:
        print(line)
    print("%-34s %22s  %-8s %s" % ("metric", "value", "unit", "better"))
    for m in wanted:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            raise SystemExit("perfbench: %s unit %s, BENCHMARK.json says %s"
                             % (m["name"], got["unit"], m["unit"]))
        print("%-34s %22.10g  %-8s %s" % (m["name"], got["value"], m["unit"],
                                         m.get("better", "-")))
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
