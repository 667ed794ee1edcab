#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, checks its accounting
rules, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload hash-ycsbc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. With one workload, the last line of standard
output is a JSON object with the keys correct, attempted, failed and metrics:
with --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The lines before it name every metric the run
measured, with its unit, and the run's provenance. `--workload all` runs every
workload, tree-scan included, with both --trace values and prints everything.
The exit code is non-zero when the build, the rules test or a correctness
check fails. README.md in this directory explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")

# The binary's workload table (perfbench.cc) also fixes each one's run count.
WORKLOADS = ["tree-ycsba", "hash-ycsbc", "tree-scan"]
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    p = subprocess.run([os.path.join(BUILD, "perfbench_rules_test")],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("accounting-rules test failed")


def source_digest():
    """sha256 over the simulator and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return p.stdout.strip() if p.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(workload, seed, seconds, trace):
    """Runs the perfbench binary once, prints its lines and provenance, and
    returns its result object."""
    os.makedirs(OUT, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("MUTPS_")}
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--seconds", str(seconds),
           "--trace-out",
           os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: perfbench did not finish in {RUN_TIMEOUT_S} s")
    lines = p.stdout.splitlines()
    if not lines:
        fail(f"{workload}: perfbench printed nothing (exit {p.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not JSON: {lines[-1][:200]}")
    if p.returncode not in (0, 1):
        fail(f"{workload}: perfbench exited {p.returncode}")
    prov = {"workload": workload, "seed": seed, "trace": trace}
    for line in lines:
        if line.startswith("provenance:"):
            for field in line.split()[1:]:
                k, _, v = field.partition("=")
                if k in ("config_digest", "host.calib_ns"):
                    prov[k] = v
    prov.update({"git_rev": git_rev(), "src_digest": source_digest(),
                 "host_cpus": os.cpu_count(), "cpu_model": cpu_model()})
    print("provenance:", json.dumps(prov, sort_keys=True))
    return result


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    build()

    if args.workload == "all":
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                print(f"== {workload} --trace {trace}")
                r = run_workload(workload, args.seed, args.seconds, trace)
                print(f"  correct={r['correct']} attempted={r['attempted']} "
                      f"failed={r['failed']}")
                ok = ok and r["correct"]
        sys.exit(0 if ok else 1)

    r = run_workload(args.workload, args.seed, args.seconds, args.trace)
    metrics = {}
    for name in declared_metrics(args.trace):
        if name not in r["metrics"]:
            fail(f"perfbench did not report {name}")
        metrics[name] = r["metrics"][name]
    print(json.dumps({"correct": bool(r["correct"]),
                      "attempted": int(r["attempted"]),
                      "failed": int(r["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if r["correct"] else 1)


if __name__ == "__main__":
    main()
