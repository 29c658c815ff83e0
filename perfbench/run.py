#!/usr/bin/env python3
"""Benchmark entry point for the HATRIC simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the `perfbench` package (the
target directory is $CARGO_TARGET_DIR, default `.bench_build`), runs one
workload in its own process, and prints two JSON lines on stdout: the full
record (seed, environment, steady state, checks, reconciliation), then the
result line `{"correct", "attempted", "failed", "metrics"}`.  With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones.  The record is also written to `perfbench/out/`.

Metric names and units come from `BENCHMARK.json` at the checkout's root.
Workloads, metrics and the held-out seed are described in METRICS.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("host32", "remap_storm", "fleet_storm", "single_vm")
# Seed kept out of every tuning run, for re-checking claims (METRICS.md).
HELD_OUT_SEED = 48611


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def metric_units(trace):
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def build():
    """Builds the benchmark binary and returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"{ROOT} holds no simulator sources (crates/); run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"cargo build failed with exit code {done.returncode}")
    return os.path.join(ROOT, target, "release", "perfbench")


def tool_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"unavailable ({e})"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def environment():
    # `git -C` only when the checkout is itself a repository: a parent
    # directory's repository would name the wrong commit.
    commit = (
        tool_output(["git", "-C", ROOT, "rev-parse", "HEAD"])
        if os.path.exists(os.path.join(ROOT, ".git"))
        else "unavailable (not a git checkout)"
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": tool_output(["rustc", "-V"]),
        "git_commit": commit,
    }


def run_workload(binary, args):
    """Runs the workload process; returns its record and its resource usage."""
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", OUT,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    stdout = proc.stdout.read()
    proc.stdout.close()
    # wait4 reaps the child and reports its own resource usage, so the
    # peak RSS is the workload process's alone.
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        fail(f"the workload process exited with code {proc.returncode}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("the workload process printed no record")
    process = {
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "wall_s": wall_s,
        # CPU time below wall time (per thread) means the host took the
        # CPU away: the run was measured on a contended machine.
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
    }
    return json.loads(lines[-1]), process


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    units = metric_units(args.trace)
    binary = build()
    env = environment()
    env["loadavg_before"] = list(os.getloadavg())
    record, process = run_workload(binary, args)
    env["loadavg_after"] = list(os.getloadavg())
    record["environment"] = env
    record["held_out_seed"] = HELD_OUT_SEED

    record["process"] = process

    measured = record["metrics"]
    if not args.trace:
        measured["peak_rss_mib"] = process["peak_rss_mib"]
    missing = sorted(set(units) - set(measured))
    if missing:
        fail(f"the workload process reported no {', '.join(missing)}")
    metrics = {k: {"value": measured[k], "unit": u} for k, u in units.items()}

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(record))
    attempted, failed = record["ops"], record["ops_failed"]
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
