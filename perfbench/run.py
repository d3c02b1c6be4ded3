#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload farm|dense_channel|policy_loop \
        --seed N --seconds S --trace 0|1

The benchmark is the Rust package in this directory. It is built in
release mode (into $CARGO_TARGET_DIR, `.bench_build` by default) and run
from the repository root. Standard output is a host stamp line, the
program's detail lines, and as the last line one JSON result object.
Build output goes to standard error. The exit code is the program's, or
1 when the build fails, so a tree without the simulator crates exits
non-zero without printing a result.
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
WORKLOADS = ("farm", "dense_channel", "policy_loop")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds within 1..60")
    return args


def read_first(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def llc_size():
    """Size of the highest-level CPU cache of cpu0, as sysfs prints it."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (-1, None)
    try:
        for index in os.listdir(base):
            try:
                with open(os.path.join(base, index, "level")) as f:
                    level = int(f.read())
                with open(os.path.join(base, index, "size")) as f:
                    size = f.read().strip()
            except (OSError, ValueError):
                continue
            if level > best[0]:
                best = (level, size)
    except OSError:
        pass
    return best[1] or read_first("/proc/cpuinfo", "cache size")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the simulator sources, stable without git metadata."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "scenarios"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            if os.path.islink(name) or not os.path.isfile(name):
                continue
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the repository at ROOT; None when ROOT is not its top level."""
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return None
    return command_output(["git", "rev-parse", "HEAD"])


def host_stamp():
    mem = read_first("/proc/meminfo", "MemAvailable")
    return {
        "cpu_model": read_first("/proc/cpuinfo", "model name") or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "llc": llc_size(),
        "mem_available_kib": int(mem.split()[0]) if mem else None,
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main():
    args = parse_args()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    print("# host: " + json.dumps(host_stamp(), sort_keys=True), flush=True)
    binary = os.path.join(os.path.abspath(os.path.join(ROOT, target)), "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
