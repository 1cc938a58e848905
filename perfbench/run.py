#!/usr/bin/env python3
"""PolyPart benchmark: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The driver is built under .bench_build/ from
perfbench/ and the library sources in src/.  Set-up time is measured in
fresh processes, because the polyhedral library memoizes projections
process-wide: SETUP_SAMPLES - 1 set-up-only sessions run first, then the
measured session, and setup_s is the median over all of them of the set-up
CPU time scaled by the reference work timed just before it (see driver.cpp).

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}; the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The line before it holds the provenance stamp and the
session detail.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("hotspot-functional", "hotspot-paper", "spmv-inspector")
SETUP_SAMPLES = 5
BUILD_TIMEOUT_S = 840
SETUP_TIMEOUT_S = 60
SESSION_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def run_driver(args, timeout):
    done = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout,
                          check=False)
    if done.returncode != 0:
        fail(f"driver exited with {done.returncode}: {' '.join(args)}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed nothing: {' '.join(args)}")
    return json.loads(lines[-1])


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_revision():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args()
    if not 0 < opts.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")

    build()
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    setups = [run_driver(common + ["--setup-only"], SETUP_TIMEOUT_S)["setup"]
              for _ in range(SETUP_SAMPLES - 1)]
    session_args = list(common)
    if opts.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        session_args += ["--spans", os.path.join(
            spans_dir, f"{opts.workload}-seed{opts.seed}.json")]
    session = run_driver(session_args, SESSION_TIMEOUT_S)
    setups.append(session["setup"])
    for s in setups:
        s["scaled_setup_s"] = s["setup_s"] * s["scale"]

    def median_of(key):
        return statistics.median(s[key] for s in setups)

    if opts.trace:
        metrics = {
            "analysis.analyze_s": metric(median_of("analyze_s"), "s"),
            "rt.construct_s": metric(median_of("construct_s"), "s"),
        }
        metrics.update(session["per_layer"])
    else:
        metrics = {"setup_s": metric(median_of("scaled_setup_s"), "s")}
        metrics.update(session["end_to_end"])

    attempted = session["attempted"]
    failed = session["failed"]
    provenance = {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "build": session["build"],
        "nproc": os.cpu_count(),
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "params": session["params"],
        "launch_samples": session["launch_samples"],
        "chunks": session["chunks"],
        "wall_launch_ms_tail_percentile":
            session["raw"]["launch_wall_ms_tail_percentile"],
        "setup_samples": len(setups),
    }
    detail = {
        "error_frac": failed / attempted,
        "failures": session["failures"][:20],
        "deterministic": session["deterministic"],
        "input_digest": session["input_digest"],
        "episodes": session["episodes"],
        "raw": session["raw"],
        "setup": setups,
    }
    if opts.trace:
        detail["trace"] = session["trace_detail"]
    print(json.dumps({"provenance": provenance, "detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
