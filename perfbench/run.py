#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds the perfbench binary from the checkout's sources (CMake, Release)
into $CARGO_TARGET_DIR (default .bench_build), generates the workload's
inputs for the seed in a separate process, runs the measurement, checks
that every metric BENCHMARK.json names for the mode is present, and prints
a context line followed by the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (the traced run also writes its spans file).
Everything the benchmark builds or writes stays under the build directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper", "endpoint", "read-write")
BUILD_SECONDS = 840
GEN_SECONDS = 120
RUN_SECONDS = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return path


def source_digest():
    """Digest of everything the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".txt", ".cmake")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; True on exit code 0."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return False
    if done.returncode != 0:
        log("failed (%d): %s" % (done.returncode, " ".join(cmd)))
    return done.returncode == 0


def build(target, digest):
    """Configures and builds `target`; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources at src/: nothing to benchmark")
        return None
    cmake_dir = os.path.join(build_dir(), "cmake")
    binary = os.path.join(cmake_dir, "bin", target)
    stamp = os.path.join(cmake_dir, target + ".stamp")
    if os.path.isfile(binary) and os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read() == digest:
                return binary
    log("building %s (%s)" % (target, digest))
    if not run_logged(["cmake", "-S", HERE, "-B", cmake_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_SECONDS):
        return None
    if not run_logged(["cmake", "--build", cmake_dir, "--target", target,
                       "-j", "4"], BUILD_SECONDS):
        return None
    with open(stamp, "w") as f:
        f.write(digest)
    return binary


def generate(binary, workload, seed, digest):
    """Writes the seed's inputs once per (workload, seed, sources)."""
    data_root = os.path.join(build_dir(), "data")
    data = os.path.join(data_root, "%s-%d" % (workload, seed))
    stamp = os.path.join(data, "complete")
    if os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read() == digest:
                return data
    # Keep one input set at a time: each is tens of megabytes.
    shutil.rmtree(data_root, ignore_errors=True)
    if not run_logged([binary, "gen", "--workload", workload, "--seed",
                       str(seed), "--out", data], GEN_SECONDS):
        return None
    with open(stamp, "w") as f:
        f.write(digest)
    return data


def spread(values):
    """Quartile distance over the median, as the acceptance rule takes it."""
    if len(values) < 4:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def cpu_ticks():
    """(busy, steal) jiffies from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields[:3]) + sum(fields[5:7]), steal


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured window (default: BENCHMARK.json's "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    digest = source_digest()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    if args.selftest:
        binary = build("perfbench_selftest", digest)
        return 0 if binary and run_logged([binary], RUN_SECONDS) else 1
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench", digest)
    if binary is None:
        return 1
    data = generate(binary, args.workload, args.seed, digest)
    if data is None:
        return 1

    out_dir = os.path.join(build_dir(), "results")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-%d-trace%d" % (args.workload, args.seed, args.trace)
    result_path = os.path.join(out_dir, tag + ".json")
    spans_path = os.path.join(out_dir, tag + ".spans.jsonl")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [binary, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--data", data, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", result_path]
    if args.trace:
        cmd += ["--spans", spans_path]
    before = cpu_ticks()
    if not run_logged(cmd, RUN_SECONDS):
        return 1
    after = cpu_ticks()
    with open(result_path) as f:
        report = json.load(f)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("metric %s missing or not in %s" % (m["name"], m["unit"]))
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    # Noise context: the run's own sample counts and set-up spread, plus
    # the spread of each metric across the runs recorded in this build
    # directory for the same workload and mode.
    history_path = os.path.join(build_dir(), "history",
                                "%s-trace%d.jsonl" % (args.workload,
                                                      args.trace))
    os.makedirs(os.path.dirname(history_path), exist_ok=True)
    with open(history_path, "a") as f:
        f.write(json.dumps({"seed": args.seed, "digest": digest,
                            "metrics": {k: v["value"]
                                        for k, v in metrics.items()}}) + "\n")
    runs = []
    with open(history_path) as f:
        for line in f:
            entry = json.loads(line)
            if entry.get("digest") == digest:
                runs.append(entry["metrics"])
    context = dict(report.get("context", {}))
    context.update({
        "git_commit": git_commit(),
        "source_digest": digest,
        "samples": {k: report["samples"].get(k) for k in metrics},
        "failures": report.get("failures", []),
        "runs_recorded": len(runs),
        # Time the hypervisor ran other guests on this machine's CPUs, as a
        # share of the CPU time the run used or lost: the host's noise.
        "steal_share": (None if before is None or after is None else
                        (after[1] - before[1]) /
                        max(1, (after[0] - before[0]) + (after[1] - before[1]))),
        "spread_across_runs": {
            k: spread([r[k] for r in runs if k in r]) for k in metrics},
    })
    if args.trace:
        context["spans_file"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
