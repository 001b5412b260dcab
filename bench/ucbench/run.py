#!/usr/bin/env python3
"""Build and run ucbench, the repository's end-to-end benchmark.

Run from the repository root:

    python3 bench/ucbench/run.py [--workload NAME] [--seed N] [--trace [0|1]]

Every run measures BENCHMARK.json's run_seconds: the bounds there were
calibrated at that length. --seconds is accepted for harnesses that
pass the run length explicitly, and must equal it.

The first run configures and builds bench/ucbench (a standalone CMake
project that pulls in the library) into build/ucbench/ in Release mode;
later runs only rebuild what changed. Then it runs one workload, or all
four when --workload is omitted. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics, or with --trace the per-layer metrics of a traced
run (its Chrome trace goes to build/ucbench/traces/).

Exits non-zero without a result when BENCHMARK.json or the library
sources are not there, or the build fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, "build", "ucbench")
BINARY = os.path.join(BUILD, "ucbench")
WORKLOADS = ["hot_udp", "large_udp", "lossy_udp", "pooled_mixed"]


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_run_seconds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return int(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read run_seconds from BENCHMARK.json: %s" % e)


RUN_SECONDS = load_run_seconds()
# A run takes about 1.1x its measured time (each measured second also
# builds, settles and tears down a cluster); the rest is slack for a busy
# host, keeping a run with its build check under three minutes.
RUN_TIMEOUT_S = 5 * RUN_SECONDS + 60


def build():
    """Configures (once) and builds the ucbench target; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources at %s (CMakeLists.txt and src/ are needed "
             "to build the benchmark)" % ROOT)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep the compilers' temporary files inside the build tree.
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "ucbench",
                  "--parallel", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (%s); full log in %s"
                     % (" ".join(cmd[:2]), log_path))
    return BINARY


def run_binary(binary, workload, seed, trace):
    """Runs one workload; returns (exit code, report lines, result or
    None when the last line is not a result object)."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%d" % RUN_SECONDS, "--trace=%d" % trace,
           "--out-dir=" + os.path.join(BUILD, "traces")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, ["%s timed out after %d s" % (workload, RUN_TIMEOUT_S)], None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        return proc.returncode or 1, lines, None
    if not isinstance(result, dict) or not {
            "correct", "attempted", "failed", "metrics"} <= set(result):
        return proc.returncode or 1, lines, None
    return proc.returncode, lines[:-1], result


def run_one(binary, workload, seed, trace):
    """Runs one workload; echoes its report; returns (exit code, result)."""
    rc, lines, result = run_binary(binary, workload, seed, trace)
    for line in lines:
        print(line)
    if result is None:
        fail("%s printed no result (exit %d)" % (workload, rc), rc)
    return rc, result


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: all four)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="must equal BENCHMARK.json's run_seconds (%d)"
                   % RUN_SECONDS)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1], help="traced run: per-layer metrics")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("need --seed >= 0")
    if args.seconds != RUN_SECONDS:
        p.error("--seconds must be BENCHMARK.json's run_seconds (%d): the "
                "bounds hold at no other length" % RUN_SECONDS)

    binary = build()
    if args.workload:
        rc, result = run_one(binary, args.workload, args.seed, args.trace)
        print(json.dumps(result))
        return rc

    # All workloads: one report each, then one combined result whose
    # metric names are prefixed with the workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        rc, result = run_one(binary, w, args.seed, args.trace)
        print(json.dumps(dict(result, workload=w)))
        worst = worst or rc
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][w + "." + name] = m
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
