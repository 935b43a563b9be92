#!/usr/bin/env python3
"""Build and run the end-to-end mutation-campaign benchmark.

Run from the repository root:

    python3 e2e_bench/run.py --workload plasma_long --seed 1 --seconds 36 --trace 0
    python3 e2e_bench/run.py --workload all --seed 1 --seconds 36 --trace 0

The first run configures and builds the benchmark package (e2e_bench/,
which builds the xlv sources one directory up) into .bench_build/e2e; later
runs only check the build is current. Every other argument goes to the
benchmark binary, whose last stdout line is the JSON result. `--workload
all` runs each workload in a process of its own, so each one's peak RSS is
its own, and prints one merged JSON line with `<workload>.<metric>` names.
The exit code is the binary's (the worst one under `all`), or 2 when the
sources or the build are unusable.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "xlv_e2e_bench")
WORKLOADS = ["plasma_long", "sweep_shared", "served_mix"]


def fail(message):
    print("e2e_bench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the xlv sources (CMakeLists.txt, src/) are not next to e2e_bench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "xlv_e2e_bench"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries the benchmark's output.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def run_all(args, env):
    """Runs every workload in its own process; prints the merged result."""
    if "--trace-out" in args:
        fail("--trace-out names one file; use it with a single --workload")
    at = args.index("--workload") + 1
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        argv = args[:at] + [workload] + args[at + 1 :]
        proc = subprocess.Popen([BINARY] + argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        last = None
        for line in proc.stdout:
            if last is not None:
                sys.stdout.write(last)
            last = line
        code = proc.wait()
        status = max(status, code)
        if code not in (0, 1) or last is None:
            if last is not None:
                sys.stdout.write(last)
            sys.exit(code or 2)
        result = json.loads(last)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "." + name] = metric
    sys.stdout.write(json.dumps(merged) + "\n")
    sys.exit(status)


def main():
    build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("XLV_")}
    args = sys.argv[1:]
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        if args[args.index("--workload") + 1] == "all":
            run_all(args, env)
    done = subprocess.run([BINARY] + args, cwd=ROOT, env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
