#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload coremark|net|fault --seed N \
        --seconds S --trace 0|1

On first use this configures and builds perfbench/ (which compiles the
simulator library from src/) with CMake into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when the variable is unset; later runs rebuild
only what changed. It then runs perfbench, forwards its output, and
checks that its last line is a result naming exactly the
metrics BENCHMARK.json lists for the mode (end_to_end with --trace 0,
per_layer with --trace 1). A traced run also writes its spans as Chrome
trace-event JSON beside the build.

Exits non-zero without printing a result when the sources are missing,
the build fails, perfbench overruns its time limit, or the metric check
fails; otherwise exits with perfbench's status.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_group(command, timeout, stdout):
    """Run command in its own process group; on timeout kill the whole
    group (a build's compilers too) and wait for it before failing."""
    with subprocess.Popen(command, stdout=stdout, stderr=sys.stderr,
                          text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail(f"{os.path.basename(command[0])} exceeded {timeout} s")
        return proc.returncode, out


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        status, _ = run_group(step, BUILD_TIMEOUT_S, sys.stderr)
        if status != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["coremark", "net", "fault"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")]
    status, out = run_group(command, RUN_TIMEOUT_S, subprocess.PIPE)

    lines = out.splitlines()
    expected = expected_metrics(args.trace)
    try:
        names = list(json.loads(lines[-1])["metrics"])
    except (IndexError, ValueError, KeyError, TypeError):
        names = None
    if names != expected:
        # Forward perfbench's report, but never a result line.
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if names is None:
            fail(f"perfbench exited {status} without a result line")
        fail("perfbench metrics differ from BENCHMARK.json: "
             f"{sorted(set(names) ^ set(expected))}")
    sys.stdout.write(out)
    sys.exit(status)


if __name__ == "__main__":
    main()
