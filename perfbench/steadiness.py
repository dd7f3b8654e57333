#!/usr/bin/env python3
"""Steadiness check for the benchmark: two sets of runs of the same build.

Run from the repository root:

    python3 perfbench/steadiness.py [--seconds S] [--json FILE]

Runs sets A and B of ten runs each, interleaved run by run (for each run
index, every workload in BENCHMARK.json, A then B), each run with its
own seed, through perfbench/run.py with tracing off. For every end-to-end metric of every workload it prints
each set's median and quartiles, the spread (distance between the
quartiles as a share of the median) and how far B's median is worse than
A's, both against the metric's bound in BENCHMARK.json. A metric passes
when both sets' spreads (setup_s excepted) and the shift stay within the
bound.

With --determinism it instead makes two traced runs per workload with
one seed and checks that every deterministic per-layer metric (units
count, cycles, bytes and ratio) repeats exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISTIC_UNITS = {"count", "cycles", "bytes", "ratio"}
RUNS = 10


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        sys.exit(f"{workload} seed {seed}: run failed ({done.returncode})")
    result = json.loads(done.stdout.splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # perfbench logs each unit's rate to stderr: "unit N - RATE ops/s ...".
    values["unit_rates"] = [float(line.split()[3]) for line in
                            done.stderr.splitlines()
                            if line.startswith("unit ")]
    return values


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def steadiness(spec, args):
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {(w, s): [] for w in workloads for s in "AB"}
    for i in range(RUNS):
        for w in workloads:
            for s, base in (("A", 1), ("B", 1001)):
                runs[(w, s)].append(run(w, base + i, args.seconds, 0))
                print(f"run {i + 1}/{RUNS} {w} set {s} done",
                      file=sys.stderr, flush=True)
    rows = []
    ok = True
    print("| workload | metric | bound | A median [Q1, Q3] | A spread "
          "| B median [Q1, Q3] | B spread | B worse by | ok |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summary([r[name] for r in runs[(w, "A")]])
            b = summary([r[name] for r in runs[(w, "B")]])
            sign = 1.0 if metric["better"] == "higher" else -1.0
            worse = sign * (a[0] - b[0]) / a[0]
            row_ok = worse <= bound and (
                name == "setup_s" or (a[3] <= bound and b[3] <= bound))
            ok = ok and row_ok
            rows.append({"workload": w, "metric": name, "bound": bound,
                         "a": a, "b": b, "b_worse_by": worse,
                         "ok": row_ok})
            print(f"| {w} | {name} | {bound} "
                  f"| {a[0]:.6g} [{a[1]:.6g}, {a[2]:.6g}] | {a[3]:.3f} "
                  f"| {b[0]:.6g} [{b[1]:.6g}, {b[2]:.6g}] | {b[3]:.3f} "
                  f"| {worse:+.3f} | {'yes' if row_ok else 'NO'} |")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"rows": rows, "runs": {f"{w}/{s}": v for (w, s), v
                                              in runs.items()}}, f, indent=1)
    return ok


def determinism(spec, args):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        first, second = (run(w, 1, args.seconds, 1) for _ in range(2))
        differ = [name for name, unit in units.items()
                  if unit in DETERMINISTIC_UNITS and first[name] != second[name]]
        for name in differ:
            print(f"{w}: {name} differs: {first[name]} vs {second[name]}")
        print(f"{w}: deterministic per-layer metrics "
              f"{'DIFFER' if differ else 'repeat exactly'}")
        ok = ok and not differ
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--json")
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    ok = determinism(spec, args) if args.determinism else steadiness(spec,
                                                                      args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
