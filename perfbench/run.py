#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

One run of one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload fleet-wide --seed 1 --seconds 25 --trace 0

Steadiness mode: N runs with seeds FIRST..FIRST+N-1, then each metric's
median, quartiles and spread against its BENCHMARK.json bound:

    python3 perfbench/run.py --steadiness 10 --workload fleet-wide [--seconds 25] [--first-seed 1]

--seconds defaults to BENCHMARK.json's run_seconds in both modes.

Run from the root of a checkout. The C++ benchmark binary is built from the
checkout's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); journals and span dumps go to .perfbench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs the binary once; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, []
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout.splitlines()


def fingerprint(lines):
    for line in lines:
        if line.startswith("fingerprint "):
            return json.loads(line[len("fingerprint "):])
    return None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(binary, args):
    spec = load_spec()
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    seconds = args.seconds or spec["run_seconds"]
    values = {name: [] for name in bounds}
    hosts = []
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.steadiness):
        code, lines = run_once(binary, args.workload, seed, seconds, args.trace, echo=False)
        if code != 0 or not lines:
            print("seed %d: exit %d" % (seed, code))
            return 1
        result = json.loads(lines[-1])
        failed += result["failed"]
        hosts.append(fingerprint(lines))
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, result["metrics"][n]["value"]) for n in bounds)))
    if any(h != hosts[0] for h in hosts):
        print("WARNING: host fingerprint changed between runs; spreads are not comparable")
    print("failed ops over all runs: %d" % failed)
    print("%-40s %12s %12s %12s %8s %6s  %s" % ("metric", "median", "q1", "q3", "spread",
                                               "bound", "verdict"))
    summary = {"workload": args.workload, "trace": args.trace, "seconds": seconds,
               "fingerprint": hosts[0], "metrics": {}}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        if bound is None:
            verdict = "-"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
        print("%-40s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
            name, med, q1, q3, spread, "-" if bound is None else bound, verdict))
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                    "bound": bound}
    # Compare with the previous summary of this workload, but only when it
    # was measured on the same host.
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "steadiness-%s-trace%d.json" % (args.workload, args.trace))
    if os.path.exists(path):
        with open(path) as f:
            previous = json.load(f)
        if previous.get("fingerprint") != summary["fingerprint"]:
            print("previous summary comes from a different host: not compared")
        else:
            for name, now in summary["metrics"].items():
                before = previous["metrics"].get(name)
                if before and before["median"] and now["bound"] is not None:
                    change = now["median"] / before["median"] - 1.0
                    print("%-40s median change vs previous %+.4f (bound %s)" % (
                        name, change, now["bound"]))
    with open(path, "w") as f:
        json.dump(summary, f, indent=2)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.steadiness:
        return steadiness(binary, args)
    seconds = args.seconds or load_spec()["run_seconds"]
    code, _ = run_once(binary, args.workload, args.seed, seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
