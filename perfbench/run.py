#!/usr/bin/env python3
"""Runs one workload of the dsrt simulator's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark programs (Release, LTO) from the checkout into
.bench_build/perfbench, runs one workload, checks every replication's
output, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 runs the untraced program (perfbench_e2e) for S seconds and reports
the end-to-end metrics, host times in reference-host seconds. --trace 1 runs
the traced program (perfbench_traced) for about S/2 seconds, then the
untraced program on the same replications,
requires their model fingerprints to be bitwise equal, and reports the
per-layer metrics plus the untraced event rate and the tracing overhead.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fig2_eqf", "sp_jsq_k1024", "scale_pod_k4096", "fig2_observed")
# Never used while the benchmark or a change is tuned; a claimed gain must
# also hold on it.
HELD_OUT_SEED = 90210
PROGRAM_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and brings the programs up to date (a no-op once built)."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "4", "--target",
              "perfbench_e2e", "perfbench_traced"]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(step))


def run_program(name, args):
    """Runs one benchmark program; echoes its report lines and returns the
    JSON object of its last line."""
    done = subprocess.run([os.path.join(BUILD, name)] + args,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=PROGRAM_TIMEOUT_S)
    if done.stderr:
        log(done.stderr.rstrip())
    if done.returncode != 0:
        raise RuntimeError("%s exited with %d" % (name, done.returncode))
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def fingerprints(report):
    return {r["rep"]: r["fingerprint"] for r in report["replications"]}


def end_to_end(args):
    report = run_program("perfbench_e2e", [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds)])
    failed = report["failed"] + (0 if report["warmup_ok"] else 1)
    return failed == 0, report["attempted"], failed, report["metrics"]


def traced(args):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    layers = run_program("perfbench_traced",
                         common + ["--seconds", str(args.seconds / 2.0)])
    plain = run_program("perfbench_e2e",
                        common + ["--reps", str(layers["attempted"])])

    # Passivity: the traced rebuild must reproduce the untraced run bitwise.
    want, got = fingerprints(plain), fingerprints(layers)
    diverged = sorted(r for r in got if got[r] != want.get(r))
    for rep in diverged:
        log("traced rep %d diverged:\n  untraced %s\n  traced   %s"
            % (rep, want.get(rep), got[rep]))

    plain_reps = plain["replications"]
    plain_s = sum(r["run_s"] for r in plain_reps)
    traced_s = sum(r["run_s"] for r in layers["replications"])
    metrics = dict(layers["metrics"])
    metrics["sim.events_per_s"] = {
        "value": sum(r["events"] for r in plain_reps) / plain_s, "unit": "1/s"}
    metrics["trace.overhead"] = {"value": traced_s / plain_s - 1.0,
                                 "unit": "ratio"}
    failed = (layers["failed"] + plain["failed"] + len(diverged)
              + (0 if layers["warmup_ok"] and plain["warmup_ok"] else 1))
    return failed == 0, layers["attempted"], failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.seed == HELD_OUT_SEED:
        log("note: seed %d is the held-out seed" % HELD_OUT_SEED)

    try:
        build()
        correct, attempted, failed, metrics = (traced if args.trace else end_to_end)(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log("perfbench: %s" % error)
        return 1

    for name, m in metrics.items():
        print("%-28s %18.6g %s" % (name, m["value"], m["unit"]))
    print("failed_ratio %.6g (%d of %d replications)"
          % (failed / attempted, failed, attempted))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
