#!/usr/bin/env python3
"""Builds and runs the QPE benchmark.

Run from the repository root:

  python3 qpebench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0
  python3 qpebench/run.py --workload all --seed 1          # every workload
  python3 qpebench/run.py --self-test                      # tests + smoke runs

The benchmark is built from source (CMake, Release) into $CARGO_TARGET_DIR,
or .bench_build when that is unset, before every run; an up-to-date build
costs about a second. The binary's output passes through unchanged; its last
line is the JSON result, which is checked against BENCHMARK.json (every
metric of the mode present, with its unit) before it is printed. Exit status
is nonzero when the build fails, an output check fails, or the result does
not match BENCHMARK.json.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hot", "serve_cold", "train_ppsr")
RUN_TIMEOUT_S = 175


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    for target in targets:
        cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return out


def load_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def validate(result_line, trace, spec):
    """Returns an error string, or None when the result matches the spec."""
    try:
        result = json.loads(result_line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(result)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        return "metric names differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            return "metric %s has unit %r, BENCHMARK.json says %r" % (
                name, got[name].get("unit"), unit)
    if result["attempted"] < 1:
        return "nothing attempted"
    return None


def run_one(binary, workload, seed, seconds, trace, spec, smoke=False):
    """Runs one workload; prints its output; returns the exit status."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", build_dir()]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        log("%s exited with status %d" % (workload, proc.returncode))
        return proc.returncode or 1
    error = validate(lines[-1], trace, spec)
    if error is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("%s: %s" % (workload, error))
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log("%s: an output check failed" % workload)
    return proc.returncode


def self_test(spec):
    """Unit tests for the benchmark's math, then a tiny-size smoke run of
    every workload in both modes checking that each catalogued metric is
    printed by name with its unit."""
    out = build(["qpebench", "qpebench_test"])
    if out is None:
        return 2
    failures = 0
    if subprocess.run([os.path.join(out, "qpebench_test")]).returncode != 0:
        failures += 1
    binary = os.path.join(out, "qpebench")
    for workload in WORKLOADS:
        for trace in (False, True):
            cmd = [binary, "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", "1" if trace else "0",
                   "--work-dir", out, "--smoke"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            problems = []
            if proc.returncode != 0:
                problems.append("exit status %d" % proc.returncode)
            error = validate(lines[-1], trace, spec) if lines else "no output"
            if error:
                problems.append(error)
            for m in spec["per_layer" if trace else "end_to_end"]:
                pattern = r"^metric %s = \S+ %s$" % (
                    re.escape(m["name"]), re.escape(m["unit"]))
                if not any(re.match(pattern, line) for line in lines):
                    problems.append("metric %s not printed with unit %s" % (
                        m["name"], m["unit"]))
            label = "%s trace=%d" % (workload, trace)
            if problems:
                failures += 1
                log("smoke %s FAILED: %s" % (label, "; ".join(problems)))
            else:
                log("smoke %s ok" % label)
    log("self-test %s" % ("passed" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        spec = load_catalogue()
    except (OSError, ValueError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 2
    if args.self_test:
        return self_test(spec)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    out = build(["qpebench"])
    if out is None:
        log("build failed")
        return 2
    binary = os.path.join(out, "qpebench")
    if args.workload != "all":
        return run_one(binary, args.workload, args.seed, seconds,
                       args.trace == 1, spec)
    status = 0
    for workload in WORKLOADS:
        print("=== %s (trace %d)" % (workload, args.trace), flush=True)
        status = run_one(binary, workload, args.seed, seconds,
                         args.trace == 1, spec) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
