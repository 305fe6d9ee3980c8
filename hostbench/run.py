#!/usr/bin/env python3
"""Builds and runs the HALO host-time benchmark.

Run from the root of a checkout:

    python3 hostbench/run.py --workload run_cold --seed 1 --seconds 10 --trace 0
    python3 hostbench/run.py --self-test

The first call configures and builds hostbench/ (the halo library from
src/ plus the benchmark program) in Release under .bench_build/ (or
$CARGO_TARGET_DIR when set); later calls only re-check the build. Build
output goes to stderr, so the last stdout line is the program's result
object. Result records and span dumps land in .bench_build/results/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("run_cold", "matrix_warm", "serve_mix")
# The default workload seed, and one held back for checking claims: a
# change tuned on DEFAULT_SEED must also hold on HOLDOUT_SEED.
DEFAULT_SEED = 1
HOLDOUT_SEED = 7919
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Configures (once) and builds the program; returns its path or None."""
    out = os.path.join(build_dir(), "hostbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            return None
    return os.path.join(out, "hostbench")


def commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_program(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs the program to completion; returns (exit code, stdout)."""
    env = dict(os.environ)
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            env=env, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("hostbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def workload_args(workload, seed, seconds, trace):
    base = os.path.relpath(build_dir(), ROOT)
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--root", ".", "--work", os.path.join(base, "work"),
            "--results", os.path.join(base, "results"),
            "--commit", commit()]


def record(out):
    """The result record a run wrote, from its host line."""
    for line in out.splitlines():
        if line.startswith('{"host"'):
            with open(os.path.join(ROOT, json.loads(line)["record"])) as f:
                return json.load(f)
    raise RuntimeError("no result record")


def self_test(binary):
    """The program's unit self-test, then whole-run checks: traced and
    untraced runs of one seed give identical results and simulated
    counters, and another seed changes the inputs and the counters."""
    code, out = run_program(binary, ["--self-test"])
    sys.stdout.write(out)
    ok = code == 0
    runs = {}
    for seed, trace in ((DEFAULT_SEED, 0), (DEFAULT_SEED, 1),
                        (HOLDOUT_SEED, 0)):
        code, out = run_program(binary,
                                workload_args("run_cold", seed, 1, trace))
        last = json.loads(out.splitlines()[-1]) if code == 0 else {}
        ok &= code == 0 and last.get("correct") is True
        runs[(seed, trace)] = record(out) if code == 0 else {}
    a = runs[(DEFAULT_SEED, 0)]
    t = runs[(DEFAULT_SEED, 1)]
    b = runs[(HOLDOUT_SEED, 0)]
    checks = [
        ("traced and untraced runs give byte-identical results",
         a.get("result_digest") == t.get("result_digest")),
        ("traced and untraced runs give identical sim counters",
         a.get("sim") == t.get("sim") and a.get("sim") is not None),
        ("the traced run reports sim counters equal to its record",
         t.get("metrics", {}).get("sim.l1d_misses", {}).get("value")
         == t.get("sim", {}).get("l1d_misses")),
        ("another seed changes the inputs",
         a.get("inputs_digest") != b.get("inputs_digest")),
        ("another seed changes the simulated counters",
         a.get("sim") != b.get("sim")),
    ]
    for name, passed in checks:
        print("%s: %s" % ("ok" if passed else "FAILED", name))
        ok &= passed
    print("hostbench run self-test: %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and not opts.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        print("hostbench: build failed", file=sys.stderr)
        return 2
    if opts.self_test:
        return self_test(binary)
    code, out = run_program(binary, workload_args(
        opts.workload, opts.seed, opts.seconds, opts.trace))
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
