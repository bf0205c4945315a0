#!/usr/bin/env python3
"""Builds and runs the convpairs end-to-end benchmark.

    python3 e2ebench/run.py --workload topk|exact|serve --seed N \\
        --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library and the harness under .bench_build/e2ebench (RelWithDebInfo, the
tier-1 build type); later calls rebuild only what changed. Inputs and
oracle come from the harness's generate step, run as its own process so
generation stays out of the workload's memory and set-up figures: once per
build for topk and exact (fixed graphs, kept in .bench_build), and into a
fresh directory for every serve run. The workload then runs in a separate
process, and its result JSON is the last line of stdout. Build and
progress output go to stderr.
A traced run (--trace 1) also keeps its spans as a Chrome trace file in
.bench_build/e2ebench/spans/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
WORKLOADS = ("topk", "exact", "serve")
# Workloads whose inputs and oracle do not depend on the seed (fixed
# graphs; the seed only orders the ops), so one generation serves every
# run of a build. serve's requests depend on the seed, and each serve run
# writes its .cps files once into a fresh directory.
SEED_FREE_INPUTS = ("topk", "exact")
BUILD_TIMEOUT_S = 840
GENERATE_TIMEOUT_S = 120
RUN_SLACK_S = 120


def fail(message):
    print("e2ebench: " + message, file=sys.stderr, flush=True)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no convpairs source tree at " + os.path.join(ROOT, "src"))
    try:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", target, "-j",
             str(min(4, os.cpu_count() or 1))],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (subprocess.SubprocessError, OSError) as error:
        fail("build failed: %s" % error)


def conform(result, trace):
    """Holds the harness's metrics to BENCHMARK.json, the one list of them.

    An untraced run must report every end-to-end metric. A traced run
    reports the layers its workload runs; every other per-layer metric is
    0 (no span, no counter delta). A metric that is not declared, or has
    another unit, fails the run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as spec_file:
            spec = json.load(spec_file)
    except (OSError, ValueError) as error:
        fail("cannot read %s: %s" % (path, error))
    declared = spec["per_layer" if trace else "end_to_end"]
    reported = dict(result["metrics"])
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = reported.pop(name, {"value": 0, "unit": unit} if trace else None)
        if value is None:
            fail("metric %s not reported" % name)
        if value["unit"] != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, value["unit"], unit))
        metrics[name] = value
    if reported:
        fail("metrics not in BENCHMARK.json: %s" % sorted(reported))
    result["metrics"] = metrics
    return result


def generate(workload, seed, directory):
    subprocess.run([BINARY, "generate", "--workload", workload,
                    "--seed", str(seed), "--dir", directory],
                   stdout=sys.stderr, check=True, timeout=GENERATE_TIMEOUT_S)


def fixture_dir(workload):
    """Inputs of a workload whose generate step ignores the seed, made once
    per build of the harness and reused by later runs (read-only)."""
    fixtures = os.path.join(BUILD, "fixtures", workload)
    stamp_path = os.path.join(fixtures, "built-from")
    stamp = str(os.stat(BINARY).st_mtime_ns)
    if os.path.isfile(stamp_path):
        with open(stamp_path) as stamp_file:
            if stamp_file.read() == stamp:
                return fixtures
    shutil.rmtree(fixtures, ignore_errors=True)
    os.makedirs(fixtures)
    generate(workload, 0, fixtures)
    with open(stamp_path, "w") as stamp_file:
        stamp_file.write(stamp)
    return fixtures


def run_workload(args):
    build("e2ebench")
    runs = os.path.join(BUILD, "runs")
    spans = os.path.join(BUILD, "spans")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(spans, exist_ok=True)
    data = None
    try:
        if args.workload in SEED_FREE_INPUTS:
            inputs = fixture_dir(args.workload)
        else:
            inputs = data = tempfile.mkdtemp(
                prefix="%s-%d-" % (args.workload, args.seed), dir=runs)
            generate(args.workload, args.seed, data)
        command = [BINARY, "run", "--workload", args.workload,
                   "--seed", str(args.seed), "--dir", inputs,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            command += ["--spans-out", os.path.join(
                spans, "%s-seed%d.json" % (args.workload, args.seed))]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              check=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except (subprocess.SubprocessError, OSError) as error:
        fail("%s failed: %s" % (args.workload, error))
    finally:
        if data is not None:
            shutil.rmtree(data, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no result from the harness")
    result = conform(json.loads(lines[-1]), args.trace)
    print("\n".join(lines[:-1] + [json.dumps(result)]), flush=True)


def selftest():
    build("e2ebench_test")
    sys.exit(subprocess.run([os.path.join(BUILD, "e2ebench_test")]).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness's own tests")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    run_workload(args)


if __name__ == "__main__":
    main()
