#!/usr/bin/env python3
"""Builds and runs dcsbench, the end-to-end benchmark of the DCS flow.

Usage (from the root of a checkout):

    python3 dcsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 dcsbench/run.py --smoke
    python3 dcsbench/run.py --workload <name> --seed <n> --write-pins

The first form builds the benchmark (CMake, Release, into .bench_build/)
and runs one workload; the last line of its standard output is the
one-line JSON result. `--smoke` runs every workload at a seconds-long
setting, untraced and traced, and checks that every metric named in
BENCHMARK.json is emitted with its unit and direction. `--write-pins`
records the QoR of one workload and seed in dcsbench/pins.tsv.
Build output goes to standard error; a failed build exits non-zero
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "dcsbench"
WORK = ROOT / ".bench_build" / "dcsbench-work"
PINS = HERE / "pins.tsv"
WORKLOADS = ["wirelength_suites", "edgematch_suites", "lowfi_engine_sweep"]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "dcsbench", "-j", jobs],
    ):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if result.returncode != 0:
            sys.exit(f"dcsbench: build step failed: {' '.join(cmd)}")
    return BUILD / "dcsbench"


def run(binary, workload, seed, seconds, trace, extra=()):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(WORK), "--pins", str(PINS), *extra]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return result.returncode, result.stdout


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run(binary, workload, 1, 1, trace, ["--smoke"])
            print(out, end="")
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{workload} trace {trace}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            printed = {}
            for line in lines:
                fields = line.split()
                if len(fields) >= 4 and fields[0] == "metric":
                    better = fields[4][len("better="):] if len(fields) > 4 else None
                    printed[fields[1]] = (fields[3], better)
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{workload} trace {trace}: incorrect result")
            for metric in expected[trace]:
                name = metric["name"]
                got = result["metrics"].get(name)
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace {trace}: {name} missing "
                                    f"or unit differs from BENCHMARK.json")
                want = (metric["unit"], metric.get("better"))
                if printed.get(name) != want:
                    problems.append(f"{workload} trace {trace}: {name} printed "
                                    f"as {printed.get(name)}, expected {want}")
            if len(result["metrics"]) != len(expected[trace]):
                problems.append(f"{workload} trace {trace}: "
                                f"{len(result['metrics'])} metrics emitted, "
                                f"{len(expected[trace])} named")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    binary = build()
    if args.smoke:
        return smoke(binary)
    extra = ["--write-pins"] if args.write_pins else []
    code, out = run(binary, args.workload, args.seed, args.seconds, args.trace,
                    extra)
    print(out, end="", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
