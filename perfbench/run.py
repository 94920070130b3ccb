#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--size full|tiny] [--corrupt 0|1]

Run it from the repository root. It builds perfbench/ (which compiles
the library layers from ../src) into .bench_build/perfbench, runs the
crono_perfbench driver, and passes its output through. The last line
of standard output is the driver's one-line JSON result, its metrics
put in BENCHMARK.json order (see canonical_metrics); build logs go to
standard error. The exit code is non-zero, and no result is
printed, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("kron-analytics", "road-analytics", "serve-churn", "sim-sweep")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "crono_perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def build():
    """Configure once, then build incrementally; logs go to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            return False
    return BINARY.exists()


def source_revision():
    """The git commit when the tree is a checkout, else a source digest."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              check=False)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()[:12]


def canonical_metrics(measured, trace):
    """The run's metrics in BENCHMARK.json order and units.

    Every end-to-end metric must have been measured. A per-layer metric
    whose layer is not on the workload's path reads 0. A metric that
    BENCHMARK.json does not name, or names with another unit, is an
    error.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in named}
    for name, metric in measured.items():
        if units.get(name) != metric.get("unit"):
            raise ValueError("metric outside BENCHMARK.json: %s" % name)
    out = {}
    for name, unit in units.items():
        if name in measured:
            out[name] = measured[name]
        elif trace:
            out[name] = {"value": 0, "unit": unit}
        else:
            raise ValueError("metric not measured: %s" % name)
    return out


def main(argv):
    args = parse_args(argv)
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("perfbench: repository sources not found next to perfbench/",
              file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--corrupt", str(args.corrupt), "--commit", source_revision()]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        print("perfbench: driver exited with %d" % done.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: driver printed no result line", file=sys.stderr)
        return 1
    try:
        result["metrics"] = canonical_metrics(result["metrics"], args.trace)
    except ValueError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
