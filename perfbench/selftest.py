#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run it from the repository root. It checks that:
  - every workload at the tiny size, untraced and traced, prints every
    metric BENCHMARK.json names, with its unit, and no failed operation;
  - a deliberately corrupted answer is counted as a failed operation;
  - two traced serve-churn runs with one seed report identical
    serve.epochs and serve.kernel_runs, and two traced sim-sweep runs
    identical simulated counts;
  - in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Scratch files go under .bench_build/selftest. Exit code 0 means all
checks passed.
"""

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = ROOT / ".bench_build" / "selftest"

failures = []


def check(ok, what):
    print("%s  %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT, seed=7, seconds=1):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + list(extra)
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)
    result = None
    lines = done.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result


def expected(trace):
    return {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}


def metrics_match(result, trace):
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    return got == expected(trace)


def main():
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run(workload, trace, "--size", "tiny")
            ok = (code == 0 and result is not None
                  and set(result) == {"correct", "attempted", "failed",
                                      "metrics"}
                  and result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1
                  and metrics_match(result, trace))
            check(ok, "%s --trace %d: every metric with its unit, "
                      "0 failed" % (workload, trace))
            if trace == 1 and result is not None and ok:
                dropped = result["metrics"]["obs.dropped_spans"]["value"]
                check(dropped == 0, "%s traced: no dropped spans" % workload)

    for workload in WORKLOADS:
        code, result = run(workload, 0, "--size", "tiny", "--corrupt", "1")
        check(code == 0 and result is not None
              and result["correct"] is False and result["failed"] >= 1,
              "%s: a corrupted answer counts as failed" % workload)

    def traced_values(workload, names, *extra):
        runs = []
        for _ in range(2):
            code, result = run(workload, 1, *extra, seed=11, seconds=5)
            if code != 0 or result is None:
                return None
            runs.append([result["metrics"][n]["value"] for n in names])
        return runs

    runs = traced_values("serve-churn", ["serve.epochs", "serve.kernel_runs"])
    check(runs is not None and runs[0] == runs[1] and runs[0][1] > 0,
          "serve-churn: serve.epochs and serve.kernel_runs repeat "
          "exactly (%s)" % runs)
    sim_names = ["sim.cycles", "sim.l1d_accesses", "sim.l2_misses",
                 "sim.noc_flits"]
    runs = traced_values("sim-sweep", sim_names, "--size", "tiny")
    check(runs is not None and runs[0] == runs[1],
          "sim-sweep: simulated counts repeat exactly (%s)" % runs)

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    code, result = run(WORKLOADS[0], 0, cwd=bare)
    check(code != 0 and result is None,
          "without the repository sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
