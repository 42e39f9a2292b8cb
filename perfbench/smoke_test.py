#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny-scale run of every workload, untraced
and traced, must print every metric BENCHMARK.json names, with its unit,
and pass the output checks.

    python3 perfbench/smoke_test.py [--binary PATH] [--benchmark-json PATH]

Defaults: the binary perfbench/run.py builds, and the repository's
BENCHMARK.json. `ctest --test-dir .bench_build/perfbench` runs it too.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(binary, workload, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", trace, "--smoke"],
        capture_output=True, text=True, timeout=300, check=False)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(result, expected, label):
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"{label}: output checks failed ({result['failed']} "
                      f"of {result['attempted']})")
    if result["attempted"] < 1:
        errors.append(f"{label}: nothing attempted")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in expected):
        errors.append(f"{label}: metrics {sorted(metrics)}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is not None and got["unit"] != m["unit"]:
            errors.append(f"{label}: {m['name']} unit {got['unit']}")
    return errors, metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", default=os.path.join(
        ROOT, ".bench_build", "perfbench", "perfbench"))
    parser.add_argument("--benchmark-json",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark_json) as f:
        spec = json.load(f)

    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        e, _ = check(run(args.binary, workload, "0"), spec["end_to_end"],
                     f"{workload} untraced")
        errors += e
        e, layers = check(run(args.binary, workload, "1"), spec["per_layer"],
                          f"{workload} traced")
        errors += e
        if e:
            continue
        value = {name: m["value"] for name, m in layers.items()}
        # Scale-independent structure of the traced run.
        if value["trace.attributed_share"] < 0.9:
            errors.append(f"{workload}: spans cover only "
                          f"{value['trace.attributed_share']:.3f} of the time")
        if workload == "cold_mix" and value["bsp.profile_runs"] == 0:
            errors.append("cold_mix: no profile runs")
        if workload != "cold_mix":
            if value["bsp.profile_runs"] != 0:
                errors.append(f"{workload}: profile runs on a warm workload")
            if value["service.profile_hit_ratio"] != 1.0:
                errors.append(f"{workload}: profile cache missed")
        if (workload == "churn_repredict"
                and value["sampling.sample_reused_round_share"] != 1.0):
            errors.append("churn_repredict: a round re-walked the sample")
    for e in errors:
        print("FAIL:", e)
    print("perfbench smoke test:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
