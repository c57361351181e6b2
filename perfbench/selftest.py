"""Harness self-test: a reduced-size smoke run of every workload.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it checks that a clean run passes and
emits every end-to-end metric (--trace 0) and every per-layer metric
(--trace 1) with the unit BENCHMARK.json gives; that in the traced run no
self time is negative and cli.self_s (time outside every wrapped function)
stays within MAX_CLI_SHARE of trace.run_s; and that a deliberately
corrupted output makes every command fail its output check, which proves
the correctness gate fires.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import sys

import run

# Largest share of the traced run time that may fall outside every wrapped
# function (argument parsing, json.dumps, file writes); more means hot code
# runs in a function the tracer does not wrap.
MAX_CLI_SHARE = 0.5


def _units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for wl in bench["workloads"]:
        name = wl["name"]
        clean = run.run_workload(name, seed=1, seconds=0, trace=False, smoke=True)
        if not clean["correct"] or _units(clean) != e2e:
            problems.append(f"{name}: clean run {clean}")
        traced = run.run_workload(name, seed=1, seconds=0, trace=True, smoke=True)
        metrics = traced["metrics"]
        if not traced["correct"] or _units(traced) != per_layer:
            problems.append(f"{name}: traced run emits {sorted(_units(traced).items())}")
        else:
            negative = [m for m, v in metrics.items()
                        if m.endswith("self_s") and v["value"] < -1e-9]
            if negative:
                problems.append(f"{name}: negative self times {negative}")
            share = metrics["cli.self_s"]["value"] / metrics["trace.run_s"]["value"]
            if share > MAX_CLI_SHARE:
                problems.append(f"{name}: cli.self_s is {share:.0%} of trace.run_s, "
                                f"more than {MAX_CLI_SHARE:.0%} of the run is untraced")
        bad = run.run_workload(name, seed=1, seconds=0, trace=False, smoke=True, corrupt=True)
        if bad["correct"] or bad["failed"] != bad["attempted"] or (
                bad["metrics"]["success_rate"]["value"] != 0):
            problems.append(f"{name}: corrupted output not counted as a failure: {bad}")
        print(f"selftest {name}: clean failed={clean['failed']}, "
              f"corrupted failed={bad['failed']}/{bad['attempted']}", file=sys.stderr)
    for p in problems:
        print(f"selftest FAIL {p}", file=sys.stderr)
    print("selftest " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
