"""Record a benchmark result set: each workload on several seeds, plus a traced run.

    python3 perfbench/record.py --seeds 1-10 [--workloads a,b] [--label TEXT] [--out FILE]

Runs `run.py` once per workload and seed with --trace 0, and once per
workload with --trace 1 on the first seed, each in its own process and
one at a time, with BENCHMARK.json's run_seconds.  For every end-to-end
metric it reports the median, the quartiles (`statistics.quantiles`, n=4)
and the spread (Q3 - Q1) / median next to the metric's bound, and writes
all results, the workload manifest and the platform to --out as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone

import numpy as np

import workloads
from run import HERE, ROOT


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    raise RuntimeError("/proc/cpuinfo has no model name line")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds, seconds = _seeds(args.seeds), bench["run_seconds"]

    record = {
        "label": args.label,
        "recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "platform": {"python": platform.python_version(), "numpy": np.__version__,
                     "cpu": _cpu_model(), "cpus": os.cpu_count()},
        "run_seconds": seconds,
        "seeds": seeds,
        "traffic": workloads.TRAFFIC,
        "workloads": {},
    }
    for name in args.workloads.split(","):
        wl = workloads.WORKLOADS[name]
        runs = []
        for seed in seeds:
            runs.append({"seed": seed, "result": _run(name, seed, seconds, 0)})
            print(f"{name} seed {seed}: {runs[-1]['result']}", file=sys.stderr)
        summary = {}
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "bound": metric["bound"],
                                       "unit": metric["unit"]}
            print(f"{name:20} {metric['name']:13} median {median:12.6g}  spread "
                  f"{spread:7.4f}  bound {metric['bound']}", file=sys.stderr)
        record["workloads"][name] = {
            "manifest": {"shape": wl.shape, "throughput_unit": wl.throughput_unit,
                         "params": workloads.FULL[name]},
            "runs": runs,
            "summary": summary,
            "traced": {"seed": seeds[0], "result": _run(name, seeds[0], seconds, 1)},
            "failed": sum(r["result"]["failed"] for r in runs),
        }
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
