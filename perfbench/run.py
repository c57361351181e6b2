"""rankaudit benchmark: drives the CLI on seeded inputs and checks its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Inputs are generated from --seed before timing starts.  Then, for
--seconds (at least MIN_COMMANDS commands), one CLI command at a time
runs in a fresh interpreter (`child.py`) with BLAS/OpenMP pinned to one
thread, and every command's outputs are checked.  A command fails if it
exits non-zero, fails its check, or writes JSON/CSV that differs from the
previous command of the run (same inputs and seed).  Each command gets
its own PYTHONHASHSEED, so output that depends on str hash order fails.

--trace 0 reports the end-to-end metrics as medians over the commands.
--trace 1 alternates untraced and traced commands and reports the
per-layer metrics (medians over the traced commands) from spans recorded
by `spans.py`; trace.overhead_s is the traced minus the untraced median
run time.  A per-layer metric whose function the program no longer has
is left out of the result and named on stderr.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Workload manifest: `workloads.py`; output checks: `checks.py`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_COMMANDS = 3
START_LIMIT_S = 100.0  # start no command after this, so a run ends within 180 s
COMMAND_TIMEOUT_S = 50.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "throughput": "1/s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
    "success_rate": "ratio",
}


def _fn(name: str, key: str):
    return lambda t, rec, cmd: t["functions"][name][key] if name in t["functions"] else None


def _layer(layer: str):
    return lambda t, rec, cmd: t["layers"].get(layer)


def _calls_per_subset(t, rec, cmd):
    calls = _fn("aggregate.aggregate", "calls")(t, rec, cmd)
    if calls is None:
        return None
    return calls / cmd.subsets if cmd.subsets else 0.0


def _subsets_evaluated(t, rec, cmd):
    if "rankstats.unique_topk_audit" not in t["functions"]:
        return None
    return sum(e for _, e, _ in t["audits"] if isinstance(e, int))


# Per-layer metrics: name -> (unit, value from one traced command's summary).
PER_LAYER = {
    "scorebank.orient.calls": ("count", _fn("scorebank.orient", "calls")),
    "scorebank.orient.s": ("s", _fn("scorebank.orient", "s")),
    "scorebank.to_array.calls": ("count", _fn("scorebank.ScoreMatrix.to_array", "calls")),
    "scorebank.to_array.s": ("s", _fn("scorebank.ScoreMatrix.to_array", "s")),
    "scorebank.load_matrix.s": ("s", _fn("scorebank.load_matrix", "s")),
    "scorebank.self_s": ("s", _layer("scorebank")),
    "aggregate.calls": ("count", _fn("aggregate.aggregate", "calls")),
    "aggregate.calls_per_subset": ("ratio", _calls_per_subset),
    "aggregate.self_s": ("s", _layer("aggregate")),
    "ranking.fractional_ranks.calls": ("count", _fn("ranking.fractional_ranks", "calls")),
    "ranking.fractional_ranks.s": ("s", _fn("ranking.fractional_ranks", "s")),
    "ranking.rank_models.self_s": ("s", _fn("ranking.rank_models", "self_s")),
    "ranking.top_k.calls": ("count", _fn("ranking.top_k", "calls")),
    "ranking.top_k.s": ("s", _fn("ranking.top_k", "s")),
    "ranking.self_s": ("s", _layer("ranking")),
    "rankstats.unique_topk_audit.calls": ("count", _fn("rankstats.unique_topk_audit", "calls")),
    "rankstats.unique_topk_audit.self_s": ("s", _fn("rankstats.unique_topk_audit", "self_s")),
    "rankstats.subsets_evaluated": ("count", _subsets_evaluated),
    "rankstats.sample.s": ("s", _fn("rankstats._sampled_subsets", "s")),
    "rankstats.audit_to_dict.s": ("s", _fn("rankstats.audit_to_dict", "s")),
    "rankstats.self_s": ("s", _layer("rankstats")),
    "report.render_text.s": ("s", _fn("report.render_text", "s")),
    "report.render_json.s": ("s", _fn("report.render_json", "s")),
    "report.report_to_dict.s": ("s", _fn("report.report_to_dict", "s")),
    "report.self_s": ("s", _layer("report")),
    "reuse.query.calls": ("count", _fn("reuse.query", "calls")),
    "reuse.query.s": ("s", _fn("reuse.query", "s")),
    "reuse.query.us_p50": ("us", _fn("reuse.query", "us_p50")),
    "reuse.query.us_p99": ("us", _fn("reuse.query", "us_p99")),
    "reuse.boosting_attack.self_s": ("s", _fn("reuse.boosting_attack", "self_s")),
    "reuse.new_holdout.s": ("s", _fn("reuse.new_holdout", "s")),
    "reuse.self_s": ("s", _layer("reuse")),
    "significance.permutation_test.calls":
        ("count", _fn("significance.permutation_test", "calls")),
    "significance.permutation_test.s": ("s", _fn("significance.permutation_test", "s")),
    "significance.exact_reassignments":
        ("count", lambda t, rec, cmd: rec["exact_reassignments"]),
    "significance.wilcoxon_signed_rank.s": ("s", _fn("significance.wilcoxon_signed_rank", "s")),
    "significance.prob_a_le_b.s": ("s", _fn("significance.prob_a_le_b", "s")),
    "significance.self_s": ("s", _layer("significance")),
    "cli.self_s": ("s", lambda t, rec, cmd: t["run_s"] - t["root_s"]),
    "cli.bytes_written": ("bytes", lambda t, rec, cmd: rec["bytes"]),
    "cli.cpu_s": ("s", lambda t, rec, cmd: rec["cpu_s"]),
    "trace.run_s": ("s", lambda t, rec, cmd: t["run_s"]),
    "trace.spans": ("count", lambda t, rec, cmd: t["spans"]),
}
TRACE_OVERHEAD = "trace.overhead_s"


def child_env(hash_seed: int) -> dict[str, str]:
    """Environment of one child; a different hash seed per command lets the
    repeat check catch output that depends on str hash order."""
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _deterministic_outputs(cmd: workloads.Command, stdout: Path) -> dict[str, str]:
    """sha256 of every JSON/CSV output; text outputs carry a timestamp."""
    out = {}
    if cmd.out_dir is not None and cmd.out_dir.is_dir():
        for f in sorted(cmd.out_dir.iterdir()):
            if f.suffix in (".json", ".csv"):
                out[f.name] = _digest(f)
    fmt = cmd.argv[cmd.argv.index("--format") + 1] if "--format" in cmd.argv else "text"
    if fmt in ("json", "csv"):
        out["stdout"] = _digest(stdout)
    return out


def _corrupt(name: str, cmd: workloads.Command, stdout: Path) -> None:
    """Drop the last line of the output the workload's check reads.

    The same lines are dropped in every command, so the repeat check still
    passes and only the output check can flag the command."""
    checked = checks.CHECKED_FILE[name]
    path = stdout if checked is None else cmd.out_dir / checked
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def run_command(name: str, cmd: workloads.Command, wl_dir: Path, index: int,
                traced: bool, corrupt: bool) -> dict:
    """Run one command in a fresh interpreter; measure, then check its outputs."""
    if cmd.out_dir is not None:
        shutil.rmtree(cmd.out_dir, ignore_errors=True)
    result_path, stdout_path = wl_dir / "child.json", wl_dir / "stdout"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(result_path), str(SRC)]
    if traced:
        argv += ["--trace", str(wl_dir / "spans.csv"), f"{wl_dir.name}-{index}"]
    argv += ["--", *cmd.argv]
    rec: dict = {"traced": traced, "problems": []}
    try:
        with open(stdout_path, "wb") as out:
            proc = subprocess.run(argv, stdout=out, stderr=subprocess.PIPE,
                                  env=child_env(hash_seed=index + 1),
                                  cwd=ROOT, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        rec["problems"].append(f"command exceeded {COMMAND_TIMEOUT_S} s")
        return rec
    if proc.returncode != 0 or not result_path.is_file():
        rec["problems"].append(f"exit code {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-2000:]}")
        return rec
    rec.update(json.loads(result_path.read_text()))
    if corrupt:
        _corrupt(name, cmd, stdout_path)
    stdout = stdout_path.read_bytes()
    rec["bytes"] = len(stdout) + (
        sum(f.stat().st_size for f in cmd.out_dir.iterdir()) if cmd.out_dir else 0)
    rec["digests"] = _deterministic_outputs(cmd, stdout_path)
    try:
        rec["problems"] += checks.CHECKS[name](cmd, stdout)
    except Exception as exc:  # an unreadable output is a failed check, not a crash
        rec["problems"].append(f"output check raised {type(exc).__name__}: {exc}")
    if traced:
        rec["problems"] += checks.check_traced_audits(cmd, rec["trace"]["audits"])
        rec["exact_reassignments"] = workloads.exact_reassignments(cmd)
    return rec


def end_to_end(records: list[dict], cmd: workloads.Command) -> dict:
    measured = [r for r in records if "run_s" in r and not r["traced"]]
    ok = sum(1 for r in records if not r["problems"])
    values = {
        "setup_s": statistics.median([r["setup_s"] for r in measured]),
        "run_s": statistics.median([r["run_s"] for r in measured]),
        "throughput": statistics.median([cmd.work / r["run_s"] for r in measured]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in measured]),
        "output_mb": statistics.median([r["bytes"] / 1e6 for r in measured]),
        "success_rate": ok / len(records),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(records: list[dict], cmd: workloads.Command) -> tuple[dict, list[str]]:
    traced = [r for r in records if "trace" in r]
    metrics, absent = {}, []
    for metric, (unit, value) in PER_LAYER.items():
        vals = [value(r["trace"], r, cmd) for r in traced]
        if any(v is None for v in vals):
            absent.append(metric)
            continue
        metrics[metric] = {"value": statistics.median(vals), "unit": unit}
    untraced = [r["run_s"] for r in records if "run_s" in r and not r["traced"]]
    traced_run_s = statistics.median([r["trace"]["run_s"] for r in traced])
    overhead = traced_run_s - statistics.median(untraced)
    metrics[TRACE_OVERHEAD] = {"value": overhead, "unit": "s"}
    return metrics, absent


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, corrupt: bool = False) -> dict:
    """One benchmark run; returns the result object printed by main()."""
    wl_dir = WORK / name
    shutil.rmtree(wl_dir, ignore_errors=True)
    wl_dir.mkdir(parents=True)
    cmd = workloads.build(name, seed, wl_dir, wl_dir / "out", smoke=smoke)

    # Untimed warm-up: the first import compiles and caches the bytecode.
    subprocess.run([sys.executable, "-c", "import rankaudit.cli"], env=child_env(hash_seed=0),
                   cwd=ROOT, check=True, timeout=COMMAND_TIMEOUT_S)

    records: list[dict] = []
    previous: dict | None = None
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if (len(records) >= MIN_COMMANDS and elapsed >= seconds) or elapsed >= START_LIMIT_S:
            break
        index = len(records)
        rec = run_command(name, cmd, wl_dir, index, traced=trace and index % 2 == 1,
                          corrupt=corrupt)
        if "digests" in rec:
            if previous is not None and rec["digests"] != previous:
                rec["problems"].append("JSON/CSV output differs from the previous command")
            previous = rec["digests"]
        records.append(rec)

    failed = [r for r in records if r["problems"]]
    for r in failed:
        print(f"perfbench: {name}: " + "; ".join(r["problems"]), file=sys.stderr)
    if not any("run_s" in r and not r["traced"] for r in records) or (
            trace and not any("trace" in r for r in records)):
        raise RuntimeError(f"{name}: no command completed")
    if trace:
        metrics, absent = per_layer(records, cmd)
        if absent:
            print(f"perfbench: absent per-layer metrics: {', '.join(absent)}", file=sys.stderr)
    else:
        metrics = end_to_end(records, cmd)
    return {"correct": not failed, "attempted": len(records), "failed": len(failed),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rankaudit" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'rankaudit'}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
