"""Workload manifest and seeded input generation.

Each workload is one `rankaudit` CLI command, run as a closed loop with
one client: the next command starts only after the previous one exits.
Every input file is generated from the workload seed before timing
starts; the program sees only those files and `--seed`.

`SMOKE` holds reduced sizes for the harness self-test; the measured
sizes are in `FULL`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

TRAFFIC = "closed loop, 1 client: one CLI command at a time, each in a fresh interpreter"

# Lower-is-better tasks of the audit-exhaustive matrix; every subset that
# touches one makes `aggregate` orient (and re-validate) the matrix.
LOWER_TASKS = ("t3", "t7", "t11")

FULL = {
    "audit-exhaustive": {"models": 50, "tasks": 14, "size": 4, "ks": "1,3,5,10"},
    "audit-sampled-ties": {"models": 100, "tasks": 20, "sizes": "2,4,10",
                           "budget": 500, "ks": "1,3"},
    "holdout-reuse": {"n": 1000, "i": 3000, "trials": 20},
    "compare-replicates": {"datasets": 16, "reps": (9, 12)},
}
SMOKE = {
    "audit-exhaustive": {"models": 12, "tasks": 14, "size": 2, "ks": "1,3,5,10"},
    "audit-sampled-ties": {"models": 20, "tasks": 20, "sizes": "2,4,10",
                           "budget": 40, "ks": "1,3"},
    "holdout-reuse": {"n": 400, "i": 300, "trials": 2},
    "compare-replicates": {"datasets": 4, "reps": (5, 12)},
}


@dataclass(frozen=True)
class Command:
    """One generated workload instance: CLI arguments plus what to check."""

    argv: list[str]
    out_dir: Path | None  # the command's --out directory, if it writes one
    work: int  # units of work one command completes (throughput numerator)
    params: dict
    inputs: dict[str, Path]
    subsets: int = 0  # distinct task subsets an audit evaluates, summed over sizes


def _write_matrix(path: Path, scores: np.ndarray) -> None:
    """CSV with models m0.. and tasks t0..; floats are written round-trip exact."""
    lines = ["model," + ",".join(f"t{j}" for j in range(scores.shape[1]))]
    for i, row in enumerate(scores.tolist()):
        lines.append(f"m{i}," + ",".join(str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _audit_exhaustive(p: dict, seed: int, work_dir: Path, out: Path) -> Command:
    scores = np.random.default_rng(seed).random((p["models"], p["tasks"]))
    matrix, metrics = work_dir / "matrix.csv", work_dir / "metrics.json"
    _write_matrix(matrix, scores)
    metrics.write_text(json.dumps(
        {"tasks": {t: {"direction": "lower"} for t in LOWER_TASKS}}, indent=2) + "\n")
    argv = ["audit", "--matrix", str(matrix), "--metrics", str(metrics),
            "--method", "arithmetic_mean", "--sizes", str(p["size"]),
            "--ks", p["ks"], "--out", str(out)]
    subsets = comb(p["tasks"], p["size"])
    return Command(argv, out, subsets, p, {"matrix": matrix, "metrics": metrics}, subsets)


def _audit_sampled_ties(p: dict, seed: int, work_dir: Path, out: Path) -> Command:
    scores = np.random.default_rng(seed).integers(0, 101, size=(p["models"], p["tasks"]))
    matrix = work_dir / "matrix.csv"
    _write_matrix(matrix, scores)
    sizes = [int(s) for s in p["sizes"].split(",")]
    work = sum(min(comb(p["tasks"], s), p["budget"]) for s in sizes)
    argv = ["audit", "--matrix", str(matrix), "--method", "average_rank",
            "--sizes", p["sizes"], "--budget", str(p["budget"]), "--ks", p["ks"],
            "--format", "csv", "--seed", str(seed)]
    return Command(argv, None, work, p, {"matrix": matrix}, work)


def _holdout_reuse(p: dict, seed: int, work_dir: Path, out: Path) -> Command:
    argv = ["simulate-reuse", "--n", str(p["n"]), "--i-schedule", str(p["i"]),
            "--mechanism", "both", "--trials", str(p["trials"]),
            "--seed", str(seed), "--out", str(out)]
    return Command(argv, out, 2 * p["trials"] * p["i"], p, {})


def _compare_replicates(p: dict, seed: int, work_dir: Path, out: Path) -> Command:
    rng = np.random.default_rng(seed)
    datasets = {}
    for d in range(p["datasets"]):
        reps = p["reps"][d % 2]
        shift = float(rng.choice([0.0, 0.01, 0.03]))
        a = rng.normal(0.70, 0.02, reps)
        b = rng.normal(0.70 + shift, 0.02, reps)
        datasets[f"d{d}"] = {"A": [round(float(x), 3) for x in a],
                             "B": [round(float(x), 3) for x in b]}
    replicates = work_dir / "replicates.json"
    replicates.write_text(json.dumps({"datasets": datasets}, indent=2) + "\n")
    argv = ["compare", "--replicates", str(replicates), "--seed", str(seed),
            "--out", str(out)]
    return Command(argv, out, p["datasets"], p, {"replicates": replicates})


@dataclass(frozen=True)
class Workload:
    """Manifest entry; the one-line reason for each workload is in BENCHMARK.json."""

    name: str
    throughput_unit: str
    shape: str
    build: Callable[[dict, int, Path, Path], Command]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "audit-exhaustive",
            "task subsets evaluated per second (distinct subsets, summed over sizes)",
            "50x14 default_rng(seed).random matrix, t3/t7/t11 lower-is-better; "
            "arithmetic_mean, size 4 (1,001 subsets, exhaustive), ks 1,3,5,10, --out DIR",
            _audit_exhaustive,
        ),
        Workload(
            "audit-sampled-ties",
            "task subsets evaluated per second (distinct subsets, summed over sizes)",
            "100x20 integer scores 0..100; average_rank, sizes 2,4,10, budget 500 "
            "(size 2 exhaustive, 4 and 10 sampled), ks 1,3, CSV to stdout only",
            _audit_sampled_ties,
        ),
        Workload(
            "holdout-reuse",
            "holdout queries answered per second (trials x mechanisms x i)",
            "simulate-reuse --n 1000 --i-schedule 3000 --mechanism both --trials 20",
            _holdout_reuse,
        ),
        Workload(
            "compare-replicates",
            "datasets tested per second",
            "16 datasets alternating 9 and 12 replicates per side, scores rounded to "
            "3 decimals; compare --replicates FILE --out DIR",
            _compare_replicates,
        ),
    )
}


def build(name: str, seed: int, work_dir: Path, out: Path, smoke: bool = False) -> Command:
    """Generate the inputs of workload `name` for `seed` under `work_dir`."""
    params = (SMOKE if smoke else FULL)[name]
    return WORKLOADS[name].build(dict(params), seed, work_dir, out)


def exact_reassignments(cmd: Command) -> int | None:
    """Sum of C(na+nb, na) over the datasets the program tested exactly.

    Which datasets took the exact path is read from the `exact` column of
    the program's compare.csv; None if that column is gone.
    """
    if "replicates" not in cmd.inputs:
        return 0
    datasets = json.loads(cmd.inputs["replicates"].read_text())["datasets"]
    with open(cmd.out_dir / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if rows and "exact" not in rows[0]:
        return None
    total = 0
    for r in rows:
        if r["exact"] == "True":
            na, nb = len(datasets[r["dataset"]]["A"]), len(datasets[r["dataset"]]["B"])
            total += comb(na + nb, na)
    return total
