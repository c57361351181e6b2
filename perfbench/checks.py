"""Output checks: independent references and invariants per workload.

Each check takes the generated `Command` plus the command's stdout bytes
and returns a list of problems (empty when the output is correct).  The
audits are checked only through the `size,k,unique,total` curve
(`audit_curve.csv` or CSV stdout), never through the per-subset listing,
whose place in the output is expected to change.
"""

from __future__ import annotations

import csv
import io
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from workloads import LOWER_TASKS, Command

ALPHA = 0.05  # `compare` default significance level


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    return rows[0][1:], np.array([[float(x) for x in r[1:]] for r in rows[1:]])


def _topk_counts(values: np.ndarray, ks: list[int], best_high: bool) -> dict[int, int]:
    """Distinct tie-grouped Top-k sequences over the rows of `values`.

    Each row holds one subset's per-model aggregate.  Exactly equal values
    form one tied position; a tie straddling the k-th place is kept whole.
    """
    seen: dict[int, set] = {k: set() for k in ks}
    k_max = max(ks)
    for row in values:
        order = np.argsort(-row if best_high else row, kind="stable")
        groups: list[frozenset[int]] = []
        placed = pos = 0
        while placed < k_max:
            end = pos
            while end + 1 < len(order) and row[order[end + 1]] == row[order[pos]]:
                end += 1
            groups.append(frozenset(order[pos:end + 1].tolist()))
            placed += end + 1 - pos
            pos = end + 1
        for k in ks:
            prefix, n = [], 0
            for g in groups:
                if n >= k:
                    break
                prefix.append(g)
                n += len(g)
            seen[k].add(tuple(prefix))
    return {k: len(s) for k, s in seen.items()}


def _curve(text: str) -> list[tuple[int, int, int, int]]:
    return [(int(r["size"]), int(r["k"]), int(r["unique"]), int(r["total"]))
            for r in _rows(text)]


def check_audit_exhaustive(cmd: Command, stdout: bytes) -> list[str]:
    tasks, scores = _read_matrix(cmd.inputs["matrix"])
    for t in LOWER_TASKS:
        scores[:, tasks.index(t)] *= -1.0
    size, ks = cmd.params["size"], [int(k) for k in cmd.params["ks"].split(",")]
    subsets = np.array(list(combinations(range(len(tasks)), size)))
    means = scores[:, subsets].mean(axis=2).T  # subsets x models
    counts = _topk_counts(means, ks, best_high=True)
    expected = [(size, k, counts[k], len(subsets)) for k in ks]
    got = _curve((cmd.out_dir / "audit_curve.csv").read_text())
    return [] if got == expected else [f"audit curve {got} != reference {expected}"]


def check_audit_sampled_ties(cmd: Command, stdout: bytes) -> list[str]:
    p = cmd.params
    tasks, scores = _read_matrix(cmd.inputs["matrix"])
    n_tasks = len(tasks)
    sizes = [int(s) for s in p["sizes"].split(",")]
    ks = [int(k) for k in p["ks"].split(",")]
    got = _curve(stdout.decode())
    problems = []
    if [(s, k) for s, k, _, _ in got] != [(s, k) for s in sizes for k in ks]:
        return [f"audit curve rows {got} do not cover sizes {sizes} x ks {ks}"]
    ranks = rankdata(-scores, axis=0, method="average")  # rank 1 = best, per task
    for size in sizes:
        rows = [r for r in got if r[0] == size]
        total = comb(n_tasks, size)
        if total <= p["budget"]:
            subsets = np.array(list(combinations(range(n_tasks), size)))
            counts = _topk_counts(ranks[:, subsets].sum(axis=2).T, ks, best_high=False)
            expected = [(size, k, counts[k], total) for k in ks]
            if rows != expected:
                problems.append(f"exhaustive rows {rows} != reference {expected}")
            continue
        uniques = [u for _, _, u, _ in rows]
        if any(t != total for _, _, _, t in rows):
            problems.append(f"size {size}: total != C({n_tasks}, {size}) in {rows}")
        if not all(1 <= u <= p["budget"] for u in uniques):
            problems.append(f"size {size}: unique outside [1, budget] in {rows}")
        if uniques != sorted(uniques):
            problems.append(f"size {size}: unique decreases in k in {rows}")
    return problems


def check_holdout_reuse(cmd: Command, stdout: bytes) -> list[str]:
    p = cmd.params
    rows = _rows((cmd.out_dir / "reuse_trials.csv").read_text())
    if len(rows) != 2 * p["trials"]:
        return [f"{len(rows)} trial rows, expected {2 * p['trials']}"]
    gaps: dict[str, list[float]] = {"naive": [], "ladder": []}
    for r in rows:
        reported, true = float(r["reported"]), float(r["true"])
        if not (0 <= reported <= 1 and 0 <= true <= 1):
            return [f"accuracy outside [0, 1] in {r}"]
        gaps[r["mechanism"]].append(reported - true)
    naive, ladder = (float(np.mean(gaps[m])) for m in ("naive", "ladder"))
    if not ladder <= 0.5 * naive:
        return [f"ladder gap {ladder} exceeds half the naive gap {naive}"]
    return []


def _holm(p_values: list[float]) -> list[bool]:
    m = len(p_values)
    rejected = [False] * m
    for step, idx in enumerate(sorted(range(m), key=lambda i: p_values[i])):
        if p_values[idx] > ALPHA / (m - step):
            break
        rejected[idx] = True
    return rejected


def check_compare_replicates(cmd: Command, stdout: bytes) -> list[str]:
    rows = _rows((cmd.out_dir / "compare.csv").read_text())
    if len(rows) != cmd.params["datasets"]:
        return [f"{len(rows)} dataset rows, expected {cmd.params['datasets']}"]
    p_values = [float(r["p_value"]) for r in rows]
    if not all(0 < p <= 1 for p in p_values):
        return [f"p-value outside (0, 1]: {p_values}"]
    rejected = [r["rejected"] == "True" for r in rows]
    if rejected != _holm(p_values):
        return [f"Holm decisions {rejected} inconsistent with p-values {p_values}"]
    return []


def check_traced_audits(cmd: Command, audits: list) -> list[str]:
    """Sampled vs exhaustive evaluation, as the traced audit results report it.

    `audits` holds [size, evaluated, exact] per audit result; a field the
    program no longer provides is None and is not checked.
    """
    if not cmd.subsets or "budget" not in cmd.params:
        return []
    n_tasks, budget = cmd.params["tasks"], cmd.params["budget"]
    problems = []
    for size, evaluated, exact in audits:
        if not isinstance(size, int):
            continue
        total = comb(n_tasks, size)
        if evaluated is not None and evaluated != min(total, budget):
            problems.append(f"size {size}: evaluated {evaluated}, expected {min(total, budget)}")
        if exact is not None and exact != (total <= budget):
            problems.append(f"size {size}: exact={exact} with C={total}, budget={budget}")
    return problems


CHECKS = {
    "audit-exhaustive": check_audit_exhaustive,
    "audit-sampled-ties": check_audit_sampled_ties,
    "holdout-reuse": check_holdout_reuse,
    "compare-replicates": check_compare_replicates,
}

# The file each workload's check reads; the self-test corrupts it.
CHECKED_FILE = {
    "audit-exhaustive": "audit_curve.csv",
    "audit-sampled-ties": None,  # stdout
    "holdout-reuse": "reuse_trials.csv",
    "compare-replicates": "compare.csv",
}
