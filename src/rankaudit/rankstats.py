"""Subset-disagreement audits over a score matrix.

The central question: how much does the identity of the top models depend
on which tasks a benchmark happens to include?  `unique_topk_audit`
counts distinct Top-k outcomes across all task subsets of a given size,
`subset_tau_profile` correlates subset rankings against the full-benchmark
ranking, and `aggregator_agreement` correlates the rankings produced by
different aggregation schemes on the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import comb
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

import numpy as np

from .aggregate import BATCHED, AggregationSpec, aggregate
from .errors import ConfigError, UndefinedCorrelationError
from .ranking import (
    Ranking,
    TopK,
    enumerate_subsets,
    fractional_ranks,
    kendall_tau_b,
    rank_models,
    top_k,
    top_k_of_groups,
)
from .scorebank import HIGHER, ScoreMatrix, orient, oriented_array
from .util import derive_seed

__all__ = [
    "Ranking",
    "TopK",
    "SubsetAuditResult",
    "rank_models",
    "top_k",
    "kendall_tau_b",
    "fractional_ranks",
    "enumerate_subsets",
    "unique_topk_audit",
    "subset_tau_profile",
    "topk_table",
    "aggregator_agreement",
    "audit_to_dict",
]

DEFAULT_SAMPLING_BUDGET = 10**6
_CHUNK = 256  # subsets scored per numpy pass; bounds the kernels' working memory


@dataclass(frozen=True)
class SubsetAuditResult:
    """Disagreement statistics for one (subset size, k) pair.

    unique_count is the number of distinct Top-k tuples over the evaluated
    subsets and total_combinations is C(T, size).  When the combination
    count exceeds the sampling budget the audit evaluates a seeded uniform
    sample instead and reports exact=False, never silently.
    """

    subset_size: int
    k: int
    unique_count: int
    total_combinations: int
    per_subset_topk: Mapping[tuple[str, ...], TopK]
    exact: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.unique_count <= self.total_combinations:
            raise ConfigError(
                f"unique_count {self.unique_count} outside [1, {self.total_combinations}]"
            )
        object.__setattr__(self, "per_subset_topk", dict(self.per_subset_topk))

    @property
    def evaluated(self) -> int:
        return len(self.per_subset_topk)


def _sampled_subsets(
    tasks: Sequence[str], size: int, budget: int, seed: int
) -> list[tuple[str, ...]]:
    """Uniform sample of `budget` distinct subsets, deterministic in seed."""
    rng = np.random.default_rng(derive_seed(seed, "subset-sample", size))
    n = len(tasks)
    seen: set[tuple[int, ...]] = set()
    while len(seen) < budget:
        pick = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        seen.add(pick)
    return [tuple(tasks[i] for i in pick) for pick in sorted(seen)]


def _oriented(m: ScoreMatrix) -> ScoreMatrix:
    """m with every task higher-is-better, so `aggregate` never re-orients it."""
    if any(spec.direction != HIGHER for spec in m.metrics.values()):
        return orient(m)
    return m


def _subset_topks(
    m: ScoreMatrix, spec: AggregationSpec, subsets: Sequence[tuple[str, ...]], k: int
) -> Iterator[TopK]:
    """Top-k of every subset in order, batched where `spec` has a kernel.

    The matrix is oriented once and each chunk of subsets is scored in one
    kernel call.  A subset is settled by the scalar `aggregate` instead
    when it touches a missing cell, where that call raises the scalar
    path's MissingScoreError, or when a float kernel cannot certify the
    order of its top min(k + 1, n) keys.  Certified keys are then strictly
    ordered, so ranking them by plain equality gives the scalar path's
    Top-k.
    """
    m = _oriented(m)
    factory = BATCHED.get(spec.method)
    if factory is None:
        for subset in subsets:
            yield top_k(aggregate(m, subset, spec), k)
        return
    x, missing = oriented_array(m)
    subset_keys = factory(x, m, spec)
    col_missing = missing.any(axis=0)
    pos = {t: j for j, t in enumerate(m.task_ids)}
    n_cert = min(k + 1, m.n_models)
    for start in range(0, len(subsets), _CHUNK):
        chunk = subsets[start:start + _CHUNK]
        idx = np.array([[pos[t] for t in s] for s in chunk], dtype=np.intp)
        # A sum that overflows leaves an infinite tol or a NaN gap, which
        # certifies nothing; the scalar path then raises its DomainError.
        with np.errstate(over="ignore", invalid="ignore"):
            keys, tol = subset_keys(idx)
            order = np.argsort(-keys, axis=1, kind="stable")
            ranked = np.take_along_axis(keys, order, axis=1)
            scalar = col_missing[idx].any(axis=1)
            if tol is not None:
                gaps = ranked[:, : n_cert - 1] - ranked[:, 1:n_cert]
                scalar |= ~(gaps > tol[:, None]).all(axis=1)
        for row, subset in enumerate(chunk):
            if scalar[row]:
                yield top_k(aggregate(m, subset, spec), k)
            else:
                groups = _tie_groups(m.model_ids, order[row].tolist(), ranked[row].tolist())
                yield top_k_of_groups(groups, k)


def _tie_groups(
    model_ids: Sequence[str], order: list[int], keys: list[float]
) -> Iterator[frozenset[str]]:
    """Groups of equal keys, best first, from models sorted by key."""
    for _, run in groupby(zip(keys, order), key=itemgetter(0)):
        yield frozenset(model_ids[i] for _, i in run)


def unique_topk_audit(
    m: ScoreMatrix,
    spec: AggregationSpec,
    size: int,
    k: int,
    sampling_budget: int = DEFAULT_SAMPLING_BUDGET,
    seed: int = 0,
) -> SubsetAuditResult:
    """Count distinct Top-k outcomes across task subsets of one size.

    Every subset is aggregated under `spec`, its Top-k extracted as an
    ordered tuple (tied positions compared as sets), and distinct tuples
    counted.  Subsets are scored in batches where the scheme has a kernel
    in `aggregate.BATCHED`, with the same result as `aggregate` per
    subset.  Enumeration is exhaustive unless C(T, size) exceeds
    `sampling_budget`, in which case a seeded uniform sample without
    replacement is used and the result is flagged as sampled.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if sampling_budget < 1:
        raise ConfigError(f"sampling budget must be >= 1, got {sampling_budget}")
    total = comb(m.n_tasks, size) if 1 <= size <= m.n_tasks else 0
    if total == 0:
        raise ConfigError(f"subset size must be in [1, {m.n_tasks}], got {size}")
    if total <= sampling_budget:
        subsets = list(enumerate_subsets(m.task_ids, size))
        exact = True
    else:
        subsets = _sampled_subsets(m.task_ids, size, sampling_budget, seed)
        exact = False
    per_subset: dict[tuple[str, ...], TopK] = {}
    distinct: set[tuple] = set()
    for subset, tk in zip(subsets, _subset_topks(m, spec, subsets, k)):
        per_subset[subset] = tk
        distinct.add(tk.sequence)
    return SubsetAuditResult(
        subset_size=size,
        k=k,
        unique_count=len(distinct),
        total_combinations=total,
        per_subset_topk=per_subset,
        exact=exact,
    )


def subset_tau_profile(
    m: ScoreMatrix,
    spec: AggregationSpec,
    subsets: Sequence[Sequence[str]],
) -> dict[tuple[str, ...], float | None]:
    """Kendall tau-b of each subset's ranking against the all-task ranking.

    A subset whose correlation is undefined (an entirely tied ranking)
    maps to None rather than aborting the profile.
    """
    m = _oriented(m)
    full = aggregate(m, None, spec)
    out: dict[tuple[str, ...], float | None] = {}
    for subset in subsets:
        key = tuple(subset)
        try:
            out[key] = kendall_tau_b(full, aggregate(m, key, spec))
        except UndefinedCorrelationError:
            out[key] = None
    return out


def topk_table(
    m: ScoreMatrix,
    spec: AggregationSpec,
    subsets: Sequence[Sequence[str]],
    k: int,
) -> list[tuple[tuple[str, ...], TopK]]:
    """Top-k per requested subset, in the order the subsets were given."""
    m = _oriented(m)
    return [
        (tuple(subset), top_k(aggregate(m, tuple(subset), spec), k))
        for subset in subsets
    ]


def aggregator_agreement(
    m: ScoreMatrix,
    specs: Sequence[AggregationSpec],
    subset: Sequence[str] | None = None,
) -> list[list[float]]:
    """Symmetric tau-b matrix across the rankings of several schemes."""
    if len(specs) < 2:
        raise ConfigError("aggregator agreement needs at least two specs")
    m = _oriented(m)
    rankings = [aggregate(m, subset, spec) for spec in specs]
    n = len(rankings)
    out = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            tau = kendall_tau_b(rankings[i], rankings[j])
            out[i][j] = tau
            out[j][i] = tau
    return out


def audit_to_dict(result: SubsetAuditResult) -> dict:
    """JSON-ready form: {"size", "k", "unique", "total", "exact", "subsets"}."""
    subsets = []
    for key in sorted(result.per_subset_topk):
        tk = result.per_subset_topk[key]
        subsets.append(
            {
                "tasks": list(key),
                "topk": [sorted(group) for group in tk.sequence],
                "boundary_tied": tk.boundary_tied,
            }
        )
    return {
        "size": result.subset_size,
        "k": result.k,
        "unique": result.unique_count,
        "total": result.total_combinations,
        "exact": result.exact,
        "subsets": subsets,
    }
