"""Aggregation schemes that turn a score matrix into per-model scores or rankings.

Seven schemes are provided: arithmetic mean, geometric mean, median,
macro-average over task groups, average rank, robust average rank (scores
binned into fixed-width buckets before ranking), and elimination ranking
(an exhaustive-ballot vote where tasks repeatedly vote for their top
remaining model and the fewest-votes models are knocked out).

The value-based schemes expect an oriented (higher-is-better) matrix; the
`aggregate` dispatcher orients automatically and returns a Ranking.  Float
sums use `math.fsum`, which is correctly rounded and therefore independent
of task order, so an exact tie never depends on how tasks were listed.

`BATCHED` maps the schemes that have one to a batched subset kernel: it
scores many task subsets of one matrix in a few numpy operations, for the
subset audits.  `aggregate` is the scalar reference those kernels are
tested against and fall back to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .ranking import Ranking, fractional_ranks, rank_models
from .scorebank import HIGHER, ScoreMatrix, orient
from .util import checked_fsum

@dataclass(frozen=True)
class AggregationSpec:
    """Which aggregation scheme to run, plus its parameters.

    bin_width is used only by robust_average_rank, group_map only by
    macro_average, and weights only by the mean-based schemes (rank-based
    schemes deliberately ignore weights).
    """

    method: str = "arithmetic_mean"
    bin_width: float = 1.0
    group_map: Mapping[str, str] | None = None
    weights: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"unknown aggregation method {self.method!r}")
        if not (self.bin_width > 0):
            raise ConfigError(f"bin_width must be positive, got {self.bin_width}")
        if self.weights is not None:
            for tid, w in self.weights.items():
                if not (w > 0):
                    raise ConfigError(f"weight for task {tid!r} must be positive, got {w}")


@dataclass(frozen=True)
class AggregateResult:
    """Per-model aggregate values; higher_is_better is False for rank-valued ones."""

    per_model: Mapping[str, float]
    higher_is_better: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_model", dict(self.per_model))


def _check_subset(m: ScoreMatrix, subset: Sequence[str] | None) -> tuple[str, ...]:
    tasks = tuple(m.task_ids if subset is None else subset)
    if not tasks:
        raise ConfigError("task subset is empty")
    if len(set(tasks)) != len(tasks):
        raise ConfigError("task subset contains duplicates")
    for t in tasks:
        m.task_index(t)
    return tasks


def _oriented_tasks(m: ScoreMatrix, subset: Sequence[str] | None) -> tuple[str, ...]:
    """The prologue of every scheme: the checked subset, all higher-is-better."""
    tasks = _check_subset(m, subset)
    for t in tasks:
        if m.metrics[t].direction != HIGHER:
            raise ConfigError(
                f"task {t!r} is lower-is-better; orient() the matrix before aggregating"
            )
    return tasks


def _resolve_weights(
    m: ScoreMatrix, tasks: Sequence[str], weights: Mapping[str, float] | None
) -> list[float]:
    out = []
    for t in tasks:
        if weights is not None and t in weights:
            w = float(weights[t])
        else:
            w = m.metrics[t].weight
        if not (w > 0):
            raise ConfigError(f"weight for task {t!r} must be positive, got {w}")
        out.append(w)
    return out


def arithmetic_mean(
    m: ScoreMatrix,
    subset: Sequence[str] | None = None,
    weights: Mapping[str, float] | None = None,
) -> AggregateResult:
    """Per-model weighted mean over the subset."""
    tasks = _oriented_tasks(m, subset)
    w = _resolve_weights(m, tasks, weights)
    total_w = checked_fsum(w, "task weights")
    arr = m.to_array(tasks)
    values = {
        mid: checked_fsum((wi * x for wi, x in zip(w, row.tolist())), f"model {mid!r}") / total_w
        for mid, row in zip(m.model_ids, arr)
    }
    return AggregateResult(values, higher_is_better=True)


def geometric_mean(
    m: ScoreMatrix,
    subset: Sequence[str] | None = None,
    weights: Mapping[str, float] | None = None,
) -> AggregateResult:
    """exp of the weighted mean of logs; every selected score must be > 0."""
    tasks = _oriented_tasks(m, subset)
    w = _resolve_weights(m, tasks, weights)
    total_w = checked_fsum(w, "task weights")
    arr = m.to_array(tasks)
    values = {}
    for i, mid in enumerate(m.model_ids):
        terms = []
        for j, t in enumerate(tasks):
            x = arr[i, j]
            if x <= 0:
                raise DomainError(
                    f"geometric mean undefined: model {mid!r} has score {x} on task {t!r}"
                )
            terms.append(w[j] * math.log(x))
        values[mid] = math.exp(checked_fsum(terms, f"model {mid!r}") / total_w)
    return AggregateResult(values, higher_is_better=True)


def median_score(m: ScoreMatrix, subset: Sequence[str] | None = None) -> AggregateResult:
    """Per-model median over the subset (even count: mean of the two central values)."""
    tasks = _oriented_tasks(m, subset)
    arr = m.to_array(tasks)
    values = {}
    for mid, row in zip(m.model_ids, arr):
        s = sorted(row)
        n = len(s)
        if n % 2:
            values[mid] = float(s[n // 2])
        else:
            values[mid] = float((s[n // 2 - 1] + s[n // 2]) / 2.0)
    return AggregateResult(values, higher_is_better=True)


def macro_average(
    m: ScoreMatrix,
    subset: Sequence[str] | None = None,
    group_map: Mapping[str, str] | None = None,
    weights: Mapping[str, float] | None = None,
) -> AggregateResult:
    """Unweighted mean over groups of the weighted mean within each group.

    Groups come from `group_map` where given, falling back to the task's
    metric metadata; a selected task without a group is an error.
    """
    tasks = _oriented_tasks(m, subset)
    groups: dict[str, list[str]] = {}
    for t in tasks:
        g = None
        if group_map is not None:
            g = group_map.get(t)
        if g is None:
            g = m.metrics[t].group
        if g is None:
            raise ConfigError(f"task {t!r} has no group; macro-average needs a total group map")
        groups.setdefault(g, []).append(t)
    w = dict(zip(tasks, _resolve_weights(m, tasks, weights)))
    arr = m.to_array(tasks)
    col = {t: j for j, t in enumerate(tasks)}
    values = {}
    for i, mid in enumerate(m.model_ids):
        where = f"model {mid!r}"
        group_means = [
            checked_fsum((w[t] * float(arr[i, col[t]]) for t in g), where)
            / checked_fsum((w[t] for t in g), "task weights")
            for g in groups.values()
        ]
        values[mid] = checked_fsum(group_means, where) / len(group_means)
    return AggregateResult(values, higher_is_better=True)


def average_rank(m: ScoreMatrix, subset: Sequence[str] | None = None) -> AggregateResult:
    """Rank models per task (1 = best, ties share the average rank), then mean."""
    return _mean_rank(m, m.to_array(_oriented_tasks(m, subset)))


def _mean_rank(m: ScoreMatrix, arr: np.ndarray) -> AggregateResult:
    """Per-model mean of its fractional rank (1 = best) over the columns of arr."""
    totals = [0.0] * m.n_models
    for col in arr.T.tolist():
        for i, r in enumerate(fractional_ranks(col, descending=True)):
            totals[i] += r
    values = {mid: totals[i] / arr.shape[1] for i, mid in enumerate(m.model_ids)}
    return AggregateResult(values, higher_is_better=False)


def robust_average_rank(
    m: ScoreMatrix,
    subset: Sequence[str] | None = None,
    bin_width: float = 1.0,
) -> AggregateResult:
    """Average rank after replacing each score s by floor(s / bin_width).

    Scores falling in the same bucket tie, which makes the ranking robust
    to sub-bucket score noise.  Buckets are anchored at zero.
    """
    if not (bin_width > 0):
        raise ConfigError(f"bin_width must be positive, got {bin_width}")
    tasks = _oriented_tasks(m, subset)
    return _mean_rank(m, _bins(m.to_array(tasks), bin_width, m.model_ids, tasks))


def _bins(x: np.ndarray, bin_width: float,
          models: Sequence[str], tasks: Sequence[str]) -> np.ndarray:
    """floor(x / bin_width), for x with rows `models` and columns `tasks`.

    A quotient beyond the float range is a DomainError naming the first
    such cell, task by task: in one infinite bucket, scores would tie.
    """
    with np.errstate(over="ignore"):
        q = x / bin_width
    overflow = np.argwhere(~np.isfinite(q.T))
    if len(overflow):
        j, i = overflow[0]
        raise DomainError(f"score / bin_width overflows the float range: "
                          f"model {models[i]!r}, task {tasks[j]!r}, bin_width {bin_width}")
    return np.floor(q)


def elimination_ranking(m: ScoreMatrix, subset: Sequence[str] | None = None) -> Ranking:
    """Exhaustive-ballot elimination: tasks vote, fewest votes drop out.

    Each round every task casts one vote for its top remaining model
    (task-level ties split the vote fractionally).  All models holding
    the minimal vote total are eliminated together and take the worst
    open positions; their order within that block is settled by running
    the same contest among themselves, so a one-task ballot degenerates
    to the plain score ordering.  If a round would eliminate everyone,
    the remaining models tie.  Votes are exact rationals, so outcomes do
    not depend on summation order.
    """
    tasks = _oriented_tasks(m, subset)
    arr = m.to_array(tasks)
    score = {
        mid: {t: arr[i, j] for j, t in enumerate(tasks)}
        for i, mid in enumerate(m.model_ids)
    }

    def contest(models: frozenset[str]) -> list[frozenset[str]]:
        """Tie groups best-first for a sub-field of models."""
        if len(models) == 1:
            return [models]
        votes: dict[str, Fraction] = {mid: Fraction(0) for mid in models}
        for t in tasks:
            best = max(score[mid][t] for mid in models)
            tops = [mid for mid in models if score[mid][t] == best]
            share = Fraction(1, len(tops))
            for mid in tops:
                votes[mid] += share
        v_min = min(votes.values())
        losers = frozenset(mid for mid in models if votes[mid] == v_min)
        if losers == models:
            return [models]
        return contest(models - losers) + contest(losers)

    groups = contest(frozenset(m.model_ids))
    entries: dict[str, float] = {}
    position = 1
    for group in groups:
        rank = position + (len(group) - 1) / 2.0
        for mid in group:
            entries[mid] = rank
        position += len(group)
    return Ranking(entries)


# The scalar schemes: method name -> scheme on an oriented matrix, a checked
# task tuple and the spec.  METHODS lists its keys in this order.
SCHEMES: dict[str, Callable[[ScoreMatrix, tuple[str, ...], AggregationSpec],
                            AggregateResult | Ranking]] = {
    "arithmetic_mean": lambda m, tasks, spec: arithmetic_mean(m, tasks, spec.weights),
    "geometric_mean": lambda m, tasks, spec: geometric_mean(m, tasks, spec.weights),
    "median": lambda m, tasks, spec: median_score(m, tasks),
    "macro_average": lambda m, tasks, spec: macro_average(m, tasks, spec.group_map,
                                                          spec.weights),
    "average_rank": lambda m, tasks, spec: average_rank(m, tasks),
    "robust_average_rank": lambda m, tasks, spec: robust_average_rank(m, tasks, spec.bin_width),
    "elimination_ranking": lambda m, tasks, spec: elimination_ranking(m, tasks),
}

METHODS = tuple(SCHEMES)


def aggregate(
    m: ScoreMatrix,
    subset: Sequence[str] | None = None,
    spec: AggregationSpec | None = None,
) -> Ranking:
    """Dispatch to the configured scheme and return a Ranking.

    The matrix is oriented first if any selected task is lower-is-better;
    rank-valued aggregates are converted with lower-is-better semantics so
    rank 1 is best everywhere.
    """
    spec = spec or AggregationSpec()
    tasks = _check_subset(m, subset)
    if any(m.metrics[t].direction != HIGHER for t in tasks):
        m = orient(m)
    result = SCHEMES[spec.method](m, tasks, spec)
    return result if isinstance(result, Ranking) else rank_models(result)


# -- batched subset kernels -------------------------------------------------
#
# A kernel factory takes the oriented dense array x (models x tasks, from
# scorebank.oriented_array), the matrix and the spec, and returns a function
# from a (subsets x size) array of task indices to (keys, tol).  keys is
# (subsets x models) with higher meaning better.  With tol None the keys order
# and tie the models exactly as `aggregate` does.  A float kernel returns a
# per-subset tol instead: keys more than tol apart are certified to be ordered
# the same way by `aggregate`; closer keys, exact ties included, are not, and
# their subset must be settled on the scalar path.

SubsetKeys = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | None]]

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _indicator(idx: np.ndarray, n_tasks: int) -> np.ndarray:
    """One 0/1 float row per subset marking its tasks."""
    ind = np.zeros((idx.shape[0], n_tasks))
    np.put_along_axis(ind, idx, 1.0, axis=1)
    return ind


def _mean_kernel(x: np.ndarray, m: ScoreMatrix, spec: AggregationSpec) -> SubsetKeys:
    """Weighted sums; the scalar mean divides the same sums by a common total.

    Both paths add the same rounded terms t = w * x.  fsum rounds their
    exact sum E once; the indicator product K adds them (and exact zeros)
    in some order, so |K - E| <= T u M, with T tasks, u = eps / 2 and M an
    upper bound on sum |t| over the subset for every model.  The scalar
    value fl(fl(E) / W) keeps two models strictly ordered when their E
    differ by more than 3 u (|E_a| + |E_b|) <= 3 eps M, plus W tiny when
    the quotient is subnormal.  tol = (2T + 8) eps M + 4 W tiny covers the
    sum of these with a margin of two.
    """
    w = np.array(_resolve_weights(m, m.task_ids, spec.weights))
    terms = x * w
    col_mag = np.abs(terms).max(axis=0)
    n_tasks = x.shape[1]

    def keys(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ind = _indicator(idx, n_tasks)
        tol = (2 * n_tasks + 8) * _EPS * (ind @ col_mag) + 4 * _TINY * (ind @ w)
        return ind @ terms.T, tol

    return keys


def _rank_kernel(x: np.ndarray, m: ScoreMatrix, spec: AggregationSpec) -> SubsetKeys:
    """Minus twice the per-task rank sums.

    The per-task ranks do not depend on the subset, so they are computed
    once.  Twice a fractional rank is an integer, so the sums are exact and
    so are their ties; the scalar path divides the same sums by the subset
    size, which keeps every order and tie.
    """
    if spec.method == "robust_average_rank":
        x = _bins(x, spec.bin_width, m.model_ids, m.task_ids)
    twice = 2 * np.array([fractional_ranks(col, descending=True) for col in x.T.tolist()])

    def keys(idx: np.ndarray) -> tuple[np.ndarray, None]:
        return -(_indicator(idx, x.shape[1]) @ twice), None

    return keys


def _median_kernel(x: np.ndarray, m: ScoreMatrix, spec: AggregationSpec) -> SubsetKeys:
    """Per-model median of the subset's columns, by the scalar path's formula."""

    def keys(idx: np.ndarray) -> tuple[np.ndarray, None]:
        s = np.sort(x[:, idx], axis=2)  # models x subsets x size
        mid = idx.shape[1] // 2
        med = s[..., mid] if idx.shape[1] % 2 else (s[..., mid - 1] + s[..., mid]) / 2.0
        return med.T, None

    return keys


# Schemes without a kernel (geometric_mean, macro_average,
# elimination_ranking) are audited on the scalar path, one subset at a time.
BATCHED: dict[str, Callable[[np.ndarray, ScoreMatrix, AggregationSpec], SubsetKeys]] = {
    "arithmetic_mean": _mean_kernel,
    "median": _median_kernel,
    "average_rank": _rank_kernel,
    "robust_average_rank": _rank_kernel,
}
