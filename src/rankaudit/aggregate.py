"""Aggregation schemes that turn a score matrix into per-model scores or rankings.

Seven schemes are provided: arithmetic mean, geometric mean, median,
macro-average over task groups, average rank, robust average rank (scores
binned into fixed-width buckets before ranking), and elimination ranking
(an exhaustive-ballot vote where tasks repeatedly vote for their top
remaining model and the fewest-votes models are knocked out).

Every scheme reads its subset's cells through `scorebank.oriented_cells`,
lower-is-better columns negated, so a mixed-direction matrix needs no
orienting first; `aggregate` dispatches and returns a Ranking.  Float sums
use `math.fsum`, which is correctly rounded and therefore independent of
task order, so an exact tie never depends on how tasks were listed.

`BATCHED` maps the schemes that have one to a batched subset kernel: it
scores many task subsets of one matrix in a few numpy operations, for the
subset audits.  `aggregate` is the scalar reference those kernels are
tested against, and `subset_keys` the one place that chooses between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .ranking import Ranking, fractional_ranks, rank_models
from .scorebank import ScoreMatrix, oriented_array, oriented_cells
from .util import checked_fsum, positive

@dataclass(frozen=True)
class AggregationSpec:
    """Which aggregation scheme to run, plus its parameters.

    bin_width is used only by robust_average_rank, group_map only by
    macro_average, and weights only by the mean-based schemes (rank-based
    schemes deliberately ignore weights).  bin_width and every weight
    must be positive and finite.
    """

    method: str = "arithmetic_mean"
    bin_width: float = 1.0
    group_map: Mapping[str, str] | None = None
    weights: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"unknown aggregation method {self.method!r}")
        positive(self.bin_width, "bin_width")
        for tid, w in (self.weights or {}).items():
            positive(w, f"weight for task {tid!r}")


@dataclass(frozen=True)
class AggregateResult:
    """Per-model aggregate values; higher_is_better is False for rank-valued ones."""

    per_model: Mapping[str, float]
    higher_is_better: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_model", dict(self.per_model))


def checked_tasks(m: ScoreMatrix, subset: Sequence[str] | None) -> tuple[str, ...]:
    """The prologue of every scheme: the subset, checked before any cell is read."""
    tasks = tuple(m.task_ids if subset is None else subset)
    if not tasks:
        raise ConfigError("task subset is empty")
    if len(set(tasks)) != len(tasks):
        raise ConfigError("task subset contains duplicates")
    for t in tasks:
        m.task_index(t)
    return tasks


def _resolve_weights(
    m: ScoreMatrix, tasks: Sequence[str], weights: Mapping[str, float] | None
) -> list[float]:
    weights = weights or {}
    return [positive(float(weights[t]), f"weight for task {t!r}") if t in weights
            else m.metrics[t].weight for t in tasks]


def _weighted_means(m: ScoreMatrix, rows: Sequence[Sequence[float]],
                    w: Sequence[float]) -> list[float]:
    """Per model, fsum(w * x) / fsum(w) over its row of `rows`."""
    total_w = checked_fsum(w, "task weights")
    return [checked_fsum((wi * x for wi, x in zip(w, row)), f"model {mid!r}") / total_w
            for mid, row in zip(m.model_ids, rows)]


def arithmetic_mean(
    m: ScoreMatrix,
    subset: Sequence[str] | None = None,
    weights: Mapping[str, float] | None = None,
) -> AggregateResult:
    """Per-model weighted mean over the subset."""
    tasks = checked_tasks(m, subset)
    w = _resolve_weights(m, tasks, weights)
    means = _weighted_means(m, oriented_cells(m, tasks).tolist(), w)
    return AggregateResult(dict(zip(m.model_ids, means)), higher_is_better=True)


def geometric_mean(
    m: ScoreMatrix,
    subset: Sequence[str] | None = None,
    weights: Mapping[str, float] | None = None,
) -> AggregateResult:
    """exp of the weighted mean of logs; every selected score must be > 0."""
    tasks = checked_tasks(m, subset)
    w = _resolve_weights(m, tasks, weights)
    arr = oriented_cells(m, tasks)
    bad = np.argwhere(arr <= 0)
    if len(bad):
        i, j = bad[0]
        raise DomainError(f"geometric mean undefined: model {m.model_ids[i]!r} "
                          f"has score {arr[i, j]} on task {tasks[j]!r}")
    logs = [[math.log(x) for x in row] for row in arr.tolist()]
    values = {mid: math.exp(v) for mid, v in zip(m.model_ids, _weighted_means(m, logs, w))}
    return AggregateResult(values, higher_is_better=True)


def median_score(m: ScoreMatrix, subset: Sequence[str] | None = None) -> AggregateResult:
    """Per-model median over the subset (even count: mean of the two central values).

    A mean of two central values beyond the float range is a DomainError:
    in one infinite median, models would tie.
    """
    tasks = checked_tasks(m, subset)
    n = len(tasks)
    values = {}
    for mid, row in zip(m.model_ids, oriented_cells(m, tasks).tolist()):
        s = sorted(row)
        values[mid] = s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0
        if not math.isfinite(values[mid]):
            raise DomainError(f"median overflows the float range: model {mid!r}")
    return AggregateResult(values, higher_is_better=True)


def task_group(m: ScoreMatrix, task: str, group_map: Mapping[str, str] | None) -> str | None:
    """The group of a task: its group_map entry, else its metric's group, else None."""
    g = group_map.get(task) if group_map else None
    return m.metrics[task].group if g is None else g


def macro_average(
    m: ScoreMatrix,
    subset: Sequence[str] | None = None,
    group_map: Mapping[str, str] | None = None,
    weights: Mapping[str, float] | None = None,
) -> AggregateResult:
    """Unweighted mean over groups of the weighted mean within each group.

    Groups come from `task_group`; a selected task without a group is an
    error.
    """
    tasks = checked_tasks(m, subset)
    groups: dict[str, list[int]] = {}
    for j, t in enumerate(tasks):
        g = task_group(m, t, group_map)
        if g is None:
            raise ConfigError(f"task {t!r} has no group; macro-average needs a total group map")
        groups.setdefault(g, []).append(j)
    w = _resolve_weights(m, tasks, weights)
    arr = oriented_cells(m, tasks)
    group_means = [_weighted_means(m, arr[:, cols].tolist(), [w[j] for j in cols])
                   for cols in groups.values()]
    values = {mid: checked_fsum(means, f"model {mid!r}") / len(group_means)
              for mid, means in zip(m.model_ids, zip(*group_means))}
    return AggregateResult(values, higher_is_better=True)


def average_rank(m: ScoreMatrix, subset: Sequence[str] | None = None) -> AggregateResult:
    """Rank models per task (1 = best, ties share the average rank), then mean."""
    return _mean_rank(m, oriented_cells(m, checked_tasks(m, subset)))


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
    positive(bin_width, "bin_width")
    tasks = checked_tasks(m, subset)
    return _mean_rank(m, _bins(oriented_cells(m, tasks), bin_width, m.model_ids, tasks))


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
    (task-level ties split the vote evenly).  All models holding
    the minimal vote total are eliminated together and take the worst
    open positions; their order within that block is settled by running
    the same contest among themselves, so a one-task ballot degenerates
    to the plain score ordering.  If a round would eliminate everyone,
    the remaining models tie.  Votes are integer points: a round's unit
    is the lcm of its tasks' top-group sizes and a task gives each of its
    g top models unit // g, so outcomes do not depend on summation order.
    """
    columns = oriented_cells(m, checked_tasks(m, subset)).T.tolist()
    place = [0] * m.n_models
    settled = 0
    fields = [list(range(m.n_models))]  # best field on top
    while fields:
        field = fields.pop()
        if len(field) > 1:
            tops = []
            for col in columns:
                best = max(col[i] for i in field)
                tops.append([i for i in field if col[i] == best])
            unit = math.lcm(*map(len, tops))
            votes = dict.fromkeys(field, 0)
            for group in tops:
                for i in group:
                    votes[i] += unit // len(group)
            least = min(votes.values())
            losers = [i for i in field if votes[i] == least]
            if len(losers) < len(field):
                fields += [losers, [i for i in field if votes[i] > least]]
                continue
        settled += 1
        for i in field:
            place[i] = settled
    return rank_models(dict(zip(m.model_ids, place)), higher_is_better=False)


# The scalar schemes: method name -> scheme on a matrix of any directions, a
# task subset (None for all tasks) and the spec.  METHODS lists its keys in this order.
SCHEMES: dict[str, Callable[[ScoreMatrix, Sequence[str] | None, AggregationSpec],
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


def check_spec_tasks(m: ScoreMatrix, spec: AggregationSpec) -> None:
    """A ConfigError naming the first task of spec's weights or groups that m lacks."""
    for name, tasks in (("weights", spec.weights), ("groups", spec.group_map)):
        for t in tasks or {}:
            if t not in m.metrics:
                raise ConfigError(f"aggregation {name} name task {t!r}, which the matrix lacks")


def aggregate(
    m: ScoreMatrix,
    subset: Sequence[str] | None = None,
    spec: AggregationSpec | None = None,
) -> Ranking:
    """Dispatch to the configured scheme and return a Ranking.

    Rank-valued aggregates are converted with lower-is-better semantics
    so rank 1 is best everywhere.  Weights or groups for a task the matrix
    lacks are a ConfigError.
    """
    spec = spec or AggregationSpec()
    check_spec_tasks(m, spec)
    result = SCHEMES[spec.method](m, subset, spec)
    if isinstance(result, Ranking):
        return result
    return rank_models(result.per_model, result.higher_is_better)


# -- batched subset kernels -------------------------------------------------

SubsetKeys = Callable[[np.ndarray], np.ndarray]


def _indicator(idx: np.ndarray, n_tasks: int) -> np.ndarray:
    """One 0/1 float row per subset marking its tasks."""
    ind = np.zeros((idx.shape[0], n_tasks))
    np.put_along_axis(ind, idx, 1.0, axis=1)
    return ind


def _exact_parts(a: np.ndarray, n_tasks: int) -> np.ndarray | None:
    """a as two stacked slices whose sum is a, or None if two cannot hold it.

    Each slice is cut toward zero on a power-of-two grid 53 - L bits below
    the largest magnitude left of a, L = ceil(log2(n_tasks + 1)) (ExtractScalar;
    Rump, Ogita and Oishi, "Accurate Floating-Point Summation, Part I", 2008).
    Any n_tasks cells of a slice then add up exactly in any order, and below
    the float range, as every |a| must be below 2**(1024 - L).
    """
    room = n_tasks.bit_length()
    if not (np.abs(a) < math.ldexp(1.0, 1024 - room)).all():
        return None
    parts = []
    for _ in range(2):
        unit = math.ldexp(1.0, max(math.frexp(float(np.abs(a).max()))[1] - 53 + room, -1074))
        parts.append(np.trunc(a / unit) * unit)
        a = a - parts[-1]
    return None if a.any() else np.stack(parts)


def _mean_kernel(x: np.ndarray, m: ScoreMatrix, spec: AggregationSpec) -> SubsetKeys | None:
    """Weighted means fsum(w * x) / fsum(w), bit for bit the scalar path's.

    The terms w * x and the weights are each cut into two `_exact_parts`,
    whose indicator products are exact; adding the two sums rounds once, to
    nearest even, as fsum does.  None if the parts cannot hold them.
    """
    w = np.array(_resolve_weights(m, m.task_ids, spec.weights))
    with np.errstate(over="ignore"):
        terms = x * w
    n_tasks = x.shape[1]
    parts = [_exact_parts(a, n_tasks) for a in (terms, w[None, :])]
    if any(p is None for p in parts):
        return None
    # column p * (n_models + 1) + i: part p of model i's terms, or of the weights
    table = np.concatenate(parts, axis=1).reshape(-1, n_tasks).T

    def keys(idx: np.ndarray) -> np.ndarray:
        sliced = (_indicator(idx, n_tasks) @ table).reshape(len(idx), 2, -1)
        sums = sliced[:, 0] + sliced[:, 1]
        return sums[:, :-1] / sums[:, -1:]

    return keys


def _rank_kernel(x: np.ndarray, m: ScoreMatrix, spec: AggregationSpec) -> SubsetKeys:
    """Minus twice the per-task rank sums.

    The per-task ranks do not depend on the subset, so they are computed
    once.  Twice a fractional rank is an integer, so the sums are exact and
    so are their ties; the scalar path divides the same sums by the subset
    size, which keeps every order and tie.  A subset with a bucket beyond
    the float range gets NaN keys, which leave it to the scalar path and
    its DomainError, so the other subsets are still scored.
    """
    overflow = np.zeros(x.shape[1], dtype=bool)
    if spec.method == "robust_average_rank":
        with np.errstate(over="ignore"):
            x = np.floor(x / spec.bin_width)
        overflow = ~np.isfinite(x).all(axis=0)
    twice = 2 * np.array([fractional_ranks(col, descending=True) for col in x.T.tolist()])

    def keys(idx: np.ndarray) -> np.ndarray:
        out = -(_indicator(idx, x.shape[1]) @ twice)
        out[overflow[idx].any(axis=1)] = np.nan
        return out

    return keys


def _median_kernel(x: np.ndarray, m: ScoreMatrix, spec: AggregationSpec) -> SubsetKeys:
    """Per-model median of the subset's columns, by the scalar path's formula."""

    def keys(idx: np.ndarray) -> np.ndarray:
        s = np.sort(x[:, idx], axis=2)  # models x subsets x size
        mid = idx.shape[1] // 2
        med = s[..., mid] if idx.shape[1] % 2 else (s[..., mid - 1] + s[..., mid]) / 2.0
        return med.T

    return keys


BATCHED: dict[str, Callable[[np.ndarray, ScoreMatrix, AggregationSpec], SubsetKeys | None]] = {
    "arithmetic_mean": _mean_kernel,
    "median": _median_kernel,
    "average_rank": _rank_kernel,
    "robust_average_rank": _rank_kernel,
}


def subset_keys(m: ScoreMatrix, spec: AggregationSpec) -> SubsetKeys:
    """Keys of `spec` per subset: rows of task indices to higher-better model keys.

    A kernel factory in `BATCHED` takes the oriented dense array x (models
    x tasks, from `oriented_array`), the matrix and the spec, and returns a
    function from a (subsets x size) array of task indices to (subsets x
    models) keys, higher meaning better, that order and tie the models
    exactly as `aggregate` does; or None for a matrix it cannot score that
    way.  Each call scores its subsets in one call of that kernel.  A
    subset is settled by the scalar `aggregate` instead, with minus its
    ranks as keys, when the scheme has no kernel or its factory declines
    the matrix, when it touches a missing cell, where that call raises the
    scalar path's MissingScoreError, or when a kernel key is not finite,
    where an overflow would tie models and the scalar path raises its
    DomainError.  Key columns follow the matrix's model rows.
    """
    x, missing = oriented_array(m)
    col_missing = missing.any(axis=0)
    factory = BATCHED.get(spec.method, lambda *_: None)
    # Without a kernel every key is NaN, so every subset takes the scalar path.
    kernel = factory(x, m, spec) or (lambda idx: np.full((len(idx), m.n_models), np.nan))

    def keys(idx: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # a median kernel (a + b) / 2 of huge scores
            out = kernel(idx)
        scalar = col_missing[idx].any(axis=1) | ~np.isfinite(out).all(axis=1)
        for row in np.flatnonzero(scalar).tolist():
            entries = aggregate(m, tuple(m.task_ids[j] for j in idx[row].tolist()), spec).entries
            out[row] = [-entries[mid] for mid in m.model_ids]
        return out

    return keys
