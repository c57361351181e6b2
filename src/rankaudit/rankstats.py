"""Subset-disagreement audits over a score matrix.

The central question: how much does the identity of the top models depend
on which tasks a benchmark happens to include?  `unique_topk_audit`
counts distinct Top-k outcomes across all task subsets of a given size,
`subset_tau_profile` correlates subset rankings against the full-benchmark
ranking, and `aggregator_agreement` correlates the rankings produced by
different aggregation schemes on the same data.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from math import comb
from typing import IO

import numpy as np

from .aggregate import (AggregationSpec, SubsetKeys, aggregate, check_spec_tasks,
                        checked_tasks, subset_keys)
from .errors import ConfigError, UndefinedCorrelationError
from .ranking import TopK, tau_b, top_k
from .scorebank import ScoreMatrix
from .util import derive_seed, distinct

__all__ = [
    "SubsetAuditResult",
    "check_audit",
    "unique_topk_audit",
    "subset_tau_profile",
    "topk_table",
    "aggregator_agreement",
    "audit_to_dict",
]

DEFAULT_SAMPLING_BUDGET = 10**6
_CELLS = 2**14  # cells per pass of the kernels or the listing; bounds their working memory


class _CodedTopK(Mapping):
    """Per-subset Top-k of an audit as integer codes, decoded on access.

    `model_ids` lists the ids in `sorted` order, and a model's index is its
    place there.  Row r of `codes` is the Top-k of the subset whose task
    indices are `subsets[r]`: position p holds group * n_models + model for
    the model in place p, best first, with model indices ascending inside a
    tie group and group ids counting from 0; it holds -1 past the end of
    the group that holds position k.  The codes do not depend on the order
    of the matrix's model rows, and two subsets have the same Top-k exactly
    when their rows are equal.  The mapping's keys are task-id tuples in
    row order.
    """

    def __init__(self, model_ids: Sequence[str], task_ids: Sequence[str],
                 subsets: np.ndarray, codes: np.ndarray, k: int) -> None:
        self.model_ids = tuple(model_ids)
        self.task_ids = tuple(task_ids)
        self.subsets = subsets
        self.codes = codes
        self.k = k
        self._rows: dict[tuple[str, ...], int] | None = None
        self._unique: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.subsets)

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        names = self.task_ids
        for row in self.subsets.tolist():
            yield tuple(names[j] for j in row)

    def __getitem__(self, key: tuple[str, ...]) -> TopK:
        if self._rows is None:
            self._rows = {subset: r for r, subset in enumerate(self)}
        return self.decode(self.codes[self._rows[key]])

    def decode(self, code: np.ndarray) -> TopK:
        """The TopK that one row of codes stands for."""
        group, model = np.divmod(code[code >= 0], len(self.model_ids))
        groups: list[list[str]] = [[] for _ in range(group[-1] + 1)]
        for g, i in zip(group.tolist(), model.tolist()):
            groups[g].append(self.model_ids[i])
        return TopK(self.k, tuple(map(frozenset, groups)), boundary_tied=len(model) > self.k)

    def unique(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct code rows, and per subset the index of its row among them."""
        if self._unique is None:
            # One opaque bytes item per row: numpy sorts these several times
            # faster than the rows themselves under np.unique(axis=0).
            codes = np.ascontiguousarray(self.codes)
            row = np.dtype((np.void, codes.itemsize * codes.shape[1]))
            _, first, inverse = np.unique(codes.view(row).reshape(-1),
                                          return_index=True, return_inverse=True)
            self._unique = (codes[first], inverse.reshape(-1))
        return self._unique

    def prefix(self, k: int) -> _CodedTopK:
        """The same subsets' Top-k for k <= self.k, cut from these codes."""
        return _CodedTopK(self.model_ids, self.task_ids, self.subsets,
                          _top(self.codes, len(self.model_ids), k), k)


def _top(codes: np.ndarray, n_models: int, k: int) -> np.ndarray:
    """codes with -1 past the group that holds position k, cut to the longest row.

    Every row of `codes` must place at least min(k, n_models) models.
    """
    group = codes // n_models  # -1 on padding
    cut = group[:, min(k, codes.shape[1]) - 1]
    top = np.where(group <= cut[:, None], codes, -1)
    return top[:, :(top >= 0).sum(axis=1).max()].copy()


@dataclass(frozen=True)
class SubsetAuditResult:
    """Disagreement statistics for one (subset size, k) pair.

    unique_count is the number of distinct Top-k tuples over the evaluated
    subsets and total_combinations is C(T, size).  When the combination
    count exceeds the sampling budget the audit evaluates a seeded uniform
    sample instead and reports exact=False, never silently.

    `unique_topk_audit` fills per_subset_topk with a mapping that decodes
    each TopK from an integer code on access; any other mapping is copied
    into a dict.
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
        if not isinstance(self.per_subset_topk, _CodedTopK):
            object.__setattr__(self, "per_subset_topk", dict(self.per_subset_topk))

    @property
    def evaluated(self) -> int:
        return len(self.per_subset_topk)

    def for_k(self, k: int) -> SubsetAuditResult:
        """This audit's result for k <= self.k, without scoring any subset again.

        A Top-k is a prefix of the Top-k' of the same ranking for k <= k',
        so it is cut from this result's codes.  Only a result made by
        `unique_topk_audit` has codes.
        """
        if not 1 <= k <= self.k:
            raise ConfigError(f"k must be in [1, {self.k}], got {k}")
        if not isinstance(self.per_subset_topk, _CodedTopK):
            raise ConfigError("for_k needs a result made by unique_topk_audit")
        if k == self.k:
            return self
        return _result(self.subset_size, self.total_combinations, self.exact,
                       self.per_subset_topk.prefix(k))


def _result(size: int, total: int, exact: bool, coded: _CodedTopK) -> SubsetAuditResult:
    return SubsetAuditResult(size, coded.k, len(coded.unique()[0]), total, coded, exact)


def check_audit(m: ScoreMatrix, spec: AggregationSpec, sizes: Sequence[int],
                ks: Sequence[int], sampling_budget: int) -> list[int]:
    """C(T, size) for each size of an audit request, after checking the request.

    A ConfigError names the first broken rule, in this order: there is a k;
    no size, then no k, is listed twice; every k is >= 1; the budget is an int
    >= 1; the spec passes `check_spec_tasks`; each size is in [1, T] with
    C(T, size) below 2**63, because subsets are unranked from int64 ranks.
    """
    if not ks:
        raise ConfigError("'ks' needs at least one k")
    distinct(sizes, "subset_sizes")
    distinct(ks, "ks")
    if min(ks) < 1:
        raise ConfigError(f"k must be >= 1, got {min(ks)}")
    if isinstance(sampling_budget, bool) or not isinstance(sampling_budget, int):
        raise ConfigError(f"sampling_budget must be an int, got {sampling_budget!r}")
    if sampling_budget < 1:
        raise ConfigError(f"sampling budget must be >= 1, got {sampling_budget}")
    check_spec_tasks(m, spec)
    n, totals = m.n_tasks, []
    for size in sizes:
        if not 1 <= size <= n:
            raise ConfigError(f"subset size must be in [1, {n}], got {size}")
        totals.append(comb(n, size))
        if totals[-1] >= 2**63:
            raise ConfigError(f"C({n}, {size}) = {totals[-1]} subsets of size {size}: an audit "
                              "ranks its subsets in int64, so C(T, size) must be below 2**63")
    return totals


def _unrank(ranks: np.ndarray, n: int, size: int) -> np.ndarray:
    """Rows of the size-subsets of range(n) at these ranks in `combinations` order.

    One pass over the candidates (the combinadic, Knuth TAOCP 7.2.1.3): a row
    with s places left takes j if its remaining rank is below C(n-1-j, s-1),
    the subsets that take j, and otherwise skips them.  The int64 table holds
    only counts some row reaches (size - j <= s <= n - j), each <= C(n, size).
    """
    taking = np.array([[comb(n - 1 - j, s - 1) if max(size - j, 1) <= s <= n - j else 0
                        for s in range(size + 1)] for j in range(n)], dtype=np.int64)
    rows = np.empty((len(ranks), size), dtype=np.intp)
    rest = ranks.astype(np.int64)
    left = np.full(len(ranks), size, dtype=np.intp)
    for j in range(n):
        count = taking[j, left]
        take = np.flatnonzero(rest < count)
        rows[take, size - left[take]] = j
        count[take] = 0
        rest -= count
        left[take] -= 1
    return rows


def _sampled_subsets(total: int, size: int, budget: int, seed: int) -> np.ndarray:
    """Sorted ranks of a seeded uniform sample of `budget` distinct subsets of `total`."""
    rng = np.random.default_rng(derive_seed(seed, "subset-sample", size))
    return np.sort(rng.choice(total, budget, replace=False, shuffle=False))


def _chunk(n_models: int, n_tasks: int) -> int:
    """Subsets per pass: a pass reads each subset's task cells and writes one key per model."""
    return max(1, _CELLS // (n_models + n_tasks))


def _subset_codes(
    m: ScoreMatrix, spec: AggregationSpec, subsets: np.ndarray, k: int
) -> np.ndarray:
    """Top-k codes (see `_CodedTopK`) of the subsets, rows of task indices.

    Each chunk of `_chunk` subsets is scored by `aggregate.subset_keys`.
    The key columns are then put in the order of the model ids, and each
    row's models sorted once by key, stably, so equal keys form a tie
    group ordered by id.
    """
    n = m.n_models
    by_id = np.array(sorted(range(n), key=m.model_ids.__getitem__), dtype=np.intp)
    scored = subset_keys(m, spec)
    dtype = np.min_scalar_type(-n * n)
    chunk = _chunk(n, m.n_tasks)
    chunks = []
    for start in range(0, len(subsets), chunk):
        keys = scored(subsets[start:start + chunk])[:, by_id]
        order = np.argsort(-keys, axis=1, kind="stable")
        ranked = np.take_along_axis(keys, order, axis=1)
        group = np.zeros_like(order)
        np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=group[:, 1:])
        chunks.append(_top((group * n + order).astype(dtype), n, k))
    codes = np.full((len(subsets), max(c.shape[1] for c in chunks)), -1, dtype=dtype)
    for start, part in zip(range(0, len(subsets), chunk), chunks):
        codes[start:start + len(part), :part.shape[1]] = part
    return codes


def unique_topk_audit(
    m: ScoreMatrix,
    spec: AggregationSpec,
    size: int,
    k: int,
    sampling_budget: int = DEFAULT_SAMPLING_BUDGET,
    seed: int = 0,
) -> SubsetAuditResult:
    """Count distinct Top-k outcomes across task subsets of one size.

    Every subset is aggregated under `spec` once, its Top-k encoded as an
    integer row (tied positions compared as sets), and distinct rows
    counted.  Subsets are scored by `aggregate.subset_keys`, in batches
    where the scheme has a kernel, with the models of every subset ordered
    and tied exactly as `aggregate` does.  Enumeration is exhaustive unless
    C(T, size) exceeds `sampling_budget`, in which case a seeded uniform
    sample without replacement is used and the result is flagged as
    sampled.  Either way the rows are unranked from int64 lexicographic
    ranks.  The result's `for_k` gives every smaller k from the same codes.
    `check_audit` states the rules the arguments must keep.
    """
    total, = check_audit(m, spec, [size], [k], sampling_budget)
    exact = total <= sampling_budget
    ranks = np.arange(total) if exact else _sampled_subsets(total, size, sampling_budget, seed)
    subsets = _unrank(ranks, m.n_tasks, size)
    codes = _subset_codes(m, spec, subsets, k)
    coded = _CodedTopK(sorted(m.model_ids), m.task_ids, subsets, codes, k)
    return _result(size, total, exact, coded)


def subset_tau_profile(
    m: ScoreMatrix,
    spec: AggregationSpec,
    subsets: Sequence[Sequence[str]],
) -> dict[tuple[str, ...], float | None]:
    """Kendall tau-b of each subset's ranking against the all-task ranking.

    Every ranking is scored through the audit's keys
    (`aggregate.subset_keys`), and every subset checked as `aggregate`
    checks it.  A subset whose correlation is undefined (an entirely tied
    ranking) maps to None rather than aborting the profile.
    """
    check_spec_tasks(m, spec)
    keys = subset_keys(m, spec)
    full = _keys_of(m, keys, None)
    return {tuple(subset): tau_b(full, _keys_of(m, keys, subset)) for subset in subsets}


def _keys_of(m: ScoreMatrix, keys: SubsetKeys, subset: Sequence[str] | None) -> np.ndarray:
    """The models' keys on one subset (None for all tasks), checked as `aggregate` checks it."""
    idx = [m.task_index(t) for t in checked_tasks(m, subset)]
    return keys(np.array([idx], dtype=np.intp))[0]


def topk_table(
    m: ScoreMatrix,
    spec: AggregationSpec,
    subsets: Sequence[Sequence[str]],
    k: int,
) -> list[tuple[tuple[str, ...], TopK]]:
    """Top-k per requested subset, in the order the subsets were given."""
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
    rows = []
    for spec in specs:
        check_spec_tasks(m, spec)
        rows.append(_keys_of(m, subset_keys(m, spec), subset))
    out = [[tau_b(a, b) for b in rows] for a in rows]
    if any(None in row for row in out):
        raise UndefinedCorrelationError("tau-b undefined: one side is entirely tied")
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


LISTING_HEADER = "size,k,tasks,topk,boundary_tied\n"  # the header line of the listing


def write_listing(fh: IO[str], results: Sequence[SubsetAuditResult]) -> None:
    """Write the per-subset listing of `for_k` results of one audit to fh as CSV rows.

    A row is size,k,tasks,topk,boundary_tied, under `LISTING_HEADER`.
    tasks joins the task ids with "+"; topk joins the tie groups, best
    first, with ";" and the sorted model ids of a group with "|".  Rows
    run over the audit's subsets in order and, for each subset, over
    `results` in order.  The text is what `csv.writer` writes with "\n"
    line ends: ids hold no line break (ScoreMatrix refuses them), so a
    tasks or topk field is quoted, its '"' doubled, exactly when one of
    its ids holds "," or '"'.

    Each chunk of `_chunk` subsets, sized in cells as the audit's kernel
    passes are, is written as one join, so its memory is bounded by the
    chunk.  Its rows are laid out subset-major and k-minor as indices into
    one table of string pieces.  The topk pieces come from the rows of
    codes of the largest k, whose models already follow id order inside a
    tie group; `for_k` cut each smaller k's row as a prefix of that row.
    """
    coded = [r.per_subset_topk for r in results]
    top = max(coded, key=lambda c: c.k)
    n, width = len(top.model_ids), top.codes.shape[1]
    ids = (*top.model_ids, "")  # model n is the padding
    tasks = np.array([t.replace('"', '""') for t in top.task_ids], dtype=object)
    # per id, whether a field that holds it is quoted
    task_quoted = np.array([',' in t or '"' in t for t in top.task_ids], dtype=np.uint8)
    model_quoted = np.array([',' in i or '"' in i for i in ids], dtype=np.uint8)
    quotes = ("", '"')
    # The table holds the text before tasks, at 2 * (place of k) + tasks
    # quoted; between tasks and topk, at mid + 2 * tasks quoted + topk
    # quoted; after topk, at tail + 2 * topk quoted + boundary tied; each
    # model's id after no separator, "|" (same tie group) or ";" (next
    # group), at piece + (n + 1) * separator + model; then a slot for each
    # subset of a chunk, at cell + its place, for its tasks cell.
    table = [f"{results[0].subset_size},{c.k},{q}" for c in coded for q in quotes]
    mid = len(table)
    table += [f"{a},{b}" for a in quotes for b in quotes]
    tail = len(table)
    table += [f"{q},{tied}\n" for q in quotes for tied in (False, True)]
    piece = len(table)
    table += [sep + i.replace('"', '""') for sep in ("", "|", ";") for i in ids]
    pad, cell, chunk = piece + n, len(table), _chunk(n, len(tasks))
    table = np.array(table + [""] * chunk, dtype=object)

    def indices(start: int, subsets: np.ndarray) -> np.ndarray:
        """The table indices of the chunk's rows, end to end, padding dropped."""
        # the sums of indices stay in intp: codes and quoting flags are narrower
        rows = np.arange(len(subsets))
        tasks_quoted = task_quoted[subsets].max(axis=1).astype(np.intp)
        codes = top.codes[start:start + len(rows)]
        group, model = np.divmod(codes, n)
        valid = codes >= 0
        model[~valid] = n
        pieces = np.zeros(group.shape, dtype=np.intp)
        pieces[:, 1:] = np.where(valid[:, 1:], 1 + (group[:, 1:] != group[:, :-1]), 0)
        pieces *= n + 1
        pieces += model
        pieces += piece
        # whether the first p + 1 models of a row hold a quoted id
        quoted_by = np.maximum.accumulate(model_quoted[model], axis=1)
        idx = np.empty((len(rows), len(coded), width + 4), dtype=np.intp)
        idx[:, :, 0] = 2 * np.arange(len(coded)) + tasks_quoted[:, None]
        idx[:, :, 1] = cell + rows[:, None]
        for j, c in enumerate(coded):
            placed = (c.codes[start:start + len(rows)] >= 0).sum(axis=1)
            topk_quoted = quoted_by[rows, placed - 1].astype(np.intp)
            idx[:, j, 2] = mid + 2 * tasks_quoted + topk_quoted
            idx[:, j, 3:-1] = np.where(np.arange(width) < placed[:, None], pieces, pad)
            idx[:, j, -1] = tail + 2 * topk_quoted + (placed > c.k)
        idx = idx.ravel()
        return idx[idx != pad]

    for start in range(0, len(top), chunk):
        subsets = top.subsets[start:start + chunk]
        table[cell:cell + len(subsets)] = list(map("+".join, tasks[subsets].tolist()))
        fh.write("".join(table[indices(start, subsets)].tolist()))
