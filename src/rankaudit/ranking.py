"""Rankings, fractional ranks, Kendall tau-b, Top-k extraction, subset streams."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, SchemaError, UndefinedCorrelationError


def fractional_ranks(values: Sequence[float], descending: bool = True) -> list[float]:
    """Rank values with rank 1 = best; exactly equal values share the average rank.

    `descending=True` means larger values rank better.  Equality is exact
    float equality: callers that want tolerance must round/bin first.
    """
    order = sorted(range(len(values)), key=lambda i: values[i], reverse=descending)
    ranks = [0.0] * len(values)
    pos = 0
    while pos < len(order):
        end = pos
        while end + 1 < len(order) and values[order[end + 1]] == values[order[pos]]:
            end += 1
        avg = (pos + 1 + end + 1) / 2.0
        for idx in order[pos : end + 1]:
            ranks[idx] = avg
        pos = end + 1
    return ranks


@dataclass(frozen=True)
class Ranking:
    """A total preorder over models as fractional ranks (rank 1 = best).

    Ties share identical rank values and the ranks always sum to
    n(n+1)/2, which pins them to a valid fractional ranking.
    """

    entries: Mapping[str, float]

    def __post_init__(self) -> None:
        entries = dict(self.entries)
        if not entries:
            raise ConfigError("ranking over an empty model set")
        n = len(entries)
        total = sum(entries.values())
        if abs(total - n * (n + 1) / 2.0) > 1e-6:
            raise SchemaError(
                f"ranks sum to {total}, expected {n * (n + 1) / 2.0} for {n} models"
            )
        if min(entries.values()) < 1.0 - 1e-12:
            raise SchemaError("ranks must be >= 1")
        object.__setattr__(self, "entries", entries)

    @property
    def n_models(self) -> int:
        return len(self.entries)

    def order(self) -> list[str]:
        """Models best-first; ties broken by id for display stability only."""
        return sorted(self.entries, key=lambda m: (self.entries[m], m))

    def tie_groups(self) -> list[frozenset[str]]:
        """Tied sets of models, best group first."""
        by_rank: dict[float, set[str]] = {}
        for model, rank in self.entries.items():
            by_rank.setdefault(rank, set()).add(model)
        return [frozenset(by_rank[r]) for r in sorted(by_rank)]


@dataclass(frozen=True)
class TopK:
    """The k best positions of a ranking; a tied position is a set.

    If a tie straddles the k-th place the whole tied set is included and
    `boundary_tied` is set, so truncation never silently orders tied
    models.
    """

    k: int
    sequence: tuple[frozenset[str], ...]
    boundary_tied: bool

    def n_placed(self) -> int:
        return sum(len(group) for group in self.sequence)

    def names(self) -> list[str]:
        """Flat best-first model list; raises if any position is tied."""
        out = []
        for group in self.sequence:
            if len(group) != 1:
                raise ValueError("tied position cannot be flattened to single names")
            out.append(next(iter(group)))
        return out

    def render(self) -> str:
        parts = []
        for group in self.sequence:
            if len(group) == 1:
                parts.append(next(iter(group)))
            else:
                parts.append("{" + " | ".join(sorted(group)) + "}")
        text = ", ".join(parts)
        if self.boundary_tied:
            text += " [boundary tie]"
        return text


def rank_models(per_model: Mapping[str, float], higher_is_better: bool = True) -> Ranking:
    """Turn per-model aggregate values into a fractional Ranking."""
    if not per_model:
        raise ConfigError("cannot rank an empty aggregate")
    models = list(per_model)
    ranks = fractional_ranks([per_model[m] for m in models], descending=higher_is_better)
    return Ranking(dict(zip(models, ranks)))


def top_k(r: Ranking, k: int) -> TopK:
    """Extract the ordered Top-k positions, keeping boundary ties whole."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    sequence: list[frozenset[str]] = []
    placed = 0
    boundary = False
    for group in r.tie_groups():
        if placed >= k:
            break
        sequence.append(group)
        if placed < k < placed + len(group):
            boundary = True
        placed += len(group)
    return TopK(k=k, sequence=tuple(sequence), boundary_tied=boundary)


def kendall_tau_b(a: Ranking, b: Ranking) -> float:
    """Tie-corrected Kendall rank correlation between two rankings; see `tau_b`."""
    if set(a.entries) != set(b.entries):
        raise SchemaError("rankings compare different model sets")
    models = sorted(a.entries)
    tau = tau_b([a.entries[m] for m in models], [b.entries[m] for m in models])
    if tau is None:
        raise UndefinedCorrelationError("tau-b undefined: one side is entirely tied")
    return tau


def tau_b(a: Sequence[float], b: Sequence[float]) -> float | None:
    """Kendall tau-b of two key vectors over the same models; None if one side is all tied.

    tau_b = (nc - nd) / sqrt((n0 - n1) (n0 - n2)) where n0 = n(n-1)/2 and
    n1, n2 are the tie terms of each side.  Keys tie when they are equal
    (so -0.0 ties 0.0), and only their order matters, so keys and ranks of
    the same rankings give the same tau.  Discordances are counted by a
    bottom-up merge in about log2(n) numpy passes (Knight, JASA 1966); the
    O(n^2) definition lives in the test suite as the independent oracle.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = len(a)
    n0 = n * (n - 1) // 2
    n1, n2 = _tied_pairs(np.sort(a)), _tied_pairs(np.sort(b))
    if n0 == n1 or n0 == n2:
        return None
    # With b sorted by (a, b), equal-a runs arrive sorted by b and contribute
    # no strict b-inversions, and pairs tied in b never invert; every
    # remaining strict inversion is exactly one discordant pair.
    order = np.lexsort((b, a))
    nd = _strict_inversions(b[order])
    nc = n0 - n1 - n2 + _tied_pairs(a[order], b[order]) - nd
    # sqrt of an exact integer product, correctly rounded: |tau| <= 1, tau(a, a) == 1.0.
    return (nc - nd) / math.sqrt((n0 - n1) * (n0 - n2))


def _tied_pairs(*columns: np.ndarray) -> int:
    """Pairs of rows equal in every column, the rows sorted so equal ones are adjacent.

    c(c-1)/2 summed over the length c of each run of equal rows; equality
    is float ==, so -0.0 ties 0.0, and sorting keeps the two adjacent.
    """
    edges = np.ones(len(columns[0]) + 1, dtype=bool)
    edges[1:-1] = np.any([col[1:] != col[:-1] for col in columns], axis=0)
    runs = np.diff(np.flatnonzero(edges))
    return int(np.sum(runs * (runs - 1) // 2))


def _strict_inversions(seq: np.ndarray) -> int:
    """Pairs i < j with seq[i] > seq[j], merged bottom-up one level at a time.

    At each level the sequence is cut into blocks of 2w whose halves are
    sorted; after a stable sort of a block, a right-half value has
    w - (left values at or before it) greater left values.  Padding with
    +inf at the end adds none.
    """
    x = np.full(1 << max(len(seq) - 1, 0).bit_length(), np.inf)
    x[:len(seq)] = seq
    count = 0
    w = 1
    while w < len(x):
        blocks = x.reshape(-1, 2 * w)
        order = np.argsort(blocks, axis=1, kind="stable")
        left = order < w
        count += int((w - np.cumsum(left, axis=1))[~left].sum())
        x = np.take_along_axis(blocks, order, axis=1).reshape(-1)
        w *= 2
    return count


def enumerate_subsets(tasks: Sequence[str], size: int) -> Iterator[tuple[str, ...]]:
    """Stream all size-`size` task subsets in lexicographic index order."""
    n = len(tasks)
    if not 1 <= size <= n:
        raise ConfigError(f"subset size must be in [1, {n}], got {size}")
    return itertools.combinations(tuple(tasks), size)
