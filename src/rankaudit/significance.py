"""Statistical comparison of two models across datasets.

Three complementary procedures: a Wilcoxon signed-rank test treating the
two models' per-dataset metrics as paired samples ("better on average"),
per-dataset permutation tests over replicate runs with multiple-testing
correction ("better on every dataset"), and a bootstrap estimate of the
probability that model A is at least as good as model B.

Exact small-sample paths are used whenever affordable and every
Monte-Carlo path is seeded and reports its seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DegenerateInputError
from .ranking import fractional_ranks
from .util import checked_fsum, derive_seed

TWO_SIDED = "two-sided"
B_GREATER = "b-greater"

WILCOXON_EXACT_LIMIT = 20
PERMUTATION_EXACT_LIMIT = 10**5
PERMUTATION_MC_SAMPLES = 10**5
# Values per block of the Monte-Carlo sampler; a block's table holds its
# 2**12 subset sums, 32 KB of float64.
_MC_BLOCK = 12
# Monte-Carlo samples per numpy pass.
_MC_CHUNK = 2048


@dataclass(frozen=True)
class PairedSamples:
    """Per-dataset metrics of models A and B, aligned by position."""

    labels: tuple[str, ...]
    a_values: tuple[float, ...]
    b_values: tuple[float, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        a = tuple(float(x) for x in self.a_values)
        b = tuple(float(x) for x in self.b_values)
        if not (len(labels) == len(a) == len(b)):
            raise ConfigError("labels, a_values and b_values must have equal length")
        if not labels:
            raise ConfigError("paired samples are empty")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "a_values", a)
        object.__setattr__(self, "b_values", b)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    method: str
    alternative: str
    exact: bool
    label: str | None = None
    seed: int | None = None
    zeros_dropped: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.p_value <= 1):
            raise ConfigError(f"p-value {self.p_value} outside (0, 1]")

    def to_dict(self) -> dict:
        """Every field; label and seed, the two that may be None, only when set."""
        return {key: value for key, value in asdict(self).items() if value is not None}


def _check_alternative(alternative: str) -> None:
    if alternative not in (TWO_SIDED, B_GREATER):
        raise ConfigError(
            f"alternative must be {TWO_SIDED!r} or {B_GREATER!r}, got {alternative!r}"
        )


def exact_wplus_distribution(ranks: Sequence[float]) -> dict[float, float]:
    """Exact null pmf of the signed-rank sum W+ for the given |d| ranks.

    Under the null every sign pattern is equally likely, so the pmf is the
    subset-sum count over all 2^n assignments divided by 2^n.  Ranks are
    halves (fractional ties), so doubling makes the convolution integral.
    """
    doubled = [round(2 * r) for r in ranks]
    if any(abs(2 * r - d) > 1e-9 for r, d in zip(ranks, doubled)):
        raise ConfigError("ranks must be multiples of 0.5")
    counts = {0: 1}
    for d in doubled:
        nxt: dict[int, int] = {}
        for s, c in counts.items():
            nxt[s] = nxt.get(s, 0) + c
            nxt[s + d] = nxt.get(s + d, 0) + c
        counts = nxt
    total = 2 ** len(doubled)
    return {s / 2.0: c / total for s, c in sorted(counts.items())}


def wilcoxon_signed_rank(
    samples: PairedSamples,
    alternative: str = TWO_SIDED,
    exact_limit: int = WILCOXON_EXACT_LIMIT,
) -> TestResult:
    """Wilcoxon signed-rank test on the paired differences b - a.

    Zero differences are dropped (classic treatment) and the drop count
    reported.  With at most `exact_limit` non-zero pairs the p-value comes
    from the exact null distribution of W+; beyond that a normal
    approximation with tie and continuity corrections is used.
    """
    _check_alternative(alternative)
    diffs = [b - a for a, b in zip(samples.a_values, samples.b_values)]
    nonzero = [d for d in diffs if d != 0]
    zeros = len(diffs) - len(nonzero)
    if not nonzero:
        raise DegenerateInputError("all paired differences are zero")
    n = len(nonzero)
    abs_ranks = fractional_ranks([abs(d) for d in nonzero], descending=False)
    w_plus = sum(r for d, r in zip(nonzero, abs_ranks) if d > 0)

    if n <= exact_limit:
        pmf = exact_wplus_distribution(abs_ranks)
        p_ge = sum(p for w, p in pmf.items() if w >= w_plus - 1e-9)
        p_le = sum(p for w, p in pmf.items() if w <= w_plus + 1e-9)
        if alternative == B_GREATER:
            p = p_ge
        else:
            p = min(1.0, 2.0 * min(p_ge, p_le))
        return TestResult(w_plus, p, "wilcoxon-signed-rank", alternative, True,
                          zeros_dropped=zeros)

    mean = n * (n + 1) / 4.0
    tie_sizes: dict[float, int] = {}
    for r in abs_ranks:
        tie_sizes[r] = tie_sizes.get(r, 0) + 1
    tie_term = sum(t**3 - t for t in tie_sizes.values()) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if var <= 0:
        raise DegenerateInputError("signed-rank variance is zero")
    sd = math.sqrt(var)
    if alternative == B_GREATER:
        z = (w_plus - mean - 0.5) / sd
        p = _normal_sf(z)
    else:
        z = (abs(w_plus - mean) - 0.5) / sd
        p = min(1.0, 2.0 * _normal_sf(z))
    return TestResult(w_plus, max(p, 1e-300), "wilcoxon-signed-rank", alternative, False,
                      zeros_dropped=zeros)


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def permutation_test(
    a: Sequence[float],
    b: Sequence[float],
    alternative: str = TWO_SIDED,
    exact_limit: int = PERMUTATION_EXACT_LIMIT,
    mc_samples: int = PERMUTATION_MC_SAMPLES,
    seed: int = 0,
    label: str | None = None,
) -> TestResult:
    """Two-sample permutation test on the difference of means, mean(b) - mean(a).

    All C(na+nb, na) reassignments are enumerated when their count is at
    most `exact_limit`, as the na-subset sums of the pooled replicates
    (`_sums_by_size`). Otherwise `mc_samples` (a positive int) seeded
    uniform reassignments estimate the p-value with the +1 correction, so
    p stays in (0, 1]. They are drawn as side a's sum alone from per-block
    subset-sum tables, built by the same `_sums_by_size`, of a canonical
    pool, each side's replicates sorted, so p does not depend on the order
    the replicates are listed in. Each block draws its count from one
    uniform and an exact inverse CDF table, and its subset from a second
    uniform (`_side_a_sums`, which states the rounding bounds). Both
    branches score a reassignment by the same statistic of side a's sum.
    A side whose sum overflows the float range is a DomainError, and so
    is a pooled sum of the positive or of the negative values that does:
    it bounds the sum of every reassignment.
    """
    _check_alternative(alternative)
    if isinstance(mc_samples, bool) or not isinstance(mc_samples, int) or mc_samples < 1:
        raise ConfigError(f"mc_samples must be a positive int, got {mc_samples!r}")
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    where = "permutation test" if label is None else f"permutation test {label!r}"
    if len(a) < 2 or len(b) < 2:
        raise ConfigError(f"{where} needs at least 2 replicates per side")
    sum_a, sum_b = (checked_fsum(values, f"{where}, side {side}")
                    for side, values in (("a", a), ("b", b)))
    for sign, values in (("positive", [x for x in a + b if x > 0]),
                         ("negative", [x for x in a + b if x < 0])):
        checked_fsum(values, f"{where}, pooled {sign} values")
    pooled = np.array(a + b, dtype=float)
    na, nb = len(a), len(b)
    # fsum is correctly rounded, so the replicate order cannot move it
    observed = sum_b / nb - sum_a / na
    eps = 1e-12 * max(1.0, abs(observed), float(np.max(np.abs(pooled))) or 1.0)
    total = math.comb(na + nb, na)

    def hits(pool_sum: float, sums_a: np.ndarray) -> int:
        # every caller passes a fresh sums_a, so it and stats are updated in
        # place: one temporary of their size instead of three
        stats = (pool_sum - sums_a) / nb
        stats -= np.divide(sums_a, na, out=sums_a)
        if alternative == B_GREATER:
            return int(np.sum(stats >= observed - eps))
        return int(np.sum(np.abs(stats, out=stats) >= abs(observed) - eps))

    if total <= exact_limit:
        count = hits(float(pooled.sum()), _sums_by_size(pooled, na, na)[0])
        return TestResult(observed, count / total, "permutation-mean-diff",
                          alternative, True, label=label)

    rng = np.random.default_rng(derive_seed(seed, "permutation", label or ""))
    canonical = np.concatenate([np.sort(pooled[:na]), np.sort(pooled[na:])])
    canonical_sum = float(canonical.sum())
    count = sum(hits(canonical_sum, sums_a)
                for sums_a in _side_a_sums(canonical, na, mc_samples, rng))
    p = (1 + count) / (1 + mc_samples)
    return TestResult(observed, p, "permutation-mean-diff", alternative, False,
                      label=label, seed=seed)


def _sums_by_size(values: np.ndarray, lo: int, hi: int) -> list[np.ndarray]:
    """The sums of every c-subset of `values`, one array for each c from lo to hi.

    One pass over the values extends each c-subset sum by the next value,
    so a sum adds its values in index order and each array lists its
    subsets in ascending bitmask order (bit j selects values[j]). Sizes the
    values still to come cannot lift to lo are dropped as the pass goes.
    Each kept partial subset extends to a distinct subset of a returned
    size, so no array is longer than the longest one returned.
    """
    n = len(values)
    empty = np.zeros(0)
    sums = {0: np.zeros(1)}
    for t, v in enumerate(values):
        grown = {}
        for c in range(max(0, lo - (n - t - 1)), min(t + 1, hi) + 1):
            without_v = sums.get(c, empty)
            grown[c] = np.concatenate((without_v, sums.get(c - 1, empty)))
            # added in place, so the subsets with v need no temporary array
            grown[c][len(without_v):] += v
        sums = grown
    return [sums[c] for c in range(lo, hi + 1)]


def _side_a_sums(pool: np.ndarray, na: int, samples: int,
                 rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Sums of `samples` uniform random na-subsets of `pool`, `_MC_CHUNK` at a time.

    A sample visits the `_blocks` of the pool in order, with `left` values
    still to take. Each block but the last draws its count from one
    uniform (`_Counts`); the last block takes the rest. The block then
    adds one subset sum of that size c, the one at
    first[c] + floor(u * C(width, c)) for a second uniform u. The counts of
    a uniform na-subset across the blocks are multivariate hypergeometric
    and, given them, each block's part is uniform, so every na-subset is
    drawn with probability 1 / C(len(pool), na) up to rounding: each count
    within 2**-53 of its exact probability (2**-bits in `_Counts` past
    1,023 lefts), and each subset of a group within 2**-52 of
    1 / C(width, c). u is a multiple of 2**-53 below 1, so u * C(width, c)
    rounds below C(width, c) and moves at most one such multiple across
    each whole number.
    """
    blocks = _blocks(pool, na)
    for done in range(0, samples, _MC_CHUNK):
        n = min(_MC_CHUNK, samples - done)
        left = np.full(n, na)
        sums = np.zeros(n)
        for table, first, sizes, counts in blocks:
            take = left
            if counts is not None:
                take = counts.draw(left, rng.random(n))
                left = left - take
            sums += table[first[take] + (rng.random(n) * sizes[take]).astype(np.intp)]
        yield sums


def _blocks(pool: np.ndarray, na: int) -> list[tuple]:
    """The Monte-Carlo sampler's blocks of `pool`, for na-subsets of it.

    Consecutive blocks of at most `_MC_BLOCK` values. Each holds the table
    of every subset sum, grouped by subset size (the c-subsets are
    `table[first[c]:first[c] + sizes[c]]`), and, but for the last block,
    the `_Counts` of how many values it takes. The block at `start` meets
    each `left` from max(0, na - start) to min(na, len(pool) - start).
    """
    blocks = []
    for start in range(0, len(pool), _MC_BLOCK):
        values = pool[start:start + _MC_BLOCK]
        by_size = _sums_by_size(values, 0, len(values))
        sizes = np.array([len(sums) for sums in by_size])
        after = len(pool) - start - len(values)
        lefts = min(na, len(pool) - start) - max(0, na - start) + 1
        counts = _Counts(len(values), after, lefts) if after else None
        blocks.append((np.concatenate(by_size), np.cumsum(sizes) - sizes, sizes, counts))
    return blocks


class _Counts:
    """How many of the `left` values still to take a block takes, by inverse CDF.

    A block of `width` values, with `after` values after it, takes c of
    them with probability C(width, c) C(after, left - c) / C(width + after, left).
    The row of a `left` (`rows`) holds the cuts round(2**bits P(count <= c))
    for c = 0 .. width - 1, each one correctly rounded division of exact
    integers, so they hold for any pool size. A draw's count is the number
    of its row's cuts at or below k = floor(u 2**bits) for a uniform u, so
    each count is drawn with probability within 2**-bits of the exact one.
    bits is 53 for a block that meets fewer than 1,024 values of `left`
    (`lefts`), and one less for each doubling past that, so keys stay in
    int64.

    Each row is built once, when a draw first meets its `left`: `cuts`
    holds the rows of the lefts from `lo` up, the range met so far, row
    r = left - lo offset by r << bits, so one `searchsorted` of
    (r << bits) + k counts the cuts of row r and of every earlier row.
    Rows for every left a block can meet would number O(len(pool)**2) over
    all blocks; the lefts drawn spread over a few standard deviations.
    """

    def __init__(self, width: int, after: int, lefts: int) -> None:
        self.width, self.after = width, after
        self.bits = min(53, 63 - lefts.bit_length())
        self.lo, self.cuts = 0, None

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The cuts of each `left` from lo to hi, one row each."""
        w, a = self.width, self.after
        rows = []
        for left in range(lo, hi + 1):
            # C(width, c) C(after, left - c) times left! (after - left + width)! / after!,
            # the same for every c: products of at most `width` factors, so
            # they stay small for any pool size, and zero off the support
            ways = [math.comb(w, c) * math.prod(range(left - c + 1, left + 1))
                    * math.prod(range(a - left + c + 1, a - left + w + 1))
                    for c in range(w + 1)]
            total = sum(ways)
            rows.append([((below << self.bits) + total // 2) // total
                         for below in itertools.accumulate(ways[:w])])
        return np.array(rows, dtype=np.int64).reshape(-1, w)

    def draw(self, left: np.ndarray, u: np.ndarray) -> np.ndarray:
        lo, hi = int(left.min()), int(left.max())
        if self.cuts is None:
            self.lo, self.cuts = lo, np.zeros((0, self.width), dtype=np.int64)
        top = self.lo + len(self.cuts)
        if lo < self.lo or hi >= top:
            table = self.cuts - self._offsets(len(self.cuts))
            table = np.concatenate([self.rows(lo, self.lo - 1), table, self.rows(top, hi)])
            self.lo, self.cuts = min(lo, self.lo), table + self._offsets(len(table))
        row = left - self.lo
        key = (row << self.bits) + (u * 2.0**self.bits).astype(np.int64)
        return np.searchsorted(self.cuts.ravel(), key, side="right") - row * self.width

    def _offsets(self, rows: int) -> np.ndarray:
        return (np.arange(rows, dtype=np.int64) << self.bits)[:, None]


def per_dataset_tests(
    replicates_a: Mapping[str, Sequence[float]],
    replicates_b: Mapping[str, Sequence[float]],
    alternative: str = TWO_SIDED,
    exact_limit: int = PERMUTATION_EXACT_LIMIT,
    mc_samples: int = PERMUTATION_MC_SAMPLES,
    seed: int = 0,
) -> list[TestResult]:
    """Permutation test per dataset; every dataset needs >= 2 replicates per model.

    Monte-Carlo streams derive per-dataset sub-seeds from the root seed,
    so running datasets concurrently or reordered cannot change results.
    """
    if set(replicates_a) != set(replicates_b):
        raise ConfigError("replicate maps cover different dataset sets")
    return [permutation_test(replicates_a[d], replicates_b[d], alternative, exact_limit,
                             mc_samples, seed=seed, label=d) for d in replicates_a]


def holm_correction(
    p_values: Sequence[float], alpha: float, method: str = "holm"
) -> list[bool]:
    """Step-down Holm (default) or plain Bonferroni rejection decisions.

    Returns rejection flags in the input order.  Holm sorts p ascending
    and rejects while p_(i) <= alpha / (m - i + 1), stopping at the first
    failure; it rejects a superset of what Bonferroni rejects.
    """
    if not (0 < alpha < 1):
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    ps = [float(p) for p in p_values]
    for p in ps:
        if not (0 < p <= 1):
            raise ConfigError(f"p-value {p} outside (0, 1]")
    if method not in ("holm", "bonferroni"):
        raise ConfigError(f"unknown correction method {method!r}")
    m = len(ps)
    rejected = [False] * m
    if m == 0:
        return rejected
    if method == "bonferroni":
        return [p <= alpha / m for p in ps]
    order = sorted(range(m), key=lambda i: ps[i])
    for step, idx in enumerate(order):
        if ps[idx] <= alpha / (m - step):
            rejected[idx] = True
        else:
            break
    return rejected


def prob_a_le_b(
    samples_a: Sequence[float],
    samples_b: Sequence[float],
    bootstrap_n: int = 10_000,
    seed: int = 0,
) -> float:
    """Bootstrap estimate of P(mean_A <= mean_B); ties count toward A <= B.

    Each bootstrap round independently resamples both sides with
    replacement and compares the resampled means.  Rounds are drawn
    `_MC_CHUNK` at a time, all of side A before any of side B, which
    gives the values of one draw per side.  Deterministic for a fixed seed.
    """
    a = np.asarray(list(samples_a), dtype=float)
    b = np.asarray(list(samples_b), dtype=float)
    if a.size == 0 or b.size == 0:
        raise ConfigError("sample lists must be non-empty")
    if bootstrap_n < 1000:
        raise ConfigError(f"bootstrap_n must be >= 1000, got {bootstrap_n}")
    rng = np.random.default_rng(derive_seed(seed, "prob-a-le-b"))
    chunks = [min(_MC_CHUNK, bootstrap_n - done) for done in range(0, bootstrap_n, _MC_CHUNK)]
    means_a, means_b = (
        np.concatenate([x[rng.integers(0, x.size, size=(rows, x.size))].mean(axis=1)
                        for rows in chunks]) for x in (a, b))
    return float(np.mean(means_a <= means_b))
