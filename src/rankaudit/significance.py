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

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DegenerateInputError
from .ranking import fractional_ranks
from .util import derive_seed

TWO_SIDED = "two-sided"
B_GREATER = "b-greater"

WILCOXON_EXACT_LIMIT = 20
PERMUTATION_EXACT_LIMIT = 10**5
PERMUTATION_MC_SAMPLES = 10**5
# Reassignments per numpy pass of the exact permutation test.
_EXACT_CHUNK = 2048


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
        out = {
            "method": self.method,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "alternative": self.alternative,
            "exact": self.exact,
            "zeros_dropped": self.zeros_dropped,
        }
        if self.label is not None:
            out["label"] = self.label
        if self.seed is not None:
            out["seed"] = self.seed
        return out


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
    most `exact_limit`; otherwise `mc_samples` seeded random reassignments
    estimate the p-value with the +1 correction so p stays in (0, 1].
    """
    _check_alternative(alternative)
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if len(a) < 2 or len(b) < 2:
        raise ConfigError("permutation test needs at least 2 replicates per side")
    pooled = np.array(a + b, dtype=float)
    na, nb = len(a), len(b)
    observed = float(np.mean(b) - np.mean(a))
    eps = 1e-12 * max(1.0, abs(observed), float(np.max(np.abs(pooled))) or 1.0)
    total = math.comb(na + nb, na)

    if total <= exact_limit:
        count = 0
        pooled_sum = float(pooled.sum())
        reassignments = combinations(range(na + nb), na)
        while len(idx := np.fromiter(islice(reassignments, _EXACT_CHUNK), (np.intp, na))):
            # Each row is summed by the same numpy reduction as the 1-D sum of
            # its values, so every stat matches a one-at-a-time loop bit for bit.
            sum_a = pooled[idx].sum(axis=1)
            stat = (pooled_sum - sum_a) / nb - sum_a / na
            if alternative == B_GREATER:
                hits = stat >= observed - eps
            else:
                hits = np.abs(stat) >= abs(observed) - eps
            count += int(hits.sum())
        return TestResult(observed, count / total, "permutation-mean-diff",
                          alternative, True, label=label)

    rng = np.random.default_rng(derive_seed(seed, "permutation", label or ""))
    count = 0
    batch = 2000
    done = 0
    while done < mc_samples:
        size = min(batch, mc_samples - done)
        perms = rng.permuted(np.tile(pooled, (size, 1)), axis=1)
        stats = perms[:, na:].mean(axis=1) - perms[:, :na].mean(axis=1)
        if alternative == B_GREATER:
            count += int(np.sum(stats >= observed - eps))
        else:
            count += int(np.sum(np.abs(stats) >= abs(observed) - eps))
        done += size
    p = (1 + count) / (1 + mc_samples)
    return TestResult(observed, p, "permutation-mean-diff", alternative, False,
                      label=label, seed=seed)


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
    results = []
    for dataset in replicates_a:
        a, b = replicates_a[dataset], replicates_b[dataset]
        if len(a) < 2 or len(b) < 2:
            raise ConfigError(f"dataset {dataset!r} has fewer than 2 replicates per model")
        results.append(
            permutation_test(a, b, alternative, exact_limit, mc_samples,
                             seed=seed, label=dataset)
        )
    return results


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
    m = len(ps)
    rejected = [False] * m
    if m == 0:
        return rejected
    if method == "bonferroni":
        return [p <= alpha / m for p in ps]
    if method != "holm":
        raise ConfigError(f"unknown correction method {method!r}")
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
    replacement and compares the resampled means.  Deterministic for a
    fixed seed.
    """
    a = np.asarray(list(samples_a), dtype=float)
    b = np.asarray(list(samples_b), dtype=float)
    if a.size == 0 or b.size == 0:
        raise ConfigError("sample lists must be non-empty")
    if bootstrap_n < 1000:
        raise ConfigError(f"bootstrap_n must be >= 1000, got {bootstrap_n}")
    rng = np.random.default_rng(derive_seed(seed, "prob-a-le-b"))
    means_a = a[rng.integers(0, a.size, size=(bootstrap_n, a.size))].mean(axis=1)
    means_b = b[rng.integers(0, b.size, size=(bootstrap_n, b.size))].mean(axis=1)
    return float(np.mean(means_a <= means_b))
