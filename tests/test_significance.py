import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rankaudit.significance as significance
from rankaudit.errors import ConfigError, DegenerateInputError, DomainError
from rankaudit.ranking import fractional_ranks
from rankaudit.significance import (
    B_GREATER,
    TWO_SIDED,
    PairedSamples,
    exact_wplus_distribution,
    holm_correction,
    per_dataset_tests,
    permutation_test,
    prob_a_le_b,
    wilcoxon_signed_rank,
)
from rankaudit.util import derive_seed


def paired(diffs):
    """PairedSamples with a = 0 and b = the wanted differences."""
    n = len(diffs)
    return PairedSamples(tuple(f"d{i}" for i in range(n)),
                         tuple(0.0 for _ in diffs), tuple(float(d) for d in diffs))


# -- oracles -------------------------------------------------------------------


def wilcoxon_brute_oracle(diffs, alternative):
    """Enumerate all 2^n sign assignments of |d| ranks directly."""
    nonzero = [d for d in diffs if d != 0]
    ranks = fractional_ranks([abs(d) for d in nonzero], descending=False)
    w_obs = sum(r for d, r in zip(nonzero, ranks) if d > 0)
    ge = le = total = 0
    for signs in product((0, 1), repeat=len(ranks)):
        w = sum(r for s, r in zip(signs, ranks) if s)
        total += 1
        ge += w >= w_obs - 1e-9
        le += w <= w_obs + 1e-9
    if alternative == B_GREATER:
        return ge / total
    return min(1.0, 2.0 * min(ge / total, le / total))


def permutation_exact_oracle(a, b, alternative):
    pooled = list(a) + list(b)
    na = len(a)
    observed = sum(b) / len(b) - sum(a) / na
    count = total = 0
    for idx in combinations(range(len(pooled)), na):
        total += 1
        ga = [pooled[i] for i in idx]
        gb = [pooled[i] for i in range(len(pooled)) if i not in set(idx)]
        stat = sum(gb) / len(gb) - sum(ga) / len(ga)
        if alternative == B_GREATER:
            count += stat >= observed - 1e-9
        else:
            count += abs(stat) >= abs(observed) - 1e-9
    return count / total


def permutation_loop_oracle(a, b, alternative):
    """The exact branch as it was: one reassignment per loop iteration.

    Same observed, eps and hit test as `permutation_test`. Each side-a sum
    here is numpy's reduction of the row, while `permutation_test` adds a
    subset's values left to right in index order. The two roundings differ
    by a few ulps, far below eps, so the counts and the p still agree.
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    pooled = np.array(a + b, dtype=float)
    na, nb = len(a), len(b)
    observed = float(np.mean(b) - np.mean(a))
    eps = 1e-12 * max(1.0, abs(observed), float(np.max(np.abs(pooled))) or 1.0)
    total = comb(na + nb, na)
    count = 0
    idx_all = range(na + nb)
    pooled_sum = float(pooled.sum())
    for a_idx in combinations(idx_all, na):
        sum_a = float(pooled[list(a_idx)].sum())
        stat = (pooled_sum - sum_a) / nb - sum_a / na
        if alternative == B_GREATER:
            hit = stat >= observed - eps
        else:
            hit = abs(stat) >= abs(observed) - eps
        count += hit
    return count / total


def subset_sum_oracle(a, b, alternative):
    """Exact p from the number of side-a reassignments with each sum.

    Integer replicates only: every subset sum is then exact in float, so
    the statistic of a sum is the one `permutation_test` computes from it,
    with the same observed, eps and hit test. Counts by (size, sum), so it
    stays cheap where C(na + nb, na) is in the millions.
    """
    assert all(float(x).is_integer() for x in list(a) + list(b))
    na, nb = len(a), len(b)
    counts = {(0, 0.0): 1}
    for x in list(a) + list(b):
        for (size, total), c in list(counts.items()):
            if size < na:
                key = (size + 1, total + float(x))
                counts[key] = counts.get(key, 0) + c
    pooled_sum = float(sum(a) + sum(b))
    observed = sum(b) / nb - sum(a) / na
    eps = 1e-12 * max(1.0, abs(observed), max(abs(x) for x in list(a) + list(b)))
    count = 0
    for (size, sum_a), c in counts.items():
        stat = (pooled_sum - sum_a) / nb - sum_a / na
        if size == na and (stat >= observed - eps if alternative == B_GREATER
                           else abs(stat) >= abs(observed) - eps):
            count += c
    return count / comb(na + nb, na)


@st.composite
def boundary_replicates(draw):
    """Replicate sets whose stats sit on the eps boundary of the observed one.

    Values have 2-3 decimals (inexact in binary) from a small range, so
    pools repeat values and many reassignments tie the observed difference
    up to rounding.  Shapes: plain, a and b swapped, an all-equal pool and
    b a shifted copy of a.
    """
    na, nb = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    scale = draw(st.sampled_from([100, 1000]))
    value = st.integers(0, 12).map(lambda v: v / scale)
    a = draw(st.lists(value, min_size=na, max_size=na))
    b = draw(st.lists(value, min_size=nb, max_size=nb))
    shape = draw(st.sampled_from(["plain", "swapped", "all-equal", "shifted"]))
    if shape == "swapped":
        a, b = b, a
    elif shape == "all-equal":
        a, b = [a[0]] * na, [a[0]] * nb
    elif shape == "shifted":
        b = [x + draw(value) for x in a]
    return a, b


# -- paired samples ---------------------------------------------------------------


def test_paired_samples_validation():
    with pytest.raises(ConfigError):
        PairedSamples(("a",), (1.0,), (1.0, 2.0))
    with pytest.raises(ConfigError):
        PairedSamples((), (), ())


# -- Wilcoxon signed-rank ----------------------------------------------------------


def test_wilcoxon_all_positive_n5_exact_one_sided():
    res = wilcoxon_signed_rank(paired([1, 2, 3, 4, 5]), B_GREATER)
    assert res.exact
    assert res.statistic == 15.0
    assert res.p_value == 1.0 / 32.0


def test_wilcoxon_symmetric_two_sided_is_one():
    res = wilcoxon_signed_rank(paired([+1, -1]), TWO_SIDED)
    assert res.p_value == pytest.approx(1.0)


def test_wilcoxon_drops_zeros_and_counts_them():
    res = wilcoxon_signed_rank(paired([0, 0, 1, 2, 3]), B_GREATER)
    assert res.zeros_dropped == 2
    assert res.p_value == 1.0 / 8.0  # n = 3 after dropping


def test_wilcoxon_all_zero_degenerate():
    with pytest.raises(DegenerateInputError):
        wilcoxon_signed_rank(paired([0, 0, 0]))


def test_wilcoxon_exact_matches_brute_oracle_with_ties():
    rng = np.random.default_rng(31)
    for _ in range(20):
        diffs = rng.integers(-4, 5, size=9).tolist()
        if all(d == 0 for d in diffs):
            continue
        for alternative in (B_GREATER, TWO_SIDED):
            res = wilcoxon_signed_rank(paired(diffs), alternative)
            assert res.exact
            assert res.p_value == pytest.approx(
                wilcoxon_brute_oracle(diffs, alternative), abs=1e-12
            )


def test_wilcoxon_exact_null_sums_to_one():
    rng = np.random.default_rng(30)
    for n in range(1, 21):
        untied = fractional_ranks(list(range(1, n + 1)), descending=False)
        tied = fractional_ranks(
            rng.integers(1, max(2, n), size=n).astype(float).tolist(), descending=False
        )
        for ranks in (untied, tied):
            pmf = exact_wplus_distribution(ranks)
            assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)


def test_wilcoxon_exact_vs_monte_carlo_sign_flips():
    # 10^6 seeded sign-flip draws; exact p must land within 3 standard errors
    rng = np.random.default_rng(32)
    diffs = rng.normal(0.4, 1.0, size=12)
    res = wilcoxon_signed_rank(paired(diffs.tolist()), B_GREATER)
    assert res.exact

    nonzero = diffs[diffs != 0]
    ranks = np.array(fractional_ranks(np.abs(nonzero).tolist(), descending=False))
    w_obs = float(ranks[nonzero > 0].sum())
    draws = 10**6
    signs = np.random.default_rng(1234).integers(0, 2, size=(draws, len(ranks)))
    w_null = signs @ ranks
    p_hat = float(np.mean(w_null >= w_obs - 1e-9))
    se = max(np.sqrt(p_hat * (1 - p_hat) / draws), 1e-6)
    assert abs(res.p_value - p_hat) <= 3 * se


def test_wilcoxon_normal_approximation_near_exact():
    rng = np.random.default_rng(33)
    diffs = rng.normal(0.3, 1.0, size=25).tolist()
    approx = wilcoxon_signed_rank(paired(diffs), B_GREATER)  # n > 20 -> approx
    assert not approx.exact
    exact = wilcoxon_signed_rank(paired(diffs), B_GREATER, exact_limit=25)
    assert exact.exact
    assert approx.p_value == pytest.approx(exact.p_value, abs=0.02)


def test_wilcoxon_normal_approximation_two_sided():
    rng = np.random.default_rng(33)
    diffs = rng.normal(0.3, 1.0, size=25).tolist()
    greater = wilcoxon_signed_rank(paired(diffs), B_GREATER)
    both = wilcoxon_signed_rank(paired(diffs), TWO_SIDED)
    assert not both.exact and both.statistic > 25 * 26 / 4  # W+ above its null mean
    assert both.p_value == min(1.0, 2.0 * greater.p_value)
    assert wilcoxon_signed_rank(paired([-d for d in diffs]), TWO_SIDED).p_value == both.p_value
    exact = wilcoxon_signed_rank(paired(diffs), TWO_SIDED, exact_limit=25)
    assert both.p_value == pytest.approx(exact.p_value, abs=0.02)


def test_wilcoxon_agrees_with_scipy_no_ties():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(34)
    diffs = (rng.permutation(10) + 1) * np.where(rng.integers(0, 2, 10) == 1, 1, -1)
    res = wilcoxon_signed_rank(paired(diffs.tolist()), TWO_SIDED)
    expected = scipy_stats.wilcoxon(diffs.astype(float), alternative="two-sided",
                                    method="exact")
    assert res.p_value == pytest.approx(expected.pvalue, abs=1e-12)


def test_wilcoxon_shift_consistency():
    rng = np.random.default_rng(35)
    a = rng.normal(size=10)
    b = a + rng.normal(0.5, 1.0, size=10)
    labels = tuple(f"d{i}" for i in range(10))
    base = wilcoxon_signed_rank(PairedSamples(labels, tuple(a), tuple(b)), B_GREATER)
    shifted = wilcoxon_signed_rank(
        PairedSamples(labels, tuple(a + 7.5), tuple(b + 7.5)), B_GREATER
    )
    assert base.statistic == shifted.statistic
    assert base.p_value == shifted.p_value


# -- permutation test ----------------------------------------------------------------


def test_permutation_identical_replicates_p_one():
    res = permutation_test([1.0, 1.0], [1.0, 1.0], TWO_SIDED)
    assert res.p_value == pytest.approx(1.0)
    assert res.exact


def test_permutation_separated_groups_exact_p():
    res = permutation_test([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], B_GREATER)
    assert res.exact
    assert res.p_value == pytest.approx(1.0 / comb(6, 3))


def test_permutation_result_to_dict_has_label_and_seed_only_when_set():
    common = {"method": "permutation-mean-diff", "statistic": 3.0, "alternative": B_GREATER,
              "zeros_dropped": 0}
    exact = permutation_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], B_GREATER, label="d1")
    assert exact.to_dict() == {**common, "p_value": exact.p_value, "exact": True, "label": "d1"}
    mc = permutation_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], B_GREATER, exact_limit=1,
                          mc_samples=100, seed=7, label="d1")
    assert mc.to_dict() == {**common, "p_value": mc.p_value, "exact": False, "label": "d1",
                            "seed": 7}
    unlabelled = permutation_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], B_GREATER)
    assert unlabelled.to_dict() == {**common, "p_value": exact.p_value, "exact": True}


def test_permutation_needs_two_replicates():
    with pytest.raises(ConfigError):
        permutation_test([1.0], [1.0, 2.0])


@pytest.mark.parametrize("alternative", [TWO_SIDED, B_GREATER])
@pytest.mark.parametrize("a, b, side", [([1e308, 1e308], [1.0, 2.0], "side a"),
                                        ([1.0, 2.0], [-1e308, -1e308, 0.0], "side b")])
def test_permutation_side_sum_overflow_is_a_domain_error(a, b, side, alternative):
    # used to overflow inside numpy (a RuntimeWarning, an error under pytest)
    # and then reject its own p-value of 0 as a ConfigError
    with pytest.raises(DomainError) as exc:
        permutation_test(a, b, alternative, label="d7")
    assert "'d7'" in str(exc.value) and side in str(exc.value)


@pytest.mark.parametrize("alternative", [TWO_SIDED, B_GREATER])
@pytest.mark.parametrize("exact_limit", [significance.PERMUTATION_EXACT_LIMIT, 0])
@pytest.mark.parametrize("a, b, sign", [([1e308, -1e308], [1e308, -1e308], "positive"),
                                        ([-1e308, 1.0], [1.0, -1e308], "negative")])
def test_permutation_reassignment_overflow_is_a_domain_error(a, b, sign, exact_limit,
                                                             alternative):
    # each side's sum is finite, but some reassignment's is not; this used to
    # overflow inside numpy and return a p-value from infinite statistics
    with pytest.raises(DomainError) as exc:
        permutation_test(a, b, alternative, exact_limit=exact_limit, mc_samples=10,
                         label="d7")
    assert "'d7'" in str(exc.value) and f"pooled {sign} values" in str(exc.value)


def test_permutation_exact_matches_oracle():
    rng = np.random.default_rng(36)
    for _ in range(10):
        a = rng.integers(0, 10, size=4).tolist()
        b = rng.integers(0, 10, size=5).tolist()
        for alternative in (B_GREATER, TWO_SIDED):
            res = permutation_test(a, b, alternative)
            assert res.exact
            assert res.p_value == pytest.approx(
                permutation_exact_oracle(a, b, alternative), abs=1e-12
            )


@given(boundary_replicates())
def test_permutation_exact_equals_loop_oracle(case):
    a, b = case
    for alternative in (B_GREATER, TWO_SIDED):
        res = permutation_test(a, b, alternative)
        assert res.exact
        assert res.p_value == permutation_loop_oracle(a, b, alternative)


# 126, 330, 35, 56 and 330 reassignments; the last two have na > nb, so
# side a takes most of the pool.
@pytest.mark.parametrize("a, b", [
    ([0.1, 0.2, 0.3, 0.1], [0.3, 0.2, 0.1, 0.2, 0.3]),
    ([0.25, 0.5, 0.25, 0.75], [0.5, 0.5, 0.75, 1.0, 0.25, 0.5, 0.75]),
    ([0.01, 0.02, 0.03], [0.03, 0.02, 0.01, 0.04]),
    ([0.3, 0.1, 0.7, 0.2, 0.1], [0.9, 0.2, 0.6]),
    ([0.5, 0.25, 0.75, 0.5, 1.0, 0.25, 0.5], [0.75, 1.0, 0.5, 0.75]),
])
def test_permutation_exact_shapes_equal_loop_oracle(a, b):
    for alternative in (B_GREATER, TWO_SIDED):
        res = permutation_test(a, b, alternative)
        assert res.exact
        assert res.p_value == permutation_loop_oracle(a, b, alternative)


@pytest.mark.parametrize("na, nb", [(2, 6), (3, 6), (4, 7), (6, 2), (4, 4)])
def test_exact_sums_are_every_side_a_once(na, nb):
    # Distinct powers of two give every subset its own exact sum, so the
    # pruned array of the exact branch names each na-subset once, in
    # ascending bitmask order.
    pool = 2.0 ** np.arange(na + nb)
    (sums,) = significance._sums_by_size(pool, na, na)
    masks = sorted(sum(1 << i for i in idx) for idx in combinations(range(na + nb), na))
    assert sums.tolist() == [float(mask) for mask in masks]


def doubling_table(values):
    """Every subset sum of `values` by doubling, grouped by size in bitmask order."""
    w = len(values)
    sums = np.zeros(1 << w)
    for j, v in enumerate(values):
        sums[1 << j:2 << j] = sums[:1 << j] + v
    order = np.argsort(np.bitwise_count(np.arange(1 << w)), kind="stable")
    return sums[order]


@pytest.mark.parametrize("values", [[0.1, 0.2, 0.2, 0.3, 0.1, 0.7, 0.3],
                                    [0.01, 1e16, 0.3, -1e16, 0.07, 0.11, 2.5, 0.3]])
def test_sums_by_size_equals_left_to_right_sums(values):
    # Tied decimals, and a pool where the order of the additions shows:
    # 1e16 swallows 0.01 and the later -1e16 cannot bring it back.
    n = len(values)
    pool = np.array(values)
    for lo, hi in [(0, n), (0, 0), (n, n), (3, 3), (2, 5), (0, 2), (5, n)]:
        by_size = significance._sums_by_size(pool, lo, hi)
        assert len(by_size) == hi - lo + 1
        for c, sums in zip(range(lo, hi + 1), by_size):
            subsets = sorted(combinations(range(n), c),
                             key=lambda idx: sum(1 << i for i in idx))
            expected = []
            for idx in subsets:
                total = 0.0
                for i in idx:
                    total += values[i]
                expected.append(total)
            assert sums.tolist() == expected
    assert np.array_equal(np.concatenate(significance._sums_by_size(pool, 0, n)),
                          doubling_table(pool))


@pytest.mark.parametrize("pool", [[1, 2, 2, 3, 3, 3, 5, 7], np.linspace(0.1, 2.9, 29)])
def test_side_a_sums_block_tables_equal_doubling_table(pool, monkeypatch):
    # Each block's table and group starts must be the ones the sampler has
    # always drawn from, or a seeded Monte-Carlo p-value moves.
    pool = np.array(pool, dtype=float)
    tables = []
    build = significance._sums_by_size

    def recorded(*args):
        tables.append(build(*args))
        return tables[-1]

    monkeypatch.setattr(significance, "_sums_by_size", recorded)
    next(significance._side_a_sums(pool, 3, 1, np.random.default_rng(0)))
    blocks = [pool[i:i + significance._MC_BLOCK]
              for i in range(0, len(pool), significance._MC_BLOCK)]
    assert len(tables) == len(blocks)
    for by_size, block in zip(tables, blocks):
        assert [len(sums) for sums in by_size] == [comb(len(block), c)
                                                    for c in range(len(block) + 1)]
        assert np.array_equal(np.concatenate(by_size), doubling_table(block))


@pytest.mark.parametrize("na, nb", [(10, 9), (9, 10), (445, 2), (2, 445)])
def test_permutation_exact_memory_is_bounded(na, nb):
    # 92,378 or 99,681 reassignments, under the default exact limit: one
    # array of their sums is 0.8 MB. Building side a's 445 indices of every
    # 445+2 reassignment, even 2,048 rows at a time, peaks near 30 MB.
    rng = np.random.default_rng(20)
    a, b = rng.random(na).tolist(), rng.random(nb).tolist()
    assert comb(na + nb, na) <= significance.PERMUTATION_EXACT_LIMIT
    tracemalloc.start()
    try:
        assert permutation_test(a, b).exact
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10**6


def test_permutation_monte_carlo_ignores_replicate_order():
    # p near 0.53 and 0.94; permuting the pool in its listed order instead
    # of the sorted one moves p by up to 0.015 under these reorderings
    rng = np.random.default_rng(64)
    a = rng.normal(0.0, 1.0, size=12).tolist()
    b = rng.normal(0.0, 1.0, size=12).tolist()
    for alternative in (B_GREATER, TWO_SIDED):
        listed = permutation_test(a, b, alternative, mc_samples=5000, label="d")
        assert not listed.exact
        for a2, b2 in ((a[::-1], b[::-1]), (a[5:] + a[:5], b[1:] + b[:1])):
            assert permutation_test(a2, b2, alternative, mc_samples=5000,
                                    label="d") == listed


def test_permutation_monte_carlo_close_to_exact():
    rng = np.random.default_rng(37)
    a = rng.normal(0.0, 1.0, size=6).tolist()
    b = rng.normal(0.8, 1.0, size=6).tolist()
    exact = permutation_test(a, b, B_GREATER)
    assert exact.exact
    mc = permutation_test(a, b, B_GREATER, exact_limit=1, mc_samples=10**5, seed=9)
    assert not mc.exact
    assert mc.seed == 9
    assert mc.p_value == pytest.approx(exact.p_value, abs=0.02)


@pytest.mark.parametrize("alternative", [B_GREATER, TWO_SIDED])
@pytest.mark.parametrize("na, nb", [(3, 25), (20, 5), (14, 2), (12, 13)])
def test_permutation_monte_carlo_matches_exact_across_blocks(na, nb, alternative):
    # 28, 25, 16 and 25 values: three, three, two and three blocks, the last
    # one short; 20+5 samples the larger side. 12+13 is past any exact limit worth running,
    # so the subset-sum oracle stands in for the exact branch, which must
    # equal it on the three shapes it can enumerate.
    rng = np.random.default_rng(17)
    a = rng.integers(50, 90, size=na).astype(float).tolist()
    b = rng.integers(55, 95, size=nb).astype(float).tolist()
    exact = subset_sum_oracle(a, b, alternative)
    assert 0.01 < exact < 0.99
    if comb(na + nb, na) <= significance.PERMUTATION_EXACT_LIMIT:
        assert permutation_test(a, b, alternative).p_value == exact
    mc = permutation_test(a, b, alternative, exact_limit=1, seed=5)
    assert not mc.exact
    se = sqrt(exact * (1 - exact) / significance.PERMUTATION_MC_SAMPLES)
    assert abs(mc.p_value - exact) <= 4 * se


@pytest.mark.parametrize("na", [3, 5])
@pytest.mark.parametrize("block", [1, 3, significance._MC_BLOCK])
@pytest.mark.parametrize("pool", [[1, 2, 2, 3, 3, 3, 5, 7], [1, 2, 4, 8, 16, 32, 64, 128]])
def test_side_a_sums_are_uniform_subsets(pool, block, na, monkeypatch):
    # Blocks of 3 cut the 8 values 3 + 3 + 2, and blocks of 12 leave one
    # block, which takes every value itself. The tied pool checks each
    # distinct sum; the powers of two give every subset a sum of its own.
    monkeypatch.setattr(significance, "_MC_BLOCK", block)
    draws = 40_000
    expected = Counter(sum(c) for c in combinations(pool, na))
    chunks = significance._side_a_sums(np.array(pool, dtype=float), na, draws,
                                       np.random.default_rng(18))
    seen = Counter(np.concatenate(list(chunks)).tolist())
    assert set(seen) <= set(expected)
    for value, c in expected.items():
        p = c / comb(len(pool), na)
        assert abs(seen[value] / draws - p) <= 4.5 * sqrt(p * (1 - p) / draws)


def test_side_a_sums_yields_exactly_the_samples_asked():
    chunk = significance._MC_CHUNK
    chunks = list(significance._side_a_sums(np.arange(24.0), 12, chunk + 1,
                                            np.random.default_rng(0)))
    assert [len(sums) for sums in chunks] == [chunk, 1]
    sums = np.concatenate(chunks)
    # twelve of 0..23 sum to an integer between 0+...+11 and 12+...+23
    assert np.all((sums == np.round(sums)) & (sums >= 66) & (sums <= 210))


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("block", [1, 3, significance._MC_BLOCK])
def test_count_tables_are_the_exact_hypergeometric_within_the_bound(block, blocks,
                                                                   monkeypatch):
    # Not the seeded stream: the probability of each count that a block's
    # draw implies, for every na and every `left` the block can meet,
    # against the exact hypergeometric value. A draw's count is the number
    # of its row's cuts at or below k, checked at k = cut - 1 and k = cut;
    # count c then has probability (cut c - cut c-1) / 2**bits. The last
    # block is one value short.
    monkeypatch.setattr(significance, "_MC_BLOCK", block)
    size = block * (blocks - 1) + max(1, block - 1)
    pool = np.arange(float(size))
    for na in range(1, size):
        sampler_blocks = significance._blocks(pool, na)
        assert len(sampler_blocks) == blocks
        for i, (_, _, sizes, counts) in enumerate(sampler_blocks):
            start, width = i * block, len(sizes) - 1
            after = size - start - width
            if not after:
                assert counts is None
                continue
            assert counts.bits == 53
            lefts = [na - j for j in range(start + 1) if 0 <= na - j <= size - start]
            for left in lefts:
                row = counts.rows(left, left)[0].tolist()
                keys = np.array([k for cut in row for k in (cut - 1, cut)
                                 if 0 <= k < 1 << 53])
                drawn = counts.draw(np.full(len(keys), left), keys * 2.0**-53)
                assert drawn.tolist() == np.searchsorted(row, keys, side="right").tolist()
                cdf = [0, *row, 1 << 53]
                for c in range(width + 1):
                    exact = Fraction(comb(width, c) * comb(after, left - c) if c <= left
                                     else 0, comb(width + after, left))
                    drawn_p = Fraction(cdf[c + 1] - cdf[c], 1 << 53)
                    assert abs(drawn_p - exact) <= Fraction(1, 1 << 53)


def test_counts_keep_keys_in_int64_past_1024_lefts():
    # A block of one value of 2,048 leaves it out of `left` with probability
    # (2048 - left) / 2048, a multiple of 2**-52, so the cut sits there.
    counts = significance._Counts(1, 2047, 1024)
    assert counts.bits == 52
    left = np.arange(1024)
    cut = (2048 - left) << 41
    assert counts.rows(0, 1023)[:, 0].tolist() == cut.tolist()
    below = counts.draw(left, (cut - 1) * 2.0**-52)
    at = counts.draw(left[1:], cut[1:] * 2.0**-52)
    assert below.tolist() == [0] * 1024 and at.tolist() == [1] * 1023
    # Of 1,030 + 1,030 values, the block at 1,020 meets lefts 10 .. 1,030
    # and the one at 1,032 lefts 0 .. 1,028, one past 1,023 of them.
    blocks = significance._blocks(np.arange(2060.0), 1030)
    assert [blocks[i][3].bits for i in (85, 86)] == [53, 52]


def test_counts_build_only_the_rows_drawn_and_draw_alike_in_any_order():
    u = np.random.default_rng(3).random(40)
    left = np.arange(40) % 11 + 2  # lefts 2 .. 12
    grown = significance._Counts(12, 30, 31)
    grown.draw(np.full(5, 7), u[:5])
    assert (grown.lo, len(grown.cuts)) == (7, 1)
    assert grown.draw(left[left > 5], u[left > 5]).tolist() == significance._Counts(
        12, 30, 31).draw(left[left > 5], u[left > 5]).tolist()
    assert (grown.lo, len(grown.cuts)) == (6, 7)
    fresh = significance._Counts(12, 30, 31)
    assert grown.draw(left, u).tolist() == fresh.draw(left, u).tolist()
    assert (grown.lo, len(grown.cuts)) == (fresh.lo, len(fresh.cuts)) == (2, 11)
    assert np.array_equal(grown.cuts, fresh.cuts)


def test_subset_pick_is_uniform_within_the_bound():
    # A group of m subsets is picked as floor(u * m) for u = k / 2**53; count
    # the k of each pick exactly. The float product may round up across one
    # boundary, never to m itself.
    def first_k(j, m):
        k = -(-(j << 53) // m)
        return k - 1 if (k - 1) * 2.0**-53 * m >= j else k

    for m in sorted({comb(w, c) for w in range(1, significance._MC_BLOCK + 1)
                     for c in range(w + 1)}):
        ks = [0] + [first_k(j, m) for j in range(1, m)] + [1 << 53]
        assert ((1 << 53) - 1) * 2.0**-53 * m < m
        for j in range(1, m):
            assert (ks[j] - 1) * 2.0**-53 * m < j <= ks[j] * 2.0**-53 * m
        for lo, hi in zip(ks, ks[1:]):
            assert abs(Fraction(hi - lo, 1 << 53) - Fraction(1, m)) <= Fraction(1, 1 << 52)


@pytest.mark.parametrize("alternative", [B_GREATER, TWO_SIDED])
@pytest.mark.parametrize("na, nb, low, high", [(5, 55, 50, 90), (40, 40, 0, 5)])
def test_permutation_monte_carlo_matches_oracle_on_wide_pools(na, nb, low, high,
                                                              alternative):
    # 5+55 cuts the pool into five blocks. 40+40 has C(80, 40) >= 2**63
    # reassignments, past any int64 rank; its values 0-4 keep the oracle
    # cheap.
    rng = np.random.default_rng(21)
    a = rng.integers(low, high, size=na).astype(float).tolist()
    b = rng.integers(low, high, size=nb).astype(float).tolist()
    exact = subset_sum_oracle(a, b, alternative)
    assert 0.01 < exact < 0.99
    mc = permutation_test(a, b, alternative, exact_limit=1, seed=5)
    assert not mc.exact
    se = sqrt(exact * (1 - exact) / significance.PERMUTATION_MC_SAMPLES)
    assert abs(mc.p_value - exact) <= 4 * se


def test_permutation_monte_carlo_memory_is_bounded():
    # Samples are drawn a chunk at a time from two 32 KB tables; drawing all
    # 10^5 in one pass, or permuting a tiled pool, peaks past 1 MB.
    rng = np.random.default_rng(19)
    a, b = rng.random(12).tolist(), rng.random(12).tolist()
    tracemalloc.start()
    try:
        assert not permutation_test(a, b).exact
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.mark.parametrize("mc_samples", [0, -1, -2, True, 2.0])
def test_permutation_rejects_mc_samples_that_are_not_positive_ints(mc_samples):
    # the parent ran 0 samples to p = 1.0, failed -1 on a ZeroDivisionError,
    # -2 on its own p-value of -1.0 and ran True as one sample
    with pytest.raises(ConfigError, match="mc_samples"):
        permutation_test([0.1, 0.2, 0.3], [0.4, 0.5, 0.6], exact_limit=0,
                         mc_samples=mc_samples)
    with pytest.raises(ConfigError, match="mc_samples"):
        per_dataset_tests({"d1": [0.1, 0.2]}, {"d1": [0.3, 0.4]}, mc_samples=mc_samples)


def test_permutation_antisymmetry_of_one_sided_p():
    # swapping the groups maps p to 1 - p + P(stat == observed)
    rng = np.random.default_rng(38)
    for _ in range(10):
        a = rng.integers(0, 6, size=4).tolist()
        b = rng.integers(0, 6, size=4).tolist()
        p_ab = permutation_test(a, b, B_GREATER).p_value
        p_ba = permutation_test(b, a, B_GREATER).p_value
        pooled = a + b
        observed = sum(b) / len(b) - sum(a) / len(a)
        eq = total = 0
        for idx in combinations(range(len(pooled)), len(a)):
            total += 1
            ga = [pooled[i] for i in idx]
            gb = [pooled[i] for i in range(len(pooled)) if i not in set(idx)]
            stat = sum(gb) / len(gb) - sum(ga) / len(ga)
            eq += abs(stat - observed) <= 1e-9
        assert p_ab + p_ba == pytest.approx(1.0 + eq / total, abs=1e-9)


def test_permutation_shift_consistency():
    a = [0.1, 0.4, 0.3]
    b = [0.5, 0.9, 0.7]
    base = permutation_test(a, b, B_GREATER)
    shifted = permutation_test([x + 3 for x in a], [x + 3 for x in b], B_GREATER)
    assert base.p_value == pytest.approx(shifted.p_value, abs=1e-12)


def test_per_dataset_tests_examples():
    reps_a = {"d1": [1.0, 1.0], "d2": [0.0, 0.0, 0.0]}
    reps_b = {"d1": [1.0, 1.0], "d2": [1.0, 1.0, 1.0]}
    results = per_dataset_tests(reps_a, reps_b, B_GREATER)
    by_label = {r.label: r for r in results}
    assert by_label["d1"].p_value == pytest.approx(1.0)
    assert by_label["d2"].p_value == pytest.approx(1.0 / comb(6, 3))


def test_per_dataset_tests_validation():
    with pytest.raises(ConfigError):
        per_dataset_tests({"d1": [1.0, 2.0]}, {"d2": [1.0, 2.0]})
    with pytest.raises(ConfigError, match="'d1'"):
        per_dataset_tests({"d1": [1.0]}, {"d1": [1.0, 2.0]})


def test_per_dataset_tests_deterministic_across_order():
    rng = np.random.default_rng(39)
    reps_a = {f"d{i}": rng.normal(0, 1, size=12).tolist() for i in range(3)}
    reps_b = {f"d{i}": rng.normal(0.5, 1, size=12).tolist() for i in range(3)}
    forward = per_dataset_tests(reps_a, reps_b, B_GREATER, exact_limit=1, seed=11)
    reversed_a = dict(reversed(list(reps_a.items())))
    reversed_b = dict(reversed(list(reps_b.items())))
    backward = per_dataset_tests(reversed_a, reversed_b, B_GREATER, exact_limit=1, seed=11)
    fwd = {r.label: r.p_value for r in forward}
    bwd = {r.label: r.p_value for r in backward}
    assert fwd == bwd


# -- Holm / Bonferroni ------------------------------------------------------------------


def test_holm_single_p_reduces_to_plain_test():
    assert holm_correction([0.04], 0.05) == [True]


def test_holm_step_down_rejects_both():
    # 0.01 <= 0.05/2, then 0.04 <= 0.05/1
    assert holm_correction([0.01, 0.04], 0.05) == [True, True]


def test_holm_stops_at_first_failure():
    # 0.03 > 0.05/2 stops the procedure immediately
    assert holm_correction([0.03, 0.04], 0.05) == [False, False]


def test_holm_results_in_input_order():
    assert holm_correction([0.04, 0.01], 0.05) == [True, True]
    assert holm_correction([0.9, 0.001], 0.05) == [False, True]


def test_bonferroni_mode():
    assert holm_correction([0.01, 0.04], 0.05, method="bonferroni") == [True, False]


def test_correction_validation():
    with pytest.raises(ConfigError):
        holm_correction([0.5], 0.0)
    with pytest.raises(ConfigError):
        holm_correction([0.0], 0.05)
    with pytest.raises(ConfigError):
        holm_correction([0.5], 0.05, method="fdr")
    with pytest.raises(ConfigError):
        holm_correction([], 0.05, "bogus")


@given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=10),
       st.floats(0.01, 0.2))
def test_holm_dominates_bonferroni(ps, alpha):
    holm = holm_correction(ps, alpha, "holm")
    bonf = holm_correction(ps, alpha, "bonferroni")
    for h, b in zip(holm, bonf):
        assert h or not b  # every Bonferroni rejection is a Holm rejection


# -- bootstrap P(A <= B) ---------------------------------------------------------------


def test_prob_a_le_b_tie_counts_as_le():
    assert prob_a_le_b([3.0], [3.0], bootstrap_n=1000, seed=0) == 1.0


def test_prob_a_le_b_strict_dominance():
    assert prob_a_le_b([0.0] * 4, [10.0] * 4, bootstrap_n=1000, seed=0) == 1.0


def test_prob_a_le_b_deterministic():
    rng = np.random.default_rng(40)
    a = rng.normal(0.0, 1.0, 20).tolist()
    b = rng.normal(0.3, 1.0, 20).tolist()
    assert prob_a_le_b(a, b, seed=5) == prob_a_le_b(a, b, seed=5)


def test_prob_a_le_b_close_to_large_oracle():
    rng = np.random.default_rng(41)
    a = rng.normal(0.0, 1.0, 25)
    b = rng.normal(0.4, 1.0, 25)
    est = prob_a_le_b(a.tolist(), b.tolist(), bootstrap_n=200_000, seed=1)
    oracle_rng = np.random.default_rng(987654321)
    draws = 10**6
    means_a = a[oracle_rng.integers(0, a.size, size=(draws, a.size))].mean(axis=1)
    means_b = b[oracle_rng.integers(0, b.size, size=(draws, b.size))].mean(axis=1)
    oracle = float(np.mean(means_a <= means_b))
    assert est == pytest.approx(oracle, abs=0.02)


def one_draw_prob_a_le_b(a, b, bootstrap_n, seed):
    """prob_a_le_b drawing each side's bootstrap_n rounds in one call."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rng = np.random.default_rng(derive_seed(seed, "prob-a-le-b"))
    means_a = a[rng.integers(0, a.size, size=(bootstrap_n, a.size))].mean(axis=1)
    means_b = b[rng.integers(0, b.size, size=(bootstrap_n, b.size))].mean(axis=1)
    return float(np.mean(means_a <= means_b))


@pytest.mark.parametrize("bootstrap_n", [1000, 2048, 2049, 12_345])
def test_prob_a_le_b_chunks_draw_the_one_call_values(bootstrap_n):
    rng = np.random.default_rng(42)
    for na, nb in product([1, 3, 16, 40], repeat=2):
        a, b = rng.normal(0.0, 1.0, na).tolist(), rng.normal(0.1, 1.0, nb).tolist()
        want = one_draw_prob_a_le_b(a, b, bootstrap_n, seed=na)
        assert prob_a_le_b(a, b, bootstrap_n, seed=na) == want


def test_prob_a_le_b_memory_is_bounded():
    # one call per side holds 200,000 x 16 indices and values each, about 51 MB
    rng = np.random.default_rng(43)
    a, b = rng.normal(0.0, 1.0, 16).tolist(), rng.normal(0.2, 1.0, 16).tolist()
    tracemalloc.start()
    try:
        prob_a_le_b(a, b, bootstrap_n=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6


def test_prob_a_le_b_validation():
    with pytest.raises(ConfigError):
        prob_a_le_b([], [1.0])
    with pytest.raises(ConfigError):
        prob_a_le_b([1.0], [1.0], bootstrap_n=10)
