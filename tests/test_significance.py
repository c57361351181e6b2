from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rankaudit.significance as significance
from rankaudit.errors import ConfigError, DegenerateInputError
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

    Same observed, eps and hit test as `permutation_test`, so the chunked
    numpy pass must give exactly this p.
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


def test_permutation_needs_two_replicates():
    with pytest.raises(ConfigError):
        permutation_test([1.0], [1.0, 2.0])


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


@pytest.mark.parametrize("chunk", [1, 7])
def test_permutation_exact_chunk_size_does_not_matter(chunk, monkeypatch):
    # 126, 330 and 35 reassignments: none a multiple of 7, and the default
    # chunk holds each in one pass
    cases = [([0.1, 0.2, 0.3, 0.1], [0.3, 0.2, 0.1, 0.2, 0.3]),
             ([0.25, 0.5, 0.25, 0.75], [0.5, 0.5, 0.75, 1.0, 0.25, 0.5, 0.75]),
             ([0.01, 0.02, 0.03], [0.03, 0.02, 0.01, 0.04])]
    default = [permutation_test(a, b, alt).p_value
               for a, b in cases for alt in (B_GREATER, TWO_SIDED)]
    monkeypatch.setattr(significance, "_EXACT_CHUNK", chunk)
    chunked = [permutation_test(a, b, alt).p_value
               for a, b in cases for alt in (B_GREATER, TWO_SIDED)]
    assert chunked == default
    assert chunked == [permutation_loop_oracle(a, b, alt)
                       for a, b in cases for alt in (B_GREATER, TWO_SIDED)]


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


def test_prob_a_le_b_validation():
    with pytest.raises(ConfigError):
        prob_a_le_b([], [1.0])
    with pytest.raises(ConfigError):
        prob_a_le_b([1.0], [1.0], bootstrap_n=10)
