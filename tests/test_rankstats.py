import io
import json
import tracemalloc
import types
from itertools import combinations
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rankaudit
from rankaudit import fixtures, rankstats
from rankaudit.aggregate import AggregationSpec, aggregate
from rankaudit.errors import ConfigError, SchemaError, UndefinedCorrelationError
from rankaudit.report import csv_text
from rankaudit.ranking import (
    Ranking,
    enumerate_subsets,
    fractional_ranks,
    kendall_tau_b,
    rank_models,
    tau_b,
    top_k,
)
from rankaudit.rankstats import (
    aggregator_agreement,
    audit_to_dict,
    subset_tau_profile,
    topk_table,
    unique_topk_audit,
)
from rankaudit.scorebank import ScoreMatrix


def matrix(rows, model_ids=None, task_ids=None):
    model_ids = model_ids or tuple(chr(ord("A") + i) for i in range(len(rows)))
    task_ids = task_ids or tuple(f"t{j + 1}" for j in range(len(rows[0])))
    return ScoreMatrix(tuple(model_ids), tuple(task_ids),
                       tuple(tuple(float(x) for x in r) for r in rows))


# -- public names -------------------------------------------------------------

PUBLIC_NAMES = [
    "AggregateResult", "AggregationSpec", "AttackReport", "AuditError", "ComputationError",
    "ConfigError", "DegenerateInputError", "DomainError", "HoldoutServer", "InputError",
    "METHODS", "MetricSpec", "MissingScoreError", "NormalizedMatrix", "PairedSamples",
    "ParseError", "Ranking", "SchemaError", "ScoreMatrix", "SubsetAuditResult", "TestResult",
    "TopK", "UndefinedCorrelationError", "aggregate", "aggregator_agreement",
    "arithmetic_mean", "audit_to_dict", "average_rank", "boosting_attack", "derive_seed",
    "elimination_ranking", "enumerate_subsets", "geometric_mean", "holm_correction",
    "human_normalize", "kendall_tau_b", "load_matrix", "load_metrics", "macro_average",
    "median_score", "new_holdout", "orient", "per_dataset_tests", "permutation_test",
    "prob_a_le_b", "query", "query_batch", "rank_models", "reuse_bound",
    "robust_average_rank", "save_matrix", "save_metrics", "subset_tau_profile", "top_k",
    "topk_table", "unique_topk_audit", "wilcoxon_signed_rank",
]


def test_public_names_are_pinned():
    # submodules become package attributes once imported, so they are left out
    names = sorted(name for name, value in vars(rankaudit).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_rankstats_exports_only_what_it_defines():
    for name in rankstats.__all__:
        assert getattr(rankstats, name).__module__ == "rankaudit.rankstats", name


# -- oracles ------------------------------------------------------------------


def tau_b_oracle(a, b) -> float | None:
    """Textbook O(n^2) pair count: tau_b = (nc - nd) / sqrt((nc+nd+tb)(nc+nd+ta)).

    a and b are two Rankings or two key vectors; None if one side is all tied.
    """
    if isinstance(a, Ranking):
        models = sorted(a.entries)
        a, b = [a.entries[m] for m in models], [b.entries[m] for m in models]
    nc = nd = tied_a_only = tied_b_only = 0
    for i, j in combinations(range(len(a)), 2):
        da = a[i] - a[j]
        db = b[i] - b[j]
        if da == 0 and db == 0:
            continue
        if da == 0:
            tied_a_only += 1
        elif db == 0:
            tied_b_only += 1
        elif da * db > 0:
            nc += 1
        else:
            nd += 1
    product = (nc + nd + tied_a_only) * (nc + nd + tied_b_only)
    return (nc - nd) / sqrt(product) if product else None


def random_ranking(rng, n, with_ties):
    if with_ties:
        values = rng.integers(0, max(2, n // 2), size=n).astype(float)
        if len(set(values.tolist())) == 1:
            values[0] += 1.0  # keep the ranking non-degenerate
    else:
        values = rng.permutation(n).astype(float)
    return rank_models({f"m{i}": v for i, v in enumerate(values)})


# -- fractional ranks and Ranking ---------------------------------------------


def test_fractional_ranks_examples():
    assert fractional_ranks([3.0, 1.0, 2.0]) == [1.0, 3.0, 2.0]
    assert fractional_ranks([2.0, 2.0]) == [1.5, 1.5]
    assert fractional_ranks([1.0, 2.0, 3.0], descending=False) == [1.0, 2.0, 3.0]


def test_rank_models_examples():
    assert rank_models({"A": 3.0, "B": 1.0, "C": 2.0}).entries == {"A": 1.0, "C": 2.0, "B": 3.0}
    assert rank_models({"A": 2.0, "B": 2.0}).entries == {"A": 1.5, "B": 1.5}
    assert rank_models({"A": 1.0, "B": 2.5}, higher_is_better=False).entries == {
        "A": 1.0, "B": 2.0,
    }


def test_ranking_validates_fractional_sum():
    with pytest.raises(SchemaError):
        Ranking({"A": 1.0, "B": 1.0})
    Ranking({"A": 1.5, "B": 1.5})  # a valid tie


@given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
def test_ranking_sum_is_always_valid(values):
    ranks = fractional_ranks([float(v) for v in values])
    n = len(values)
    assert sum(ranks) == pytest.approx(n * (n + 1) / 2)


# -- kendall tau-b --------------------------------------------------------------


def test_tau_identical_and_reversed():
    a = rank_models({"A": 3.0, "B": 2.0, "C": 1.0})
    b = rank_models({"A": 1.0, "B": 2.0, "C": 3.0})
    assert kendall_tau_b(a, a) == pytest.approx(1.0)
    assert kendall_tau_b(a, b) == pytest.approx(-1.0)


def test_tau_matches_oracle_on_random_eight_model_rankings():
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = random_ranking(rng, 8, with_ties=bool(rng.integers(2)))
        b = random_ranking(rng, 8, with_ties=bool(rng.integers(2)))
        assert kendall_tau_b(a, b) == pytest.approx(tau_b_oracle(a, b), abs=1e-12)


def test_tau_model_set_mismatch():
    a = rank_models({"A": 1.0, "B": 2.0})
    b = rank_models({"A": 1.0, "C": 2.0})
    with pytest.raises(SchemaError):
        kendall_tau_b(a, b)


def test_tau_undefined_for_all_tied():
    a = rank_models({"A": 1.0, "B": 1.0, "C": 1.0})
    b = rank_models({"A": 1.0, "B": 2.0, "C": 3.0})
    with pytest.raises(UndefinedCorrelationError):
        kendall_tau_b(a, b)


@given(st.integers(0, 10_000))
def test_tau_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = random_ranking(rng, 6, with_ties=True)
    b = random_ranking(rng, 6, with_ties=True)
    assert kendall_tau_b(a, b) == pytest.approx(kendall_tau_b(b, a), abs=1e-15)


def test_tau_agrees_with_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = random_ranking(rng, 12, with_ties=True)
        b = random_ranking(rng, 12, with_ties=False)
        models = sorted(a.entries)
        expected = scipy_stats.kendalltau(
            [a.entries[m] for m in models], [b.entries[m] for m in models], variant="b"
        ).statistic
        assert kendall_tau_b(a, b) == pytest.approx(expected, abs=1e-12)



def test_tau_is_exactly_one_on_identical_and_minus_one_on_reversed_rankings():
    for n in range(2, 61):
        a = rank_models({f"m{i}": float(i) for i in range(n)})
        b = rank_models({f"m{i}": float(-i) for i in range(n)})
        assert kendall_tau_b(a, a) == 1.0
        assert kendall_tau_b(a, b) == -1.0


@given(st.integers(2, 12).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(0, 3), min_size=n, max_size=n)] * 2)))
def test_tau_never_leaves_the_unit_interval(values):
    a, b = (rank_models({f"m{i}": float(v) for i, v in enumerate(vs)}) for vs in values)
    try:
        tau = kendall_tau_b(a, b)
    except UndefinedCorrelationError:
        return
    assert -1.0 <= tau <= 1.0
    assert kendall_tau_b(a, a) == 1.0


KEYS = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])


@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(*[st.lists(KEYS, min_size=n, max_size=n)] * 2)))
def test_tau_b_on_key_vectors_equals_the_oracle(keys):
    # equal floats, or None on both sides; -0.0 ties 0.0
    assert tau_b(*keys) == tau_b_oracle(*keys)


def test_tau_b_on_small_and_all_tied_key_vectors():
    assert tau_b([0.0], [1.0]) is None
    assert tau_b([0.0, 1.0], [1.0, 0.0]) == -1.0
    assert tau_b([0.0, 1.0], [-0.0, 0.0]) is None
    assert tau_b([-0.0, 0.0], [0.0, 1.0]) is None
    assert tau_b([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) is None
    assert tau_b([1.0, -0.0, 0.0], [2.0, 1.0, 3.0]) == tau_b_oracle([1.0, -0.0, 0.0],
                                                                  [2.0, 1.0, 3.0])


def test_tau_on_100000_models_with_one_adjacent_swap():
    # (n0 - n1) (n0 - n2) = n0**2 is past int64 from 77,937 models
    n = 100_000
    values = list(range(n))
    values[10], values[11] = values[11], values[10]
    a = rank_models({f"m{i}": float(i) for i in range(n)})
    b = rank_models({f"m{i}": float(v) for i, v in enumerate(values)})
    n0 = n * (n - 1) // 2
    assert kendall_tau_b(a, b) == (n0 - 2) / n0
    assert kendall_tau_b(a, a) == 1.0


# -- top-k ------------------------------------------------------------------------


def test_top_k_plain():
    r = rank_models({"A": 3.0, "B": 2.0, "C": 1.0})
    tk = top_k(r, 2)
    assert tk.sequence == (frozenset({"A"}), frozenset({"B"}))
    assert not tk.boundary_tied


def test_top_k_boundary_tie():
    r = rank_models({"A": 2.0, "B": 2.0, "C": 1.0})
    tk = top_k(r, 1)
    assert tk.sequence == (frozenset({"A", "B"}),)
    assert tk.boundary_tied
    assert "boundary tie" in tk.render()


def test_top_k_beyond_size_gives_full_ordering():
    r = rank_models({"A": 3.0, "B": 2.0, "C": 1.0})
    tk = top_k(r, 10)
    assert tk.n_placed() == 3
    assert tk.names() == ["A", "B", "C"]


def test_top_k_requires_positive_k():
    with pytest.raises(ConfigError):
        top_k(rank_models({"A": 1.0}), 0)


# -- subset enumeration -------------------------------------------------------------


def test_subset_count_eight_choose_four():
    tasks = [f"t{i}" for i in range(8)]
    assert sum(1 for _ in enumerate_subsets(tasks, 4)) == 70


def test_subset_full_size_single():
    assert list(enumerate_subsets(["a", "b"], 2)) == [("a", "b")]


def test_subset_lexicographic_order():
    assert list(enumerate_subsets(["1", "2", "3"], 2)) == [("1", "2"), ("1", "3"), ("2", "3")]


def test_subset_size_out_of_range():
    with pytest.raises(ConfigError):
        list(enumerate_subsets(["a"], 0))
    with pytest.raises(ConfigError):
        list(enumerate_subsets(["a"], 2))


def test_subset_counts_match_pascal_rule():
    # independent Pascal-triangle oracle, no factorials
    triangle = [[1]]
    for n in range(1, 13):
        prev = triangle[-1]
        row = [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        triangle.append(row)
    for n in range(1, 13):
        tasks = [f"t{i}" for i in range(n)]
        for size in range(1, n + 1):
            assert sum(1 for _ in enumerate_subsets(tasks, size)) == triangle[n][size]


# -- unique top-k audit ---------------------------------------------------------------


def brute_force_unique_count(m, size, k):
    """Re-enumerates subsets and recomputes mean-based Top-k tuples from scratch."""
    arr = np.array([[c for c in row] for row in m.scores], dtype=float)
    seen = set()
    total = 0
    for cols in combinations(range(len(m.task_ids)), size):
        total += 1
        means = arr[:, cols].mean(axis=1)
        order = sorted(range(len(means)), key=lambda i: -means[i])
        groups = []
        pos = 0
        while pos < len(order) and sum(len(g) for g in groups) < k:
            block = [order[pos]]
            while pos + len(block) < len(order) and means[order[pos + len(block)]] == means[order[pos]]:
                block.append(order[pos + len(block)])
            groups.append(frozenset(m.model_ids[i] for i in block))
            pos += len(block)
        seen.add(tuple(groups))
    return len(seen), total


def test_audit_dominant_model_unique_one():
    rows = [
        [9.0, 9.0, 9.0],
        [1.0, 5.0, 2.0],
        [2.0, 1.0, 5.0],
    ]
    m = matrix(rows)
    for size in (1, 2, 3):
        res = unique_topk_audit(m, AggregationSpec("arithmetic_mean"), size, 1)
        assert res.unique_count == 1
        assert res.exact


def test_audit_opposite_winners():
    m = matrix([[1.0, 0.0], [0.0, 1.0]])
    res = unique_topk_audit(m, AggregationSpec("arithmetic_mean"), 1, 1)
    assert res.unique_count == 2
    assert res.total_combinations == 2


def test_audit_matches_brute_force_oracle():
    rng = np.random.default_rng(21)
    spec = AggregationSpec("arithmetic_mean")
    for trial in range(5):
        m = matrix(rng.uniform(0, 100, size=(10, 6)).tolist())
        for size in (1, 2, 3, 6):
            for k in (1, 3, 5):
                res = unique_topk_audit(m, spec, size, k)
                expected_unique, expected_total = brute_force_unique_count(m, size, k)
                assert res.unique_count == expected_unique
                assert res.total_combinations == expected_total
                assert res.evaluated == expected_total


def test_audit_unique_count_is_one_at_full_size():
    rng = np.random.default_rng(22)
    m = matrix(rng.uniform(0, 1, size=(6, 4)).tolist())
    res = unique_topk_audit(m, AggregationSpec("arithmetic_mean"), 4, 3)
    assert res.unique_count == 1


def test_audit_relabeling_invariance():
    rng = np.random.default_rng(23)
    rows = rng.uniform(0, 1, size=(6, 4)).tolist()
    m1 = matrix(rows)
    m2 = matrix(rows, model_ids=tuple(f"model-{i}" for i in range(6)))
    spec = AggregationSpec("arithmetic_mean")
    for size in (1, 2, 4):
        r1 = unique_topk_audit(m1, spec, size, 3)
        r2 = unique_topk_audit(m2, spec, size, 3)
        assert r1.unique_count == r2.unique_count


def test_audit_sampling_mode_is_flagged_and_deterministic():
    rng = np.random.default_rng(24)
    m = matrix(rng.uniform(0, 1, size=(5, 10)).tolist())
    spec = AggregationSpec("arithmetic_mean")
    sampled_a = unique_topk_audit(m, spec, 5, 3, sampling_budget=40, seed=3)
    sampled_b = unique_topk_audit(m, spec, 5, 3, sampling_budget=40, seed=3)
    assert not sampled_a.exact
    assert sampled_a.evaluated == 40
    assert sampled_a.total_combinations == comb(10, 5)
    assert sampled_a.per_subset_topk.keys() == sampled_b.per_subset_topk.keys()
    assert sampled_a.unique_count == sampled_b.unique_count
    exact = unique_topk_audit(m, spec, 5, 3, sampling_budget=comb(10, 5))
    assert exact.exact
    assert sampled_a.unique_count <= exact.unique_count


def test_audit_monotone_in_k():
    rng = np.random.default_rng(25)
    m = matrix(rng.uniform(0, 1, size=(10, 6)).tolist())
    spec = AggregationSpec("arithmetic_mean")
    for size in range(1, 7):
        counts = [unique_topk_audit(m, spec, size, k).unique_count for k in range(1, 11)]
        assert counts == sorted(counts)


# -- subset ranks -----------------------------------------------------------------------


@pytest.mark.parametrize("n, size", [(1, 1), (6, 1), (5, 2), (7, 3), (8, 8), (14, 4),
                                     (20, 10), (70, 68)])
def test_unrank_lists_every_subset_as_combinations_does(n, size):
    rows = rankstats._unrank(np.arange(comb(n, size)), n, size)
    assert rows.tolist() == [list(c) for c in combinations(range(n), size)]


@given(st.integers(1, 14).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.lists(st.integers(0, 2**62), max_size=20))))
def test_unrank_gives_the_row_of_each_rank(case):
    n, size, draws = case
    every = list(combinations(range(n), size))
    ranks = [d % len(every) for d in draws]
    rows = rankstats._unrank(np.array(ranks, dtype=np.int64), n, size)
    assert rows.shape == (len(ranks), size)
    assert rows.tolist() == [list(every[r]) for r in ranks]


def test_unrank_reaches_both_ends_of_the_widest_int64_listing():
    # C(66, 33) is the largest C(n, n // 2) below 2**63; C(67, 33) is past it
    total = comb(66, 33)
    assert total < 2**63 <= comb(67, 33)
    rows = rankstats._unrank(np.array([0, 1, total - 1]), 66, 33)
    assert rows.tolist() == [list(range(33)), list(range(32)) + [33], list(range(33, 66))]


def sampled_ranks(monkeypatch, m, size, budget, seed):
    """The ranks an audit unranks, and the audit."""
    seen = []
    unrank = rankstats._unrank

    def recording(ranks, n, s):
        seen.append(ranks)
        return unrank(ranks, n, s)

    monkeypatch.setattr(rankstats, "_unrank", recording)
    result = unique_topk_audit(m, AggregationSpec("arithmetic_mean"), size, 2,
                               sampling_budget=budget, seed=seed)
    return seen[0], result


def test_sampled_ranks_are_distinct_sorted_and_seeded(monkeypatch):
    m = matrix(np.random.default_rng(26).uniform(0, 1, size=(5, 12)).tolist())
    total = comb(12, 6)
    ranks, result = sampled_ranks(monkeypatch, m, 6, 300, seed=4)
    assert not result.exact and result.evaluated == len(ranks) == 300
    assert ranks.dtype == np.int64 and 0 <= ranks[0] and ranks[-1] < total
    assert (np.diff(ranks) > 0).all()
    every = list(combinations(m.task_ids, 6))
    assert list(result.per_subset_topk) == [every[r] for r in ranks.tolist()]
    again, _ = sampled_ranks(monkeypatch, m, 6, 300, seed=4)
    other, _ = sampled_ranks(monkeypatch, m, 6, 300, seed=5)
    assert np.array_equal(ranks, again) and not np.array_equal(ranks, other)


def test_budget_one_below_the_total_leaves_out_one_subset():
    m = matrix(np.random.default_rng(27).uniform(0, 1, size=(4, 10)).tolist())
    spec = AggregationSpec("arithmetic_mean")
    total = comb(10, 5)
    exhaustive = unique_topk_audit(m, spec, 5, 2)
    sampled = unique_topk_audit(m, spec, 5, 2, sampling_budget=total - 1, seed=1)
    assert exhaustive.exact and not sampled.exact
    every = list(exhaustive.per_subset_topk)
    rows = list(sampled.per_subset_topk)
    kept = set(rows)
    assert len(kept) == len(rows) == total - 1
    assert rows == [subset for subset in every if subset in kept]
    assert all(sampled.per_subset_topk[r] == exhaustive.per_subset_topk[r] for r in rows)


@pytest.mark.parametrize("budget", [2.5, True, "3", None, 3.0])
def test_audit_rejects_a_budget_that_is_not_an_int(budget):
    m = matrix([[1, 2, 3], [3, 2, 1]])
    with pytest.raises(ConfigError, match="sampling_budget must be an int"):
        unique_topk_audit(m, AggregationSpec("arithmetic_mean"), 2, 1, sampling_budget=budget)


def test_audit_rejects_a_subset_count_past_int64():
    m = matrix([[float(j % 3) for j in range(70)], [1.0] * 70])
    spec = AggregationSpec("arithmetic_mean")
    with pytest.raises(ConfigError, match=r"C\(70, 35\) = 112186277816662845432 subsets"):
        unique_topk_audit(m, spec, 35, 1, sampling_budget=50)
    assert unique_topk_audit(m, spec, 68, 1, sampling_budget=50).evaluated == 50


MEAN = AggregationSpec("arithmetic_mean")


@pytest.mark.parametrize("spec, size, k, budget, message", [
    (MEAN, 2, 0, 50, "k must be >= 1, got 0"),
    (MEAN, 2, 1, 0, "sampling budget must be >= 1, got 0"),
    (MEAN, 2, 1, True, "sampling_budget must be an int, got True"),
    (AggregationSpec("arithmetic_mean", weights={"nope": 2.0}), 2, 1, 50,
     "aggregation weights name task 'nope', which the matrix lacks"),
    (MEAN, 0, 1, 50, "subset size must be in [1, 70], got 0"),
    (MEAN, 71, 1, 50, "subset size must be in [1, 70], got 71"),
    (MEAN, 35, 1, 50, f"C(70, 35) = {comb(70, 35)} subsets of size 35"),
])
def test_check_audit_and_the_audit_refuse_alike(spec, size, k, budget, message):
    m = matrix([[float(j % 3) for j in range(70)], [1.0] * 70])
    errors = []
    for call in (lambda: rankstats.check_audit(m, spec, [size], [k], budget),
                 lambda: unique_topk_audit(m, spec, size, k, sampling_budget=budget)):
        with pytest.raises(ConfigError) as exc:
            call()
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and message in errors[0]


def test_check_audit_counts_each_size_and_names_the_first_broken_rule():
    m = matrix([[1, 2, 3, 4], [4, 3, 2, 1]])
    assert rankstats.check_audit(m, MEAN, [1, 2, 4], [1, 3], 10) == [4, 6, 1]
    unknown = AggregationSpec("arithmetic_mean", weights={"nope": 2.0})
    with pytest.raises(ConfigError, match="got 0$"):  # k before budget, spec and size
        rankstats.check_audit(m, unknown, [9], [3, 0], 0)
    with pytest.raises(ConfigError, match="sampling budget"):
        rankstats.check_audit(m, unknown, [9], [3], 0)
    with pytest.raises(ConfigError, match="'nope'"):
        rankstats.check_audit(m, unknown, [9], [3], 10)
    with pytest.raises(ConfigError, match="got 9$"):
        rankstats.check_audit(m, MEAN, [2, 9, 0], [3], 10)


# -- per-subset listing ------------------------------------------------------------------

LISTING_HEADER = ["size", "k", "tasks", "topk", "boundary_tied"]


def reference_listing(results):
    """The listing as it was rendered from decoded TopKs: one row per subset and k."""
    coded = [r.per_subset_topk for r in results]
    rows = []
    for r, subset in enumerate(coded[0]):
        for c in coded:
            tk = c.decode(c.codes[r])
            rows.append((results[0].subset_size, c.k, "+".join(subset),
                         ";".join("|".join(sorted(g)) for g in tk.sequence), tk.boundary_tied))
    return rows


def csv_bytes(rows):
    return csv_text(LISTING_HEADER, rows).encode()


# Ids the csv module must quote ("," and '"'), the listing's own separators,
# spaces, non-ASCII text, and pairs whose code-point order differs from their
# case-folded order ("B" < "a" < "é").  A ScoreMatrix refuses line breaks.
ID_CHARS = 'aBbé," |;+Zß\U0001f600'
IDS = st.one_of(st.sampled_from(["B", "a", "é", "e", "E", "a,b", 'say "hi"', " x ", "Ω"]),
                st.text(alphabet=ID_CHARS, max_size=3))


@st.composite
def listing_cases(draw):
    n_models, n_tasks = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    model_ids = draw(st.lists(IDS, min_size=n_models, max_size=n_models, unique=True))
    task_ids = draw(st.lists(IDS, min_size=n_tasks, max_size=n_tasks, unique=True))
    # scores in {0, 1, 2}: tie groups are common, and straddle place k
    scores = draw(st.lists(st.lists(st.integers(0, 2), min_size=n_tasks, max_size=n_tasks),
                           min_size=n_models, max_size=n_models))
    size = draw(st.integers(1, n_tasks))
    # k up to n_models + 2, so that n < k + 1 is covered
    ks = draw(st.lists(st.integers(1, n_models + 2), min_size=1, max_size=3, unique=True))
    return matrix(scores, model_ids, task_ids), size, ks


def listed_text(results):
    """The text `write_listing` writes for results."""
    buf = io.StringIO()
    rankstats.write_listing(buf, results)
    return buf.getvalue()


def listing_at_budget(m, spec, size, ks, cells):
    """The audit's `for_k` results and listing text with `cells` as the cell budget."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rankstats, "_CELLS", cells)
        audit = unique_topk_audit(m, spec, size, max(ks))
        results = [audit.for_k(k) for k in ks]
        return results, listed_text(results)


def headless(csv: bytes) -> bytes:
    return csv.split(b"\n", 1)[1]


@pytest.mark.parametrize("method", ["arithmetic_mean", "average_rank"])
@given(case=listing_cases(), cells=st.sampled_from([1, 16]))
def test_listing_matches_the_decoded_renderer(method, case, cells):
    m, size, ks = case
    spec = AggregationSpec(method)
    results, listed = listing_at_budget(m, spec, size, ks, cells)
    for result in results:
        coded = result.per_subset_topk
        for subset, code in zip(coded, coded.codes):
            assert coded.decode(code) == top_k(aggregate(m, subset, spec), result.k)
    # csv.writer's bytes for the rows rendered from decoded TopKs, header cut
    assert listed.encode() == headless(csv_bytes(reference_listing(results)))
    # one or a few subsets per pass give the default budget's codes and text
    default, default_listed = listing_at_budget(m, spec, size, ks, rankstats._CELLS)
    for result, other in zip(results, default):
        codes, other_codes = result.per_subset_topk.codes, other.per_subset_topk.codes
        assert codes.dtype == other_codes.dtype and codes.shape == other_codes.shape
        assert codes.tobytes() == other_codes.tobytes()
    assert listed == default_listed


def test_listing_with_many_ks_matches_csv_writer():
    # 130 ks, duplicates and k > n among them: the table's indices run
    # past 255, past what a uint8 quoting flag can add to without wrapping.
    ids = ["a,b", 'say "hi"', "c", "d,", 'e"', "f"]
    tasks = ["t,1", 't"2', "t3", "t4"]
    m = matrix([[1, 0, 2, 1], [1, 1, 0, 2], [0, 0, 2, 1], [2, 1, 1, 0],
                [1, 0, 2, 1], [0, 2, 1, 1]], ids, tasks)
    ks = [*range(1, 131), 3, 3, 7]
    audit = unique_topk_audit(m, AggregationSpec("arithmetic_mean"), 2, max(ks))
    results = [audit.for_k(k) for k in ks]
    listed = rankstats.LISTING_HEADER + listed_text(results)
    assert listed.encode() == csv_bytes(reference_listing(results))
    assert listed.count("\n") == 1 + comb(4, 2) * len(ks)


class _Discard:
    def write(self, text):
        return len(text)


class _Keep(list):
    def write(self, text):
        self.append(text)
        return len(text)


def test_listing_memory_is_bounded_by_the_chunk():
    # 12,870 subsets x 4 ks = 51,480 rows, about 3 MB of text.  Rendering
    # the rows through csv.writer chunk by chunk peaked at 1.2 MB when a
    # chunk held 1,024 subsets (tracemalloc, Python 3.11, numpy 2.4).  A
    # chunk now holds _CELLS // (50 + 16) = 248 subsets, written as one join.
    s = np.random.default_rng(0).random((50, 16))
    m = matrix(s.tolist(), [f"m{i}" for i in range(50)], [f"t{j}" for j in range(16)])
    audit = unique_topk_audit(m, AggregationSpec("arithmetic_mean"), 8, 10)
    results = [audit.for_k(k) for k in (1, 3, 5, 10)]
    assert audit.evaluated == comb(16, 8) == 12870
    tracemalloc.start()
    try:
        rankstats.write_listing(_Discard(), results)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        kept = _Keep()
        rankstats.write_listing(kept, results)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "".join(kept).count("\n") == 4 * 12870
    assert peak < 2 * 10**6
    assert 4 * peak < held


def test_listing_memory_is_bounded_at_the_widest_chunk():
    # Every score ties, so each subset's boundary group holds all 2,000
    # models and every topk cell names them all: a chunk of
    # _CELLS // (2000 + 12) = 8 subsets is 16 rows of about 12 kB each.
    # Rendering them through csv.writer peaked at 1.07 MB (tracemalloc,
    # Python 3.11, numpy 2.4); one join per chunk peaks at 1.12 MB.
    ids = [f"m{i}" for i in range(2000)]
    m = matrix([[1.0] * 12] * 2000, ids, [f"t{j}" for j in range(12)])
    audit = unique_topk_audit(m, AggregationSpec("arithmetic_mean"), 6, 3)
    results = [audit.for_k(k) for k in (1, 3)]
    assert audit.per_subset_topk.codes.shape == (comb(12, 6), 2000)
    tracemalloc.start()
    try:
        rankstats.write_listing(_Discard(), results)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 10**6
    assert listed_text(results).encode() == headless(csv_bytes(reference_listing(results)))


@pytest.mark.parametrize("method", ["arithmetic_mean", "median"])
def test_audit_memory_is_bounded_by_the_cell_budget(method):
    # At 2,000 models a chunk of 256 subsets peaked at 33.4 MB (mean) and
    # 65.8 MB (median) under tracemalloc (Python 3.11, numpy 2.4).  A chunk
    # of _CELLS // (2000 + 12) = 8 subsets peaks at 1.6 and 2.3 MB.
    s = np.random.default_rng(0).random((2000, 12))
    m = matrix(s.tolist(), [f"m{i}" for i in range(2000)], [f"t{j}" for j in range(12)])
    tracemalloc.start()
    try:
        result = unique_topk_audit(m, AggregationSpec(method), 6, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.evaluated == comb(12, 6)
    assert peak < 8 * 10**6


# -- tau profile ------------------------------------------------------------------------


def test_tau_profile_self_is_one():
    m = fixtures.lra_matrix()
    spec = AggregationSpec("arithmetic_mean")
    profile = subset_tau_profile(m, spec, [m.task_ids])
    assert profile[m.task_ids] == pytest.approx(1.0)


def test_tau_profile_identical_columns():
    col = [5.0, 3.0, 1.0, 4.0]
    m = matrix([[v, v, v] for v in col])
    spec = AggregationSpec("arithmetic_mean")
    profile = subset_tau_profile(m, spec, [(t,) for t in m.task_ids])
    assert all(tau == pytest.approx(1.0) for tau in profile.values())


def test_tau_profile_lra_single_tasks_match_oracle():
    m = fixtures.lra_matrix()
    spec = AggregationSpec("arithmetic_mean")
    profile = subset_tau_profile(m, spec, [(t,) for t in m.task_ids])
    full = aggregate(m, None, spec)
    for (task,), tau in profile.items():
        oracle = tau_b_oracle(full, aggregate(m, (task,), spec))
        assert tau == pytest.approx(oracle, abs=1e-12)
    mean_tau = sum(profile.values()) / len(profile)
    assert -1.0 <= mean_tau <= 1.0


def test_tau_profile_reports_undefined_as_none():
    m = matrix([[1.0, 1.0], [2.0, 1.0]])  # t2 ties every model
    spec = AggregationSpec("arithmetic_mean")
    profile = subset_tau_profile(m, spec, [("t1",), ("t2",)])
    assert profile[("t1",)] == pytest.approx(1.0)
    assert profile[("t2",)] is None


# -- top-k table -------------------------------------------------------------------------


def test_topk_table_lra_retrieval_only():
    m = fixtures.lra_matrix()
    rows = topk_table(m, AggregationSpec("arithmetic_mean"), [("retrieval",)], 3)
    (subset, tk), = rows
    assert subset == ("retrieval",)
    # verified against the transcribed column: 59.59 > 59.29 > 57.46
    assert tk.names() == ["Sparse Transformer", "BigBird", "Transformer"]


def test_topk_table_lra_leave_out_retrieval():
    m = fixtures.lra_matrix()
    subset = ("text", "listops", "image", "pathfinder")
    rows = topk_table(m, AggregationSpec("arithmetic_mean"), [subset], 3)
    assert rows[0][1].names() == ["BigBird", "Transformer", "Longformer"]


def test_topk_table_single_model():
    m = matrix([[1.0, 2.0]], model_ids=("only",))
    rows = topk_table(m, AggregationSpec("arithmetic_mean"), [("t1",), ("t1", "t2")], 3)
    for _, tk in rows:
        assert tk.sequence == (frozenset({"only"}),)


def test_topk_table_preserves_input_order():
    m = fixtures.lra_matrix()
    subsets = [("image",), ("text",), ("retrieval",)]
    rows = topk_table(m, AggregationSpec("arithmetic_mean"), subsets, 1)
    assert [s for s, _ in rows] == subsets


# -- aggregator agreement ------------------------------------------------------------------


def test_agreement_same_spec_is_one():
    m = fixtures.lra_matrix()
    spec = AggregationSpec("arithmetic_mean")
    out = aggregator_agreement(m, [spec, spec])
    assert out[0][1] == pytest.approx(1.0)


def test_agreement_mean_vs_median_divergence():
    # one outlier task dominates the mean: mean order A > C > B,
    # median order C > B > A, hand-checked tau = -1/3
    rows = [
        [10.0, 0.0, 0.0],
        [1.0, 1.0, 1.0],
        [2.0, 2.0, 0.0],
    ]
    m = matrix(rows)
    out = aggregator_agreement(
        m, [AggregationSpec("arithmetic_mean"), AggregationSpec("median")]
    )
    assert out[0][1] == pytest.approx(-1.0 / 3.0)
    assert out[0][1] < 1.0


def test_agreement_mean_vs_geometric_constant_rows():
    m = matrix([[4.0, 4.0], [2.0, 2.0], [9.0, 9.0]])
    out = aggregator_agreement(
        m, [AggregationSpec("arithmetic_mean"), AggregationSpec("geometric_mean")]
    )
    assert out[0][1] == pytest.approx(1.0)


def test_agreement_needs_two_specs():
    with pytest.raises(ConfigError):
        aggregator_agreement(fixtures.lra_matrix(), [AggregationSpec("median")])


# -- serialization ---------------------------------------------------------------------------


def test_audit_to_dict_shape():
    m = matrix([[1.0, 0.0], [0.0, 1.0]])
    res = unique_topk_audit(m, AggregationSpec("arithmetic_mean"), 1, 1)
    doc = audit_to_dict(res)
    assert doc["size"] == 1 and doc["k"] == 1
    assert doc["unique"] == 2 and doc["total"] == 2
    assert doc["exact"] is True
    assert doc["subsets"] == [
        {"tasks": ["t1"], "topk": [["A"]], "boundary_tied": False},
        {"tasks": ["t2"], "topk": [["B"]], "boundary_tied": False},
    ]
    json.dumps(doc)  # must be JSON-serializable as-is
