"""Batched subset audits against the scalar `aggregate` reference.

Every kernel of `aggregate.BATCHED` returns keys that order and tie the
models exactly as `aggregate` does, so `unique_topk_audit` settles a
subset on the scalar path only when it touches a missing cell, when a key
is not finite, or when a kernel declines the whole matrix.  The oracle
here is the scalar path for every subset: {s: top_k(aggregate(m, s,
spec), k)}.  The matrices are built to tie: small integer scores,
duplicated rows, tenths whose float sums depend on order, and cells moved
one ulp with np.nextafter.
"""

import csv
import importlib
import io
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankaudit import fixtures, rankstats
from rankaudit.aggregate import BATCHED, METHODS, AggregationSpec, aggregate, arithmetic_mean
from rankaudit.cli import main
from rankaudit.errors import (
    AuditError,
    ConfigError,
    DomainError,
    MissingScoreError,
    UndefinedCorrelationError,
)
from rankaudit.ranking import enumerate_subsets, kendall_tau_b, top_k
from rankaudit.rankstats import aggregator_agreement, subset_tau_profile, unique_topk_audit
from rankaudit.scorebank import LOWER, MetricSpec, ScoreMatrix, orient, oriented_array


def build(rows, metrics=None):
    rows = np.asarray(rows, dtype=float)
    return ScoreMatrix(
        tuple(f"m{i}" for i in range(rows.shape[0])),
        tuple(f"t{j}" for j in range(rows.shape[1])),
        tuple(tuple(r) for r in rows.tolist()),
        metrics or {},
    )


def oracle(m, spec, subsets, k):
    return {s: top_k(aggregate(m, s, spec), k) for s in subsets}


@pytest.fixture
def scalar_calls(monkeypatch):
    """Counts the audit's calls into the scalar `aggregate`."""
    calls = []

    def counting(m, subset=None, spec=None):
        calls.append(subset)
        return aggregate(m, subset, spec)

    # the package attribute rankaudit.aggregate is the function, not the module
    monkeypatch.setattr(importlib.import_module("rankaudit.aggregate"), "aggregate", counting)
    return calls


@st.composite
def tied_cases(draw, method):
    n_models = draw(st.integers(2, 6))
    n_tasks = draw(st.integers(2, 5))
    cells = st.one_of(st.integers(1, 4).map(float), st.sampled_from([0.1, 0.2, 0.3, 0.7]))
    rows = np.array(draw(st.lists(st.lists(cells, min_size=n_tasks, max_size=n_tasks),
                                  min_size=n_models, max_size=n_models)))
    models, tasks = st.integers(0, n_models - 1), st.integers(0, n_tasks - 1)
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(models)] = rows[draw(models)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(models), draw(tasks)
        rows[i, j] = np.nextafter(rows[i, j], draw(st.sampled_from([np.inf, 0.0])))
    task_ids = [f"t{j}" for j in range(n_tasks)]
    # Geometric means need positive oriented scores, so its tasks stay higher-is-better.
    lower = [] if method == "geometric_mean" else draw(st.lists(st.sampled_from(task_ids)))
    metrics = {t: MetricSpec(direction=LOWER) for t in lower}
    weight = st.sampled_from([0.1, 0.5, 1.0, 2.0, 3.0])
    weights = draw(st.one_of(st.none(), st.dictionaries(st.sampled_from(task_ids), weight)))
    groups = {t: draw(st.sampled_from(["g0", "g1"])) for t in task_ids}
    spec = AggregationSpec(method, bin_width=draw(st.sampled_from([0.5, 1.0, 2.5])),
                           group_map=groups, weights=weights)
    size = draw(st.integers(1, n_tasks))
    k = draw(st.integers(1, n_models + 1))
    return build(rows, metrics), spec, size, k


@pytest.mark.parametrize("method", METHODS)
@given(data=st.data())
def test_batched_audit_matches_scalar_oracle(method, data):
    m, spec, size, k = data.draw(tied_cases(method))
    exhaustive = unique_topk_audit(m, spec, size, k)
    assert exhaustive.exact
    subsets = list(enumerate_subsets(m.task_ids, size))
    assert exhaustive.per_subset_topk == oracle(m, spec, subsets, k)
    total = comb(m.n_tasks, size)
    if total > 1:
        sampled = unique_topk_audit(m, spec, size, k, sampling_budget=total - 1, seed=7)
        assert not sampled.exact
        assert sampled.per_subset_topk == oracle(m, spec, list(sampled.per_subset_topk), k)


def test_near_ties_stay_on_the_mean_kernel(scalar_calls):
    # m0 and m1 lead every subset: exactly tied without t0, one ulp apart with it.
    rows = np.full((5, 4), 0.1)
    rows[:2] = 0.9
    rows[1, 0] = np.nextafter(0.9, 1.0)
    rows[2:] = [[0.3, 0.2, 0.1, 0.5], [0.2, 0.3, 0.4, 0.1], [0.1, 0.1, 0.2, 0.3]]
    m = build(rows)
    spec = AggregationSpec("arithmetic_mean")
    for size in (1, 2, 3):
        subsets = list(enumerate_subsets(m.task_ids, size))
        for k in (1, 2, 3):
            result = unique_topk_audit(m, spec, size, k)
            assert result.per_subset_topk == oracle(m, spec, subsets, k)
    assert scalar_calls == []


def test_separated_and_tied_scores_stay_batched(scalar_calls):
    rng = np.random.default_rng(3)
    m = build(rng.random((30, 8)), {"t2": MetricSpec(direction=LOWER)})
    tied = build(rng.integers(0, 5, size=(30, 8)))
    for method in sorted(BATCHED):
        for matrix in (m, tied):
            spec = AggregationSpec(method, bin_width=2.0)
            result = unique_topk_audit(matrix, spec, 3, 5)
            assert result.per_subset_topk == oracle(matrix, spec, list(result.per_subset_topk), 5)
    assert scalar_calls == []


@pytest.mark.parametrize("decimals", [0, 1, 2])
def test_rounded_leaderboards_stay_on_the_mean_kernel(decimals, scalar_calls):
    # Leaderboards report scores to 0-2 decimals; a mean audit of one scores
    # every subset in the kernel, however many models tie.
    rng = np.random.default_rng(8)
    scores = np.clip(rng.uniform(40, 90, size=(50, 1)) + rng.normal(0, 8, size=(50, 16)), 0, 100)
    m = build(scores.round(decimals), {"t5": MetricSpec(direction=LOWER)})
    spec = AggregationSpec("arithmetic_mean", weights={"t0": 0.1, "t3": 7.25})
    result = unique_topk_audit(m, spec, 8, 10)
    assert scalar_calls == [] and result.evaluated == comb(16, 8)
    subsets = list(result.per_subset_topk)[::101]
    assert {s: result.per_subset_topk[s] for s in subsets} == oracle(m, spec, subsets, 10)


MAX = np.finfo(float).max
# Neighbours of the float range's ends, which the mean kernel declines, and
# of 2**1021, which it takes for up to three tasks; and subnormals.  Their
# sums overflow or need every bit of the slices.
HUGE = [MAX, np.nextafter(MAX, 0), 1e308, 0.0, -MAX, -1.5e308,
        np.nextafter(2.0**1021, 0), 1e307, -2e307]
TINY = [5e-324, 1e-323, 2.5e-320, -5e-324, 1e-310, 0.0, 2.2250738585072014e-308,
        np.nextafter(2.2250738585072014e-308, 0)]


@st.composite
def mean_cases(draw):
    n_models, n_tasks = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    decimals = st.builds(lambda c, d: c / d, st.integers(-10_000, 10_000),
                         st.sampled_from([1, 10, 100]))
    cells = draw(st.sampled_from([decimals, st.sampled_from(HUGE), st.sampled_from(TINY),
                                  st.one_of(decimals, st.sampled_from(HUGE + TINY))]))
    rows = draw(st.lists(st.lists(cells, min_size=n_tasks, max_size=n_tasks),
                         min_size=n_models, max_size=n_models))
    task_ids = [f"t{j}" for j in range(n_tasks)]
    metrics = {t: MetricSpec(direction=LOWER) for t in draw(st.lists(st.sampled_from(task_ids)))}
    weights = draw(st.one_of(st.none(), st.dictionaries(st.sampled_from(task_ids),
                                                        st.sampled_from([0.1, 1e-3, 7.25]))))
    return build(rows, metrics), AggregationSpec("arithmetic_mean", weights=weights)


def audit_or_error(m, spec, size, k):
    """The audit's per-subset Top-k, or the message of the DomainError it raises."""
    try:
        return unique_topk_audit(m, spec, size, k).per_subset_topk
    except DomainError as exc:
        return str(exc)


def oracle_or_error(m, spec, size, k):
    try:
        return oracle(m, spec, list(enumerate_subsets(m.task_ids, size)), k)
    except DomainError as exc:
        return str(exc)


@given(case=mean_cases())
def test_mean_kernel_keys_equal_the_scalar_means(case):
    m, spec = case
    subset_keys = BATCHED["arithmetic_mean"](oriented_array(m)[0], m, spec)
    for size in range(1, m.n_tasks + 1):
        if subset_keys is not None:
            idx = np.array(list(combinations(range(m.n_tasks), size)))
            for row, key in zip(idx.tolist(), subset_keys(idx)):
                means = arithmetic_mean(m, [m.task_ids[j] for j in row], spec.weights)
                assert key.tolist() == [means.per_model[mid] for mid in m.model_ids]
        k = m.n_models
        assert audit_or_error(m, spec, size, k) == oracle_or_error(m, spec, size, k)


def test_a_sum_whose_partial_sums_overflow_ignores_task_order():
    # math.fsum overflows on the partial sum MAX + MAX of m0, not on m2's
    # MAX - MAX; the exact sum is MAX for both, so they tie.
    m = build([[MAX, MAX, -MAX], [1.0, 2.0, 3.0], [MAX, -MAX, MAX]])
    means = arithmetic_mean(m).per_model
    assert means["m0"] == means["m2"] == MAX / 3
    spec = AggregationSpec("arithmetic_mean")
    assert unique_topk_audit(m, spec, 3, 1).per_subset_topk == oracle(m, spec, [m.task_ids], 1)


def test_terms_beyond_two_slices_take_the_scalar_path(scalar_calls):
    # Tenths fill their cells' low bits, far above those of 1e-30.
    rows = np.random.default_rng(6).integers(0, 5, size=(5, 4)) / 10
    rows[0, 0] = 1e-30
    m = build(rows)
    spec = AggregationSpec("arithmetic_mean")
    assert BATCHED["arithmetic_mean"](oriented_array(m)[0], m, spec) is None
    for size in (1, 2, 3):
        subsets = list(enumerate_subsets(m.task_ids, size))
        scalar_calls.clear()
        result = unique_topk_audit(m, spec, size, 3)
        assert scalar_calls == subsets
        assert result.per_subset_topk == oracle(m, spec, subsets, 3)


@pytest.mark.parametrize("method", ["macro_average", "elimination_ranking"])
def test_schemes_without_a_kernel_call_aggregate_once_per_subset_in_order(method,
                                                                          scalar_calls):
    rng = np.random.default_rng(5)
    m = build(rng.integers(0, 4, size=(6, 5)), {"t1": MetricSpec(direction=LOWER)})
    spec = AggregationSpec(method, group_map={t: f"g{j % 2}" for j, t in enumerate(m.task_ids)})
    for size in (1, 2, 3):
        subsets = list(enumerate_subsets(m.task_ids, size))
        scalar_calls.clear()
        result = unique_topk_audit(m, spec, size, 3)
        assert scalar_calls == subsets
        assert result.per_subset_topk == oracle(m, spec, subsets, 3)


def test_audits_and_aggregate_never_orient(monkeypatch):
    # Every scheme reads lower-is-better columns negated, so no oriented matrix is built:
    # not by a kernel scheme, not by one settled subset by subset, not by the profiles.
    calls = []

    def counting(m):
        calls.append(m)
        return orient(m)

    # The package attribute `rankaudit.aggregate` is the function, not the module.
    for module in ("rankaudit.scorebank", "rankaudit.aggregate", "rankaudit.rankstats"):
        monkeypatch.setattr(importlib.import_module(module), "orient", counting, raising=False)
    m = build(np.random.default_rng(4).random((6, 5)), {"t1": MetricSpec(direction=LOWER)})
    groups = {t: "g" for t in m.task_ids}
    for method in ("arithmetic_mean", "macro_average"):
        result = unique_topk_audit(m, AggregationSpec(method, group_map=groups), 3, 3)
        assert result.evaluated == comb(m.n_tasks, 3)
    spec = AggregationSpec("macro_average", group_map=groups)
    subsets = [("t0", "t1"), ("t1", "t2", "t3")]
    rankstats.subset_tau_profile(m, spec, subsets)
    rankstats.topk_table(m, spec, subsets, 2)
    rankstats.aggregator_agreement(m, [spec, AggregationSpec("median")])
    aggregate(m, None, spec)
    assert calls == []


@pytest.mark.parametrize("method", METHODS)
def test_missing_cell_raises_like_the_scalar_path(method):
    m = build(np.random.default_rng(5).uniform(1.0, 2.0, size=(5, 4)))  # no ties
    holey = ScoreMatrix(m.model_ids, m.task_ids,
                        m.scores[:3] + ((1.0, 2.0, None, 4.0), (None, 1.0, 1.0, None)),
                        {"t1": MetricSpec(direction=LOWER)})
    spec = AggregationSpec(method, group_map={t: "g" for t in m.task_ids})
    subsets = list(enumerate_subsets(holey.task_ids, 2))
    with pytest.raises(MissingScoreError) as scalar:
        oracle(holey, spec, subsets, 2)
    with pytest.raises(MissingScoreError) as batched:
        unique_topk_audit(holey, spec, 2, 2)
    assert str(batched.value) == str(scalar.value)
    assert "'m4'" in str(batched.value) and "'t0'" in str(batched.value)


@pytest.mark.parametrize("method, rows", [
    ("geometric_mean", [[1.0, 2.0, 3.0], [2.0, 0.0, 1.0], [3.0, 1.0, -1.0]]),
    # The exact sum 2e308 is beyond the float range, though each score is not.
    ("arithmetic_mean", [[1.0, 2.0, 3.0], [1e308, 1e308, 1.0], [3.0, 1.0, 1.0]]),
    # Both central values are finite, their sum is not: one infinite median
    # would tie m1 and m2.
    ("median", [[1.0, 2.0, 3.0], [1e308, 1.6e308, 1.0], [1.5e308, 1.7e308, 1.0]]),
])
def test_domain_error_matches_scalar_path(method, rows):
    m = build(rows)
    spec = AggregationSpec(method)
    subsets = list(enumerate_subsets(m.task_ids, 2))
    with pytest.raises(DomainError) as scalar:
        oracle(m, spec, subsets, 1)
    with pytest.raises(DomainError) as batched:
        unique_topk_audit(m, spec, 2, 1)
    assert str(batched.value) == str(scalar.value)
    assert "'m1'" in str(batched.value)


# t1 weighs 2.0, so the terms 2e308 and 3e308 overflow to inf, which would tie a and b.
WEIGHTED_OVERFLOW = ScoreMatrix(("a", "b", "c"), ("t1", "t2"),
                                ((1e308, 1.0), (1.5e308, 2.0), (1.0, 3.0)),
                                {"t1": MetricSpec(weight=2.0)})


@pytest.mark.parametrize("spec", [
    AggregationSpec("arithmetic_mean"),
    AggregationSpec("macro_average", group_map={"t1": "g", "t2": "g"}),
    AggregationSpec("geometric_mean", weights={"t1": 1e308}),
])
def test_weighted_term_overflow_is_a_domain_error_on_both_paths(spec):
    with pytest.raises(DomainError) as scalar:
        aggregate(WEIGHTED_OVERFLOW, None, spec)
    with pytest.raises(DomainError) as batched:
        unique_topk_audit(WEIGHTED_OVERFLOW, spec, 1, 2)
    assert str(batched.value) == str(scalar.value) == "sum overflows the float range: model 'a'"


def test_audit_exit_code_3_for_weighted_term_overflow(tmp_path, capsys):
    matrix, metrics = tmp_path / "m.csv", tmp_path / "metrics.json"
    matrix.write_text("model,t1,t2\na,1e308,1\nb,1.5e308,2\nc,1,3\n")
    metrics.write_text('{"tasks": {"t1": {"weight": 2.0}}}')
    code = main(["audit", "--matrix", str(matrix), "--metrics", str(metrics),
                 "--sizes", "1", "--ks", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "computation error" in err and "model 'a'" in err


def test_bin_overflow_is_a_domain_error_on_both_paths():
    # 1e308 / 0.5 and -1e308 / 0.5 overflow; they used to share the +inf and
    # -inf buckets with a RuntimeWarning instead of failing
    m = build([[1.0, 1e308, 2.0], [2.0, -1e308, 1.0], [3.0, 1.0, 1.0]])
    spec = AggregationSpec("robust_average_rank", bin_width=0.5)
    subsets = list(enumerate_subsets(m.task_ids, 2))
    with pytest.raises(DomainError) as scalar:
        oracle(m, spec, subsets, 1)
    with pytest.raises(DomainError) as batched:
        unique_topk_audit(m, spec, 2, 1)
    assert str(batched.value) == str(scalar.value)
    assert "'m0'" in str(batched.value) and "'t1'" in str(batched.value)


def test_audit_exit_code_3_for_missing_scores(tmp_path, capsys):
    holey = tmp_path / "holey.csv"
    holey.write_text("model,t1,t2,t3\na,1,,2\nb,2,3,1\nc,0,1,1\n")
    code = main(["audit", "--matrix", str(holey), "--sizes", "2", "--ks", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "computation error" in err and "'a'" in err and "'t2'" in err


def audits_both_ways(m, spec, size, k_max, **sampling):
    """(one audit at k_max cut to each k, one audit per k) for k = 1..k_max."""
    cut = unique_topk_audit(m, spec, size, k_max, **sampling)
    return [(cut.for_k(k), unique_topk_audit(m, spec, size, k, **sampling))
            for k in range(1, k_max + 1)]


def assert_same_audit(cut, direct, oracle_topks):
    assert cut.per_subset_topk == direct.per_subset_topk == oracle_topks
    assert list(cut.per_subset_topk) == list(direct.per_subset_topk)
    distinct = len({tk.sequence for tk in oracle_topks.values()})
    assert cut.unique_count == direct.unique_count == distinct
    assert (cut.k, cut.subset_size, cut.total_combinations, cut.exact, cut.evaluated) == (
        direct.k, direct.subset_size, direct.total_combinations, direct.exact, direct.evaluated)


@pytest.mark.parametrize("method", METHODS)
@given(data=st.data())
def test_for_k_matches_a_direct_audit_and_the_oracle(method, data):
    # tied_cases draws k up to n_models + 1, so k > n_models is covered
    m, spec, size, k_max = data.draw(tied_cases(method))
    total = comb(m.n_tasks, size)
    samplings = [{}] + ([{"sampling_budget": total - 1, "seed": 7}] if total > 1 else [])
    for sampling in samplings:
        for cut, direct in audits_both_ways(m, spec, size, k_max, **sampling):
            subsets = list(direct.per_subset_topk)
            assert_same_audit(cut, direct, oracle(m, spec, subsets, cut.k))


def with_a_missing_cell(m, i, j):
    scores = [list(row) for row in m.scores]
    scores[i][j] = None
    return ScoreMatrix(m.model_ids, m.task_ids, tuple(map(tuple, scores)), m.metrics)


def audit_at_budget(m, spec, size, k, cells):
    """The audit with `cells` as its cell budget, or the type and message of its error."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rankstats, "_CELLS", cells)
        try:
            return unique_topk_audit(m, spec, size, k)
        except AuditError as exc:
            return type(exc), str(exc)


@pytest.mark.parametrize("method", METHODS)
@given(data=st.data())
def test_codes_decode_to_the_oracle_topks(method, data):
    m, spec, size, k = data.draw(tied_cases(method))
    # Budgets of 1 and 16 cells score one or a few subsets per pass; the
    # codes must not depend on it.  A missing cell fails every budget alike.
    cells = data.draw(st.sampled_from([1, 16]))
    if data.draw(st.booleans()):
        holey = with_a_missing_cell(m, data.draw(st.integers(0, m.n_models - 1)),
                                    data.draw(st.integers(0, m.n_tasks - 1)))
        failed = audit_at_budget(holey, spec, size, k, cells)
        assert failed[0] is MissingScoreError
        assert failed == audit_at_budget(holey, spec, size, k, rankstats._CELLS)
    result = audit_at_budget(m, spec, size, k, cells)
    default = unique_topk_audit(m, spec, size, k).per_subset_topk.codes
    coded = result.per_subset_topk
    assert coded.codes.dtype == default.dtype and coded.codes.shape == default.shape
    assert coded.codes.tobytes() == default.tobytes()
    expected = oracle(m, spec, list(enumerate_subsets(m.task_ids, size)), k)
    assert [coded.decode(row) for row in coded.codes] == list(expected.values())
    # equal Top-k <=> equal code row: the distinct rows are the distinct outcomes
    rows, inverse = coded.unique()
    decoded = [coded.decode(row) for row in rows]
    assert len({tk.sequence for tk in decoded}) == len(rows) == result.unique_count
    assert [decoded[u] for u in inverse] == list(expected.values())
    # the listing renders the same TopKs, tie groups sorted by model id
    buf = io.StringIO()
    rankstats.write_listing(buf, [result])
    listed = [row[3:] for row in csv.reader(io.StringIO(buf.getvalue()))]
    assert listed == [[";".join("|".join(sorted(g)) for g in tk.sequence), str(tk.boundary_tied)]
                      for tk in expected.values()]


def permuted(m, model_order, task_order):
    """m with its model rows and task columns reordered, each keeping its id."""
    return ScoreMatrix(tuple(m.model_ids[i] for i in model_order),
                       tuple(m.task_ids[j] for j in task_order),
                       tuple(tuple(m.scores[i][j] for j in task_order) for i in model_order),
                       m.metrics)


@pytest.mark.parametrize("method", METHODS)
@given(data=st.data())
def test_audit_ignores_model_and_task_order(method, data):
    m, spec, size, k_max = data.draw(tied_cases(method))
    models = data.draw(st.permutations(range(m.n_models)))
    p = permuted(m, models, data.draw(st.permutations(range(m.n_tasks))))
    q = permuted(m, models, range(m.n_tasks))
    audits = [unique_topk_audit(x, spec, size, k_max) for x in (m, p, q)]
    for k in range(1, k_max + 1):
        a, b, c = (audit.for_k(k) for audit in audits)
        assert a.exact and b.exact
        assert ((a.subset_size, a.k, a.unique_count, a.total_combinations)
                == (b.subset_size, b.k, b.unique_count, b.total_combinations))
        # a subset's task tuple follows the column order, so compare by task set
        assert ({frozenset(s): tk for s, tk in a.per_subset_topk.items()}
                == {frozenset(s): tk for s, tk in b.per_subset_topk.items()})
        # with the columns kept, the codes themselves ignore the model rows' order
        for x, y in ((a.per_subset_topk.codes, c.per_subset_topk.codes),
                     (a.per_subset_topk.unique()[0], c.per_subset_topk.unique()[0])):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


def test_for_k_on_chunks_of_different_code_widths(monkeypatch, scalar_calls):
    # m0 and m1 differ only on t1, so they tie in every subset without t1.
    # Two subsets per chunk, and boundary ties give the chunks different code
    # widths, which the audit pads to one.
    monkeypatch.setattr(rankstats, "_CELLS", 16)
    rows = [[0.9, 0.8, 0.5, 0.5],
            [0.9, 0.2, 0.5, 0.5],
            [0.3, 0.1, 0.4, 0.1],
            [0.1, 0.3, 0.2, 0.6]]
    m = build(rows)
    spec = AggregationSpec("arithmetic_mean")
    n = m.n_models
    widths = set()
    for size, k_max in product((1, 2, 3), (1, n + 1)):
        subsets = list(enumerate_subsets(m.task_ids, size))
        pairs = audits_both_ways(m, spec, size, k_max)
        for cut, direct in pairs:
            assert_same_audit(cut, direct, oracle(m, spec, subsets, cut.k))
        assert any(tk.boundary_tied for tk in pairs[0][0].per_subset_topk.values())
        widths |= {cut.per_subset_topk.codes.shape[1] for cut, _ in pairs}
    assert len(widths) > 1
    assert scalar_calls == []


def test_for_k_needs_a_smaller_k_and_coded_topks():
    m = build([[1.0, 2.0], [2.0, 1.0], [0.0, 0.0]])
    result = unique_topk_audit(m, AggregationSpec("arithmetic_mean"), 1, 2)
    for k in (0, 3):
        with pytest.raises(ConfigError):
            result.for_k(k)
    assert result.for_k(2) is result
    plain = rankstats.SubsetAuditResult(1, 2, result.unique_count, 2,
                                        dict(result.per_subset_topk))
    assert plain.per_subset_topk == result.per_subset_topk
    with pytest.raises(ConfigError):
        plain.for_k(1)


# -- tau profiles and scheme agreement --------------------------------------------
#
# Profiles and agreement score through the audit's keys.  Their oracle is the
# per-subset route: one `aggregate` Ranking per subset and `kendall_tau_b`.


def profile_oracle(m, spec, subsets):
    full = aggregate(m, None, spec)
    out = {}
    for subset in subsets:
        try:
            out[tuple(subset)] = kendall_tau_b(full, aggregate(m, tuple(subset), spec))
        except UndefinedCorrelationError:
            out[tuple(subset)] = None
    return out


def agreement_oracle(m, specs, subset):
    rankings = [aggregate(m, subset, spec) for spec in specs]
    return [[kendall_tau_b(a, b) for b in rankings] for a in rankings]


def outcome(fn, *args):
    """fn's taus as float.hex (None stays None), or the type and message of its error."""
    try:
        result = fn(*args)
    except AuditError as exc:
        return type(exc), str(exc)
    hexed = lambda tau: None if tau is None else tau.hex()
    if isinstance(result, dict):
        return {subset: hexed(tau) for subset, tau in result.items()}
    return [[hexed(tau) for tau in row] for row in result]


@st.composite
def profile_cases(draw):
    """A tie-heavy matrix in shuffled model rows, scheme parameters and subsets to profile."""
    n_models = draw(st.integers(1, 30))
    n_tasks = draw(st.integers(1, 6))
    task_ids = [f"t{j}" for j in range(n_tasks)]
    shift = draw(st.sampled_from([0.0, 1.0]))  # 1.0 keeps geometric means defined
    cells = [[float(v) + shift for v in row] for row in draw(st.lists(
        st.lists(st.integers(0, 3), min_size=n_tasks, max_size=n_tasks),
        min_size=n_models, max_size=n_models))]
    if draw(st.integers(0, 4)) == 0:
        cells[draw(st.integers(0, n_models - 1))][draw(st.integers(0, n_tasks - 1))] = None
    lower = draw(st.one_of(st.just([]), st.lists(st.sampled_from(task_ids))))
    grouped = task_ids[:-1] if draw(st.integers(0, 4)) == 0 else task_ids
    metrics = {t: MetricSpec(direction=LOWER if t in lower else "higher",
                             group=f"g{j % 2}" if t in grouped else None)
               for j, t in enumerate(task_ids)}
    order = draw(st.permutations(range(n_models)))
    m = ScoreMatrix(tuple(f"m{i}" for i in order), tuple(task_ids),
                    tuple(tuple(cells[i]) for i in order), metrics)
    weights = draw(st.one_of(st.none(), st.dictionaries(st.sampled_from(task_ids),
                                                        st.sampled_from([0.5, 2.0, 3.0]))))
    params = {"bin_width": draw(st.sampled_from([0.5, 1.0, 2.5])), "weights": weights}
    subsets = draw(st.lists(st.lists(st.sampled_from(task_ids), min_size=1, unique=True)
                            .map(tuple), min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 0:
        bad = draw(st.sampled_from([("nope",), (task_ids[0], task_ids[0]), ()]))
        subsets.insert(draw(st.integers(0, len(subsets))), bad)
    return m, params, subsets


@pytest.mark.parametrize("method", METHODS)
@given(case=profile_cases())
def test_profile_matches_the_per_subset_route(method, case):
    m, params, subsets = case
    spec = AggregationSpec(method, **params)
    assert outcome(subset_tau_profile, m, spec, subsets) == outcome(profile_oracle, m, spec,
                                                                    subsets)


@given(case=profile_cases(), methods=st.lists(st.sampled_from(METHODS), min_size=2, max_size=4),
       whole=st.booleans())
def test_agreement_matches_the_per_subset_route(case, methods, whole):
    m, params, subsets = case
    specs = [AggregationSpec(method, **params) for method in methods]
    subset = None if whole else subsets[-1]
    assert outcome(aggregator_agreement, m, specs, subset) == outcome(agreement_oracle, m, specs,
                                                                      subset)


# name -> (spec, profile subsets, cells changed, error type); the agreement
# pairs spec with the median on the last subset.
ERROR_CASES = {
    "missing cell": (AggregationSpec("average_rank"), [("t1",)], {(1, 1): None},
                     MissingScoreError),
    "non-positive geometric cell": (AggregationSpec("geometric_mean"), [("t0",)],
                                    {(2, 0): 0.0}, DomainError),
    "macro_average without groups": (AggregationSpec("macro_average"), [("t0",)], {},
                                     ConfigError),
    "unknown subset": (AggregationSpec(), [("t0",), ("nope",)], {}, ConfigError),
    "duplicated subset": (AggregationSpec("median"), [("t0", "t0")], {}, ConfigError),
    "empty subset": (AggregationSpec("elimination_ranking"), [()], {}, ConfigError),
}


@pytest.mark.parametrize("name", ERROR_CASES)
def test_profile_and_agreement_raise_like_the_per_subset_route(name):
    spec, subsets, changes, error = ERROR_CASES[name]
    rows = [[3.0, 1.0, 2.0], [1.0, 2.0, 3.0], [2.0, 3.0, 1.0]]
    for (i, j), value in changes.items():
        rows[i][j] = value
    m = ScoreMatrix(("a", "b", "c"), ("t0", "t1", "t2"), tuple(map(tuple, rows)))
    profile = outcome(subset_tau_profile, m, spec, subsets)
    assert profile == outcome(profile_oracle, m, spec, subsets)
    assert profile[0] is error
    specs, subset = [spec, AggregationSpec("median")], subsets[-1]
    agreement = outcome(aggregator_agreement, m, specs, subset)
    assert agreement == outcome(agreement_oracle, m, specs, subset)
    assert agreement[0] is error


@pytest.mark.parametrize("method", ["arithmetic_mean", "geometric_mean"])
def test_profile_calls_aggregate_only_for_schemes_without_a_kernel(method, scalar_calls):
    m = fixtures.lra_matrix()
    subset_tau_profile(m, AggregationSpec(method), [(t,) for t in m.task_ids])
    assert len(scalar_calls) == (0 if method in BATCHED else m.n_tasks + 1)


def test_bin_overflow_fails_only_the_subsets_that_touch_it():
    # 1e308 / 0.5 and -1e308 / 0.5 overflow in t1 alone
    m = build([[1.0, 1e308, 0.0], [2.0, -1e308, 1.0], [3.0, 1.0, 2.0]])
    specs = [AggregationSpec("robust_average_rank", bin_width=0.5), AggregationSpec("median")]
    one = (1.0).hex()
    assert (outcome(aggregator_agreement, m, specs, ("t0", "t2"))
            == outcome(agreement_oracle, m, specs, ("t0", "t2")) == [[one, one], [one, one]])
    with pytest.raises(DomainError, match="'m0', task 't1'"):
        aggregator_agreement(m, specs, ("t1",))
