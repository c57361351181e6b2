"""Batched subset audits against the scalar `aggregate` reference.

`unique_topk_audit` scores subsets with the batched kernels of
`aggregate.BATCHED` and settles a subset on the scalar path only when it
touches a missing cell or a float kernel cannot certify its order.  The
oracle here is the scalar path for every subset: {s: top_k(aggregate(m, s,
spec), k)}.  The matrices are built to tie: small integer scores,
duplicated rows, tenths whose float sums depend on order, and cells moved
one ulp with np.nextafter.
"""

import importlib
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankaudit import rankstats
from rankaudit.aggregate import BATCHED, METHODS, AggregationSpec, aggregate
from rankaudit.cli import main
from rankaudit.errors import DomainError, MissingScoreError
from rankaudit.ranking import top_k
from rankaudit.rankstats import enumerate_subsets, unique_topk_audit
from rankaudit.scorebank import LOWER, MetricSpec, ScoreMatrix, orient


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

    monkeypatch.setattr(rankstats, "aggregate", counting)
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


def test_near_ties_take_the_scalar_fallback(scalar_calls):
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
            scalar_calls.clear()
            result = unique_topk_audit(m, spec, size, k)
            assert result.per_subset_topk == oracle(m, spec, subsets, k)
            assert scalar_calls == subsets


def test_separated_means_and_rank_kernels_stay_batched(scalar_calls):
    rng = np.random.default_rng(3)
    m = build(rng.random((30, 8)), {"t2": MetricSpec(direction=LOWER)})
    tied = build(rng.integers(0, 5, size=(30, 8)))
    for method in sorted(BATCHED):
        for matrix in ((m, tied) if method != "arithmetic_mean" else (m,)):
            spec = AggregationSpec(method, bin_width=2.0)
            result = unique_topk_audit(matrix, spec, 3, 5)
            assert result.per_subset_topk == oracle(matrix, spec, list(result.per_subset_topk), 5)
    assert scalar_calls == []


def test_scalar_audit_orients_once(monkeypatch):
    # macro_average has no kernel, so every subset goes through `aggregate`.
    calls = []

    def counting(m):
        calls.append(m)
        return orient(m)

    # The package attribute `rankaudit.aggregate` is the function, not the module.
    monkeypatch.setattr(importlib.import_module("rankaudit.aggregate"), "orient", counting)
    monkeypatch.setattr(rankstats, "orient", counting, raising=False)
    m = build(np.random.default_rng(4).random((6, 5)), {"t1": MetricSpec(direction=LOWER)})
    spec = AggregationSpec("macro_average", group_map={t: "g" for t in m.task_ids})
    for size in (2, 3):
        calls.clear()
        result = unique_topk_audit(m, spec, size, 3)
        assert len(calls) == 1
        assert result.evaluated == comb(m.n_tasks, size)


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
