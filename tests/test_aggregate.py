import inspect
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankaudit import fixtures
from rankaudit.aggregate import (
    METHODS,
    AggregationSpec,
    aggregate,
    arithmetic_mean,
    average_rank,
    elimination_ranking,
    geometric_mean,
    macro_average,
    median_score,
    robust_average_rank,
    task_group,
)
from rankaudit.errors import ConfigError, DomainError, MissingScoreError
from rankaudit.ranking import rank_models
from rankaudit.rankstats import unique_topk_audit
from rankaudit.scorebank import HIGHER, LOWER, MetricSpec, ScoreMatrix, orient, oriented_cells


def matrix(rows, model_ids=None, task_ids=None, metrics=None):
    n_models = len(rows)
    n_tasks = len(rows[0])
    model_ids = model_ids or tuple(chr(ord("A") + i) for i in range(n_models))
    task_ids = task_ids or tuple(f"t{j + 1}" for j in range(n_tasks))
    return ScoreMatrix(tuple(model_ids), tuple(task_ids),
                       tuple(tuple(float(x) for x in r) for r in rows), metrics or {})


def random_matrix(rng, n_models, n_tasks, low=0.0, high=100.0):
    rows = rng.uniform(low, high, size=(n_models, n_tasks))
    return matrix(rows.tolist())


# -- arithmetic mean --------------------------------------------------------


def test_mean_single_task_is_identity():
    m = matrix([[3.0, 9.0], [1.0, 7.0]])
    res = arithmetic_mean(m, ["t1"])
    assert res.per_model == {"A": 3.0, "B": 1.0}
    assert res.higher_is_better


def test_mean_equal_weights():
    m = matrix([[2.0, 4.0]])
    assert arithmetic_mean(m).per_model["A"] == 3.0


def test_mean_respects_weights():
    m = matrix([[2.0, 4.0]])
    res = arithmetic_mean(m, weights={"t1": 3.0, "t2": 1.0})
    assert res.per_model["A"] == pytest.approx(2.5)


def test_mean_lra_argmax_is_bigbird():
    m = fixtures.lra_matrix()
    res = arithmetic_mean(m)
    assert max(res.per_model, key=res.per_model.get) == "BigBird"


def test_mean_errors():
    with pytest.raises(ConfigError):
        arithmetic_mean(matrix([[1.0]]), [])
    holey = ScoreMatrix(("A",), ("t1", "t2"), ((1.0, None),))
    with pytest.raises(MissingScoreError):
        arithmetic_mean(holey)
    assert arithmetic_mean(holey, ["t1"]).per_model == {"A": 1.0}


# -- geometric mean ---------------------------------------------------------


def test_geometric_mean_basics():
    assert geometric_mean(matrix([[4.0, 9.0]])).per_model["A"] == pytest.approx(6.0)
    assert geometric_mean(matrix([[7.0, 7.0, 7.0]])).per_model["A"] == pytest.approx(7.0)


def test_geometric_mean_rejects_non_positive():
    with pytest.raises(DomainError, match="'A'.*'t2'"):
        geometric_mean(matrix([[1.0, 0.0]]))


# -- median ------------------------------------------------------------------


def test_median_order_statistic():
    assert median_score(matrix([[1.0, 2.0, 100.0]])).per_model["A"] == 2.0
    assert median_score(matrix([[1.0, 3.0]])).per_model["A"] == 2.0
    assert median_score(matrix([[5.0]])).per_model["A"] == 5.0


# -- macro average -----------------------------------------------------------


def test_macro_constant_is_constant():
    m = matrix([[7.0, 7.0, 7.0, 7.0]])
    groups = {"t1": "a", "t2": "b", "t3": "b", "t4": "b"}
    assert macro_average(m, group_map=groups).per_model["A"] == pytest.approx(7.0)


def test_macro_two_level_mean():
    m = matrix([[1.0, 0.0, 0.0]])
    groups = {"t1": "A", "t2": "B", "t3": "B"}
    assert macro_average(m, group_map=groups).per_model["A"] == pytest.approx(0.5)
    assert arithmetic_mean(m).per_model["A"] == pytest.approx(1 / 3)


def test_macro_hand_computed_grouped_fixture():
    # 4 models x 6 tasks, groups G1={t1,t2,t3}, G2={t4,t5}, G3={t6};
    # expected values are the hand-computed mean-of-group-means
    rows = [
        [80, 90, 70, 60, 40, 95],
        [60, 60, 60, 90, 90, 30],
        [100, 40, 70, 50, 70, 80],
        [20, 30, 40, 100, 100, 100],
    ]
    groups = {"t1": "G1", "t2": "G1", "t3": "G1", "t4": "G2", "t5": "G2", "t6": "G3"}
    res = macro_average(matrix(rows, model_ids=("M1", "M2", "M3", "M4")), group_map=groups)
    assert res.per_model["M1"] == pytest.approx(75.0)
    assert res.per_model["M2"] == pytest.approx(60.0)
    assert res.per_model["M3"] == pytest.approx(70.0)
    assert res.per_model["M4"] == pytest.approx(230.0 / 3.0)


def test_macro_weighted_within_group():
    rows = [[80, 90, 70, 60, 40, 95]]
    groups = {"t1": "G1", "t2": "G1", "t3": "G1", "t4": "G2", "t5": "G2", "t6": "G3"}
    res = macro_average(matrix(rows), group_map=groups, weights={"t4": 3.0})
    # G2 weighted mean = (60*3 + 40) / 4 = 55
    assert res.per_model["A"] == pytest.approx((80 + 55 + 95) / 3.0)


def test_task_group_takes_the_group_map_entry_then_the_metric_group():
    m = matrix([[1.0, 2.0, 3.0]], metrics={"t1": MetricSpec(group="a"),
                                           "t2": MetricSpec(group="b")})
    assert [task_group(m, t, {"t1": "x"}) for t in m.task_ids] == ["x", "b", None]
    assert [task_group(m, t, None) for t in m.task_ids] == ["a", "b", None]


def test_macro_requires_total_group_map():
    m = matrix([[1.0, 2.0]])
    with pytest.raises(ConfigError, match="'t2'"):
        macro_average(m, group_map={"t1": "a"})
    # metric metadata can supply the groups instead
    m2 = matrix([[1.0, 2.0]], metrics={"t1": MetricSpec(group="a"), "t2": MetricSpec(group="b")})
    assert macro_average(m2).per_model["A"] == pytest.approx(1.5)


# -- average rank -------------------------------------------------------------


def test_average_rank_single_task():
    m = matrix([[3.0], [1.0], [2.0]])
    res = average_rank(m)
    assert res.per_model == {"A": 1.0, "B": 3.0, "C": 2.0}
    assert not res.higher_is_better


def test_average_rank_tie_convention():
    m = matrix([[5.0], [5.0], [1.0]])
    assert average_rank(m).per_model == {"A": 1.5, "B": 1.5, "C": 3.0}


def test_average_rank_reversed_tasks_symmetric():
    m = matrix([[1.0, 2.0], [2.0, 1.0]])
    assert average_rank(m).per_model == {"A": 1.5, "B": 1.5}


# -- robust average rank -------------------------------------------------------


def test_robust_rank_bins_close_scores_together():
    m = matrix([[90.2], [90.9]])
    assert robust_average_rank(m, bin_width=1.0).per_model == {"A": 1.5, "B": 1.5}


def test_robust_rank_separates_across_bucket_edge():
    m = matrix([[89.9], [90.1]])
    assert robust_average_rank(m, bin_width=1.0).per_model == {"A": 2.0, "B": 1.0}


def test_robust_rank_tiny_bin_equals_average_rank():
    rng = np.random.default_rng(5)
    m = random_matrix(rng, 6, 4)
    gaps = []
    arr = m.to_array()
    for j in range(arr.shape[1]):
        col = sorted(arr[:, j])
        gaps += [b - a for a, b in zip(col, col[1:])]
    width = min(g for g in gaps if g > 0) / 2.0
    assert robust_average_rank(m, bin_width=width).per_model == average_rank(m).per_model


def test_robust_rank_huge_bin_ties_everything():
    rng = np.random.default_rng(6)
    m = random_matrix(rng, 5, 3, low=10.0, high=20.0)
    res = robust_average_rank(m, bin_width=1000.0)
    assert set(res.per_model.values()) == {3.0}


# -- elimination ranking --------------------------------------------------------


def test_elimination_unanimous():
    m = matrix([[2.0, 2.0], [1.0, 1.0]])
    r = elimination_ranking(m)
    assert r.entries == {"A": 1.0, "B": 2.0}


def test_elimination_three_model_hand_run():
    # per-task winners A, A, B: C is voted out first, then B, leaving A
    m = matrix([
        [3.0, 3.0, 1.0],
        [2.0, 2.0, 3.0],
        [1.0, 1.0, 2.0],
    ])
    r = elimination_ranking(m)
    assert r.entries == {"A": 1.0, "B": 2.0, "C": 3.0}


def test_elimination_identical_models_all_tie():
    m = matrix([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    r = elimination_ranking(m)
    assert set(r.entries.values()) == {2.0}


def test_elimination_single_task_equals_score_order():
    rng = np.random.default_rng(7)
    for _ in range(20):
        scores = rng.permutation(rng.uniform(0, 100, size=6))
        m = matrix([[s] for s in scores])
        elim = elimination_ranking(m)
        by_score = rank_models(arithmetic_mean(m).per_model, higher_is_better=True)
        assert elim.entries == by_score.entries
    # one model is eliminated per round: 1,199 rounds, as deep as a recursion would go
    m = matrix([[s] for s in rng.permutation(1200)])
    by_score = rank_models(arithmetic_mean(m).per_model, higher_is_better=True)
    assert elimination_ranking(m).entries == by_score.entries



def test_elimination_entries_follow_model_order_whatever_the_hash_seed():
    # Entries follow model order, never the str-hash order of a set of tied ids.
    code = ("from rankaudit.aggregate import elimination_ranking\n"
            "from rankaudit.scorebank import ScoreMatrix\n"
            "rows = ((1.0, 2.0), (1.0, 2.0), (3.0, 0.0), (0.0, 3.0), (1.0, 2.0))\n"
            "m = ScoreMatrix(tuple(f'm{i}' for i in range(5)), ('t1', 't2'), rows)\n"
            "print(' '.join(elimination_ranking(m).entries))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["m0", "m1", "m2", "m3", "m4"]


def recursive_elimination(m, subset=None):
    """The elimination contest as a recursion over frozensets with Fraction votes."""
    tasks = tuple(m.task_ids if subset is None else subset)
    arr = oriented_cells(m, tasks)
    score = {mid: {t: arr[i, j] for j, t in enumerate(tasks)}
             for i, mid in enumerate(m.model_ids)}

    def contest(models):
        if len(models) == 1:
            return [models]
        votes = {mid: Fraction(0) for mid in models}
        for t in tasks:
            best = max(score[mid][t] for mid in models)
            tops = [mid for mid in models if score[mid][t] == best]
            for mid in tops:
                votes[mid] += Fraction(1, len(tops))
        v_min = min(votes.values())
        losers = frozenset(mid for mid in models if votes[mid] == v_min)
        if losers == models:
            return [models]
        return contest(models - losers) + contest(losers)

    rank, position = {}, 1
    for group in contest(frozenset(m.model_ids)):
        for mid in group:
            rank[mid] = position + (len(group) - 1) / 2.0
        position += len(group)
    return {mid: rank[mid] for mid in m.model_ids}


@given(data=st.data())
def test_elimination_equals_the_recursive_contest(data):
    n_models = data.draw(st.integers(1, 12))
    n_tasks = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=n_tasks, max_size=n_tasks),
                              min_size=n_models, max_size=n_models))
    ids = data.draw(st.permutations([f"m{i}" for i in range(n_models)]))
    m = matrix(rows, ids, metrics={f"t{j + 1}": MetricSpec(direction=LOWER)
                                   for j in range(n_tasks) if data.draw(st.booleans())})
    subset = data.draw(st.one_of(st.none(), st.lists(st.sampled_from(m.task_ids), min_size=1,
                                                     unique=True)))
    got = elimination_ranking(m, subset).entries
    want = recursive_elimination(m, subset)
    assert got == want
    assert list(got) == list(want)


# -- dispatcher -----------------------------------------------------------------


def test_dispatch_lra_top3():
    m = fixtures.lra_matrix()
    r = aggregate(m, None, AggregationSpec("arithmetic_mean"))
    assert r.order()[:3] == ["BigBird", "Transformer", "Longformer"]


def test_dispatch_single_task_median_equals_mean():
    rng = np.random.default_rng(8)
    m = random_matrix(rng, 5, 3)
    a = aggregate(m, ["t2"], AggregationSpec("arithmetic_mean"))
    b = aggregate(m, ["t2"], AggregationSpec("median"))
    assert a.entries == b.entries


def test_dispatch_tiny_bin_matches_average_rank():
    rng = np.random.default_rng(9)
    m = random_matrix(rng, 5, 3)
    a = aggregate(m, None, AggregationSpec("average_rank"))
    b = aggregate(m, None, AggregationSpec("robust_average_rank", bin_width=1e-9))
    assert a.entries == b.entries


def test_dispatch_passes_the_spec_to_each_scheme_in_method_order():
    # every scheme, and each weighted one without weights, ranks this matrix differently
    m = matrix([[0.9, 0.1, 0.5], [0.3, 0.9, 0.3], [0.2, 0.8, 0.8], [0.1, 0.9, 0.5]])
    weights, groups = {"t2": 3.0}, {"t1": "a", "t2": "b", "t3": "b"}

    def ranked(result):
        return rank_models(result.per_model, result.higher_is_better)

    expected = {
        "arithmetic_mean": ranked(arithmetic_mean(m, None, weights)),
        "geometric_mean": ranked(geometric_mean(m, None, weights)),
        "median": ranked(median_score(m)),
        "macro_average": ranked(macro_average(m, None, groups, weights)),
        "average_rank": ranked(average_rank(m)),
        "robust_average_rank": ranked(robust_average_rank(m, None, 0.3)),
        "elimination_ranking": elimination_ranking(m),
    }
    assert METHODS == tuple(expected)
    for method, ranking in expected.items():
        spec = AggregationSpec(method, bin_width=0.3, group_map=groups, weights=weights)
        assert aggregate(m, None, spec) == ranking


def test_dispatch_auto_orients_lower_better_tasks():
    m = matrix([[1.0], [3.0]], metrics={"t1": MetricSpec(direction=LOWER)})
    r = aggregate(m, None, AggregationSpec("arithmetic_mean"))
    assert r.entries == {"A": 1.0, "B": 2.0}


@pytest.mark.parametrize("scheme", [arithmetic_mean, geometric_mean, median_score,
                                    macro_average, average_rank, robust_average_rank,
                                    elimination_ranking])
def test_schemes_check_the_subset_before_its_directions(scheme):
    m = matrix([[1.0, 2.0], [3.0, 4.0]], metrics={"t1": MetricSpec(direction=LOWER)})
    with pytest.raises(ConfigError, match="unknown task 't9'"):
        scheme(m, ["t1", "t9"])
    with pytest.raises(ConfigError, match="duplicates"):
        scheme(m, ["t1", "t2", "t1"])
    with pytest.raises(ConfigError, match="empty"):
        scheme(m, [])


def test_spec_validation():
    with pytest.raises(ConfigError):
        AggregationSpec(method="bogus")
    with pytest.raises(ConfigError):
        AggregationSpec(bin_width=0.0)
    with pytest.raises(ConfigError):
        AggregationSpec(weights={"t1": -1.0})
    # a value that overflowed on the way in would rank by file order or tie everyone
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="bin_width must be positive and finite"):
            AggregationSpec(bin_width=bad)
        with pytest.raises(ConfigError, match="weight for task 't1' must be positive and finite"):
            AggregationSpec(weights={"t1": bad})


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("option, named", [({"weights": {"T1": 10.0}}, "weights name task 'T1'"),
                                           ({"group_map": {"t1": "g", "x": "g"}},
                                            "groups name task 'x'")])
def test_weights_or_groups_for_a_task_the_matrix_lacks_are_rejected(method, option, named):
    # Task ids are case-sensitive: a weight for "T1" on a matrix with "t1"
    # used to leave t1 unweighted, silently.
    m = matrix([[1.0, 2.0], [2.0, 1.0]])
    spec = AggregationSpec(method, **{"group_map": {"t1": "g", "t2": "g"}, **option})
    for call in (lambda: aggregate(m, None, spec), lambda: aggregate(m, ["t2"], spec),
                 lambda: unique_topk_audit(m, spec, 1, 1)):
        with pytest.raises(ConfigError, match=named):
            call()


# -- cross-method invariants ------------------------------------------------------


ALL_SPECS = [
    AggregationSpec("arithmetic_mean"),
    AggregationSpec("geometric_mean"),
    AggregationSpec("median"),
    AggregationSpec("macro_average", group_map={"t1": "g"}),
    AggregationSpec("average_rank"),
    AggregationSpec("elimination_ranking"),
]


def test_all_methods_agree_on_one_distinct_task():
    rng = np.random.default_rng(10)
    for _ in range(20):
        scores = rng.uniform(1.0, 100.0, size=7)
        while len(set(scores)) < 7:  # pragma: no cover - vanishingly unlikely
            scores = rng.uniform(1.0, 100.0, size=7)
        m = matrix([[s] for s in scores])
        gap = min(abs(a - b) for i, a in enumerate(scores) for b in scores[i + 1:])
        specs = ALL_SPECS + [AggregationSpec("robust_average_rank", bin_width=gap / 2.0)]
        rankings = [aggregate(m, ["t1"], spec).entries for spec in specs]
        assert all(r == rankings[0] for r in rankings)


def test_permutation_invariance_of_model_rows():
    rng = np.random.default_rng(11)
    base = rng.uniform(1.0, 100.0, size=(6, 4))
    perm = rng.permutation(6)
    m1 = matrix(base.tolist())
    m2 = ScoreMatrix(
        tuple(m1.model_ids[i] for i in perm),
        m1.task_ids,
        tuple(m1.scores[i] for i in perm),
        m1.metrics,
    )
    for spec in [AggregationSpec("arithmetic_mean"), AggregationSpec("median"),
                 AggregationSpec("average_rank"), AggregationSpec("elimination_ranking")]:
        assert aggregate(m1, None, spec).entries == aggregate(m2, None, spec).entries


def test_permutation_invariance_of_task_columns():
    rng = np.random.default_rng(15)
    base = rng.uniform(1.0, 100.0, size=(6, 4))
    perm = rng.permutation(4)
    m1 = matrix(base.tolist())
    m2 = ScoreMatrix(
        m1.model_ids,
        tuple(m1.task_ids[j] for j in perm),
        tuple(tuple(row[j] for j in perm) for row in m1.scores),
        m1.metrics,
    )
    for spec in [AggregationSpec("arithmetic_mean"), AggregationSpec("geometric_mean"),
                 AggregationSpec("average_rank"), AggregationSpec("elimination_ranking")]:
        assert aggregate(m1, None, spec).entries == aggregate(m2, None, spec).entries


MONOTONE_TRANSFORMS = [
    lambda x: x,
    lambda x: 2.0 * x + 5.0,
    lambda x: x**3,
    lambda x: math.exp(x / 50.0),
    lambda x: math.log1p(x - 0.5),
]


def test_monotone_transform_invariance_rank_based():
    rng = np.random.default_rng(12)
    for trial in range(50):
        m = random_matrix(rng, 6, 4, low=1.0, high=100.0)
        transforms = [MONOTONE_TRANSFORMS[rng.integers(len(MONOTONE_TRANSFORMS))]
                      for _ in m.task_ids]
        twisted = matrix(
            [[transforms[j](cell) for j, cell in enumerate(row)] for row in m.scores]
        )
        for spec in [AggregationSpec("average_rank"), AggregationSpec("elimination_ranking")]:
            assert aggregate(m, None, spec).entries == aggregate(twisted, None, spec).entries


def test_geometric_mean_scale_invariance():
    rng = np.random.default_rng(13)
    for trial in range(50):
        m = random_matrix(rng, 6, 4, low=0.5, high=100.0)
        scales = rng.uniform(0.1, 10.0, size=4)
        scaled = matrix(
            [[cell * scales[j] for j, cell in enumerate(row)] for row in m.scores]
        )
        spec = AggregationSpec("geometric_mean")
        assert aggregate(m, None, spec).entries == aggregate(scaled, None, spec).entries


def test_arithmetic_mean_common_affine_invariance():
    rng = np.random.default_rng(14)
    for trial in range(50):
        m = random_matrix(rng, 6, 4)
        a, b = rng.uniform(0.1, 5.0), rng.uniform(-50.0, 50.0)
        mapped = matrix([[a * cell + b for cell in row] for row in m.scores])
        spec = AggregationSpec("arithmetic_mean")
        assert aggregate(m, None, spec).entries == aggregate(mapped, None, spec).entries


# -- exact, order-independent sums --------------------------------------------


@pytest.mark.parametrize("method", ["arithmetic_mean", "geometric_mean", "macro_average"])
def test_equal_means_tie_whatever_the_task_order(method):
    # Left to right, 0.1 + 0.2 + 0.3 is 0.6000000000000001 but 0.3 + 0.2 + 0.1 is 0.6.
    m = matrix([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
    spec = AggregationSpec(method, group_map={t: "g" for t in m.task_ids})
    assert aggregate(m, None, spec).entries == {"A": 1.5, "B": 1.5}


@st.composite
def scored_matrices(draw):
    n_models = draw(st.integers(2, 5))
    n_tasks = draw(st.integers(2, 5))
    cell = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 3.0]), st.floats(0.01, 100.0))
    rows = draw(st.lists(st.lists(cell, min_size=n_tasks, max_size=n_tasks),
                         min_size=n_models, max_size=n_models))
    return matrix(rows)


def spec_for(method, m):
    return AggregationSpec(method, group_map={t: f"g{j % 2}" for j, t in enumerate(m.task_ids)})


@pytest.mark.parametrize("method", METHODS)
@given(m=scored_matrices(), data=st.data())
def test_ranking_ignores_the_order_of_subset_tasks(method, m, data):
    shuffled = data.draw(st.permutations(m.task_ids))
    spec = spec_for(method, m)
    assert aggregate(m, shuffled, spec) == aggregate(m, m.task_ids, spec)


@pytest.mark.parametrize("method", METHODS)
@given(m=scored_matrices(), data=st.data())
def test_ranking_ignores_the_order_of_model_rows(method, m, data):
    perm = data.draw(st.permutations(range(m.n_models)))
    permuted = ScoreMatrix(tuple(m.model_ids[i] for i in perm), m.task_ids,
                           tuple(m.scores[i] for i in perm), m.metrics)
    spec = spec_for(method, m)
    assert aggregate(permuted, None, spec) == aggregate(m, None, spec)


@pytest.mark.parametrize("method", ["arithmetic_mean", "geometric_mean", "median",
                                    "macro_average"])
@given(m=scored_matrices(), data=st.data())
def test_ranking_ignores_one_models_scores_permuted_across_equal_weight_tasks(method, m, data):
    i = data.draw(st.integers(0, m.n_models - 1))
    perm = data.draw(st.permutations(range(m.n_tasks)))
    rows = list(m.scores)
    rows[i] = tuple(rows[i][j] for j in perm)
    moved = ScoreMatrix(m.model_ids, m.task_ids, tuple(rows), m.metrics)
    spec = AggregationSpec(method, group_map={t: "g" for t in m.task_ids})
    assert aggregate(moved, None, spec) == aggregate(m, None, spec)


def outcome(m, subset, spec):
    """The ranking, or the message of the DomainError raised instead."""
    try:
        return aggregate(m, subset, spec)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("method", METHODS)
@given(m=scored_matrices(), data=st.data())
def test_aggregate_equals_aggregate_of_the_oriented_matrix(method, m, data):
    lower = data.draw(st.lists(st.sampled_from(m.task_ids), min_size=1,
                               max_size=m.n_tasks - 1, unique=True))
    mixed = ScoreMatrix(m.model_ids, m.task_ids, m.scores,
                        {t: MetricSpec(direction=LOWER) for t in lower})
    subset = data.draw(st.lists(st.sampled_from(m.task_ids), min_size=1, unique=True))
    higher_only = [t for t in m.task_ids if t not in lower]
    spec = spec_for(method, m)
    for tasks in (None, subset, higher_only):
        assert outcome(mixed, tasks, spec) == outcome(orient(mixed), tasks, spec)


@st.composite
def tied_mixed_cases(draw):
    """A tied, mixed-direction matrix that may hold missing cells, a subset and options.

    Repeated cells tie models; zeros, negatives and +-1e308 reach the
    geometric mean's domain check and the overflow checks.  Half the
    matrices get every oriented cell positive, so geometric means exist.
    """
    n_models = draw(st.integers(2, 5))
    n_tasks = draw(st.integers(2, 5))
    cell = st.one_of(st.sampled_from([None, 0.0, 0.1, 0.2, 0.3, 1.0, 3.0, -2.0, 1e308, -1e308]),
                     st.floats(-100.0, 100.0))
    rows = draw(st.lists(st.lists(cell, min_size=n_tasks, max_size=n_tasks),
                         min_size=n_models, max_size=n_models))
    task_ids = tuple(f"t{j}" for j in range(n_tasks))
    metrics = {t: MetricSpec(direction=draw(st.sampled_from([HIGHER, LOWER])),
                             weight=draw(st.sampled_from([0.5, 1.0, 3.0])))
               for t in task_ids}
    if draw(st.booleans()):
        sign = [-1.0 if metrics[t].direction == LOWER else 1.0 for t in task_ids]
        rows = [[c if c is None else s * (abs(c) or 1.0) for s, c in zip(sign, row)]
                for row in rows]
    m = ScoreMatrix(tuple(f"m{i}" for i in range(n_models)), task_ids,
                    tuple(map(tuple, rows)), metrics)
    subset = draw(st.one_of(st.none(), st.lists(st.sampled_from(task_ids), min_size=1,
                                                unique=True)))
    options = {"weights": draw(st.one_of(st.none(), st.dictionaries(
                   st.sampled_from(task_ids), st.sampled_from([0.1, 2.0])))),
               "group_map": {t: f"g{j % 2}" for j, t in enumerate(task_ids)},
               "bin_width": draw(st.sampled_from([0.5, 1.0, 1e-300]))}
    return m, subset, options


@pytest.mark.parametrize("scheme", [arithmetic_mean, geometric_mean, median_score,
                                    macro_average, average_rank, robust_average_rank,
                                    elimination_ranking])
@given(case=tied_mixed_cases())
def test_schemes_read_lower_is_better_tasks_as_orient_does(scheme, case):
    m, subset, options = case
    params = inspect.signature(scheme).parameters
    kwargs = {key: value for key, value in options.items() if key in params}

    def result(matrix):
        try:
            return scheme(matrix, subset, **kwargs)
        except (DomainError, MissingScoreError) as exc:
            return type(exc), str(exc)

    assert result(m) == result(orient(m))


@given(m=scored_matrices(), data=st.data())
def test_weighted_means_are_the_fsum_formulas_bit_for_bit(m, data):
    weights = data.draw(st.dictionaries(st.sampled_from(m.task_ids),
                                        st.sampled_from([0.1, 0.5, 2.0, 3.0])))
    groups = {t: data.draw(st.sampled_from(["g0", "g1", "g2"])) for t in m.task_ids}
    tasks = data.draw(st.lists(st.sampled_from(m.task_ids), min_size=1, unique=True))
    w = {t: weights.get(t, 1.0) for t in tasks}
    by_group = {}
    for t in tasks:
        by_group.setdefault(groups[t], []).append(t)

    def mean(x, ts):
        return math.fsum(w[t] * x[t] for t in ts) / math.fsum(w[t] for t in ts)

    arith = arithmetic_mean(m, tasks, weights).per_model
    geo = geometric_mean(m, tasks, weights).per_model
    macro = macro_average(m, tasks, groups, weights).per_model
    for mid, row in zip(m.model_ids, m.scores):
        x = dict(zip(m.task_ids, row))
        assert arith[mid] == mean(x, tasks)
        assert geo[mid] == math.exp(mean({t: math.log(v) for t, v in x.items()}, tasks))
        group_means = [mean(x, ts) for ts in by_group.values()]
        assert macro[mid] == math.fsum(group_means) / len(group_means)


@pytest.mark.parametrize("scheme, groups", [
    (arithmetic_mean, None),
    (macro_average, {"t1": "g", "t2": "g"}),  # within a group
    (macro_average, {"t1": "g1", "t2": "g2"}),  # across the group means
])
def test_a_sum_that_overflows_names_its_model(scheme, groups):
    m = matrix([[1.0, 2.0], [1e308, 1e308], [3.0, 4.0]])
    with pytest.raises(DomainError, match="overflows the float range: model 'B'$"):
        scheme(m) if groups is None else scheme(m, group_map=groups)
