import math
import re

import numpy as np
import pytest

import rankaudit.reuse as reuse
from rankaudit.errors import ConfigError, SchemaError
from rankaudit.reuse import (
    LADDER,
    NAIVE,
    boosting_attack,
    new_holdout,
    query,
    query_batch,
    reuse_bound,
)
from rankaudit.util import derive_seed


def scalar_query(server, vec):
    """One query by the per-vector rule, applied to the server's state."""
    accuracy = float(np.mean(np.asarray(vec) == server.labels_copy()))
    server.query_count += 1
    if server.mechanism == NAIVE:
        return accuracy
    if accuracy >= server.best_reported + server.step:
        server.best_reported = math.floor(accuracy / server.step + 0.5 + 1e-9) * server.step
    return server.best_reported


def attack_oracle(server, i, seed):
    """boosting_attack's reports and collected count, one query per candidate."""
    rng = np.random.default_rng(derive_seed(seed, "attack-predictions"))
    candidates = reuse._random_predictions(rng, i, server.n)
    collected = [vec for vec in candidates if scalar_query(server, vec) > 0.5]
    aux = np.random.default_rng(derive_seed(seed, "attack-aux"))
    if collected:
        votes = np.mean(collected, axis=0)
        final = (votes > 0.5).astype(np.uint8)
        even = votes == 0.5
        if np.any(even):
            final[even] = aux.integers(0, 2, size=int(even.sum()), dtype=np.uint8)
    else:
        final = aux.integers(0, 2, size=server.n, dtype=np.uint8)
    fresh = np.random.default_rng(derive_seed(seed, "fresh-labels")).integers(
        0, 2, size=server.n, dtype=np.uint8
    )
    return (float(np.mean(final == server.labels_copy())), float(np.mean(final == fresh)),
            len(collected))


# -- server construction ------------------------------------------------------


def test_same_seed_same_labels():
    a = new_holdout(10, NAIVE, seed=4)
    b = new_holdout(10, NAIVE, seed=4)
    assert np.array_equal(a.labels_copy(), b.labels_copy())
    assert a.query_count == 0


def test_different_seeds_differ():
    a = new_holdout(1000, NAIVE, seed=1)
    b = new_holdout(1000, NAIVE, seed=2)
    assert not np.array_equal(a.labels_copy(), b.labels_copy())


def test_construction_validation():
    with pytest.raises(ConfigError):
        new_holdout(0)
    with pytest.raises(ConfigError):
        new_holdout(10, "oracle")
    with pytest.raises(ConfigError):
        new_holdout(10, LADDER, step=0.0)
    assert new_holdout(16, LADDER).step == pytest.approx(0.25)  # default 1/sqrt(n)


# -- querying ------------------------------------------------------------------


def test_naive_query_extremes():
    server = new_holdout(50, NAIVE, seed=3)
    labels = server.labels_copy()
    assert query(server, labels) == 1.0
    assert query(server, 1 - labels) == 0.0
    assert server.query_count == 2


def test_query_length_mismatch():
    server = new_holdout(5, NAIVE)
    with pytest.raises(SchemaError):
        query(server, np.zeros(4, dtype=np.uint8))


def test_ladder_withholds_sub_step_improvement():
    # hand-traced: 0.51 clears 0 + 0.01 and reports 0.51; 0.512 does not
    # clear 0.51 + 0.01, so the previous 0.51 is repeated
    server = new_holdout(1000, LADDER, seed=8, step=0.01)
    labels = server.labels_copy()

    def vector_with_accuracy(acc):
        correct = round(acc * server.n)
        v = 1 - labels
        v[:correct] = labels[:correct]
        return v

    first = query(server, vector_with_accuracy(0.510))
    second = query(server, vector_with_accuracy(0.512))
    assert first == pytest.approx(0.51)
    assert second == first
    assert server.query_count == 2


def test_ladder_rounds_to_step_multiple():
    server = new_holdout(1000, LADDER, seed=8, step=0.02)
    labels = server.labels_copy()
    v = 1 - labels
    v[:570] = labels[:570]
    reported = query(server, v)  # raw accuracy 0.57 rounds onto the 0.02 grid
    assert reported == pytest.approx(0.58)


def test_ladder_reports_are_non_decreasing():
    rng = np.random.default_rng(derive_seed(9, "stream"))
    server = new_holdout(200, LADDER, seed=9, step=0.05)
    reports = [query(server, rng.integers(0, 2, 200, dtype=np.uint8)) for _ in range(300)]
    assert reports == sorted(reports)
    assert server.query_count == 300


@pytest.mark.parametrize("mechanism", [NAIVE, LADDER])
def test_query_batch_matches_query_loop(mechanism):
    # two batches in a row, so the ladder carries best_reported across them
    n = 100
    step = 0.05 if mechanism == LADDER else None
    for seed in range(5):
        batched, looped, scalar = (new_holdout(n, mechanism, seed=seed, step=step)
                                   for _ in range(3))
        rng = np.random.default_rng(derive_seed(seed, "batch"))
        first = rng.integers(0, 2, size=(150, n), dtype=np.uint8)
        labels = batched.labels_copy()
        first[::40, : 20 + seed] = labels[: 20 + seed]  # rows above chance
        second = rng.integers(0, 2, size=(60, n), dtype=np.uint8)
        reports = np.concatenate([query_batch(batched, first), query_batch(batched, second)])
        rows = np.concatenate([first, second])
        assert reports.tolist() == [query(looped, v) for v in rows]
        assert reports.tolist() == [scalar_query(scalar, v) for v in rows]
        for server in (looped, scalar):
            assert batched.query_count == server.query_count == 210
            assert batched.best_reported == server.best_reported
        if mechanism == LADDER:
            assert batched.best_reported > 0.5


@pytest.mark.parametrize("shape", [(10,), (3, 9), (3, 11), (2, 3, 10)])
def test_query_batch_rejects_other_shapes(shape):
    server = new_holdout(10, NAIVE)
    with pytest.raises(SchemaError, match=re.escape(str(shape))):
        query_batch(server, np.zeros(shape, dtype=np.uint8))
    assert server.query_count == 0


# -- boosting attack --------------------------------------------------------------


def test_attack_counts_exactly_i_queries():
    server = new_holdout(100, NAIVE, seed=5)
    outcome = boosting_attack(server, 37, seed=6)
    assert server.query_count == 37
    assert outcome.i == 37
    assert outcome.bound_value == pytest.approx(math.sqrt(37 / 100))


def test_attack_deterministic_given_seeds():
    a = boosting_attack(new_holdout(200, NAIVE, seed=5), 50, seed=6)
    b = boosting_attack(new_holdout(200, NAIVE, seed=5), 50, seed=6)
    assert a == b


def test_attack_single_query_stays_near_chance():
    # mean over 1000 seeded trials of the reported accuracy must sit
    # within 1.5/sqrt(n) of 0.5 (one query cannot overfit much)
    n = 400
    total = 0.0
    trials = 1000
    for trial in range(trials):
        server = new_holdout(n, NAIVE, seed=derive_seed(100, "srv", trial))
        total += boosting_attack(server, 1, seed=derive_seed(100, "atk", trial)).reported_accuracy
    assert abs(total / trials - 0.5) <= 1.5 / math.sqrt(n)


def test_attack_reported_gap_grows_with_i():
    # naive mechanism: mean reported excess over 0.5 is non-decreasing in i
    n = 1000
    trials = 30
    means = []
    for i in (100, 400, 1600):
        excess = []
        for trial in range(trials):
            server = new_holdout(n, NAIVE, seed=derive_seed(7, "srv", trial, i))
            outcome = boosting_attack(server, i, seed=derive_seed(7, "atk", trial, i))
            excess.append(outcome.reported_accuracy - 0.5)
        means.append(sum(excess) / trials)
    # tolerate two standard errors of Monte-Carlo noise between steps
    se = 2.0 * (0.5 / math.sqrt(n)) / math.sqrt(trials)
    assert means[1] >= means[0] - 2 * se
    assert means[2] >= means[1] - 2 * se
    assert means[2] > means[0]


def test_mechanism_changes_reports_not_truth(monkeypatch):
    # force both mechanisms to collect identical vectors: every candidate
    # equals the hidden labels, so naive and ladder both collect all of
    # them and the fresh-label evaluation must coincide exactly
    def all_correct(rng, count, n):
        server_labels = new_holdout(n, NAIVE, seed=77).labels_copy()
        return np.tile(server_labels, (count, 1))

    monkeypatch.setattr(reuse, "_random_predictions", all_correct)
    naive_server = new_holdout(50, NAIVE, seed=77)
    ladder_server = new_holdout(50, LADDER, seed=77, step=0.02)
    naive_out = boosting_attack(naive_server, 10, seed=3)
    ladder_out = boosting_attack(ladder_server, 10, seed=3)
    assert naive_out.collected == ladder_out.collected == 10
    assert naive_out.true_accuracy == ladder_out.true_accuracy
    assert naive_out.reported_accuracy == ladder_out.reported_accuracy == 1.0


def test_attack_empty_collection_falls_back_to_random_vector(monkeypatch):
    # complementing every candidate keeps reported accuracy below 1/2
    def all_wrong(rng, count, n):
        labels = new_holdout(n, NAIVE, seed=88).labels_copy()
        return np.tile(1 - labels, (count, 1))

    monkeypatch.setattr(reuse, "_random_predictions", all_wrong)
    server = new_holdout(50, NAIVE, seed=88)
    outcome = boosting_attack(server, 5, seed=4)
    assert outcome.collected == 0
    assert 0.0 <= outcome.reported_accuracy <= 1.0


@pytest.mark.parametrize("mechanism", [NAIVE, LADDER])
def test_attack_matches_per_query_oracle(mechanism):
    for seed in range(4):
        n, i = 200, 300
        server = new_holdout(n, mechanism, seed=seed)
        reference = new_holdout(n, mechanism, seed=seed)
        outcome = boosting_attack(server, i, seed=seed + 10)
        expected = attack_oracle(reference, i, seed=seed + 10)
        assert (outcome.reported_accuracy, outcome.true_accuracy, outcome.collected) == expected
        assert server.query_count == reference.query_count == i
        assert server.best_reported == reference.best_reported


def test_attack_validation():
    with pytest.raises(ConfigError):
        boosting_attack(new_holdout(10), 0)


# -- bound ---------------------------------------------------------------------------


def test_reuse_bound_values():
    assert reuse_bound(100, 100) == pytest.approx(1.0)
    assert reuse_bound(10_000, 100) == pytest.approx(0.1)


def test_reuse_bound_validation():
    with pytest.raises(ConfigError):
        reuse_bound(100, 0)
    with pytest.raises(ConfigError):
        reuse_bound(0, 5)
