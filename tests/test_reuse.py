import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rankaudit.reuse as reuse
from rankaudit.errors import ConfigError, SchemaError
from rankaudit.reuse import (
    LADDER,
    NAIVE,
    HoldoutServer,
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
        server.best_reported = min(1.0, math.floor(accuracy / server.step + 0.5 + 1e-9)
                                   * server.step)
    return server.best_reported


def attack_oracle(server, i, seed):
    """boosting_attack's reports and collected count, one query per candidate."""
    rng = np.random.default_rng(derive_seed(seed, "attack-predictions"))
    candidates = rng.integers(0, 2, size=(i, server.n), dtype=np.uint8)
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
    # an infinite step would hold the first report forever
    with pytest.raises(ConfigError, match="ladder step must be positive and finite"):
        new_holdout(10, LADDER, step=math.inf)
    assert new_holdout(16, LADDER).step == pytest.approx(0.25)  # default 1/sqrt(n)


@pytest.mark.parametrize("mechanism", [NAIVE, LADDER])
def test_direct_construction_matches_new_holdout(mechanism):
    direct = HoldoutServer(n=64, mechanism=mechanism, seed=9)
    made = new_holdout(64, mechanism, seed=9)
    assert direct.step == made.step
    assert np.array_equal(direct.labels_copy(), made.labels_copy())
    queries = np.random.default_rng(2).integers(0, 2, size=(20, 64), dtype=np.uint8)
    assert query_batch(direct, queries).tolist() == query_batch(made, queries).tolist()
    assert boosting_attack(direct, 30, seed=4) == boosting_attack(made, 30, seed=4)
    assert direct.query_count == made.query_count == 50


def test_servers_compare_by_their_arguments():
    assert HoldoutServer(n=4) == HoldoutServer(n=4) == new_holdout(4)
    assert HoldoutServer(n=4, seed=1) != HoldoutServer(n=4)
    with pytest.raises(TypeError):
        HoldoutServer(n=4, query_count=7)


@pytest.mark.parametrize("kwargs", [{"n": 0}, {"n": 4, "mechanism": "bogus"},
                                    {"n": 4, "mechanism": LADDER, "step": -1.0}])
def test_direct_construction_validates(kwargs):
    with pytest.raises(ConfigError):
        HoldoutServer(**kwargs)


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
    # a (1, n) vector has n cells, so only its shape tells it apart
    with pytest.raises(SchemaError, match=re.escape("shape (1, 5), expected (5,)")):
        query(server, np.zeros((1, 5), dtype=np.uint8))
    assert server.query_count == 0


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


@pytest.mark.parametrize("step", [None, 0.3])
@pytest.mark.parametrize("n", range(1, 11))
def test_ladder_reports_lie_in_the_unit_interval(n, step):
    # The labels score 1 on a fresh server, which rounds to a step multiple
    # past 1 whenever 1 is not one (n = 3: 2 / sqrt(3) = 1.1547); the report
    # stops at 1.  Random rows and the labels again follow, batched and single.
    server = new_holdout(n, LADDER, seed=1, step=step)
    reports = [query(server, server.labels_copy())]
    rng = np.random.default_rng(derive_seed(n, "stream"))
    batch = np.vstack([rng.integers(0, 2, size=(20, n), dtype=np.uint8), server.labels_copy()])
    reports += query_batch(server, batch).tolist()
    reports.append(query(server, server.labels_copy()))
    assert all(0 <= r <= 1 for r in reports)


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


@pytest.mark.parametrize("value", [2, 0.5, -1, math.nan])
def test_query_batch_rejects_values_other_than_0_and_1(value):
    # packed, such a value would count as a hit without a word
    server = new_holdout(10, NAIVE)
    batch = np.zeros((3, 10))
    batch[1, 4] = value
    with pytest.raises(SchemaError, match=f"row 1 holds {float(value)!r} at position 4"):
        query_batch(server, batch)
    with pytest.raises(SchemaError, match="row 0 holds"):
        query(server, batch[1])
    assert server.query_count == 0


@given(st.data())
def test_query_batch_matches_scalar_query(data):
    # all-correct, all-wrong and (for even n) exactly-half rows sit on the
    # ladder's boundaries; n up to 70 leaves 0 to 7 padding bits.  Rows sorted
    # by ascending agreement climb a rung at every step up in one batch when
    # the step is 1/n or smaller.
    n = data.draw(st.integers(1, 70), label="n")
    mechanism = data.draw(st.sampled_from([NAIVE, LADDER]), label="mechanism")
    step = (data.draw(st.sampled_from([None, 0.5, 0.25, 0.1, 1 / n, 1e-3, 1e-9]))
            if mechanism == LADDER else None)
    seed = data.draw(st.integers(0, 1000), label="seed")
    batched, scalar = (new_holdout(n, mechanism, seed=seed, step=step) for _ in range(2))
    labels = batched.labels_copy()
    half = labels.copy()
    half[: n // 2] ^= 1
    drawn = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                               max_size=8), label="rows")
    rows = data.draw(st.permutations([labels, 1 - labels, half, *map(np.array, drawn)]))
    dtype = data.draw(st.sampled_from([np.uint8, np.int64, np.float64, bool]), label="dtype")
    rows = np.array(rows)
    if data.draw(st.booleans(), label="ascending"):
        rows = rows[np.argsort((rows == labels).sum(axis=1), kind="stable")]
    rows = rows.astype(dtype)
    cut = data.draw(st.integers(0, len(rows)), label="cut")
    reports = [*query_batch(batched, rows[:cut]), *query_batch(batched, rows[cut:])]
    assert reports == [scalar_query(scalar, v) for v in rows]
    assert batched.query_count == scalar.query_count == len(rows)
    assert batched.best_reported == scalar.best_reported


# -- boosting attack --------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 7, 9, 997])
@pytest.mark.parametrize("count", [1, 3, 8, 13])
def test_packed_draw_is_the_integers_draw_packed(count, n):
    packed = reuse._random_predictions(np.random.default_rng(count + n), count, n)
    expected = np.random.default_rng(count + n).integers(0, 2, size=(count, n), dtype=np.uint8)
    assert np.array_equal(np.unpackbits(packed, axis=1, count=n), expected)
    assert np.array_equal(packed, np.packbits(expected, axis=1))  # padding bits are 0


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
        return np.packbits(np.tile(server_labels, (count, 1)), axis=1)

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
        return np.packbits(np.tile(1 - labels, (count, 1)), axis=1)

    monkeypatch.setattr(reuse, "_random_predictions", all_wrong)
    server = new_holdout(50, NAIVE, seed=88)
    outcome = boosting_attack(server, 5, seed=4)
    assert outcome.collected == 0
    assert 0.0 <= outcome.reported_accuracy <= 1.0


# at 2**18 bits a block, (997, 600) is three blocks, the last partial, and (40_001, 37) 8-row
# ones; (3, 70_000) is one block, whose ~70,000 kept ladder rows make 274 full 255-row tally
# groups and a remainder, and a 1e-3 ladder step climbs many rungs within a block
@pytest.mark.parametrize("n, i, step, seeds", [
    pytest.param(200, 300, None, 4, id="200-300"),
    pytest.param(997, 600, None, 4, id="997-600"),
    pytest.param(40_001, 37, None, 4, id="40001-37"),
    pytest.param(3, 70_000, None, 1, id="3-70000"),
    pytest.param(200, 2_000, 1e-3, 4, id="200-2000-step0.001"),
])
@pytest.mark.parametrize("mechanism", [NAIVE, LADDER])
def test_attack_matches_per_query_oracle(mechanism, n, i, step, seeds):
    for seed in range(seeds):
        server = new_holdout(n, mechanism, seed=seed, step=step)
        reference = new_holdout(n, mechanism, seed=seed, step=step)
        outcome = boosting_attack(server, i, seed=seed + 10)
        expected = attack_oracle(reference, i, seed=seed + 10)
        assert (outcome.reported_accuracy, outcome.true_accuracy, outcome.collected) == expected
        assert server.query_count == reference.query_count == i
        assert server.best_reported == reference.best_reported


@pytest.mark.parametrize("mechanism", [NAIVE, LADDER])
def test_tally_counts_columns_past_uint8_and_uint16(mechanism, monkeypatch):
    # every candidate equals the labels and is kept, so a label-1 column of the
    # one 70,000-row block holds 70,000 votes: a 256-row uint8 group or a
    # uint16 block sum would wrap and turn the vote against the labels
    labels = new_holdout(3, NAIVE, seed=0).labels_copy()
    assert labels.any()
    monkeypatch.setattr(reuse, "_random_predictions",
                        lambda rng, count, n: np.packbits(np.tile(labels, (count, 1)), axis=1))
    outcome = boosting_attack(new_holdout(3, mechanism, seed=0), 70_000, seed=1)
    assert outcome.collected == 70_000
    assert outcome.reported_accuracy == 1.0


def test_attack_memory_does_not_grow_with_i():
    # one block of candidates and the vote counts; all 20,000 x 1,000
    # candidates at once would take 20 MB
    server = new_holdout(1000, NAIVE, seed=1)
    tracemalloc.start()
    try:
        boosting_attack(server, 20_000, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert server.query_count == 20_000
    assert peak < 1_000_000


def test_attack_validation():
    with pytest.raises(ConfigError):
        boosting_attack(new_holdout(10), 0)


# -- seeded grid -----------------------------------------------------------------------


def cli_rule_attacks(n, schedule, mechanisms, trials, seed, step):
    """Independent boosting_attack calls on fresh servers under the CLI seeding rule."""
    out = {}
    for mechanism in mechanisms:
        for i in schedule:
            for trial in range(trials):
                server = new_holdout(n, mechanism, seed=derive_seed(seed, "server", trial, i),
                                     step=step if mechanism == LADDER else None)
                out[mechanism, i, trial] = boosting_attack(
                    server, i, seed=derive_seed(seed, "attack", trial, i))
    return out


@pytest.mark.parametrize("n", [1, 7, 101])
@pytest.mark.parametrize("mechanisms", [[NAIVE], [LADDER], [NAIVE, LADDER]])
@pytest.mark.parametrize("step", [None, 0.05])
def test_grid_equals_independent_attacks(n, mechanisms, step):
    schedule, trials, seed = [3, 40, 1], 3, 9
    grid = reuse.simulate(n, schedule, mechanisms, trials, seed, step)
    # same reports in the same order: mechanism, then schedule, then trial
    assert list(grid.items()) == list(
        cli_rule_attacks(n, schedule, mechanisms, trials, seed, step).items())


def test_grid_draws_candidates_once_per_trial_and_budget(monkeypatch):
    draws = []
    draw = reuse._random_predictions

    def counted(rng, count, n):
        draws.append(count)
        return draw(rng, count, n)

    monkeypatch.setattr(reuse, "_random_predictions", counted)
    schedule, trials = [5, 20, 80], 4
    reuse.simulate(50, schedule, [NAIVE, LADDER], trials, seed=2)
    assert len(draws) == len(schedule) * trials


def test_grid_servers_count_exactly_i_queries(monkeypatch):
    servers = []
    make = reuse.new_holdout

    def recorded(*args, **kwargs):
        servers.append(make(*args, **kwargs))
        return servers[-1]

    monkeypatch.setattr(reuse, "new_holdout", recorded)
    schedule, trials, seed = [4, 17], 2, 3
    grid = reuse.simulate(30, schedule, [NAIVE, LADDER], trials, seed)
    budget = {derive_seed(seed, "server", t, i): i for i in schedule for t in range(trials)}
    assert len(servers) == len(grid) == 2 * len(schedule) * trials
    assert all(server.query_count == budget[server.seed] for server in servers)


@pytest.mark.parametrize("mechanisms", [[NAIVE], [LADDER], [NAIVE, LADDER]])
@pytest.mark.parametrize("schedule, trials, step, message", [
    ([5], 0, None, "trials must be >= 1, got 0"),
    ([], 1, None, r"query budgets must be >= 1, got \[\]"),
    ([5, 0], 1, None, r"query budgets must be >= 1, got \[5, 0\]"),
    ([5, 9, 5], 1, None, "'schedule' lists 5 more than once"),
    ([5], 1, -1.0, "ladder step must be positive and finite, got -1.0"),
    ([5], 1, math.inf, "ladder step must be positive and finite, got inf"),
    ([5], 1, math.nan, "ladder step must be positive and finite, got nan"),
])
def test_grid_checks_its_inputs_before_any_attack(mechanisms, schedule, trials, step, message,
                                                  monkeypatch):
    attacks = []
    monkeypatch.setattr(reuse, "_attacks", lambda *args: attacks.append(args))
    with pytest.raises(ConfigError, match=message):
        reuse.simulate(20, schedule, mechanisms, trials, step=step)
    assert attacks == []


CALIBRATION = Path(__file__).resolve().parent.parent / "scripts" / "reuse_calibration.py"


@pytest.mark.parametrize("flags, message", [
    (["--trials", "0"], "trials must be >= 1, got 0"),
    (["--schedule", "5,5"], "'schedule' lists 5 more than once"),
    (["--schedule", "0"], "query budgets must be >= 1, got [0]"),
])
def test_calibration_script_exits_2_on_bad_input(flags, message):
    run = subprocess.run([sys.executable, str(CALIBRATION), "--n", "20", "--trials", "1",
                          "--schedule", "5", *flags], capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == f"reuse_calibration: input error: {message}\n"


# -- bound ---------------------------------------------------------------------------


def test_reuse_bound_values():
    assert reuse_bound(100, 100) == pytest.approx(1.0)
    assert reuse_bound(10_000, 100) == pytest.approx(0.1)


def test_reuse_bound_validation():
    with pytest.raises(ConfigError):
        reuse_bound(100, 0)
    with pytest.raises(ConfigError):
        reuse_bound(0, 5)
