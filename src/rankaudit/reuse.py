"""Stateful-benchmark simulation: adaptive reuse of a hidden test set.

A HoldoutServer hides a uniform-random binary label vector (so any fixed
predictor is 50% accurate in expectation and every reported gain is pure
adaptive overfitting) and answers prediction queries either naively (exact
empirical accuracy) or through a ladder mechanism that only reveals
rounded improvements over the best score so far.

`boosting_attack` drives the classic adaptive attack: submit i random
predictors, keep those reported above chance, and majority-vote them.
Against a naive server the reported accuracy of the voted predictor grows
on the sqrt(i/n) scale while its accuracy on fresh labels stays at chance;
the ladder flattens the reported gain.  `simulate` runs it over a seeded
(mechanism, i, trial) grid, where the mechanisms of one (trial, i) share one draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import ConfigError, SchemaError
from .util import derive_seed, distinct, positive

NAIVE = "naive"
LADDER = "ladder"
_BLOCK_BITS = 2**18  # prediction bits the boosting attack draws, scores and tallies at a time


@dataclass
class HoldoutServer:
    """Simulated test set with a query-reporting mechanism and query counter.

    Holds n hidden uniform-random binary labels, drawn from seed.  Under
    the ladder mechanism `step` defaults to 1/sqrt(n) and must be positive
    and finite; the naive mechanism has no step.

    Single-writer: queries against one server must be serialized.  A
    `query_batch` of len(P) rows is len(P) queries, applied in row order.
    Independent servers (distinct seeds) are safe to run concurrently.
    query_count and best_reported are query state, not arguments; the
    labels follow from the seed, so equality does not compare them.
    """

    n: int
    mechanism: str = NAIVE
    seed: int = 0
    step: float | None = None
    query_count: int = field(default=0, init=False)
    best_reported: float = field(default=0.0, init=False)
    _labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"test-set size must be >= 1, got {self.n}")
        if self.mechanism not in (NAIVE, LADDER):
            raise ConfigError(f"mechanism must be {NAIVE!r} or {LADDER!r}, "
                              f"got {self.mechanism!r}")
        if self.mechanism == LADDER:
            self.step = positive(1.0 / math.sqrt(self.n) if self.step is None
                                 else float(self.step), "ladder step")
        else:
            self.step = None
        rng = np.random.default_rng(derive_seed(self.seed, "holdout-labels"))
        self._labels = rng.integers(0, 2, size=self.n, dtype=np.uint8)

    def labels_copy(self) -> np.ndarray:
        return self._labels.copy()


def new_holdout(
    n: int, mechanism: str = NAIVE, seed: int = 0, step: float | None = None
) -> HoldoutServer:
    """A server with n hidden uniform-random binary labels (see HoldoutServer)."""
    return HoldoutServer(n=n, mechanism=mechanism, seed=seed, step=step)


def query(server: HoldoutServer, predictions) -> float:
    """Submit one prediction vector and get the mechanism's report: a one-row `query_batch`."""
    arr = np.asarray(predictions)
    if arr.shape != (server.n,):
        raise SchemaError(f"prediction vector has shape {arr.shape}, expected ({server.n},)")
    return float(query_batch(server, arr[np.newaxis])[0])


def query_batch(server: HoldoutServer, predictions) -> np.ndarray:
    """Submit each row of a 2-D 0/1 array as one query, in row order; one report per row.

    Naive: the exact empirical accuracy.  Ladder: if the accuracy clears
    best_reported + step, best_reported moves to the accuracy rounded to
    the nearest step multiple (halfway rounds up), capped at 1, and is
    reported; otherwise the previous best_reported is repeated.  A value
    other than 0 or 1 is a SchemaError naming its row, and no query is
    counted.
    """
    arr = np.asarray(predictions)
    if arr.ndim != 2 or arr.shape[1] != server.n:
        raise SchemaError(f"prediction batch has shape {arr.shape}, expected (rows, {server.n})")
    bad = np.argwhere((arr != 0) & (arr != 1))
    if len(bad):
        row, col = bad[0]
        raise SchemaError(f"prediction row {row} holds {arr.item(row, col)!r} at position {col}, "
                          "expected 0 or 1")
    return _reports(server, np.packbits(arr == 1, axis=1))


def _reports(server: HoldoutServer, packed: np.ndarray) -> np.ndarray:
    """`query_batch` on rows packed by `np.packbits(rows, axis=1)`.

    Padding bits are 0 on both sides, so (n - popcount(rows ^ labels)) / n
    is the row mean of `rows == labels`, bit for bit.  The ladder jumps from
    one clearing row to the next and fills the rows between with the best so far.
    """
    disagreements = np.bitwise_count(packed ^ np.packbits(server._labels)).sum(axis=1)
    accuracies = (server.n - disagreements) / server.n
    server.query_count += len(packed)
    if server.mechanism == NAIVE:
        return accuracies
    best, step = server.best_reported, server.step
    reports = np.full(len(packed), best)
    row = 0
    # each rung needs a higher accuracy than the last, so a server climbs at most n + 1 of them
    while (clears := accuracies[row:] >= best + step).any():
        row += int(clears.argmax())
        # the 1e-9 nudge makes halfway cases round up despite float noise; a
        # step multiple past 1 is no accuracy, so the report stops at 1
        rounded = math.floor(float(accuracies[row]) / step + 0.5 + 1e-9) * step
        best = reports[row:] = min(1.0, rounded)
        row += 1
    server.best_reported = best
    return reports


@dataclass(frozen=True)
class AttackReport:
    """Outcome of one boosting-attack run.

    reported_accuracy is the final predictor's accuracy on the server's
    hidden labels; true_accuracy is its accuracy on an independently drawn
    fresh label vector of the same distribution; bound_value = sqrt(i/n),
    the scale of the reuse bias, for annotation.
    """

    i: int
    mechanism: str
    reported_accuracy: float
    true_accuracy: float
    bound_value: float
    collected: int

    def __post_init__(self) -> None:
        if not (0 <= self.reported_accuracy <= 1 and 0 <= self.true_accuracy <= 1):
            raise ConfigError("accuracies must lie in [0, 1]")


def _random_predictions(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """`rng.integers(0, 2, (count, n), dtype=np.uint8)`, packed by `np.packbits(axis=1)`.

    For a range of 2, `integers` keeps the top bit of each byte of the raw
    64-bit stream, read little-endian, so the same bits are thresholded here.
    """
    raw = rng.bit_generator.random_raw(-(-count * n // 8)).astype("<u8", copy=False)
    raw = raw.view(np.uint8)[: count * n]
    return np.packbits(np.greater_equal(raw, 128, out=raw.view(bool)).reshape(count, n), axis=1)


def boosting_attack(server: HoldoutServer, i: int, seed: int = 0) -> AttackReport:
    """Run the boosting attack with i queries against the server.

    Submits i independent uniform-random prediction vectors, collects those
    whose *reported* accuracy exceeds 1/2, and majority-votes the collected
    vectors coordinate-wise (seeded coin for even splits, so every coordinate
    is a coin if nothing was collected).  The
    final predictor is evaluated directly against the hidden labels and
    against a fresh label draw, so the server's query counter increases by
    exactly i.
    """
    return _attacks([server], i, seed)[0]


def _attacks(servers: list[HoldoutServer], i: int, seed: int) -> list[AttackReport]:
    """`boosting_attack(server, i, seed)` for each server, all of one size n.

    Candidates are drawn, scored and tallied in blocks of a multiple of 8 rows and about
    `_BLOCK_BITS` bits, read from the raw stream as one i-row draw would; the state is one
    block and each server's vote counts, whatever i.  A block's kept rows are tallied in uint8
    over groups of at most 255 rows, which no column can overflow, and each group's sums are
    added into the uint64 counts.  Each vote seeds its own `attack-aux` stream.
    """
    if i < 1:
        raise ConfigError(f"query budget must be >= 1, got {i}")
    n = servers[0].n
    rows = 8 * max(1, _BLOCK_BITS // (8 * n))
    rng = np.random.default_rng(derive_seed(seed, "attack-predictions"))
    votes = np.zeros((len(servers), n), dtype=np.uint64)
    counts = [0] * len(servers)
    for start in range(0, i, rows):
        candidates = _random_predictions(rng, min(rows, i - start), n)
        for s, server in enumerate(servers):
            kept = np.unpackbits(candidates[_reports(server, candidates) > 0.5], axis=1, count=n)
            whole = len(kept) // 255 * 255  # 255 rows of 0/1 sum exactly in uint8
            if whole:  # a block has under 255 rows once n > 1,024: skip an empty n-wide sum
                votes[s] += kept[:whole].reshape(255, -1, n).sum(axis=0, dtype=np.uint8).sum(axis=0)
            votes[s] += kept[whole:].sum(axis=0, dtype=np.uint8)
            counts[s] += len(kept)
            del kept  # freed before the next block is drawn, so the heap reuses its pages
    fresh = np.random.default_rng(derive_seed(seed, "fresh-labels")).integers(
        0, 2, size=n, dtype=np.uint8
    )
    outcomes = []
    for server, twice_votes, count in zip(servers, 2 * votes, counts):
        aux = np.random.default_rng(derive_seed(seed, "attack-aux"))
        final = (twice_votes > count).astype(np.uint8)
        even = twice_votes == count
        final[even] = aux.integers(0, 2, size=int(even.sum()), dtype=np.uint8)
        outcomes.append(AttackReport(i, server.mechanism,
                                     reported_accuracy=float(np.mean(final == server._labels)),
                                     true_accuracy=float(np.mean(final == fresh)),
                                     bound_value=reuse_bound(n, i), collected=count))
    return outcomes


def simulate(n: int, schedule: list[int], mechanisms: list[str], trials: int, seed: int = 0,
             step: float | None = None) -> dict[tuple[str, int, int], AttackReport]:
    """The seeded reuse grid: one AttackReport per (mechanism, i, trial), in that key order.

    Trial t at budget i attacks a fresh server per mechanism, seeded
    `derive_seed(seed, "server", t, i)`, with the attack seed
    `derive_seed(seed, "attack", t, i)`; only the ladder gets `step`.  The
    mechanisms of one (t, i) share one candidate draw.  Checked before any
    attack runs: trials >= 1, every budget >= 1 and listed once, and a
    given step positive and finite, whatever the mechanisms.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if not schedule or min(schedule) < 1:
        raise ConfigError(f"query budgets must be >= 1, got {schedule}")
    distinct(schedule, "schedule")
    if step is not None:
        positive(step, "ladder step")
    grid = {}
    for i in schedule:
        for trial in range(trials):
            servers = [new_holdout(n, mechanism, derive_seed(seed, "server", trial, i),
                                   step if mechanism == LADDER else None)
                       for mechanism in mechanisms]
            for outcome in _attacks(servers, i, derive_seed(seed, "attack", trial, i)):
                grid[outcome.mechanism, i, trial] = outcome
    return {key: grid[key] for key in product(mechanisms, schedule, range(trials))}


def reuse_bound(n: int, i: int) -> float:
    """sqrt(i/n): the scale of reported-accuracy bias after i adaptive queries."""
    if n < 1:
        raise ConfigError(f"test-set size must be >= 1, got {n}")
    if i < 1:
        raise ConfigError(f"query count must be >= 1, got {i}")
    return math.sqrt(i / n)
