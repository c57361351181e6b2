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
the ladder flattens the reported gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SchemaError
from .util import derive_seed

NAIVE = "naive"
LADDER = "ladder"


@dataclass
class HoldoutServer:
    """Simulated test set with a query-reporting mechanism and query counter.

    Single-writer: queries against one server must be serialized.  A
    `query_batch` of len(P) rows is len(P) queries, applied in row order.
    Independent servers (distinct seeds) are safe to run concurrently.
    """

    n: int
    mechanism: str = NAIVE
    seed: int = 0
    step: float | None = None
    query_count: int = 0
    best_reported: float = 0.0
    _labels: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    def labels_copy(self) -> np.ndarray:
        return self._labels.copy()


def new_holdout(
    n: int, mechanism: str = NAIVE, seed: int = 0, step: float | None = None
) -> HoldoutServer:
    """Create a server with n hidden uniform-random binary labels.

    Under the ladder mechanism `step` defaults to 1/sqrt(n) and must be
    positive.
    """
    if n < 1:
        raise ConfigError(f"test-set size must be >= 1, got {n}")
    if mechanism not in (NAIVE, LADDER):
        raise ConfigError(f"mechanism must be {NAIVE!r} or {LADDER!r}, got {mechanism!r}")
    if mechanism == LADDER:
        step = 1.0 / math.sqrt(n) if step is None else float(step)
        if not (step > 0):
            raise ConfigError(f"ladder step must be positive, got {step}")
    else:
        step = None
    rng = np.random.default_rng(derive_seed(seed, "holdout-labels"))
    labels = rng.integers(0, 2, size=n, dtype=np.uint8)
    server = HoldoutServer(n=n, mechanism=mechanism, seed=seed, step=step)
    server._labels = labels
    return server


def query(server: HoldoutServer, predictions) -> float:
    """Submit one prediction vector and get the mechanism's report: a one-row `query_batch`."""
    arr = np.asarray(predictions)
    if arr.shape != (server.n,):
        raise SchemaError(f"prediction vector has length {arr.size}, expected {server.n}")
    return float(query_batch(server, arr[np.newaxis])[0])


def query_batch(server: HoldoutServer, predictions) -> np.ndarray:
    """Submit each row of a 2-D array as one query, in row order; one report per row.

    Naive: the exact empirical accuracy.  Ladder: if the accuracy clears
    best_reported + step, best_reported moves to the accuracy rounded to
    the nearest step multiple (halfway rounds up) and is reported;
    otherwise the previous best_reported is repeated.
    """
    arr = np.asarray(predictions)
    if arr.ndim != 2 or arr.shape[1] != server.n:
        raise SchemaError(f"prediction batch has shape {arr.shape}, expected (rows, {server.n})")
    accuracies = (arr == server._labels).mean(axis=1)
    server.query_count += len(arr)
    if server.mechanism == NAIVE:
        return accuracies
    assert server.step is not None
    best, step = server.best_reported, server.step
    reports = np.empty(len(arr))
    for row, accuracy in enumerate(accuracies.tolist()):
        if accuracy >= best + step:
            # the 1e-9 nudge makes halfway cases round up despite float noise
            best = math.floor(accuracy / step + 0.5 + 1e-9) * step
        reports[row] = best
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
    return rng.integers(0, 2, size=(count, n), dtype=np.uint8)


def boosting_attack(server: HoldoutServer, i: int, seed: int = 0) -> AttackReport:
    """Run the boosting attack with i queries against the server.

    Submits i independent uniform-random prediction vectors in one
    `query_batch`, collects those whose *reported* accuracy exceeds 1/2,
    and majority-votes the collected vectors coordinate-wise (seeded coin
    for even splits; a fresh random vector if nothing was collected).  The
    final predictor is evaluated directly against the hidden labels and
    against a fresh label draw, so the server's query counter increases by
    exactly i.
    """
    if i < 1:
        raise ConfigError(f"query budget must be >= 1, got {i}")
    rng = np.random.default_rng(derive_seed(seed, "attack-predictions"))
    candidates = _random_predictions(rng, i, server.n)
    collected = candidates[query_batch(server, candidates) > 0.5]

    aux = np.random.default_rng(derive_seed(seed, "attack-aux"))
    if len(collected):
        votes = np.mean(collected, axis=0)
        final = (votes > 0.5).astype(np.uint8)
        even = votes == 0.5
        if np.any(even):
            final[even] = aux.integers(0, 2, size=int(even.sum()), dtype=np.uint8)
    else:
        final = aux.integers(0, 2, size=server.n, dtype=np.uint8)

    reported = float(np.mean(final == server._labels))
    fresh = np.random.default_rng(derive_seed(seed, "fresh-labels")).integers(
        0, 2, size=server.n, dtype=np.uint8
    )
    true = float(np.mean(final == fresh))
    return AttackReport(
        i=i,
        mechanism=server.mechanism,
        reported_accuracy=reported,
        true_accuracy=true,
        bound_value=reuse_bound(server.n, i),
        collected=len(collected),
    )


def reuse_bound(n: int, i: int) -> float:
    """sqrt(i/n): the scale of reported-accuracy bias after i adaptive queries."""
    if n < 1:
        raise ConfigError(f"test-set size must be >= 1, got {n}")
    if i < 1:
        raise ConfigError(f"query count must be >= 1, got {i}")
    return math.sqrt(i / n)
