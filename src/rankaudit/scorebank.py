"""Score-matrix data model, ingestion, validation, and normalization.

A ScoreMatrix is the universal input of the package: a dense models x tasks
table of optional scores plus per-task metric metadata (direction, group,
weight, baselines).  Matrices are immutable after construction and safe to
share across threads.  Construction validates the cells and densifies them
once, into a read-only float array and missing-cell mask; every later read
(`to_array`, `oriented_array`, `oriented_cells`, `missing_cells`, `orient`,
`human_normalize`) works on that array and never walks the cells again.

Missing scores are represented explicitly as None and are never imputed:
any operation whose task subset touches a missing cell fails loudly,
because silently filling cells would manufacture rankings.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DomainError, MissingScoreError, ParseError, SchemaError
from .report import csv_text
from .util import array, as_text, number, parse_json, positive, record, single_line, table, text

HIGHER = "higher"
LOWER = "lower"


@dataclass(frozen=True)
class MetricSpec:
    """Per-task metric metadata.

    direction says whether larger raw scores are better.  group is an
    optional label used by macro-averaging.  weight (positive and finite)
    is the default weight used by the weighted means.  The two optional
    baselines anchor human-normalization; given both, their difference
    must be finite and non-zero.
    """

    direction: str = HIGHER
    group: str | None = None
    weight: float = 1.0
    random_baseline: float | None = None
    human_reference: float | None = None

    def __post_init__(self) -> None:
        if self.direction not in (HIGHER, LOWER):
            raise ConfigError(f"direction must be '{HIGHER}' or '{LOWER}', got {self.direction!r}")
        positive(self.weight, "metric weight")
        if self.random_baseline is not None and self.human_reference is not None:
            span = self.human_reference - self.random_baseline
            if not (span != 0 and math.isfinite(span)):
                raise ConfigError(f"human_reference - random_baseline must be finite and "
                                  f"non-zero, got {span}")


def _float_or_inf(cell: object) -> float:
    """float(cell), NaN for a missing cell and inf for an int past the float range."""
    try:
        return math.nan if cell is None else float(cell)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ScoreMatrix:
    """Immutable models x tasks score table with per-task metadata.

    scores is row-major (one row per model); cells are floats or None for
    missing.  Every present score must be finite and equal to its float,
    which refuses an int no float holds, such as 2**60 + 1.  There must be
    at least one model and one task, and the ids must be distinct within
    each axis and free of line breaks, which would split a CSV row.
    """

    model_ids: tuple[str, ...]
    task_ids: tuple[str, ...]
    scores: tuple[tuple[float | None, ...], ...]
    metrics: Mapping[str, MetricSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        models = tuple(self.model_ids)
        tasks = tuple(self.task_ids)
        if not models:
            raise SchemaError("score matrix has no models")
        if not tasks:
            raise SchemaError("score matrix has no tasks")
        if len(set(models)) != len(models):
            raise SchemaError("duplicate model id")
        if len(set(tasks)) != len(tasks):
            raise SchemaError("duplicate task id")
        single_line(models, "model")
        single_line(tasks, "task")
        rows = tuple(tuple(row) for row in self.scores)
        if len(rows) != len(models):
            raise SchemaError(f"expected {len(models)} score rows, got {len(rows)}")
        for mid, row in zip(models, rows):
            if len(row) != len(tasks):
                raise SchemaError(
                    f"model {mid!r}: expected {len(tasks)} cells, got {len(row)}"
                )
        shape = (len(models), len(tasks))
        cells = np.array(rows, dtype=object).reshape(shape)
        missing = np.equal(cells, None)
        try:
            values = np.array(rows, dtype=float).reshape(shape)  # None reads as NaN
        except OverflowError:  # an int past the float range reads as inf
            values = np.array([list(map(_float_or_inf, row)) for row in rows]).reshape(shape)
        bad = np.argwhere(~(np.isfinite(values) | missing))
        if len(bad):
            i, j = bad[0]
            raise SchemaError(f"non-finite score for model {models[i]!r}, task {tasks[j]!r}")
        exact = np.equal(cells, values) | missing
        # numpy compares an int scalar with a float as floats: past 2**53, compare ints
        for i, j in np.argwhere(exact & ((values > 2**53) | (values < -2**53))).tolist():
            exact[i, j] = int(cells[i, j]) == int(values[i, j])
        inexact = np.argwhere(~exact)
        if len(inexact):
            i, j = inexact[0]
            raise SchemaError(f"score for model {models[i]!r}, task {tasks[j]!r} "
                              "is not exactly a float")
        values[missing] = 0.0
        values.flags.writeable = False
        missing.flags.writeable = False
        metrics = dict(self.metrics)
        unknown = set(metrics) - set(tasks)
        if unknown:
            raise SchemaError(f"metric metadata for unknown task(s): {sorted(unknown)}")
        full = {tid: metrics.get(tid, MetricSpec()) for tid in tasks}
        object.__setattr__(self, "model_ids", models)
        object.__setattr__(self, "task_ids", tasks)
        object.__setattr__(self, "scores", rows)
        object.__setattr__(self, "metrics", full)
        # The cells as floats (0.0 where missing) and the missing-cell mask,
        # both read-only: every array handed out is a copy.
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_missing", missing)

    # -- access helpers -------------------------------------------------

    @property
    def n_models(self) -> int:
        return len(self.model_ids)

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    def task_index(self, task_id: str) -> int:
        try:
            return self.task_ids.index(task_id)
        except ValueError:
            raise ConfigError(f"unknown task {task_id!r}") from None

    def value(self, model_id: str, task_id: str) -> float | None:
        try:
            i = self.model_ids.index(model_id)
        except ValueError:
            raise ConfigError(f"unknown model {model_id!r}") from None
        return self.scores[i][self.task_index(task_id)]

    def column(self, task_id: str) -> tuple[float | None, ...]:
        j = self.task_index(task_id)
        return tuple(row[j] for row in self.scores)

    def to_array(self, subset: Sequence[str] | None = None) -> np.ndarray:
        """Dense float array restricted to `subset` (all tasks if None).

        Raises MissingScoreError naming the first absent cell touched.
        """
        tasks = self.task_ids if subset is None else tuple(subset)
        cols = [self.task_index(t) for t in tasks]
        gaps = np.argwhere(self._missing[:, cols])
        if len(gaps):
            i, k = gaps[0]
            raise MissingScoreError(
                f"missing score for model {self.model_ids[i]!r}, task {tasks[k]!r}"
            )
        return self._values[:, cols]

    def missing_cells(self) -> list[tuple[str, str]]:
        return [(self.model_ids[i], self.task_ids[j])
                for i, j in np.argwhere(self._missing).tolist()]


class NormalizedMatrix(ScoreMatrix):
    """A ScoreMatrix whose every task is oriented higher-is-better."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for tid, spec in self.metrics.items():
            if spec.direction != HIGHER:
                raise SchemaError(f"normalized matrix has lower-is-better task {tid!r}")


def orient(m: ScoreMatrix) -> NormalizedMatrix:
    """Flip lower-is-better columns by negation so all tasks read higher-is-better.

    Baselines of flipped tasks are negated alongside the scores so that
    human-normalization commutes with orientation.  Higher-is-better
    columns pass through unchanged.
    """
    metrics = {}
    for tid in m.task_ids:
        spec = m.metrics[tid]
        if spec.direction == LOWER:
            spec = replace(
                spec,
                direction=HIGHER,
                random_baseline=None if spec.random_baseline is None else -spec.random_baseline,
                human_reference=None if spec.human_reference is None else -spec.human_reference,
            )
        metrics[tid] = spec
    return _normalized(m, oriented_array(m)[0], metrics)


def _higher_is_better(m: ScoreMatrix, tasks: Sequence[str], x: np.ndarray) -> np.ndarray:
    """x, columns `tasks`, with lower-is-better columns negated: the one orientation rule."""
    flip = np.array([m.metrics[t].direction == LOWER for t in tasks], dtype=bool)
    return np.where(flip, -x, x)


def oriented_array(m: ScoreMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Dense higher-is-better float array of all cells, and its missing-cell mask.

    Missing cells hold 0.0 in the array and True in the mask; callers that
    read them must check the mask first.  Both arrays are fresh copies.
    """
    return _higher_is_better(m, m.task_ids, m._values), m._missing.copy()


def oriented_cells(m: ScoreMatrix, tasks: Sequence[str]) -> np.ndarray:
    """`m.to_array(tasks)` read higher-is-better, with the same MissingScoreError."""
    return _higher_is_better(m, tasks, m.to_array(tasks))


def human_normalize(m: ScoreMatrix) -> NormalizedMatrix:
    """Rescale every score to (s - random_baseline) / (human_reference - random_baseline).

    The random baseline maps to 0 and the human reference to 1.  The
    formula applied to raw scores already lands higher-is-better for both
    directions (for lower-is-better tasks the reference is numerically
    below the baseline, which flips the slope), so it equals orienting
    first and normalizing after.  Every task must carry both baselines.
    """
    for tid in m.task_ids:
        spec = m.metrics[tid]
        if spec.random_baseline is None or spec.human_reference is None:
            raise ConfigError(
                f"task {tid!r} lacks random_baseline/human_reference needed for normalization"
            )
    rb = np.array([m.metrics[t].random_baseline for t in m.task_ids], dtype=float)
    hr = np.array([m.metrics[t].human_reference for t in m.task_ids], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        x = (m._values - rb) / (hr - rb)
    # Every present score is finite, so a non-finite cell is an overflow.
    overflow = np.argwhere(~(np.isfinite(x) | m._missing))
    if len(overflow):
        i, j = overflow[0]
        raise DomainError(f"human normalization overflows the float range: "
                          f"model {m.model_ids[i]!r}, task {m.task_ids[j]!r}")
    metrics = {
        tid: replace(
            m.metrics[tid], direction=HIGHER, random_baseline=0.0, human_reference=1.0
        )
        for tid in m.task_ids
    }
    return _normalized(m, x, metrics)


def _normalized(m: ScoreMatrix, x: np.ndarray,
                metrics: Mapping[str, MetricSpec]) -> NormalizedMatrix:
    """m's models and tasks with the cells of x, missing where m's are."""
    cells = x.astype(object)
    cells[m._missing] = None
    return NormalizedMatrix(m.model_ids, m.task_ids, tuple(map(tuple, cells.tolist())), metrics)


# -- ingestion ----------------------------------------------------------


_METRIC = record({"direction": text, "group": text, "weight": number,
                  "random_baseline": number, "human_reference": number})
# {task_id: metric entry} -> {task_id: MetricSpec}
_METRIC_SPECS = table(lambda entry: MetricSpec(**_METRIC(entry)))
_SIDECAR = record({"tasks": _METRIC_SPECS}, required=["tasks"], extra_keys=True)


def load_metrics(source: bytes | str | IO) -> dict[str, MetricSpec]:
    """Parse a sidecar metric-metadata JSON: {"tasks": {task_id: {...}}}."""
    return parse_json(source, "metric sidecar", _SIDECAR)["tasks"]


def _parse_cell(text: str, row_no: int, col_name: str) -> float | None:
    text = text.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"row {row_no}, column {col_name!r}: cannot parse {text!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"row {row_no}, column {col_name!r}: non-finite value {text!r}")
    return value


def load_matrix(
    source: bytes | str | IO,
    format: str = "csv",
    metrics: Mapping[str, MetricSpec] | None = None,
) -> ScoreMatrix:
    """Parse a score matrix from CSV or JSON.

    CSV: header row `model,<task>,...`, one row per model, blank cell =
    missing; metric metadata comes from the `metrics` argument (typically
    a parsed sidecar).  JSON: an object with "models", "tasks", "scores"
    (array of arrays, null = missing) and optional inline "metrics".
    Either way the matrix must pass `ScoreMatrix`'s checks.
    """
    loaders = {"csv": _load_csv, "json": _load_json}
    if format not in loaders:
        raise ConfigError(f"unknown matrix format {format!r}")
    return loaders[format](as_text(source, "matrix stream"), metrics)


def _load_csv(text: str, metrics: Mapping[str, MetricSpec] | None) -> ScoreMatrix:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty CSV stream") from None
    if not header or header[0].strip() != "model":
        raise SchemaError("CSV header must start with 'model'")
    task_ids = tuple(h.strip() for h in header[1:])
    model_ids: list[str] = []
    rows: list[tuple[float | None, ...]] = []
    for row_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # tolerate trailing blank line
        if len(row) != len(task_ids) + 1:
            raise SchemaError(
                f"row {row_no}: expected {len(task_ids) + 1} cells, got {len(row)}"
            )
        model_ids.append(row[0].strip())
        # A row of finite numbers parses in one pass (float ignores surrounding
        # whitespace).  From its first blank, unparsable or non-finite cell on,
        # a row is parsed cell by cell, for its missing cells or its first bad cell.
        values: list[float | None] = []
        try:
            values.extend(map(float, row[1:]))
        except ValueError:
            pass  # values keeps the floats before the first unparsable cell
        if len(values) < len(task_ids) or not all(map(math.isfinite, values)):
            start = next((j for j, v in enumerate(values) if not math.isfinite(v)), len(values))
            values[start:] = (_parse_cell(cell, row_no, task_ids[j])
                              for j, cell in enumerate(row[1 + start:], start))
        rows.append(tuple(values))
    return ScoreMatrix(tuple(model_ids), task_ids, tuple(rows), dict(metrics or {}))


_JSON_MATRIX = record({"models": array(text), "tasks": array(text),
                       "scores": array(array(lambda cell: None if cell is None else number(cell))),
                       "metrics": _METRIC_SPECS},
                      required=["models", "tasks", "scores"], extra_keys=True)


def _load_json(data: str, metrics: Mapping[str, MetricSpec] | None) -> ScoreMatrix:
    doc = parse_json(data, "matrix stream", _JSON_MATRIX)
    merged = {**doc.get("metrics", {}), **(metrics or {})}
    return ScoreMatrix(tuple(doc["models"]), tuple(doc["tasks"]),
                       tuple(map(tuple, doc["scores"])), merged)


# -- serialization ------------------------------------------------------


def _metric_to_dict(spec: MetricSpec) -> dict:
    """direction, then every other field that differs from its default."""
    changed = {f.name: getattr(spec, f.name) for f in fields(spec)
               if getattr(spec, f.name) != f.default}
    return {"direction": spec.direction, **changed}


def save_matrix(m: ScoreMatrix, format: str = "csv") -> str:
    """Serialize a matrix so load_matrix(save_matrix(m)) round-trips exactly.

    Cells are written as floats.  The CSV loader strips ids, so CSV refuses
    an id with surrounding whitespace with a ConfigError; JSON keeps it.
    """
    if format == "csv":
        spaced = next((i for i in (*m.task_ids, *m.model_ids) if i != i.strip()), None)
        if spaced is not None:
            raise ConfigError(f"id {spaced!r} has surrounding whitespace, which CSV loses")
        return csv_text(["model", *m.task_ids],
                        ([mid, *["" if c is None else repr(float(c)) for c in row]]
                         for mid, row in zip(m.model_ids, m.scores)))
    if format == "json":
        doc = {
            "models": list(m.model_ids),
            "tasks": list(m.task_ids),
            "scores": [[None if c is None else float(c) for c in row] for row in m.scores],
            "metrics": {tid: _metric_to_dict(m.metrics[tid]) for tid in m.task_ids},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    raise ConfigError(f"unknown matrix format {format!r}")


def save_metrics(m: ScoreMatrix) -> str:
    """Serialize metric metadata in the sidecar format accepted by load_metrics."""
    doc = {"tasks": {tid: _metric_to_dict(m.metrics[tid]) for tid in m.task_ids}}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
