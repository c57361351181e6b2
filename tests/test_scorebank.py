import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankaudit import fixtures
from rankaudit.errors import (
    AuditError,
    ConfigError,
    MissingScoreError,
    ParseError,
    SchemaError,
)
from rankaudit.scorebank import (
    HIGHER,
    LOWER,
    MetricSpec,
    NormalizedMatrix,
    ScoreMatrix,
    human_normalize,
    load_matrix,
    load_metrics,
    orient,
    oriented_array,
    save_matrix,
    save_metrics,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


dyadic = st.integers(-800, 800).map(lambda k: k / 8.0)


@st.composite
def matrices(draw, allow_missing=True, with_baselines=False):
    n_models = draw(st.integers(2, 5))
    n_tasks = draw(st.integers(1, 4))
    model_ids = tuple(f"m{i}" for i in range(n_models))
    task_ids = tuple(f"t{j}" for j in range(n_tasks))
    # baseline-normalization tests use a coarse grid so score gaps stay
    # well above float epsilon after the affine rescale
    base = dyadic if with_baselines else finite
    cell = st.one_of(st.none(), base) if allow_missing else base
    rows = tuple(
        tuple(draw(cell) for _ in range(n_tasks)) for _ in range(n_models)
    )
    metrics = {}
    for tid in task_ids:
        direction = draw(st.sampled_from([HIGHER, LOWER]))
        kwargs = dict(direction=direction, weight=draw(st.floats(0.1, 5.0)))
        if draw(st.booleans()):
            kwargs["group"] = draw(st.sampled_from(["g1", "g2"]))
        if with_baselines:
            rb = float(draw(st.integers(-100, 100)))
            hr = rb + draw(st.sampled_from([-1.0, 1.0])) * draw(st.integers(1, 50))
            kwargs["random_baseline"] = rb
            kwargs["human_reference"] = hr
        metrics[tid] = MetricSpec(**kwargs)
    return ScoreMatrix(model_ids, task_ids, rows, metrics)


# -- construction and validation -----------------------------------------


def test_blank_cell_becomes_missing():
    csv_text = "model,t1,t2\na,1,2\nb,,3\nc,4,5\n"
    m = load_matrix(csv_text, "csv")
    assert m.n_models == 3 and m.n_tasks == 2
    assert m.missing_cells() == [("b", "t1")]


def test_duplicate_task_header_rejected():
    with pytest.raises(SchemaError):
        load_matrix("model,t1,t1\na,1,2\n", "csv")


def test_duplicate_model_rejected():
    with pytest.raises(SchemaError):
        load_matrix("model,t1\na,1\na,2\n", "csv")


def test_ragged_row_rejected():
    with pytest.raises(SchemaError):
        load_matrix("model,t1,t2\na,1\n", "csv")


def test_non_numeric_cell_reports_coordinates():
    with pytest.raises(ParseError, match=r"row 3.*'t2'"):
        load_matrix("model,t1,t2\na,1,2\nb,3,oops\n", "csv")


def test_header_must_start_with_model():
    with pytest.raises(SchemaError):
        load_matrix("id,t1\na,1\n", "csv")


def test_non_finite_scores_rejected():
    with pytest.raises(SchemaError):
        ScoreMatrix(("a",), ("t",), ((math.inf,),))
    with pytest.raises(ParseError):
        load_matrix("model,t1\na,nan\n", "csv")


def test_matrix_without_models_or_tasks_rejected():
    with pytest.raises(SchemaError, match="no models"):
        ScoreMatrix((), ("t1", "t2"), ())
    with pytest.raises(SchemaError, match="no tasks"):
        ScoreMatrix(("a", "b"), (), ((), ()))
    with pytest.raises(SchemaError, match="no models"):
        load_matrix("model,t1,t2\n", "csv")
    with pytest.raises(SchemaError, match="no tasks"):
        load_matrix("model\na\n", "csv")


# csv.writer leaves "\r" in a field unquoted, which splits its row on reading,
# so the matrix itself refuses an id with a line break, however it was built.
@pytest.mark.parametrize("brk", ["\r", "\n"])
def test_id_with_a_line_break_rejected(brk):
    with pytest.raises(SchemaError, match=r"model id 'a\\[rn]b' holds a line break"):
        ScoreMatrix((f"a{brk}b", "c"), ("t1",), ((1.0,), (2.0,)))
    with pytest.raises(SchemaError, match=r"task id 't\\[rn]1' holds a line break"):
        ScoreMatrix(("a", "c"), (f"t{brk}1",), ((1.0,), (2.0,)))


def test_metric_for_unknown_task_rejected():
    with pytest.raises(SchemaError):
        ScoreMatrix(("a",), ("t",), ((1.0,),), {"other": MetricSpec()})


def test_metric_spec_invariants():
    with pytest.raises(ConfigError):
        MetricSpec(weight=0.0)
    with pytest.raises(ConfigError):
        MetricSpec(direction="sideways")
    with pytest.raises(ConfigError):
        MetricSpec(random_baseline=1.0, human_reference=1.0)
    MetricSpec(random_baseline=1.0, human_reference=2.0)  # distinct is fine
    with pytest.raises(ConfigError):
        MetricSpec(weight=math.inf)
    # an infinite span would scale every score to zero
    with pytest.raises(ConfigError, match="finite and non-zero"):
        MetricSpec(random_baseline=-1e308, human_reference=1e308)


def test_lra_fixture_shape():
    m = fixtures.lra_matrix()
    assert m.n_models == 11
    assert m.n_tasks == 5
    assert m.missing_cells() == []
    assert m.task_ids == ("text", "retrieval", "listops", "image", "pathfinder")
    # spot-checks of the transcription against the published per-task table
    assert m.value("BigBird", "pathfinder") == 74.87
    assert m.value("Transformer", "text") == 64.27
    assert m.value("Sparse Transformer", "retrieval") == 59.59


def test_to_array_names_missing_cell():
    m = load_matrix("model,t1,t2\na,1,\nb,3,4\n", "csv")
    with pytest.raises(MissingScoreError, match="'a'.*'t2'"):
        m.to_array()
    # untouched columns are fine
    assert m.to_array(["t1"]).tolist() == [[1.0], [3.0]]


def test_metrics_sidecar_round_trip():
    sidecar = {
        "tasks": {
            "t1": {"direction": "lower", "group": "g", "weight": 2.0},
            "t2": {"direction": "higher", "random_baseline": 0.5, "human_reference": 0.9},
        }
    }
    metrics = load_metrics(json.dumps(sidecar))
    assert metrics["t1"].direction == LOWER
    assert metrics["t1"].group == "g"
    assert metrics["t2"].human_reference == 0.9
    with pytest.raises(SchemaError):
        load_metrics(json.dumps({"tasks": {"t1": {"bogus": 1}}}))


def per_cell_load(text):
    """The CSV loader with every cell parsed on its own: `load_matrix`'s oracle."""
    reader = csv.reader(io.StringIO(text))
    task_ids = tuple(h.strip() for h in next(reader)[1:])
    model_ids, rows = [], []

    def parse(cell, row_no, column):
        cell = cell.strip()
        if not cell:
            return None
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(
                f"row {row_no}, column {column!r}: cannot parse {cell!r} as a number"
            ) from None
        if not math.isfinite(value):
            raise ParseError(f"row {row_no}, column {column!r}: non-finite value {cell!r}")
        return value

    for row_no, row in enumerate(reader, start=2):
        model_ids.append(row[0].strip())
        rows.append(tuple(parse(cell, row_no, task_ids[j]) for j, cell in enumerate(row[1:])))
    return ScoreMatrix(tuple(model_ids), task_ids, tuple(rows))


def loaded_or_error(load, text):
    """Model ids, task ids and the repr of every score (so -0.0 != 0.0), or the error."""
    try:
        m = load(text)
    except AuditError as exc:
        return type(exc), str(exc)
    return m.model_ids, m.task_ids, repr(m.scores)


# Float reprs, with whitespace that str.strip removes around them ("\x1c" is
# whitespace to str.strip but not to float), blanks, and cells to report.
SPACES = st.sampled_from(["", " ", "\t", "  ", "\x1c", "\u3000"])
FLOATS = st.builds(lambda a, x, b: a + repr(x) + b, SPACES,
                   st.floats(allow_nan=False, allow_infinity=False), SPACES)
ODD_CELLS = st.builds(lambda a, x, b: a + x + b, SPACES,
                      st.sampled_from(["", "-0", "1_0", "inf", "-inf", "nan", "oops", "1e", "1__0",
                                       "0x10", "--1"]), SPACES)
CELLS = st.one_of(FLOATS, ODD_CELLS)


@given(data=st.data())
def test_csv_loader_matches_the_per_cell_loop(data):
    n_models, n_tasks = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    cells = st.lists(CELLS, min_size=n_tasks, max_size=n_tasks)
    lines = ["model," + ",".join(f"t{j}" for j in range(n_tasks))]
    lines += [f"m{i}," + ",".join(data.draw(cells)) for i in range(n_models)]
    text = "\n".join(lines) + "\n"
    expected = loaded_or_error(per_cell_load, text)
    assert loaded_or_error(lambda t: load_matrix(t, "csv"), text) == expected


@given(data=st.data())
def test_csv_loader_matches_the_per_cell_loop_with_an_odd_cell_first_or_last(data):
    # the loader keeps the floats before a row's first odd cell and parses
    # cell by cell from it on, so the odd cell sits at either end of the row
    n_tasks = data.draw(st.integers(1, 6), label="tasks")
    cells = data.draw(st.lists(FLOATS, min_size=n_tasks - 1, max_size=n_tasks - 1), label="floats")
    odd = data.draw(ODD_CELLS, label="odd")
    cells = [odd, *cells] if data.draw(st.booleans(), label="first") else [*cells, odd]
    text = "model," + ",".join(f"t{j}" for j in range(n_tasks)) + "\nm0," + ",".join(cells) + "\n"
    expected = loaded_or_error(per_cell_load, text)
    assert loaded_or_error(lambda t: load_matrix(t, "csv"), text) == expected


# -- round trips -----------------------------------------------------------


@given(matrices())
def test_csv_round_trip(m):
    text = save_matrix(m, "csv")
    metrics = load_metrics(save_metrics(m))
    again = load_matrix(text, "csv", metrics)
    assert again == m


@given(matrices())
def test_json_round_trip(m):
    again = load_matrix(save_matrix(m, "json"), "json")
    assert again == m


@pytest.mark.parametrize("format", ["csv", "json"])
@pytest.mark.parametrize("rows", [
    np.array([[0.5, 1.0], [0.25, 2.0]]),
    np.array([[0.1, 1.5], [-2.0, 3.0]], dtype=np.float32),
    np.array([[1, 2], [-3, 2**40]], dtype=np.int64),
    ((1, 2), (-3, 4)),
    ((True, False), (False, 1.5)),
    ((-0.0, 5e-324), (None, 1.0)),
], ids=["float64", "float32", "int64", "int", "bool", "signed-zero-subnormal-missing"])
def test_cells_of_any_number_type_round_trip(format, rows):
    m = ScoreMatrix(("a", "b"), ("t", "u"), rows)
    again = load_matrix(save_matrix(m, format), format)
    assert again == m
    assert [[None if c is None else float(c).hex() for c in row] for row in m.scores] == \
        [[None if c is None else c.hex() for c in row] for row in again.scores]


def test_csv_refuses_ids_its_loader_would_strip():
    for model_ids, task_ids, spaced in [((" a", "b "), ("t", "u"), " a"),
                                        (("a", "b "), ("t", "\tu"), "\tu")]:
        m = ScoreMatrix(model_ids, task_ids, ((1.0, 2.0), (3.0, None)))
        with pytest.raises(ConfigError, match=re.escape(repr(spaced))):
            save_matrix(m, "csv")
        assert load_matrix(save_matrix(m, "json"), "json") == m


def test_metric_fields_survive_json_round_trips():
    spec = MetricSpec(LOWER, group="g", weight=2.5, random_baseline=0.5, human_reference=0.9)
    m = ScoreMatrix(("a", "b"), ("t1", "t2"), ((1.0, 2.0), (3.0, None)),
                    {"t1": spec, "t2": MetricSpec()})
    assert json.loads(save_metrics(m)) == {"tasks": {
        "t1": {"direction": "lower", "group": "g", "weight": 2.5, "random_baseline": 0.5,
               "human_reference": 0.9},
        "t2": {"direction": "higher"}}}
    assert load_metrics(save_metrics(m)) == m.metrics
    assert load_matrix(save_matrix(m, "json"), "json") == m


# -- orient -----------------------------------------------------------------


def test_orient_columnwise():
    m = ScoreMatrix(
        ("a", "b", "c"),
        ("up", "down"),
        ((1.0, 1.0), (2.0, 2.0), (3.0, 3.0)),
        {"up": MetricSpec(direction=HIGHER), "down": MetricSpec(direction=LOWER)},
    )
    out = orient(m)
    assert isinstance(out, NormalizedMatrix)
    assert out.column("up") == (1.0, 2.0, 3.0)
    assert out.column("down") == (-1.0, -2.0, -3.0)
    assert all(spec.direction == HIGHER for spec in out.metrics.values())


@given(matrices(allow_missing=False))
def test_orient_is_involution_up_to_metadata(m):
    oriented = orient(m)
    # flip the metadata back to the original directions, orient again
    flipped = ScoreMatrix(
        oriented.model_ids,
        oriented.task_ids,
        oriented.scores,
        {tid: MetricSpec(direction=m.metrics[tid].direction) for tid in m.task_ids},
    )
    twice = orient(flipped)
    assert twice.scores == m.scores


def test_orient_preserves_missing():
    m = load_matrix("model,t1\na,\nb,2\n", "csv", {"t1": MetricSpec(direction=LOWER)})
    out = orient(m)
    assert out.column("t1") == (None, -2.0)


def _first_missing(m, tasks):
    """(model, task) of the first missing cell in row-major order over `tasks`, or None."""
    return next(((mid, t) for mid in m.model_ids for t in tasks
                 if m.value(mid, t) is None), None)


@given(matrices(with_baselines=True))
def test_oriented_array_matches_orient_and_marks_missing(m):
    # Per-cell oracle for every reader of the one stored array.
    rows = [list(row) for row in m.scores]
    sign = [-1.0 if m.metrics[t].direction == LOWER else 1.0 for t in m.task_ids]
    oriented = [[None if c is None else s * c for s, c in zip(sign, row)] for row in rows]
    spec = [m.metrics[t] for t in m.task_ids]
    normalized = [[None if c is None else
                   (c - p.random_baseline) / (p.human_reference - p.random_baseline)
                   for p, c in zip(spec, row)] for row in rows]
    missing = [[c is None for c in row] for row in rows]
    subsets = [None, m.task_ids[::-1], *[(t,) for t in m.task_ids]]

    def check():
        x, gap = oriented_array(m)
        assert gap.tolist() == missing
        assert [[None if g else v for v, g in zip(xr, gr)]
                for xr, gr in zip(x.tolist(), gap.tolist())] == oriented
        assert [list(r) for r in orient(m).scores] == oriented
        assert [list(r) for r in human_normalize(m).scores] == normalized
        assert m.missing_cells() == [(mid, t) for mid, row in zip(m.model_ids, rows)
                                     for t, c in zip(m.task_ids, row) if c is None]
        arrays = [x, gap]
        for subset in subsets:
            tasks = m.task_ids if subset is None else subset
            first = _first_missing(m, tasks)
            if first is None:
                arrays.append(m.to_array(subset))
                assert arrays[-1].tolist() == [[m.value(mid, t) for t in tasks]
                                               for mid in m.model_ids]
            else:
                with pytest.raises(MissingScoreError,
                                   match=f"model {first[0]!r}, task {first[1]!r}$"):
                    m.to_array(subset)
        return arrays

    # Writing to a returned array never changes the matrix.
    for arr in check():
        arr[...] = 7
    check()


# -- human normalization -----------------------------------------------------


def _with_baselines(scores, rb, hr, direction=HIGHER):
    return ScoreMatrix(
        tuple(f"m{i}" for i in range(len(scores))),
        ("t",),
        tuple((s,) for s in scores),
        {"t": MetricSpec(direction=direction, random_baseline=rb, human_reference=hr)},
    )


def test_normalize_anchors():
    m = _with_baselines([0.0, 200.0, 50.0], rb=0.0, hr=200.0)
    out = human_normalize(m)
    assert out.column("t") == (0.0, 1.0, 0.25)
    assert out.metrics["t"].random_baseline == 0.0
    assert out.metrics["t"].human_reference == 1.0


def test_normalize_lower_better_flips_slope():
    # error-style metric: random guessing scores 10, humans score 1
    m = _with_baselines([10.0, 1.0, 5.5], rb=10.0, hr=1.0, direction=LOWER)
    out = human_normalize(m)
    assert out.column("t") == (0.0, 1.0, 0.5)
    assert out.metrics["t"].direction == HIGHER


def test_normalize_requires_baselines():
    m = ScoreMatrix(("a",), ("t",), ((1.0,),), {"t": MetricSpec(random_baseline=0.0)})
    with pytest.raises(ConfigError, match="'t'"):
        human_normalize(m)


@given(matrices(allow_missing=False, with_baselines=True))
def test_normalize_preserves_model_order_per_task(m):
    out = human_normalize(m)
    for tid in m.task_ids:
        spec = m.metrics[tid]
        raw = m.column(tid)
        normalized = out.column(tid)
        increasing = spec.human_reference > spec.random_baseline
        for i in range(len(raw)):
            for j in range(len(raw)):
                if raw[i] < raw[j]:
                    if increasing:
                        assert normalized[i] < normalized[j]
                    else:
                        assert normalized[i] > normalized[j]


def test_normalize_commutes_with_orient():
    m = _with_baselines([10.0, 1.0, 5.5], rb=10.0, hr=1.0, direction=LOWER)
    direct = human_normalize(m)
    via_orient = human_normalize(orient(m))
    assert direct.column("t") == via_orient.column("t")
