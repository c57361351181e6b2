"""Command-line front end.

Subcommands:
  audit           unique Top-k disagreement across task subsets
  corr            tau profiles vs. the full aggregate + scheme agreement
  aggregate       rank models under one aggregation scheme
  compare         statistical comparison of models A and B from replicates
  simulate-reuse  adaptive holdout-reuse attack simulation
  report          combined audit + corr + aggregate report

Exit codes: 0 success, 2 input/schema error, 3 computation error (out of memory too).
Every command is deterministic given (inputs, config, seed); JSON and CSV
outputs are byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from . import __version__
from .aggregate import METHODS, AggregationSpec, aggregate, task_group
from .errors import AuditError, ConfigError, DegenerateInputError, InputError, SchemaError
from .ranking import Ranking, top_k
from .rankstats import (
    DEFAULT_SAMPLING_BUDGET,
    LISTING_HEADER,
    SubsetAuditResult,
    aggregator_agreement,
    check_audit,
    subset_tau_profile,
    unique_topk_audit,
    write_listing,
)
from .report import Report, csv_text, provenance_block, render_json, render_text
from .reuse import LADDER, NAIVE, reuse_bound, simulate
from .scorebank import ScoreMatrix, human_normalize, load_matrix, load_metrics, orient
from .significance import (
    B_GREATER,
    TWO_SIDED,
    PairedSamples,
    holm_correction,
    per_dataset_tests,
    prob_a_le_b,
    wilcoxon_signed_rank,
)
from .util import (
    array,
    checked_fsum,
    distinct,
    integer,
    number,
    parse_json,
    record,
    single_line,
    table,
    text,
)


# --normalize choice -> preprocessing applied to the matrix before aggregation.
_NORMALIZE: dict[str, Callable[[ScoreMatrix], ScoreMatrix]] = {
    "none": lambda m: m, "orient": orient, "human": human_normalize,
}
_CURVE = ["size", "k", "unique", "total", "exact"]  # audit curve columns, one row per (size, k)


@dataclass
class AuditConfig:
    """Configuration for the audit-style commands.

    Mirrors the JSON config file: {"matrix": ..., "metrics": ...,
    "matrix_format": ..., "aggregation": {"method", "bin_width", "weights",
    "groups"}, "subset_sizes": [...], "ks": [...], "out": ...,
    "sampling_budget": ..., "seed": ..., "normalize": "none"|"orient"|"human"}.
    """

    matrix_path: str | None = None
    metrics_path: str | None = None
    matrix_format: str | None = None
    aggregation: AggregationSpec = field(default_factory=AggregationSpec)
    subset_sizes: list[int] = field(default_factory=list)
    ks: list[int] = field(default_factory=lambda: [1, 3, 5, 10])
    output_dir: str | None = None
    sampling_budget: int = DEFAULT_SAMPLING_BUDGET
    seed: int = 0
    normalize: str = "none"

    def __post_init__(self) -> None:
        if self.normalize not in _NORMALIZE:
            raise ConfigError(f"normalize must be one of {list(_NORMALIZE)}, "
                              f"got {self.normalize!r}")
        if not self.ks:
            raise ConfigError("'ks' needs at least one k")
        distinct(self.subset_sizes, "subset_sizes")
        distinct(self.ks, "ks")


# JSON key -> field name, where the two differ.
_FIELDS = {"matrix": "matrix_path", "metrics": "metrics_path", "out": "output_dir",
           "groups": "group_map"}


def _build(cls: Callable[..., Any], values: Mapping[str, Any]) -> Any:
    return cls(**{_FIELDS.get(key, key): v for key, v in values.items()})


_AGGREGATION = record({"method": text, "bin_width": number, "weights": table(number),
                       "groups": table(text)})
_CONFIG = record({"matrix": text, "metrics": text, "matrix_format": text,
                  "aggregation": lambda raw: _build(AggregationSpec, _AGGREGATION(raw)),
                  "subset_sizes": array(integer), "ks": array(integer), "out": text,
                  "sampling_budget": integer, "seed": integer, "normalize": text})


def load_config(path: str) -> AuditConfig:
    return parse_json(Path(path).read_bytes(), f"config {path}",
                      lambda doc: _build(AuditConfig, _CONFIG(doc)))


# -- shared option plumbing ----------------------------------------------


def _add_common(parser: argparse.ArgumentParser, matrix: bool = True) -> None:
    if matrix:
        parser.add_argument("--matrix", help="score matrix file (CSV or JSON)")
        parser.add_argument("--metrics", help="metric-metadata sidecar JSON")
        parser.add_argument("--matrix-format", choices=["csv", "json"], default=None,
                            help="matrix format (default: inferred from extension)")
        parser.add_argument("--method", choices=list(METHODS), default=None,
                            help="aggregation scheme")
        parser.add_argument("--bin-width", type=float, default=None,
                            help="bucket width for robust_average_rank")
        parser.add_argument("--normalize", choices=list(_NORMALIZE), default=None,
                            help="preprocessing applied before aggregation")
        parser.add_argument("--config", help="JSON config file (flags override it)")
    # a matrix command's seed defaults in AuditConfig, so a config file can set it
    parser.add_argument("--seed", type=int, default=None if matrix else 0, help="root seed")
    parser.add_argument("--out", help="directory for output files")
    parser.add_argument("--format", choices=["text", "json", "csv"], default="text",
                        help="stdout rendering")


# Flag of a matrix command -> the config key it overrides; "aggregation.<key>"
# is a key of the "aggregation" object.
_FLAG_KEYS = {"matrix": "matrix", "metrics": "metrics", "matrix_format": "matrix_format",
              "method": "aggregation.method", "bin_width": "aggregation.bin_width",
              "sizes": "subset_sizes", "ks": "ks", "budget": "sampling_budget",
              "seed": "seed", "out": "out", "normalize": "normalize"}


def _build_config(args: argparse.Namespace) -> AuditConfig:
    """The config file's values, then each flag that was given on top.

    A flag counts as given unless it is absent or the empty string, so
    `--seed 0` overrides the config and `--sizes ""` does not.
    """
    cfg = load_config(args.config) if args.config else AuditConfig()
    given: dict[str, dict[str, Any]] = {"": {}, "aggregation": {}}
    for flag, key in _FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value not in (None, ""):
            if key in ("subset_sizes", "ks"):
                value = _int_list(value, f"--{flag}")
            outer, _, inner = key.rpartition(".")
            given[outer][_FIELDS.get(inner, inner)] = value
    return replace(cfg, aggregation=replace(cfg.aggregation, **given["aggregation"]),
                   **given[""])


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects a comma-separated integer list, got {text!r}") from None


def _report(title: str, seed: int, inputs: Mapping[str, bytes] | None,
            options: Mapping[str, Any]) -> Report:
    """The empty Report of one command, stamped with its provenance.

    The options hold every resolved option that can change the command's
    output; the seed and the input hashes sit beside them.
    """
    return Report(title, provenance_block(__version__, seed, inputs, options))


# Parsed arguments of compare and simulate-reuse that are not provenance options:
# the seed and the replicates hash sit beside the options, and where and how the
# output is written does not change it.
_NOT_OPTIONS = ("command", "func", "seed", "out", "format", "replicates")


def _arg_options(args: argparse.Namespace, **parsed: Any) -> dict[str, Any]:
    """Every parsed argument that is an option, with `parsed` values in place of flag text."""
    return {key: v for key, v in vars(args).items() if key not in _NOT_OPTIONS} | parsed


def _prepare(args: argparse.Namespace, title: str) -> tuple[AuditConfig, ScoreMatrix, Report]:
    """Config, preprocessed matrix and provenance-stamped Report of a matrix command.

    Subset sizes default to every size from 1 to the task count.
    """
    cfg = _build_config(args)
    if not cfg.matrix_path:
        raise ConfigError("no score matrix given (use --matrix or the config file)")
    matrix_bytes = Path(cfg.matrix_path).read_bytes()
    inputs = {cfg.matrix_path: matrix_bytes}
    metrics = None
    if cfg.metrics_path:
        metrics_bytes = Path(cfg.metrics_path).read_bytes()
        inputs[cfg.metrics_path] = metrics_bytes
        metrics = load_metrics(metrics_bytes)
    fmt = cfg.matrix_format
    if fmt is None:
        fmt = "json" if str(cfg.matrix_path).endswith(".json") else "csv"
    m = _NORMALIZE[cfg.normalize](load_matrix(matrix_bytes, fmt, metrics))
    cfg.subset_sizes = cfg.subset_sizes or list(range(1, m.n_tasks + 1))
    spec = cfg.aggregation
    options = {"aggregation": spec.method, "bin_width": spec.bin_width, "weights": spec.weights,
               "groups": spec.group_map, "normalize": cfg.normalize}
    if "sizes" in args:  # audit and report, checked before any size is scored
        check_audit(m, spec, cfg.subset_sizes, cfg.ks, cfg.sampling_budget)
        options.update(sizes=cfg.subset_sizes, ks=cfg.ks, sampling_budget=cfg.sampling_budget)
    if "subset" in args:  # aggregate
        options.update(subset=args.subset.split(",") if args.subset else "all", topk=args.topk)
    return cfg, m, _report(title, cfg.seed, inputs, options)


def _emit(report: Report, fmt: str, out_dir: str | None, basename: str, csv_out: str,
          csv_name: str | None = None, extra: Mapping[str, Any] | None = None) -> None:
    """The one output writer: render each needed format once, write it to stdout and files.

    With out_dir, every format goes to its file (`<basename>.txt`,
    `<basename>.json`, and csv_name or `<basename>.csv`); `fmt` picks the
    one that also goes to stdout, as the same string.  `extra` holds the
    JSON-only top-level keys.
    """
    names = {"text": f"{basename}.txt", "json": f"{basename}.json",
             "csv": csv_name or f"{basename}.csv"}
    render = {"text": lambda: render_text(report),
              "json": lambda: render_json(report, extra),
              "csv": lambda: csv_out}
    rendered = {f: render[f]() for f in (names if out_dir else [fmt])}
    if out_dir:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for f, name in names.items():
            (directory / name).write_text(rendered[f])
    sys.stdout.write(rendered[fmt])


def _audit_curve(m: ScoreMatrix, cfg: AuditConfig) -> Iterator[list[SubsetAuditResult]]:
    """The sizes x ks audits, one list in ks order per size, scored as they are read.

    Each size is scored once, at the largest k; the other ks are cut from its codes.
    """
    for size in cfg.subset_sizes:
        audit = unique_topk_audit(m, cfg.aggregation, size, max(cfg.ks),
                                  sampling_budget=cfg.sampling_budget, seed=cfg.seed)
        yield [audit.for_k(k) for k in cfg.ks]


def _listed(by_size: Iterator[list[SubsetAuditResult]],
            out_dir: str | None) -> Iterator[list[SubsetAuditResult]]:
    """Each size's results, passed on once their per-subset rows are written to out_dir.

    The rows go to a partial file, renamed `audit_subsets.csv` once every size is scored.
    """
    if out_dir is None:
        return (yield from by_size)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    partial = Path(out_dir, "audit_subsets.csv.partial")
    try:
        with open(partial, "w") as fh:
            fh.write(LISTING_HEADER)
            for same_size in by_size:
                write_listing(fh, same_size)
                yield same_size
        partial.replace(Path(out_dir, "audit_subsets.csv"))
    finally:
        partial.unlink(missing_ok=True)


def _add_curve(report: Report, by_size: Iterable[list[SubsetAuditResult]]) -> tuple[str, list]:
    """Add the audits' unique-count table to `report`; return its curve CSV and `_CURVE` rows.

    Each size's results are read once, so a stream of them is released size by size.
    """
    rows = [(r.subset_size, r.k, r.unique_count, r.total_combinations, r.exact)
            for same_size in by_size for r in same_size]
    report.add_table("Unique Top-k outcomes per subset size", _CURVE,
                     [[*row[:4], "exact" if row[4] else "sampled"] for row in rows])
    return csv_text(_CURVE[:4], [row[:4] for row in rows]), rows


def _add_ranking(report: Report, title: str, ranking: Ranking) -> list[list[Any]]:
    """Add the `rank,model` table of ranking, best first, to report; return its rows."""
    rows = [[ranking.entries[mid], mid] for mid in ranking.order()]
    report.add_table(title, ["rank", "model"], rows)
    return rows


def _add_task_taus(report: Report, title: str, m: ScoreMatrix,
                   spec: AggregationSpec) -> dict[tuple[str, ...], float | None]:
    """Add each task's tau-b against the all-task ranking to report; return the profile."""
    per_task = subset_tau_profile(m, spec, [(t,) for t in m.task_ids])
    report.add_table(title, ["task", "tau_b"],
                     [[t, "undefined" if tau is None else tau] for (t,), tau in per_task.items()])
    return per_task


# -- subcommands ----------------------------------------------------------


def cmd_audit(args: argparse.Namespace) -> int:
    cfg, m, report = _prepare(args, "Task-subset disagreement audit")
    curve, rows = _add_curve(report, _listed(_audit_curve(m, cfg), cfg.output_dir))
    _emit(report, args.format, cfg.output_dir, "audit", curve, "audit_curve.csv",
          {"audits": [dict(zip(_CURVE, row)) for row in rows]})
    return 0


def cmd_corr(args: argparse.Namespace) -> int:
    cfg, m, report = _prepare(args, "Rank-correlation profile vs. full aggregate")
    spec = cfg.aggregation
    per_task = _add_task_taus(report, "Per-task tau-b vs. all-task ranking", m, spec)
    groups: dict[str, list[str]] = {}
    for t in m.task_ids:
        g = task_group(m, t, spec.group_map)
        if g is not None:
            groups.setdefault(g, []).append(t)
    per_group = (
        subset_tau_profile(m, spec, [tuple(ts) for ts in groups.values()]) if groups else {}
    )

    # every scheme runs under the configured weights, groups and bin width
    agreement_specs = [replace(spec, method=name)
                       for name in dict.fromkeys(["arithmetic_mean", "median", spec.method])]
    agreement = aggregator_agreement(m, agreement_specs)

    taus = [tau for tau in per_task.values() if tau is not None]
    if taus:
        report.add_kv("Per-task tau-b summary",
                      {"mean": sum(taus) / len(taus), "min": min(taus), "max": max(taus)})
    if per_group:
        report.add_table("Per-group tau-b vs. all-task ranking", ["group", "tau_b"],
                         [[f"{name} ({'+'.join(subset)})", "undefined" if tau is None else tau]
                          for name, (subset, tau) in zip(groups, per_group.items())])
    labels = [s.method for s in agreement_specs]
    report.add_table("Aggregation-scheme agreement (tau-b)", ["scheme", *labels],
                     [[label, *row] for label, row in zip(labels, agreement)])

    csv_rows = [["task", t, "" if tau is None else tau] for (t,), tau in per_task.items()]
    csv_rows += [["group", "+".join(subset), "" if tau is None else tau]
                 for subset, tau in per_group.items()]
    _emit(report, args.format, cfg.output_dir, "corr",
          csv_text(["kind", "subset", "tau_b"], csv_rows))
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    cfg, m, report = _prepare(args, "Aggregate ranking")
    subset = tuple(args.subset.split(",")) if args.subset else None
    ranking = aggregate(m, subset, cfg.aggregation)
    k = args.topk if args.topk is not None else ranking.n_models
    order_rows = _add_ranking(report, "Ranking (rank 1 = best)", ranking)
    report.add_kv(f"Top-{k}", {"models": top_k(ranking, k).render()})
    _emit(report, args.format, cfg.output_dir, "ranking", csv_text(["rank", "model"], order_rows))
    return 0


def _replicate_list(value: Any) -> list[float]:
    reps = array(number)(value)
    if not reps:
        raise ValueError("expected a non-empty array")
    return reps


_REPLICATES = record(
    {"datasets": table(record({"A": _replicate_list, "B": _replicate_list},
                              required=["A", "B"], extra_keys=True))},
    required=["datasets"], extra_keys=True)


def _load_replicates(path: str) -> tuple[dict[str, list[float]], dict[str, list[float]], bytes]:
    data = Path(path).read_bytes()
    where = f"replicates {path}"
    datasets = parse_json(data, where, _REPLICATES)["datasets"]
    if not datasets:
        raise SchemaError(f"{where}: contains no datasets")
    single_line(datasets, f"{where}: dataset")
    return ({d: sides["A"] for d, sides in datasets.items()},
            {d: sides["B"] for d, sides in datasets.items()}, data)


def cmd_compare(args: argparse.Namespace) -> int:
    reps_a, reps_b, raw = _load_replicates(args.replicates)
    alpha = args.alpha
    if not (0 < alpha < 1):
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    alternative = args.alternative

    labels = list(reps_a)
    # fsum is correctly rounded, so the replicate order cannot move a mean
    means_a = [checked_fsum(reps_a[d], f"dataset {d!r}, model A") / len(reps_a[d])
               for d in labels]
    means_b = [checked_fsum(reps_b[d], f"dataset {d!r}, model B") / len(reps_b[d])
               for d in labels]
    try:
        wilcoxon = wilcoxon_signed_rank(
            PairedSamples(tuple(labels), tuple(means_a), tuple(means_b)), alternative
        )
        signed_rank = {"statistic_w_plus": wilcoxon.statistic, "p_value": wilcoxon.p_value,
                       "exact": wilcoxon.exact, "zeros_dropped": wilcoxon.zeros_dropped}
    except DegenerateInputError as exc:
        # identical per-dataset means carry no average-difference signal;
        # report that rather than aborting the whole comparison
        wilcoxon, signed_rank = None, {"degenerate": str(exc)}
    dataset_tests = per_dataset_tests(reps_a, reps_b, alternative, seed=args.seed)
    rejected = holm_correction([t.p_value for t in dataset_tests], alpha, args.correction)
    p_le = prob_a_le_b(means_a, means_b, bootstrap_n=args.bootstrap_n, seed=args.seed)

    report = _report("Model comparison (A vs B)", args.seed, {args.replicates: raw},
                     _arg_options(args))
    if wilcoxon is None or wilcoxon.p_value >= alpha:
        verdict = "no significant average difference"
    elif alternative == B_GREATER:
        verdict = "B significantly better on average"
    else:
        verdict = "significant average difference"
    report.add_kv("Cross-dataset signed-rank test (better on average)",
                  {**signed_rank, "verdict": verdict})
    dataset_rows = [[t.label, t.statistic, t.p_value, t.exact, flag]
                    for t, flag in zip(dataset_tests, rejected)]
    report.add_table(
        f"Per-dataset permutation tests ({args.correction}-corrected at alpha={alpha})",
        ["dataset", "mean_diff_b_minus_a", "p_value", "exact", "rejected"],
        dataset_rows,
    )
    report.add_kv(
        "Per-dataset verdict (better on all datasets)",
        {
            "rejected_count": sum(rejected),
            "dataset_count": len(rejected),
            "verdict": "B significantly better on every dataset" if all(rejected)
                       else "not significantly better on every dataset",
        },
    )
    bootstrap = {"estimate": p_le, "seed": args.seed}
    report.add_kv("Bootstrap P(A <= B)", bootstrap)

    tests = {
        "wilcoxon": None if wilcoxon is None else wilcoxon.to_dict(),
        "per_dataset": [
            {**t.to_dict(), "rejected": flag}
            for t, flag in zip(dataset_tests, rejected)
        ],
        "prob_a_le_b": bootstrap,
    }
    _emit(report, args.format, args.out, "compare",
          csv_text(["dataset", "mean_diff", "p_value", "exact", "rejected"], dataset_rows),
          extra={"tests": tests})
    return 0


def cmd_simulate_reuse(args: argparse.Namespace) -> int:
    schedule = _int_list(args.i_schedule, "--i-schedule")
    mechanisms = [NAIVE, LADDER] if args.mechanism == "both" else [args.mechanism]
    grid = simulate(args.n, schedule, mechanisms, args.trials, args.seed, args.step)
    rows = [[trial, i, mechanism, outcome.reported_accuracy, outcome.true_accuracy,
             outcome.bound_value] for (mechanism, i, trial), outcome in grid.items()]

    report = _report("Adaptive holdout-reuse simulation", args.seed, None,
                     _arg_options(args, i_schedule=schedule))
    summary_rows = []
    for mechanism, i in sorted(product(mechanisms, schedule)):
        outcomes = [grid[mechanism, i, trial] for trial in range(args.trials)]
        mean_rep = sum(o.reported_accuracy for o in outcomes) / args.trials
        mean_true = sum(o.true_accuracy for o in outcomes) / args.trials
        summary_rows.append(
            [mechanism, i, mean_rep, mean_true, mean_rep - mean_true, reuse_bound(args.n, i)]
        )
    report.add_table(
        "Mean reported vs. fresh-label accuracy",
        ["mechanism", "i", "mean_reported", "mean_true", "mean_gap", "bound sqrt(i/n)"],
        summary_rows,
    )
    _emit(report, args.format, args.out, "reuse",
          csv_text(["trial", "i", "mechanism", "reported", "true", "bound"], rows),
          "reuse_trials.csv")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg, m, report = _prepare(args, "Leaderboard fragility report")
    _add_ranking(report, "Full-benchmark ranking", aggregate(m, None, cfg.aggregation))
    curve, _ = _add_curve(report, _audit_curve(m, cfg))
    _add_task_taus(report, "Per-task tau-b vs. full ranking", m, cfg.aggregation)
    _emit(report, args.format, cfg.output_dir, "report", curve)
    return 0


# -- parser ----------------------------------------------------------------


def _audit_options(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--sizes", help="comma-separated subset sizes (default: all)")
    p.add_argument("--ks", help="comma-separated k values (default: 1,3,5,10)")
    p.add_argument("--budget", type=int, default=None,
                   help="max subsets enumerated per size before sampling")


def _aggregate_options(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--subset", help="comma-separated task ids (default: all)")
    p.add_argument("--topk", type=int, default=None, help="report only the top k")


def _compare_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--replicates", required=True,
                   help='JSON: {"datasets": {id: {"A": [...], "B": [...]}}}')
    p.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p.add_argument("--alternative", choices=[TWO_SIDED, B_GREATER], default=B_GREATER)
    p.add_argument("--correction", choices=["holm", "bonferroni"], default="holm")
    p.add_argument("--bootstrap-n", type=int, default=10_000)
    _add_common(p, matrix=False)


def _simulate_reuse_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="hidden test-set size")
    p.add_argument("--i-schedule", required=True,
                   help="comma-separated query budgets, e.g. 100,400,1600")
    p.add_argument("--mechanism", choices=[NAIVE, LADDER, "both"], default=NAIVE)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--step", type=float, default=None, help="ladder step (default 1/sqrt(n))")
    _add_common(p, matrix=False)


# name -> (help, options, handler), in `--help` order.
_COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None],
                           Callable[[argparse.Namespace], int]]] = {
    "audit": ("unique Top-k disagreement across task subsets", _audit_options, cmd_audit),
    "corr": ("tau profile vs. full aggregate", _add_common, cmd_corr),
    "aggregate": ("rank models under one scheme", _aggregate_options, cmd_aggregate),
    "compare": ("statistical comparison of models A and B", _compare_options, cmd_compare),
    "simulate-reuse": ("adaptive holdout-reuse simulation", _simulate_reuse_options,
                       cmd_simulate_reuse),
    "report": ("combined audit + corr + aggregate report", _audit_options, cmd_report),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; given a subcommand name, only that subcommand is built.

    Building all six subparsers costs a few milliseconds, more than a
    small audit takes, so `main` builds just the one it runs.
    """
    parser = argparse.ArgumentParser(
        prog="rankaudit",
        description="Audit multi-task leaderboards for ranking fragility.",
    )
    parser.add_argument("--version", action="version", version=f"rankaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, handler) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            options(p)
            p.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"rankaudit: input error: {exc}", file=sys.stderr)
        return 2
    except AuditError as exc:
        print(f"rankaudit: computation error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"rankaudit: computation error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
