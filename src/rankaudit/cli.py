"""Command-line front end.

Subcommands:
  audit           unique Top-k disagreement across task subsets
  corr            tau profiles vs. the full aggregate + scheme agreement
  aggregate       rank models under one aggregation scheme
  compare         statistical comparison of models A and B from replicates
  simulate-reuse  adaptive holdout-reuse attack simulation
  report          combined audit + corr + aggregate report

Exit codes: 0 success, 2 input/schema error, 3 computation error.
Every command is deterministic given (inputs, config, seed); JSON and CSV
outputs are byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from . import __version__
from .aggregate import METHODS, AggregationSpec, aggregate
from .errors import (
    AuditError,
    ConfigError,
    DegenerateInputError,
    InputError,
    ParseError,
    SchemaError,
)
from .rankstats import (
    DEFAULT_SAMPLING_BUDGET,
    SubsetAuditResult,
    aggregator_agreement,
    audit_to_dict,
    subset_tau_profile,
    top_k,
    unique_topk_audit,
)
from .report import Report, provenance_block, render_json, render_text
from .reuse import LADDER, NAIVE, boosting_attack, new_holdout
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
from .util import checked_fsum, derive_seed


@dataclass
class AuditConfig:
    """Configuration for the audit-style commands.

    Mirrors the JSON config file: {"matrix": ..., "metrics": ...,
    "aggregation": {"method", "bin_width", "weights", "groups"},
    "subset_sizes": [...], "ks": [...], "out": ..., "sampling_budget": ...,
    "seed": ..., "normalize": "none"|"orient"|"human"}.
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

    def validate(self, n_tasks: int | None = None) -> None:
        for k in self.ks:
            if k < 1:
                raise ConfigError(f"k must be >= 1, got {k}")
        if self.sampling_budget < 1:
            raise ConfigError(f"sampling_budget must be >= 1, got {self.sampling_budget}")
        for size in self.subset_sizes:
            if size < 1 or (n_tasks is not None and size > n_tasks):
                raise ConfigError(f"subset size {size} outside [1, {n_tasks}]")
        if self.normalize not in ("none", "orient", "human"):
            raise ConfigError(f"normalize must be none/orient/human, got {self.normalize!r}")


def _config_value(doc: Mapping[str, Any], key: str, convert: Callable[[Any], Any],
                  default: Any, where: str) -> Any:
    """doc[key] passed through convert (default if absent or null).

    A value convert rejects is a ConfigError that names the key.
    """
    if doc.get(key) is None:
        return default
    try:
        return convert(doc[key])
    except (TypeError, ValueError, AttributeError):
        raise ConfigError(f"{where}: invalid value for {key!r}: {doc[key]!r}") from None


def _text(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _int(value: Any) -> int:
    """A JSON integer: booleans, other numbers and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected an integer")
    return value


def _ints(value: Any) -> list[int]:
    if not isinstance(value, list):
        raise TypeError("expected a list")
    return [_int(v) for v in value]


def _spec_from_dict(raw: Any, where: str) -> AggregationSpec:
    if not isinstance(raw, dict):
        raise TypeError("expected an object")
    unknown = set(raw) - {"method", "bin_width", "weights", "groups"}
    if unknown:
        raise SchemaError(f"unknown aggregation key(s): {sorted(unknown)}")
    return AggregationSpec(
        method=_config_value(raw, "method", _text, "arithmetic_mean", where),
        bin_width=_config_value(raw, "bin_width", float, 1.0, where),
        weights=_config_value(raw, "weights",
                              lambda v: {t: float(w) for t, w in v.items()}, None, where),
        group_map=_config_value(raw, "groups", lambda v: dict(v.items()), None, where),
    )


def load_config(path: str) -> AuditConfig:
    where = f"config {path}"
    doc = _parse_json(Path(path).read_bytes(), where)
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: must be a JSON object")
    cfg = AuditConfig()
    cfg.matrix_path = _config_value(doc, "matrix", _text, None, where)
    cfg.metrics_path = _config_value(doc, "metrics", _text, None, where)
    cfg.matrix_format = _config_value(doc, "matrix_format", _text, None, where)
    cfg.aggregation = _config_value(doc, "aggregation",
                                    lambda raw: _spec_from_dict(raw, f"{where}: aggregation"),
                                    cfg.aggregation, where)
    cfg.subset_sizes = _config_value(doc, "subset_sizes", _ints, [], where)
    cfg.ks = _config_value(doc, "ks", _ints, cfg.ks, where)
    cfg.output_dir = _config_value(doc, "out", _text, None, where)
    cfg.sampling_budget = _config_value(doc, "sampling_budget", _int, DEFAULT_SAMPLING_BUDGET,
                                        where)
    cfg.seed = _config_value(doc, "seed", _int, 0, where)
    cfg.normalize = _config_value(doc, "normalize", _text, "none", where)
    return cfg


def _parse_json(data: bytes, where: str) -> Any:
    try:
        return json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{where}: not valid JSON: {exc}") from None


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
        parser.add_argument("--normalize", choices=["none", "orient", "human"], default=None,
                            help="preprocessing applied before aggregation")
        parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--seed", type=int, default=None, help="root seed")
    parser.add_argument("--out", help="directory for output files")
    parser.add_argument("--format", choices=["text", "json", "csv"], default="text",
                        help="stdout rendering")


def _build_config(args: argparse.Namespace) -> AuditConfig:
    cfg = load_config(args.config) if args.config else AuditConfig()
    if args.matrix:
        cfg.matrix_path = args.matrix
    if args.metrics:
        cfg.metrics_path = args.metrics
    if args.matrix_format:
        cfg.matrix_format = args.matrix_format
    if args.method or args.bin_width is not None:
        base = cfg.aggregation
        cfg.aggregation = AggregationSpec(
            method=args.method or base.method,
            bin_width=args.bin_width if args.bin_width is not None else base.bin_width,
            weights=base.weights,
            group_map=base.group_map,
        )
    if getattr(args, "sizes", None):
        cfg.subset_sizes = _int_list(args.sizes, "--sizes")
    if getattr(args, "ks", None):
        cfg.ks = _int_list(args.ks, "--ks")
    if getattr(args, "budget", None) is not None:
        cfg.sampling_budget = args.budget
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out:
        cfg.output_dir = args.out
    if args.normalize:
        cfg.normalize = args.normalize
    return cfg


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects a comma-separated integer list, got {text!r}") from None


def _prepare(args: argparse.Namespace) -> tuple[AuditConfig, ScoreMatrix, dict[str, bytes]]:
    """Config, preprocessed matrix and raw input bytes of a matrix command.

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
    m = load_matrix(matrix_bytes, fmt, metrics)
    if cfg.normalize == "orient":
        m = orient(m)
    elif cfg.normalize == "human":
        m = human_normalize(m)
    cfg.subset_sizes = cfg.subset_sizes or list(range(1, m.n_tasks + 1))
    cfg.validate(n_tasks=m.n_tasks)
    return cfg, m, inputs


def _emit(report: Report, fmt: str, out_dir: str | None, basename: str, csv_text: str,
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
              "csv": lambda: csv_text}
    rendered = {f: render[f]() for f in (names if out_dir else [fmt])}
    if out_dir:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for f, name in names.items():
            (directory / name).write_text(rendered[f])
    sys.stdout.write(rendered[fmt])


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _audit_curve(m: ScoreMatrix, cfg: AuditConfig,
                 report: Report) -> tuple[list[SubsetAuditResult], str]:
    """Run the sizes x ks audits and add their unique-count table to `report`.

    Returns the audits and their `size,k,unique,total` CSV.
    """
    results = [unique_topk_audit(m, cfg.aggregation, size, k,
                                 sampling_budget=cfg.sampling_budget, seed=cfg.seed)
               for size in cfg.subset_sizes for k in cfg.ks]
    report.add_table(
        "Unique Top-k outcomes per subset size",
        ["size", "k", "unique", "total", "exact"],
        [[r.subset_size, r.k, r.unique_count, r.total_combinations,
          "exact" if r.exact else "sampled"] for r in results],
    )
    csv_text = _csv_text(
        ["size", "k", "unique", "total"],
        [[r.subset_size, r.k, r.unique_count, r.total_combinations] for r in results],
    )
    return results, csv_text


# -- subcommands ----------------------------------------------------------


def cmd_audit(args: argparse.Namespace) -> int:
    cfg, m, inputs = _prepare(args)
    options = {
        "aggregation": cfg.aggregation.method,
        "sizes": cfg.subset_sizes,
        "ks": cfg.ks,
        "sampling_budget": cfg.sampling_budget,
        "normalize": cfg.normalize,
    }
    report = Report(
        title="Task-subset disagreement audit",
        provenance=provenance_block(__version__, cfg.seed, inputs, options),
    )
    results, csv_text = _audit_curve(m, cfg, report)
    for r in results:
        rows = [["+".join(subset), tk.render()]
                for subset, tk in sorted(r.per_subset_topk.items())]
        report.add_table(f"Top-{r.k} per subset of size {r.subset_size}",
                         ["tasks", f"top-{r.k}"], rows)
    _emit(report, args.format, cfg.output_dir, "audit", csv_text, "audit_curve.csv",
          {"audits": [audit_to_dict(r) for r in results]})
    return 0


def cmd_corr(args: argparse.Namespace) -> int:
    cfg, m, inputs = _prepare(args)
    spec = cfg.aggregation

    per_task = subset_tau_profile(m, spec, [(t,) for t in m.task_ids])
    groups: dict[str, list[str]] = {}
    for t in m.task_ids:
        g = m.metrics[t].group
        if spec.group_map and t in spec.group_map:
            g = spec.group_map[t]
        if g is not None:
            groups.setdefault(g, []).append(t)
    per_group = (
        subset_tau_profile(m, spec, [tuple(ts) for ts in groups.values()]) if groups else {}
    )

    agreement_specs = [("arithmetic_mean", AggregationSpec("arithmetic_mean")),
                       ("median", AggregationSpec("median"))]
    if spec.method not in {name for name, _ in agreement_specs}:
        agreement_specs.append((spec.method, spec))
    agreement = aggregator_agreement(m, [s for _, s in agreement_specs])

    options = {"aggregation": spec.method, "normalize": cfg.normalize}
    report = Report(
        title="Rank-correlation profile vs. full aggregate",
        provenance=provenance_block(__version__, cfg.seed, inputs, options),
    )
    task_rows = [[t, "undefined" if tau is None else tau]
                 for (t,), tau in per_task.items()]
    report.add_table("Per-task tau-b vs. all-task ranking", ["task", "tau_b"], task_rows)
    taus = [tau for tau in per_task.values() if tau is not None]
    if taus:
        report.add_kv("Per-task tau-b summary",
                      {"mean": sum(taus) / len(taus), "min": min(taus), "max": max(taus)})
    if per_group:
        group_rows = [["+".join(subset), "undefined" if tau is None else tau]
                      for subset, tau in per_group.items()]
        names = list(groups)
        for row, name in zip(group_rows, names):
            row[0] = f"{name} ({row[0]})"
        report.add_table("Per-group tau-b vs. all-task ranking", ["group", "tau_b"], group_rows)
    labels = [name for name, _ in agreement_specs]
    report.add_table(
        "Aggregation-scheme agreement (tau-b)",
        ["scheme", *labels],
        [[labels[i], *[agreement[i][j] for j in range(len(labels))]]
         for i in range(len(labels))],
    )

    csv_rows = [["task", t, "" if tau is None else tau] for (t,), tau in per_task.items()]
    csv_rows += [["group", "+".join(subset), "" if tau is None else tau]
                 for subset, tau in per_group.items()]
    csv_text = _csv_text(["kind", "subset", "tau_b"], csv_rows)
    _emit(report, args.format, cfg.output_dir, "corr", csv_text)
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    cfg, m, inputs = _prepare(args)
    subset = tuple(args.subset.split(",")) if args.subset else None
    ranking = aggregate(m, subset, cfg.aggregation)
    k = args.topk if args.topk is not None else ranking.n_models
    tk = top_k(ranking, k)

    options = {
        "aggregation": cfg.aggregation.method,
        "subset": list(subset) if subset else "all",
        "normalize": cfg.normalize,
    }
    report = Report(
        title="Aggregate ranking",
        provenance=provenance_block(__version__, cfg.seed, inputs, options),
    )
    order_rows = [[ranking.entries[mid], mid] for mid in ranking.order()]
    report.add_table("Ranking (rank 1 = best)", ["rank", "model"], order_rows)
    report.add_kv(f"Top-{k}", {"models": tk.render()})
    csv_text = _csv_text(["rank", "model"], order_rows)
    _emit(report, args.format, cfg.output_dir, "ranking", csv_text)
    return 0


def _load_replicates(path: str) -> tuple[dict[str, list[float]], dict[str, list[float]], bytes]:
    data = Path(path).read_bytes()
    doc = _parse_json(data, f"replicates {path}")
    if not isinstance(doc, dict) or not isinstance(doc.get("datasets"), dict):
        raise SchemaError('replicate file must be {"datasets": {id: {"A": [...], "B": [...]}}}')
    reps_a: dict[str, list[float]] = {}
    reps_b: dict[str, list[float]] = {}
    for dataset, entry in doc["datasets"].items():
        if not isinstance(entry, dict) or "A" not in entry or "B" not in entry:
            raise SchemaError(f"dataset {dataset!r} must provide 'A' and 'B' replicate lists")
        for side, reps in (("A", reps_a), ("B", reps_b)):
            if not isinstance(entry[side], list) or not entry[side]:
                raise SchemaError(f"dataset {dataset!r}: {side!r} must be a non-empty list")
            try:
                reps[dataset] = [float(x) for x in entry[side]]
            except (TypeError, ValueError):
                raise ParseError(f"dataset {dataset!r}: replicates must be numeric") from None
    if not reps_a:
        raise SchemaError("replicate file contains no datasets")
    return reps_a, reps_b, data


def cmd_compare(args: argparse.Namespace) -> int:
    reps_a, reps_b, raw = _load_replicates(args.replicates)
    alpha = args.alpha
    if not (0 < alpha < 1):
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    seed = args.seed if args.seed is not None else 0
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
        wilcoxon_degenerate = None
    except DegenerateInputError as exc:
        # identical per-dataset means carry no average-difference signal;
        # report that rather than aborting the whole comparison
        wilcoxon = None
        wilcoxon_degenerate = str(exc)
    dataset_tests = per_dataset_tests(reps_a, reps_b, alternative, seed=seed)
    rejected = holm_correction([t.p_value for t in dataset_tests], alpha, args.correction)
    p_le = prob_a_le_b(means_a, means_b, bootstrap_n=args.bootstrap_n, seed=seed)

    better_avg = wilcoxon is not None and wilcoxon.p_value < alpha
    better_all = all(rejected)
    options = {
        "alpha": alpha,
        "alternative": alternative,
        "correction": args.correction,
        "bootstrap_n": args.bootstrap_n,
    }
    report = Report(
        title="Model comparison (A vs B)",
        provenance=provenance_block(__version__, seed, {args.replicates: raw}, options),
    )
    if wilcoxon is None:
        report.add_kv(
            "Cross-dataset signed-rank test (better on average)",
            {"degenerate": wilcoxon_degenerate,
             "verdict": "no significant average difference"},
        )
    else:
        if not better_avg:
            verdict = "no significant average difference"
        elif alternative == B_GREATER:
            verdict = "B significantly better on average"
        else:
            verdict = "significant average difference"
        report.add_kv(
            "Cross-dataset signed-rank test (better on average)",
            {
                "statistic_w_plus": wilcoxon.statistic,
                "p_value": wilcoxon.p_value,
                "exact": wilcoxon.exact,
                "zeros_dropped": wilcoxon.zeros_dropped,
                "verdict": verdict,
            },
        )
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
            "verdict": "B significantly better on every dataset" if better_all
                       else "not significantly better on every dataset",
        },
    )
    report.add_kv("Bootstrap P(A <= B)", {"estimate": p_le, "seed": seed})

    tests = {
        "wilcoxon": None if wilcoxon is None else wilcoxon.to_dict(),
        "per_dataset": [
            {**t.to_dict(), "rejected": flag}
            for t, flag in zip(dataset_tests, rejected)
        ],
        "prob_a_le_b": {"estimate": p_le, "seed": seed},
    }
    csv_text = _csv_text(["dataset", "mean_diff", "p_value", "exact", "rejected"], dataset_rows)
    _emit(report, args.format, args.out, "compare", csv_text, extra={"tests": tests})
    return 0


def cmd_simulate_reuse(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {args.trials}")
    schedule = _int_list(args.i_schedule, "--i-schedule")
    if not schedule or any(i < 1 for i in schedule):
        raise ConfigError("--i-schedule needs positive query counts")
    mechanisms = [NAIVE, LADDER] if args.mechanism == "both" else [args.mechanism]
    seed = args.seed if args.seed is not None else 0

    rows = []
    summary: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for mechanism in mechanisms:
        for i in schedule:
            for trial in range(args.trials):
                server = new_holdout(args.n, mechanism,
                                     seed=derive_seed(seed, "server", trial, i),
                                     step=args.step if mechanism == LADDER else None)
                outcome = boosting_attack(server, i, seed=derive_seed(seed, "attack", trial, i))
                rows.append([trial, i, mechanism,
                             outcome.reported_accuracy, outcome.true_accuracy,
                             outcome.bound_value])
                summary.setdefault((mechanism, i), []).append(
                    (outcome.reported_accuracy, outcome.true_accuracy)
                )

    options = {
        "n": args.n,
        "i_schedule": schedule,
        "mechanism": args.mechanism,
        "trials": args.trials,
        "step": args.step,
    }
    report = Report(
        title="Adaptive holdout-reuse simulation",
        provenance=provenance_block(__version__, seed, None, options),
    )
    summary_rows = []
    for (mechanism, i), pairs in sorted(summary.items()):
        mean_rep = sum(p[0] for p in pairs) / len(pairs)
        mean_true = sum(p[1] for p in pairs) / len(pairs)
        summary_rows.append(
            [mechanism, i, mean_rep, mean_true, mean_rep - mean_true,
             (i / args.n) ** 0.5]
        )
    report.add_table(
        "Mean reported vs. fresh-label accuracy",
        ["mechanism", "i", "mean_reported", "mean_true", "mean_gap", "bound sqrt(i/n)"],
        summary_rows,
    )
    csv_text = _csv_text(["trial", "i", "mechanism", "reported", "true", "bound"], rows)
    _emit(report, args.format, args.out, "reuse", csv_text, "reuse_trials.csv")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg, m, inputs = _prepare(args)
    spec = cfg.aggregation
    ranking = aggregate(m, None, spec)
    options = {
        "aggregation": spec.method,
        "sizes": cfg.subset_sizes,
        "ks": cfg.ks,
        "normalize": cfg.normalize,
    }
    report = Report(
        title="Leaderboard fragility report",
        provenance=provenance_block(__version__, cfg.seed, inputs, options),
    )
    report.add_table("Full-benchmark ranking", ["rank", "model"],
                     [[ranking.entries[mid], mid] for mid in ranking.order()])
    _, csv_text = _audit_curve(m, cfg, report)
    per_task = subset_tau_profile(m, spec, [(t,) for t in m.task_ids])
    report.add_table(
        "Per-task tau-b vs. full ranking",
        ["task", "tau_b"],
        [[t, "undefined" if tau is None else tau] for (t,), tau in per_task.items()],
    )
    _emit(report, args.format, cfg.output_dir, "report", csv_text)
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankaudit",
        description="Audit multi-task leaderboards for ranking fragility.",
    )
    parser.add_argument("--version", action="version", version=f"rankaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="unique Top-k disagreement across task subsets")
    _add_common(p_audit)
    p_audit.add_argument("--sizes", help="comma-separated subset sizes (default: all)")
    p_audit.add_argument("--ks", help="comma-separated k values (default: 1,3,5,10)")
    p_audit.add_argument("--budget", type=int, default=None,
                         help="max subsets enumerated per size before sampling")
    p_audit.set_defaults(func=cmd_audit)

    p_corr = sub.add_parser("corr", help="tau profile vs. full aggregate")
    _add_common(p_corr)
    p_corr.set_defaults(func=cmd_corr)

    p_agg = sub.add_parser("aggregate", help="rank models under one scheme")
    _add_common(p_agg)
    p_agg.add_argument("--subset", help="comma-separated task ids (default: all)")
    p_agg.add_argument("--topk", type=int, default=None, help="report only the top k")
    p_agg.set_defaults(func=cmd_aggregate)

    p_cmp = sub.add_parser("compare", help="statistical comparison of models A and B")
    p_cmp.add_argument("--replicates", required=True,
                       help='JSON: {"datasets": {id: {"A": [...], "B": [...]}}}')
    p_cmp.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p_cmp.add_argument("--alternative", choices=[TWO_SIDED, B_GREATER], default=B_GREATER)
    p_cmp.add_argument("--correction", choices=["holm", "bonferroni"], default="holm")
    p_cmp.add_argument("--bootstrap-n", type=int, default=10_000)
    _add_common(p_cmp, matrix=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_sim = sub.add_parser("simulate-reuse", help="adaptive holdout-reuse simulation")
    p_sim.add_argument("--n", type=int, required=True, help="hidden test-set size")
    p_sim.add_argument("--i-schedule", required=True,
                       help="comma-separated query budgets, e.g. 100,400,1600")
    p_sim.add_argument("--mechanism", choices=[NAIVE, LADDER, "both"], default=NAIVE)
    p_sim.add_argument("--trials", type=int, default=20)
    p_sim.add_argument("--step", type=float, default=None, help="ladder step (default 1/sqrt(n))")
    _add_common(p_sim, matrix=False)
    p_sim.set_defaults(func=cmd_simulate_reuse)

    p_rep = sub.add_parser("report", help="combined audit + corr + aggregate report")
    _add_common(p_rep)
    p_rep.add_argument("--sizes", help="comma-separated subset sizes (default: all)")
    p_rep.add_argument("--ks", help="comma-separated k values")
    p_rep.add_argument("--budget", type=int, default=None)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"rankaudit: input error: {exc}", file=sys.stderr)
        return 2
    except AuditError as exc:
        print(f"rankaudit: computation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
