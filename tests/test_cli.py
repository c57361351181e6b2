import csv
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from datetime import datetime, timedelta, timezone
from math import comb
from pathlib import Path

import numpy as np
import pytest

import rankaudit.cli
import rankaudit.rankstats
import rankaudit.report
from rankaudit.aggregate import AggregationSpec, aggregate
from rankaudit.cli import main
from rankaudit.errors import MissingScoreError
from rankaudit.fixtures import fixture_path
from rankaudit.ranking import TopK, kendall_tau_b
from rankaudit.rankstats import unique_topk_audit
from rankaudit.scorebank import load_matrix, load_metrics, save_matrix

MATRIX = str(fixture_path("lra_scores.csv"))
METRICS = str(fixture_path("lra_metrics.json"))
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def replicates_file(tmp_path):
    doc = {
        "datasets": {
            f"d{i}": {"A": [0.70 + 0.01 * i, 0.71 + 0.01 * i, 0.69 + 0.01 * i],
                      "B": [0.80 + 0.01 * i, 0.81 + 0.01 * i, 0.79 + 0.01 * i]}
            for i in range(8)
        }
    }
    path = tmp_path / "replicates.json"
    path.write_text(json.dumps(doc))
    return str(path)


# -- audit ------------------------------------------------------------------


def test_audit_writes_all_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run(
        capsys, "audit", "--matrix", MATRIX, "--metrics", METRICS,
        "--sizes", "1,2", "--ks", "3", "--out", str(out), "--format", "json",
    )
    assert code == 0
    doc = json.loads(stdout)
    assert (out / "audit.json").exists()
    assert (out / "audit_curve.csv").exists()
    assert (out / "audit.txt").exists()
    audits = {(a["size"], a["k"]): a for a in doc["audits"]}
    assert audits[(1, 3)]["total"] == 5
    assert audits[(2, 3)]["total"] == 10
    assert all(a["exact"] for a in doc["audits"])
    curve = (out / "audit_curve.csv").read_text().splitlines()
    assert curve[0] == "size,k,unique,total"
    assert len(curve) == 3


def test_audit_dominance_fixture_all_unique_counts_one(tmp_path, capsys):
    rows = ["model,t1,t2,t3"]
    rows.append("champ,9,9,9")
    rows += [f"m{i},{1 + i % 3},{2 + i % 2},{i % 4}" for i in range(4)]
    matrix = tmp_path / "dom.csv"
    matrix.write_text("\n".join(rows) + "\n")
    code, stdout, _ = run(
        capsys, "audit", "--matrix", str(matrix), "--ks", "1", "--format", "csv",
    )
    assert code == 0
    lines = stdout.strip().splitlines()[1:]
    assert lines  # one line per size
    for line in lines:
        size, k, unique, total = line.split(",")
        assert unique == "1"


def test_audit_exhaustive_within_budget_flagged_exact(tmp_path, capsys):
    # 12 tasks at size 6: C(12,6) = 924 <= budget 1000, so the exhaustive
    # path must run and match a forced-exhaustive reference run
    rng = np.random.default_rng(55)
    header = "model," + ",".join(f"t{j}" for j in range(12))
    lines = [header] + [
        f"m{i}," + ",".join(f"{x:.4f}" for x in rng.uniform(0, 1, size=12))
        for i in range(6)
    ]
    matrix = tmp_path / "wide.csv"
    matrix.write_text("\n".join(lines) + "\n")

    code, budget_out, _ = run(
        capsys, "audit", "--matrix", str(matrix), "--sizes", "6", "--ks", "3",
        "--budget", "1000", "--format", "json",
    )
    assert code == 0
    doc = json.loads(budget_out)
    audit = doc["audits"][0]
    assert audit["exact"] is True
    assert audit["total"] == comb(12, 6) == 924

    code, huge_out, _ = run(
        capsys, "audit", "--matrix", str(matrix), "--sizes", "6", "--ks", "3",
        "--budget", "1000000", "--format", "json",
    )
    assert json.loads(huge_out)["audits"] == doc["audits"]


def test_audit_exhaustive_outputs_are_pinned(tmp_path, capsys):
    # 12 models x 9 tasks of tie-heavy integer scores, t2 and t6 lower is
    # better; sizes 1, 4 (126 subsets) and 9 are all exhaustive.  The digests
    # pin the curve, the per-subset listing and the JSON audits block.
    rng = np.random.default_rng(19)
    lines = ["model," + ",".join(f"t{j}" for j in range(9))] + [
        f"m{i}," + ",".join(map(str, row)) for i, row in enumerate(rng.integers(0, 4, (12, 9)))]
    matrix = tmp_path / "pin.csv"
    matrix.write_text("\n".join(lines) + "\n")
    metrics = tmp_path / "pin-metrics.json"
    metrics.write_text(json.dumps({"tasks": {"t2": {"direction": "lower"},
                                             "t6": {"direction": "lower"}}}))
    out = tmp_path / "out"
    code, _, _ = run(capsys, "audit", "--matrix", str(matrix), "--metrics", str(metrics),
                     "--sizes", "1,4,9", "--ks", "1,3", "--out", str(out))
    assert code == 0
    audits = json.loads((out / "audit.json").read_text())["audits"]
    assert all(a["exact"] for a in audits)
    digests = [hashlib.sha256(json.dumps(audits, sort_keys=True).encode()).hexdigest()] + [
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("audit_curve.csv", "audit_subsets.csv")]
    assert digests == ["8601ee56c7274ae40efda105158832d48efdc87459e5cf743d38a072582806dd",
                       "0e1c3092a5a85edace183c135b4419f1143f0b71372b799d8739a27707d552cd",
                       "ff676c32d884a21dae659c5940925795d72d5d562cfa138cc75badaa661a18f5"]


def test_audit_json_outputs_are_byte_identical(tmp_path, capsys):
    outputs = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        code, _, _ = run(
            capsys, "audit", "--matrix", MATRIX, "--metrics", METRICS,
            "--sizes", "1,2,3", "--ks", "1,3", "--seed", "11", "--out", str(out),
        )
        assert code == 0
        outputs.append((out / "audit.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_audit_config_file_with_flag_override(tmp_path, capsys):
    config = {
        "matrix": MATRIX,
        "metrics": METRICS,
        "aggregation": {"method": "average_rank"},
        "subset_sizes": [1],
        "ks": [1],
        "seed": 3,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, stdout, _ = run(capsys, "audit", "--config", str(cfg), "--format", "json")
    assert code == 0
    assert json.loads(stdout)["provenance"]["options"]["aggregation"] == "average_rank"
    code, stdout, _ = run(
        capsys, "audit", "--config", str(cfg), "--method", "median", "--format", "json",
    )
    assert json.loads(stdout)["provenance"]["options"]["aggregation"] == "median"


# -- audit_subsets.csv --------------------------------------------------------

TIED = """model,a,b,c,d,e,f
m0,2,2,2,1,2,2
m1,2,0,1,1,0,1
m2,1,2,1,0,2,2
m3,0,1,1,2,0,1
m4,2,1,0,2,2,2
m5,2,1,2,2,1,2
m6,1,0,1,1,0,2
"""
# sizes 2 and 3 are sampled (C(6, 2) = 15 and C(6, 3) = 20 > 12); the ks are not sorted
TIED_ARGS = ["--method", "average_rank", "--sizes", "2,3,6", "--budget", "12",
             "--seed", "5", "--ks", "3,1"]
# The curve of TIED_ARGS.  Its sampled rows were recorded when subsets were
# first drawn as sorted lexicographic ranks; size 6 predates that.
TIED_CURVE = "size,k,unique,total\n2,3,11,15\n2,1,8,15\n3,3,9,20\n3,1,5,20\n6,3,1,1\n6,1,1,1\n"


@pytest.fixture
def tied_matrix(tmp_path):
    path = tmp_path / "tied.csv"
    path.write_text(TIED)
    return path


def test_audit_curve_is_unchanged(tied_matrix, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "audit", "--matrix", str(tied_matrix), *TIED_ARGS,
                          "--format", "csv", "--out", str(out))
    assert code == 0
    assert stdout == TIED_CURVE
    assert (out / "audit_curve.csv").read_text() == TIED_CURVE


def test_audit_subsets_lists_every_subset_and_k(tied_matrix, tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run(capsys, "audit", "--matrix", str(tied_matrix), *TIED_ARGS,
                     "--out", str(out))
    assert code == 0
    doc = json.loads((out / "audit.json").read_text())
    assert [s["title"] for s in doc["sections"]] == ["Unique Top-k outcomes per subset size"]
    assert all(set(a) == {"size", "k", "unique", "total", "exact"} for a in doc["audits"])
    with open(out / "audit_subsets.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["size", "k", "tasks", "topk", "boundary_tied"]
    ks = [3, 1]
    assert len(rows) - 1 == sum(min(comb(6, s), 12) for s in (2, 3, 6)) * len(ks)
    m = load_matrix(TIED, "csv")
    spec = AggregationSpec("average_rank")
    expected = []
    for size in (2, 3, 6):
        audits = [unique_topk_audit(m, spec, size, k, sampling_budget=12, seed=5) for k in ks]
        for subset in audits[0].per_subset_topk:
            for audit in audits:
                expected.append((size, audit.k, subset, audit.per_subset_topk[subset]))
    got = [(int(size), int(k), tuple(tasks.split("+")),
            TopK(int(k), tuple(frozenset(g.split("|")) for g in topk.split(";")),
                 tied == "True"))
           for size, k, tasks, topk, tied in rows[1:]]
    assert got == expected
    assert any(tk.boundary_tied for *_, tk in got)


def test_audit_subsets_do_not_depend_on_the_hash_seed(tied_matrix, tmp_path):
    listings = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"out{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "rankaudit.cli", "audit", "--matrix",
                        str(tied_matrix), *TIED_ARGS, "--out", str(out)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        listings.append((out / "audit_subsets.csv").read_bytes())
    assert listings[0] == listings[1]


def test_audit_writes_no_listing_without_out(tied_matrix, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for fmt in ("text", "json", "csv"):
        code, _, _ = run(capsys, "audit", "--matrix", str(tied_matrix), *TIED_ARGS,
                         "--format", fmt)
        assert code == 0
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["tied.csv"]


@pytest.mark.parametrize("command", ["audit", "report"])
def test_audit_scores_each_size_once(command, tied_matrix, capsys, monkeypatch):
    calls = []

    def counting(m, spec, size, k, **kwargs):
        calls.append((size, k))
        return unique_topk_audit(m, spec, size, k, **kwargs)

    monkeypatch.setattr(rankaudit.cli, "unique_topk_audit", counting)
    code, _, _ = run(capsys, command, "--matrix", str(tied_matrix), *TIED_ARGS,
                     "--format", "csv")
    assert code == 0
    assert calls == [(2, 3), (3, 3), (6, 3)]


def test_audit_failing_size_leaves_no_listing(tied_matrix, tmp_path, capsys, monkeypatch):
    # size 2's rows are written before size 3 fails; neither they nor the
    # partial file they went to may stay behind
    def failing(m, spec, size, k, **kwargs):
        if size == 3:
            raise MissingScoreError("no score for size 3")
        return unique_topk_audit(m, spec, size, k, **kwargs)

    monkeypatch.setattr(rankaudit.cli, "unique_topk_audit", failing)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "audit", "--matrix", str(tied_matrix), *TIED_ARGS,
                            "--out", str(out))
    assert code == 3 and stdout == ""
    assert "no score for size 3" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["audit", "report"])
@pytest.mark.parametrize("bad, message", [
    # the other k (3) bounded the message when it came from the scored audit
    (["--ks", "0,3"], "k must be >= 1, got 0"),
    (["--budget", "0"], "sampling budget must be >= 1, got 0"),
    # a dict stands for the config file that holds it
    (["--config", {"aggregation": {"weights": {"nope": 2.0}}}],
     "aggregation weights name task 'nope', which the matrix lacks"),
    (["--config", {"aggregation": {"groups": {"nope": "g"}}}],
     "aggregation groups name task 'nope', which the matrix lacks"),
])
def test_bad_k_or_budget_fails_before_any_size_is_scored(command, bad, message, tied_matrix,
                                                         tmp_path, capsys, monkeypatch):
    def scoring(*args, **kwargs):
        raise AssertionError("a subset size was scored")

    monkeypatch.setattr(rankaudit.cli, "unique_topk_audit", scoring)
    if isinstance(bad[-1], dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(bad[-1]))
        bad = [*bad[:-1], str(config)]
    out = tmp_path / "out"
    code, stdout, err = run(capsys, command, "--matrix", str(tied_matrix), "--sizes", "2",
                            *bad, "--out", str(out))
    assert code == 2 and stdout == ""
    assert message in err and "Traceback" not in err
    assert not out.exists()


# -- corr ---------------------------------------------------------------------


def test_config_weights_and_groups_reach_the_aggregator(tmp_path, capsys):
    lines = ["model,t1,t2,t3", "A,1,0,0", "B,0,1,1"]
    matrix = tmp_path / "m.csv"
    matrix.write_text("\n".join(lines) + "\n")
    config = {
        "matrix": str(matrix),
        "aggregation": {
            "method": "macro_average",
            "groups": {"t1": "g1", "t2": "g2", "t3": "g2"},
        },
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, stdout, _ = run(
        capsys, "aggregate", "--config", str(cfg), "--format", "json",
    )
    assert code == 0
    table = next(s for s in json.loads(stdout)["sections"] if s["title"].startswith("Ranking"))
    # macro average ties A and B at 0.5: both get fractional rank 1.5
    assert [row[0] for row in table["table"]["rows"]] == [1.5, 1.5]

    weighted = {
        "matrix": str(matrix),
        "aggregation": {"method": "arithmetic_mean", "weights": {"t1": 10.0}},
    }
    cfg.write_text(json.dumps(weighted))
    code, stdout, _ = run(capsys, "aggregate", "--config", str(cfg), "--format", "json")
    assert code == 0
    table = next(s for s in json.loads(stdout)["sections"] if s["title"].startswith("Ranking"))
    assert [row[1] for row in table["table"]["rows"]] == ["A", "B"]  # t1 dominates


def test_corr_identical_columns_all_one(tmp_path, capsys):
    lines = ["model,t1,t2,t3"] + [f"m{i},{v},{v},{v}" for i, v in enumerate([5, 3, 1, 4])]
    matrix = tmp_path / "same.csv"
    matrix.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run(capsys, "corr", "--matrix", str(matrix), "--format", "csv")
    assert code == 0
    for line in stdout.strip().splitlines()[1:]:
        kind, subset, tau = line.split(",")
        if kind == "task":
            assert float(tau) == pytest.approx(1.0)


def test_corr_lra_profile(tmp_path, capsys):
    out = tmp_path / "corr"
    code, stdout, _ = run(
        capsys, "corr", "--matrix", MATRIX, "--metrics", METRICS,
        "--out", str(out), "--format", "json",
    )
    assert code == 0
    doc = json.loads(stdout)
    titles = [s["title"] for s in doc["sections"]]
    assert "Per-task tau-b vs. all-task ranking" in titles
    assert "Aggregation-scheme agreement (tau-b)" in titles
    assert (out / "corr.json").exists() and (out / "corr.csv").exists()


def test_corr_outputs_byte_identical(tmp_path, capsys):
    blobs = []
    for run_dir in ("x", "y"):
        out = tmp_path / run_dir
        code, _, _ = run(
            capsys, "corr", "--matrix", MATRIX, "--metrics", METRICS,
            "--seed", "2", "--out", str(out),
        )
        assert code == 0
        blobs.append((out / "corr.json").read_bytes() + (out / "corr.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_corr_mean_vs_median_divergence(tmp_path, capsys):
    lines = ["model,t1,t2,t3", "A,10,0,0", "B,1,1,1", "C,2,2,0"]
    matrix = tmp_path / "diverge.csv"
    matrix.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run(capsys, "corr", "--matrix", str(matrix), "--format", "json")
    assert code == 0
    doc = json.loads(stdout)
    agreement = next(s for s in doc["sections"]
                     if s["title"] == "Aggregation-scheme agreement (tau-b)")
    rows = {row[0]: row for row in agreement["table"]["rows"]}
    mean_vs_median = rows["arithmetic_mean"][2]
    assert mean_vs_median == pytest.approx(-1.0 / 3.0)
    assert mean_vs_median < 1.0


def test_corr_agreement_runs_every_scheme_under_the_configured_weights(tmp_path, capsys):
    config = tmp_path / "weighted.json"
    config.write_text(json.dumps({"aggregation": {"weights": {"text": 100.0}}}))
    code, stdout, _ = run(capsys, "corr", "--matrix", MATRIX, "--metrics", METRICS,
                          "--method", "arithmetic_mean", "--config", str(config),
                          "--format", "json")
    assert code == 0
    agreement = next(s for s in json.loads(stdout)["sections"]
                     if s["title"] == "Aggregation-scheme agreement (tau-b)")
    rows = {row[0]: row for row in agreement["table"]["rows"]}
    m = load_matrix(Path(MATRIX).read_bytes(), "csv", load_metrics(Path(METRICS).read_bytes()))
    weighted = aggregate(m, None, AggregationSpec(weights={"text": 100.0}))
    median = aggregate(m, None, AggregationSpec("median"))
    assert rows["arithmetic_mean"][2] == kendall_tau_b(weighted, median)
    assert rows["arithmetic_mean"][2] != kendall_tau_b(aggregate(m, None), median)


LRA_GROUPS = {"text": "nlp", "retrieval": "nlp", "listops": "logic", "image": "vision",
              "pathfinder": "vision"}


@pytest.mark.parametrize("source", ["sidecar", "config"])
def test_corr_per_group_taus(source, tmp_path, capsys):
    path = tmp_path / f"{source}.json"
    if source == "sidecar":
        path.write_text(json.dumps({"tasks": {t: {"group": g} for t, g in LRA_GROUPS.items()}}))
        argv = ["--metrics", str(path)]
    else:
        path.write_text(json.dumps({"aggregation": {"groups": LRA_GROUPS}}))
        argv = ["--metrics", METRICS, "--config", str(path)]
    out = tmp_path / "corr"
    code, stdout, _ = run(capsys, "corr", "--matrix", MATRIX, *argv, "--out", str(out),
                          "--format", "json")
    assert code == 0
    table = next(s for s in json.loads(stdout)["sections"]
                 if s["title"] == "Per-group tau-b vs. all-task ranking")["table"]
    assert [row[0] for row in table["rows"]] == [
        "nlp (text+retrieval)", "logic (listops)", "vision (image+pathfinder)"]
    with open(out / "corr.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    groups = [row for row in rows if row[0] == "group"]
    assert [row[1] for row in groups] == ["text+retrieval", "listops", "image+pathfinder"]
    assert [float(row[2]) for row in groups] == [row[1] for row in table["rows"]]
    # a one-task group is that task's tau
    assert ["task", "listops", groups[1][2]] in rows


# -- aggregate -----------------------------------------------------------------


def test_aggregate_subcommand_lra_top3(capsys):
    code, stdout, _ = run(
        capsys, "aggregate", "--matrix", MATRIX, "--metrics", METRICS,
        "--topk", "3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(stdout)
    table = next(s for s in doc["sections"] if s["title"].startswith("Ranking"))
    order = [row[1] for row in table["table"]["rows"]]
    assert order[:3] == ["BigBird", "Transformer", "Longformer"]


def test_aggregate_subset_flag(capsys):
    code, stdout, _ = run(
        capsys, "aggregate", "--matrix", MATRIX, "--metrics", METRICS,
        "--subset", "retrieval", "--topk", "3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(stdout)
    table = next(s for s in doc["sections"] if s["title"].startswith("Ranking"))
    order = [row[1] for row in table["table"]["rows"]]
    assert order[:3] == ["Sparse Transformer", "BigBird", "Transformer"]


def test_aggregate_elimination_of_a_wide_one_task_matrix(tmp_path, capsys):
    # one model is eliminated per round, 1,099 rounds in all
    path = tmp_path / "wide.csv"
    path.write_text("model,t1\n" + "".join(f"m{i},{i}\n" for i in range(1100)))
    code, stdout, _ = run(capsys, "aggregate", "--matrix", str(path),
                          "--method", "elimination_ranking", "--format", "json")
    assert code == 0
    table = next(s for s in json.loads(stdout)["sections"] if s["title"].startswith("Ranking"))
    assert [row[1] for row in table["table"]["rows"]] == [f"m{i}" for i in range(1099, -1, -1)]


# -- compare --------------------------------------------------------------------


def test_compare_dominated_eight_datasets(replicates_file, capsys):
    code, stdout, _ = run(
        capsys, "compare", "--replicates", replicates_file,
        "--alpha", "0.05", "--alternative", "b-greater", "--format", "json",
    )
    assert code == 0
    doc = json.loads(stdout)
    wilcoxon = next(s for s in doc["sections"] if "signed-rank" in s["title"])
    assert wilcoxon["values"]["p_value"] == pytest.approx(1.0 / 256.0)
    assert wilcoxon["values"]["verdict"] == "B significantly better on average"
    bootstrap = next(s for s in doc["sections"] if "Bootstrap" in s["title"])
    assert bootstrap["values"]["estimate"] == 1.0
    # machine-readable block carries the full test-result fields
    assert doc["tests"]["wilcoxon"]["method"] == "wilcoxon-signed-rank"
    assert {"statistic", "p_value", "exact", "zeros_dropped"} <= doc["tests"]["wilcoxon"].keys()
    for entry in doc["tests"]["per_dataset"]:
        assert {"method", "statistic", "p_value", "exact", "label", "rejected"} <= entry.keys()


def test_compare_two_sided_verdict(replicates_file, capsys):
    code, stdout, _ = run(capsys, "compare", "--replicates", replicates_file,
                          "--alternative", "two-sided", "--format", "json")
    assert code == 0
    wilcoxon = next(s for s in json.loads(stdout)["sections"] if "signed-rank" in s["title"])
    assert wilcoxon["values"]["p_value"] == pytest.approx(2.0 / 256.0)
    assert wilcoxon["values"]["verdict"] == "significant average difference"


def test_compare_identical_replicates(tmp_path, capsys):
    doc = {"datasets": {f"d{i}": {"A": [0.5, 0.5], "B": [0.5, 0.5]} for i in range(3)}}
    path = tmp_path / "same.json"
    path.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "compare", "--replicates", str(path), "--format", "json")
    assert code == 0
    out = json.loads(stdout)
    wilcoxon = next(s for s in out["sections"] if "signed-rank" in s["title"])
    assert wilcoxon["values"]["verdict"] == "no significant average difference"
    table = next(s for s in out["sections"] if "Per-dataset" in s["title"])
    assert all(row[4] is False for row in table["table"]["rows"])  # no rejections
    bootstrap = next(s for s in out["sections"] if "Bootstrap" in s["title"])
    assert bootstrap["values"]["estimate"] == 1.0


def test_compare_json_ignores_replicate_order(tmp_path, capsys):
    # d0's A and B hold the same eight values, so its mean difference is 0.
    # Summed left to right, A's mean exceeds B's by one ulp, but only in
    # the written order; reversed, the sums agree and Wilcoxon drops d0.
    # The permutation test's mean difference is taken from fsum side sums too.
    rng = np.random.default_rng(61)
    datasets = {"d0": {"A": [0.73, 0.02, 0.49, 0.57, 0.38, 0.22, 0.98, 0.06],
                       "B": [0.22, 0.38, 0.57, 0.98, 0.02, 0.73, 0.49, 0.06]}}
    for i in range(1, 6):
        datasets[f"d{i}"] = {side: (rng.integers(1, 100, size=8) / 100).tolist()
                             for side in ("A", "B")}
    path = tmp_path / "replicates.json"
    outputs = []
    for doc in (datasets, {d: {side: reps[::-1] for side, reps in entry.items()}
                           for d, entry in datasets.items()}):
        path.write_text(json.dumps({"datasets": doc}))
        code, stdout, _ = run(capsys, "compare", "--replicates", str(path), "--format", "json")
        assert code == 0
        out = json.loads(stdout)
        del out["provenance"]  # it hashes the input bytes
        outputs.append(out)
    assert outputs[0]["tests"]["wilcoxon"]["zeros_dropped"] == 1
    assert outputs[0] == outputs[1]

    # Nine values per side, each list rotated by one place: numpy's mean of
    # nine values follows their order, a mean difference from fsum does not.
    rng = np.random.default_rng(2)
    datasets = {f"d{i}": {side: (rng.integers(1, 100, size=9) / 100).tolist()
                          for side in ("A", "B")} for i in range(3)}
    outputs = []
    for doc in (datasets, {d: {side: reps[1:] + reps[:1] for side, reps in entry.items()}
                           for d, entry in datasets.items()}):
        path.write_text(json.dumps({"datasets": doc}))
        code, stdout, _ = run(capsys, "compare", "--replicates", str(path), "--format", "json")
        assert code == 0
        out = json.loads(stdout)
        del out["provenance"]
        outputs.append(out)
    assert all(t["exact"] for t in outputs[0]["tests"]["per_dataset"])
    assert outputs[0] == outputs[1]

    # Twelve values per side take the Monte-Carlo path, which permutes each
    # side's replicates sorted, so its seeded p-value is order-free too.
    rng = np.random.default_rng(1)
    datasets = {f"d{i}": {side: (rng.integers(1, 100, size=12) / 100).tolist()
                          for side in ("A", "B")} for i in range(2)}
    outputs = []
    for doc in (datasets,
                {d: {side: reps[::-1] for side, reps in entry.items()}
                 for d, entry in datasets.items()},
                {d: {side: reps[5:] + reps[:5] for side, reps in entry.items()}
                 for d, entry in datasets.items()}):
        path.write_text(json.dumps({"datasets": doc}))
        code, stdout, _ = run(capsys, "compare", "--replicates", str(path), "--format", "json")
        assert code == 0
        out = json.loads(stdout)
        del out["provenance"]
        outputs.append(out)
    assert not any(t["exact"] for t in outputs[0]["tests"]["per_dataset"])
    assert outputs[0] == outputs[1] == outputs[2]


def test_compare_exact_rows_are_pinned(tmp_path, capsys):
    # Exact-only shapes: 9+9 (48,620 reassignments), 4+12 and 12+4 (1,820
    # each, sides a and b swapped). The digests pin every exact p-value and
    # mean difference of compare.csv and of the JSON per-dataset block.
    rng = np.random.default_rng(16)
    shapes = [(9, 9), (9, 9), (4, 12), (12, 4)]
    datasets = {f"d{i}": {"A": (rng.integers(50, 90, size=na) / 100).tolist(),
                          "B": (rng.integers(55, 95, size=nb) / 100).tolist()}
                for i, (na, nb) in enumerate(shapes)}
    path = tmp_path / "exact.json"
    path.write_text(json.dumps({"datasets": datasets}))
    out = tmp_path / "cmp"
    code, _, _ = run(capsys, "compare", "--replicates", str(path), "--seed", "3",
                     "--out", str(out), "--format", "json")
    assert code == 0
    per_dataset = json.loads((out / "compare.json").read_text())["tests"]["per_dataset"]
    assert [t["exact"] for t in per_dataset] == [True] * len(shapes)
    block = json.dumps(per_dataset, sort_keys=True).encode()
    json_digest = hashlib.sha256(block).hexdigest()
    assert json_digest == "6c08f49b071f5a09ec0f46c28ccc53471478f018c3fbcb958d789871e5c01f9b"
    csv_digest = hashlib.sha256((out / "compare.csv").read_bytes()).hexdigest()
    assert csv_digest == "65783b3a5dc39545367528f124e0fd219f5f4d53059db2d4e1fee1b17fd9a3fb"


def test_compare_monte_carlo_rows_are_pinned(tmp_path, capsys):
    # Monte-Carlo-only shapes: 12+12 (2.7M reassignments) samples from two
    # full subset-sum blocks; 20+9 and 9+20 (10M each) from three, the last
    # of 5 values. The digests pin every seeded p-value of compare.csv and
    # of the JSON per-dataset block, so they pin the sampler's stream.
    rng = np.random.default_rng(18)
    shapes = [(12, 12), (20, 9), (9, 20)]
    datasets = {f"d{i}": {"A": (rng.integers(50, 90, size=na) / 100).tolist(),
                          "B": (rng.integers(55, 95, size=nb) / 100).tolist()}
                for i, (na, nb) in enumerate(shapes)}
    path = tmp_path / "mc.json"
    path.write_text(json.dumps({"datasets": datasets}))
    out = tmp_path / "cmp"
    code, _, _ = run(capsys, "compare", "--replicates", str(path), "--seed", "3",
                     "--out", str(out), "--format", "json")
    assert code == 0
    per_dataset = json.loads((out / "compare.json").read_text())["tests"]["per_dataset"]
    assert [t["exact"] for t in per_dataset] == [False] * len(shapes)
    block = json.dumps(per_dataset, sort_keys=True).encode()
    json_digest = hashlib.sha256(block).hexdigest()
    assert json_digest == "af208c2a3bbf90353dc2be960ea23ab886169fb9b9fd045c21764b8cf1000dac"
    csv_digest = hashlib.sha256((out / "compare.csv").read_bytes()).hexdigest()
    assert csv_digest == "4f004ee4f02dc7b84d24473ddf0f8b4e3df932881bd6ffd64a2b61ee3c5c5a10"


def test_compare_mixed_holm_subset(tmp_path, capsys):
    rng = np.random.default_rng(60)
    datasets = {}
    for i in range(4):
        shift = 0.6 if i < 2 else 0.02
        datasets[f"d{i}"] = {
            "A": rng.normal(0.0, 0.05, size=6).round(4).tolist(),
            "B": (rng.normal(0.0, 0.05, size=6) + shift).round(4).tolist(),
        }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"datasets": datasets}))
    code, stdout, _ = run(
        capsys, "compare", "--replicates", str(path), "--alternative", "b-greater",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(stdout)
    table = next(s for s in doc["sections"] if "Per-dataset" in s["title"])
    rows = table["table"]["rows"]
    uncorrected = [row[2] <= 0.05 for row in rows]
    corrected = [row[4] for row in rows]
    assert sum(corrected) <= sum(uncorrected)
    for raw_flag, holm_flag in zip(uncorrected, corrected):
        assert raw_flag or not holm_flag  # Holm rejects a subset


# -- simulate-reuse ----------------------------------------------------------------


def test_simulate_reuse_deterministic_csv(tmp_path, capsys):
    args = ["simulate-reuse", "--n", "200", "--i-schedule", "20,50",
            "--mechanism", "both", "--trials", "2", "--seed", "13", "--format", "csv"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == "trial,i,mechanism,reported,true,bound"
    assert len(out1.splitlines()) == 1 + 2 * 2 * 2


@pytest.mark.parametrize("grid, expected", [
    # n = 101 is not a multiple of 8; the digest pins the seeded attack
    # stream, the majority vote and the ladder reports byte for byte
    (["--n", "101", "--i-schedule", "10,37", "--trials", "3", "--seed", "5"],
     "06e9bcced4dd31e0956b6a417b9002770e757bda9b1b6383bff13b692bcd703a"),
    # i = 600 and 4000 span several attack blocks, the last one partial
    (["--n", "997", "--i-schedule", "1,600,4000", "--trials", "2", "--seed", "7"],
     "a486ca432c3afe5df7e9918cdb1046ae94571a0cb34830ebc7a2f0274fd0636e"),
], ids=["n101", "n997"])
def test_simulate_reuse_trials_csv_is_pinned(tmp_path, capsys, grid, expected):
    out = tmp_path / "sim"
    code, _, _ = run(capsys, "simulate-reuse", *grid, "--mechanism", "both", "--out", str(out))
    assert code == 0
    digest = hashlib.sha256((out / "reuse_trials.csv").read_bytes()).hexdigest()
    assert digest == expected


def test_simulate_reuse_bound_annotation(capsys):
    code, stdout, _ = run(
        capsys, "simulate-reuse", "--n", "100", "--i-schedule", "100",
        "--trials", "1", "--format", "csv",
    )
    assert code == 0
    row = stdout.strip().splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(1.0)


def test_simulate_reuse_table_and_csv_bounds_agree(tmp_path, capsys):
    # (i / n) ** 0.5 and math.sqrt(i / n) differ in the last digit here
    out = tmp_path / "sim"
    code, _, _ = run(capsys, "simulate-reuse", "--n", "100", "--i-schedule", "926",
                     "--trials", "1", "--out", str(out))
    assert code == 0
    table = next(s for s in json.loads((out / "reuse.json").read_text())["sections"]
                 if "Mean reported" in s["title"])["table"]
    with open(out / "reuse_trials.csv", newline="") as fh:
        [row] = list(csv.DictReader(fh))
    assert table["rows"][0][5] == float(row["bound"])


def test_simulate_reuse_ladder_gap_below_naive(capsys):
    # paired run: same server/attack seeds under both mechanisms
    code, stdout, _ = run(
        capsys, "simulate-reuse", "--n", "200", "--i-schedule", "300",
        "--mechanism", "both", "--trials", "3", "--step", "0.02",
        "--seed", "21", "--format", "json",
    )
    assert code == 0
    doc = json.loads(stdout)
    table = next(s for s in doc["sections"] if "Mean reported" in s["title"])
    gaps = {row[0]: row[4] for row in table["table"]["rows"]}
    assert gaps["ladder"] <= gaps["naive"]


def test_simulate_reuse_writes_files(tmp_path, capsys):
    out = tmp_path / "sim"
    code, _, _ = run(
        capsys, "simulate-reuse", "--n", "100", "--i-schedule", "10",
        "--trials", "1", "--out", str(out),
    )
    assert code == 0
    assert (out / "reuse_trials.csv").exists()
    assert (out / "reuse.json").exists()
    assert (out / "reuse.txt").exists()


# -- report -------------------------------------------------------------------------


def test_report_combined_sections(capsys):
    code, stdout, _ = run(
        capsys, "report", "--matrix", MATRIX, "--metrics", METRICS,
        "--sizes", "1,5", "--ks", "3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(stdout)
    titles = [s["title"] for s in doc["sections"]]
    assert "Full-benchmark ranking" in titles
    assert "Unique Top-k outcomes per subset size" in titles
    assert "Per-task tau-b vs. full ranking" in titles
    assert "inputs" in doc["provenance"]


@pytest.mark.parametrize("extra", [["report"], ["audit"], ["audit", "--out", "{out}"]],
                         ids=["report", "audit", "audit-out"])
def test_report_releases_each_size_before_scoring_the_next(extra, tmp_path, capsys):
    # All 65,535 subsets of 16 tasks: holding every size's codes until the
    # table is built peaks at 11.2 MB for report and 11.9 MB for audit
    # (tracemalloc, Python 3.11, numpy 2.4); a stream of sizes holds one or
    # two at a time, and audit writes each size's listing rows before the next.
    scores = np.random.default_rng(0).random((50, 16))
    rows = ["model," + ",".join(f"t{j}" for j in range(16))]
    rows += [f"m{i}," + ",".join(map(str, r)) for i, r in enumerate(scores.tolist())]
    matrix = tmp_path / "wide.csv"
    matrix.write_text("\n".join(rows) + "\n")
    tracemalloc.start()
    try:
        code = main([arg.format(out=tmp_path / "out") for arg in extra]
                    + ["--matrix", str(matrix), "--format", "csv"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 16 * 4
    assert peak < 7 * 10**6
    if "--out" in extra:
        with open(tmp_path / "out" / "audit_subsets.csv") as fh:
            assert sum(1 for _ in fh) == 1 + (2**16 - 1) * 4


# -- output layer --------------------------------------------------------------------


class _TickingClock:
    """Stands in for report.datetime: every now() is one second later."""

    def __init__(self):
        self.t = datetime(2021, 7, 15, tzinfo=timezone.utc)

    def now(self, tz=None):
        self.t += timedelta(seconds=1)
        return self.t


OUTPUTS = {
    "audit": (["--matrix", MATRIX, "--sizes", "1,2", "--ks", "1,3"],
              {"text": "audit.txt", "json": "audit.json", "csv": "audit_curve.csv",
               "listing": "audit_subsets.csv"}),
    "corr": (["--matrix", MATRIX, "--metrics", METRICS],
             {"text": "corr.txt", "json": "corr.json", "csv": "corr.csv"}),
    "aggregate": (["--matrix", MATRIX, "--topk", "3"],
                  {"text": "ranking.txt", "json": "ranking.json", "csv": "ranking.csv"}),
    "compare": (None,
                {"text": "compare.txt", "json": "compare.json", "csv": "compare.csv"}),
    "simulate-reuse": (["--n", "100", "--i-schedule", "10,20", "--trials", "2"],
                       {"text": "reuse.txt", "json": "reuse.json", "csv": "reuse_trials.csv"}),
    "report": (["--matrix", MATRIX, "--sizes", "1,5", "--ks", "3"],
               {"text": "report.txt", "json": "report.json", "csv": "report.csv"}),
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", list(OUTPUTS))
def test_stdout_is_the_written_file(command, fmt, tmp_path, capsys, monkeypatch,
                                    replicates_file):
    monkeypatch.setattr(rankaudit.report, "datetime", _TickingClock())
    argv, files = OUTPUTS[command]
    argv = argv or ["--replicates", replicates_file, "--bootstrap-n", "1000"]
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, command, *argv, "--out", str(out), "--format", fmt)
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(files.values())
    assert (out / files[fmt]).read_bytes() == stdout.encode()


@pytest.mark.parametrize("argv", [["compare", "--replicates", "r.json"],
                                  ["simulate-reuse", "--n", "100", "--i-schedule", "10"]])
def test_config_flag_only_on_matrix_commands(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", "cfg.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def _help(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", list(rankaudit.cli._COMMANDS))
def test_main_builds_only_the_subcommand_it_runs(command, capsys, monkeypatch):
    # ... and that subcommand's options and help are the full parser's
    full = _help(capsys, rankaudit.cli.build_parser(), [command, "--help"])
    assert _help(capsys, rankaudit.cli.build_parser(command), [command, "--help"]) == full
    built = []
    build = rankaudit.cli.build_parser
    monkeypatch.setattr(rankaudit.cli, "build_parser",
                        lambda name=None: built.append(name) or build(name))
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert built == [command]
    assert capsys.readouterr().out == full


def test_top_level_help_and_unknown_command_see_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = capsys.readouterr().out
    assert all(command in listed for command in rankaudit.cli._COMMANDS)
    with pytest.raises(SystemExit) as exc:
        main(["audits"])
    assert exc.value.code == 2
    assert "invalid choice: 'audits'" in capsys.readouterr().err


# -- exit codes ----------------------------------------------------------------------


@pytest.mark.parametrize("bad, key", [
    ({"seed": "abc"}, "'seed'"),
    ({"ks": ["x"]}, "'ks'"),
    ({"subset_sizes": 5}, "'subset_sizes'"),
    ({"aggregation": 5}, "'aggregation'"),
    ({"aggregation": {"bin_width": "x"}}, "'bin_width'"),
    ({"aggregation": {"weights": {"a": "z"}}}, "'weights'"),
    ({"ks": [1.9]}, "'ks'"),
    ({"seed": True}, "'seed'"),
    ({"sampling_budget": 2.5}, "'sampling_budget'"),
    ({"sampling_budget": True}, "'sampling_budget'"),
    ({"subset_sizes": [True]}, "'subset_sizes'"),
    ({"aggregation": {"groups": {"image": ["x"]}}}, "'groups'"),
    ({"aggregation": {"groups": {"image": None}}}, "'groups'"),
    ({"aggregation": {"weights": {"image": True}}}, "'weights'"),
    ({"aggregation": {"weights": {"image": "2"}}}, "'weights'"),
    ({"aggregation": {"weights": {"image": 10**400}}}, "'weights'"),
    ({"aggregation": {"bin_width": True}}, "'bin_width'"),
    ({"aggregation": {"bin_width": "2"}}, "'bin_width'"),
    ({"subset_size": [1]}, "'subset_size'"),
    ({"ks": [1, 1]}, "'ks' lists 1 more than once"),
    ({"subset_sizes": [2, 1, 2]}, "'subset_sizes' lists 2 more than once"),
])
def test_exit_code_2_for_malformed_config_value(bad, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"matrix": MATRIX, **bad}))
    code, _, err = run(capsys, "audit", "--config", str(cfg))
    assert code == 2
    assert "input error" in err and key in err


JSON_MATRIX = '{"models": %s, "tasks": ["t1"], "scores": [[1.0], %s], "metrics": {"t1": %s}}'
SIDECAR = ["aggregate", "--matrix", MATRIX, "--metrics", "{file}"]


# Each JSON input, written as text so that a literal such as 1e400 reaches the reader.
@pytest.mark.parametrize("text, argv, key", [
    ('{"tasks": {"image": {"weight": true}}}', SIDECAR, "'image': 'weight'"),
    ('{"tasks": {"image": {"weight": "2"}}}', SIDECAR, "'image': 'weight'"),
    ('{"tasks": {"image": {"weight": 1e400}}}', SIDECAR, "'image': 'weight'"),
    ('{"tasks": {"image": {"group": ["x"]}}}', [*SIDECAR, "--method", "macro_average"],
     "'image': 'group'"),
    ('{"tasks": {"image": {"random_baseline": -1e308, "human_reference": 1e308}}}',
     [*SIDECAR, "--normalize", "human"], "'image': human_reference - random_baseline"),
    (JSON_MATRIX % ('["a", "b"]', "[2.0]", '{"weight": "2"}'), ["aggregate", "--matrix", "{file}"],
     "'t1': 'weight'"),
    (JSON_MATRIX % ("[null, 1]", "[2.0]", "{}"), ["aggregate", "--matrix", "{file}"], "'models'"),
    (JSON_MATRIX % ('["a", "b"]', '["2.0"]', "{}"), ["aggregate", "--matrix", "{file}"],
     "'scores'"),
    ('{"datasets": {"d7": {"A": ["0.5", 0.6], "B": [0.5, 0.6]}}}',
     ["compare", "--replicates", "{file}"], "'d7': 'A'"),
    ('{"datasets": {"d7": {"A": [0.5, true, 0.7], "B": [0.5, 0.6]}}}',
     ["compare", "--replicates", "{file}"], "'d7': 'A'"),
    ('{"aggregation": {"bin_width": 1e400}}',
     ["aggregate", "--matrix", MATRIX, "--config", "{file}"], "'bin_width'"),
    ("{}", ["aggregate", "--matrix", MATRIX, "--bin-width", "inf"], "bin_width"),
    ("{}", ["audit", "--matrix", MATRIX, "--sizes", "1,1", "--ks", "1"],
     "'subset_sizes' lists 1 more than once"),
    ("{}", ["report", "--matrix", MATRIX, "--ks", "3,1,3"], "'ks' lists 3 more than once"),
    ('{"datasets": {}}', ["compare", "--replicates", "{file}"], "contains no datasets"),
    ('{"datasets": {"d7": {"A": [0.5, 0.6], "B": [0.5, 0.7]}}}',
     ["compare", "--replicates", "{file}", "--alpha", "1.5"], "alpha must be in (0, 1)"),
    ("{}", ["simulate-reuse", "--n", "10", "--i-schedule", "5", "--trials", "0"],
     "trials must be >= 1"),
    ("{}", ["simulate-reuse", "--n", "10", "--i-schedule", "0"],
     "query budgets must be >= 1, got [0]"),
    ("{}", ["simulate-reuse", "--n", "10", "--i-schedule", "10,10"],
     "'schedule' lists 10 more than once"),
    ("{}", ["simulate-reuse", "--n", "10", "--i-schedule", "5", "--mechanism", "naive",
            "--step", "-1"], "ladder step must be positive and finite, got -1.0"),
    ("{}", ["report", "--matrix", MATRIX, "--ks", ","], "'ks' needs at least one k"),
    ('{"ks": []}', ["audit", "--matrix", MATRIX, "--config", "{file}"],
     "'ks' needs at least one k"),
    ('{"datasets": {"d7": {"A": [0.5], "B": [0.5, 0.6]}}}',
     ["compare", "--replicates", "{file}"], "'d7'"),
], ids=["sidecar-weight-true", "sidecar-weight-string", "sidecar-weight-1e400",
        "sidecar-group-list", "sidecar-baseline-span", "matrix-inline-metrics",
        "matrix-model-ids", "matrix-cell-string", "replicate-string", "replicate-true",
        "config-bin-width-1e400", "flag-bin-width-inf", "flag-sizes-repeated",
        "flag-ks-repeated-report", "replicates-no-datasets", "flag-alpha-1.5",
        "flag-trials-0", "flag-i-schedule-0", "flag-i-schedule-repeated",
        "flag-step-naive-negative", "flag-ks-empty", "config-ks-empty",
        "replicates-one-replicate"])
def test_exit_code_2_for_malformed_json_value(text, argv, key, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, _, err = run(capsys, *[str(path) if arg == "{file}" else arg for arg in argv])
    assert code == 2
    assert "input error" in err and key in err


@pytest.mark.parametrize("entry", [{"A": [0.5, 0.6], "B": []}, {"A": "12", "B": [0.5, 0.6]}])
def test_exit_code_2_for_bad_replicate_list(entry, tmp_path, capsys):
    path = tmp_path / "reps.json"
    path.write_text(json.dumps({"datasets": {"d7": entry}}))
    code, _, err = run(capsys, "compare", "--replicates", str(path))
    assert code == 2
    assert "'d7'" in err


@pytest.mark.parametrize("last, argv, key", [
    (None, ["--bootstrap-n", "10"], "bootstrap_n must be >= 1000, got 10"),
    ({"A": [0.5, 0.6], "B": [0.5]}, [], "'d8': 'B': expected at least 2 replicates, got 1"),
], ids=["bootstrap-n-10", "one-replicate-side-last"])
def test_compare_refuses_before_any_permutation_test(last, argv, key, replicates_file,
                                                     monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("per_dataset_tests called")

    monkeypatch.setattr("rankaudit.cli.per_dataset_tests", never)
    if last is not None:
        doc = json.loads(Path(replicates_file).read_text())
        doc["datasets"]["d8"] = last
        Path(replicates_file).write_text(json.dumps(doc))
    code, _, err = run(capsys, "compare", "--replicates", replicates_file, *argv)
    assert code == 2
    assert key in err


@pytest.mark.parametrize("which", ["matrix", "metrics", "config"])
def test_exit_code_2_for_non_utf8_input(which, tmp_path, capsys):
    files = {"matrix": b"model,t1\na,1\n", "metrics": b'{"tasks": {"t1": {}}}',
             "config": b'{"normalize": "none"}'}
    # well-formed apart from one byte that is not UTF-8
    files[which] = {"matrix": b"model,t\x80\na,1\n", "metrics": b'{"tasks": {"t\x80": {}}}',
                    "config": b'{"normalize": "n\x80ne"}'}[which]
    paths = {name: tmp_path / name for name in files}
    for name, data in files.items():
        paths[name].write_bytes(data)
    code, _, err = run(capsys, "aggregate", "--matrix", str(paths["matrix"]),
                       "--metrics", str(paths["metrics"]), "--config", str(paths["config"]))
    assert code == 2
    assert "input error" in err and "utf-8" in err.lower()


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
@pytest.mark.parametrize("which", ["csv matrix", "json matrix", "metrics"])
def test_encoded_inputs_give_the_outputs_of_utf8_ones(which, encoding, tmp_path, capsys):
    m = load_matrix(Path(MATRIX).read_bytes(), "csv", load_metrics(Path(METRICS).read_bytes()))
    files = {"csv matrix": ("m.csv", Path(MATRIX).read_text()),
             "json matrix": ("m.json", save_matrix(m, "json")),
             "metrics": ("metrics.json", Path(METRICS).read_text())}
    docs, hashes = [], []
    for name, codec in [("plain", "utf-8"), ("encoded", encoding)]:
        directory = tmp_path / name
        directory.mkdir()
        paths = {}
        for key, (filename, text) in files.items():
            paths[key] = directory / filename
            paths[key].write_bytes(text.encode(codec if key == which else "utf-8"))
        matrix = paths["json matrix" if which == "json matrix" else "csv matrix"]
        code, stdout, _ = run(capsys, "report", "--matrix", str(matrix),
                              "--metrics", str(paths["metrics"]), "--format", "json")
        assert code == 0
        doc = json.loads(stdout)
        hashes.append(doc["provenance"].pop("inputs"))
        docs.append(doc)
    assert docs[0] == docs[1]
    assert sorted(hashes[0].values()) != sorted(hashes[1].values())


@pytest.mark.parametrize("command", ["corr", "aggregate"])
@pytest.mark.parametrize("audit_only", [{"ks": [2, 2]}, {"subset_sizes": [1, 1]}, {"ks": []},
                                        {"ks": [0]}, {"subset_sizes": [0]},
                                        {"sampling_budget": 0}])
def test_corr_and_aggregate_ignore_the_audit_only_keys(command, audit_only, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(audit_only))
    outputs = [run(capsys, command, "--matrix", MATRIX, *extra, "--format", "json")
               for extra in ([], ["--config", str(config)])]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("which", ["config", "replicates", "matrix", "metrics"])
def test_exit_code_2_for_json_nested_too_deeply(which, tmp_path, capsys):
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"tasks": %s}' % deep if which == "metrics" else deep)
    argv = {"config": ["aggregate", "--matrix", MATRIX, "--config", str(path)],
            "replicates": ["compare", "--replicates", str(path)],
            "matrix": ["aggregate", "--matrix", str(path)],
            "metrics": ["aggregate", "--matrix", MATRIX, "--metrics", str(path)]}[which]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "input error" in err and "JSON nested too deeply" in err


def test_matrix_format_flag_overrides_extension(tmp_path, capsys):
    as_json = tmp_path / "matrix.dat"
    as_json.write_text(json.dumps(
        {"models": ["a", "b"], "tasks": ["t1"], "scores": [[2.0], [1.0]]}
    ))
    code, stdout, _ = run(
        capsys, "aggregate", "--matrix", str(as_json), "--matrix-format", "json",
        "--format", "json",
    )
    assert code == 0
    table = next(s for s in json.loads(stdout)["sections"] if s["title"].startswith("Ranking"))
    assert [row[1] for row in table["table"]["rows"]] == ["a", "b"]
    # without the flag the .dat extension falls back to CSV and fails to parse
    code, _, _ = run(capsys, "aggregate", "--matrix", str(as_json))
    assert code == 2


def test_exit_code_2_for_missing_file(capsys):
    code, _, err = run(capsys, "audit", "--matrix", "/nonexistent.csv")
    assert code == 2
    assert "error" in err


def test_exit_code_2_for_bad_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,t1\na,1\n")
    code, _, err = run(capsys, "audit", "--matrix", str(bad))
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("doc, key", [
    ({"models": "ab", "tasks": ["t1"], "scores": [[1.0], [2.0]]}, "'models'"),
    ({"models": ["a"], "tasks": 5, "scores": [[1.0]]}, "'tasks'"),
])
def test_exit_code_2_for_json_matrix_ids_not_arrays(doc, key, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "aggregate", "--matrix", str(path))
    assert code == 2
    assert "input error" in err and key in err


# "\r" in a field is written unquoted by csv.writer and splits the row when
# the file is read back, so an id with a line break is refused at the input.
@pytest.mark.parametrize("name, text, named", [
    ("m.csv", 'model,t1,t2\n"a\rb",1,2\nc,2,1\n', "model id 'a\\rb'"),
    ("m.csv", 'model,"t\n1",t2\na,1,2\nc,2,1\n', "task id 't\\n1'"),
    ("m.json", json.dumps({"models": ["a\nb", "c"], "tasks": ["t1"], "scores": [[1], [2]]}),
     "model id 'a\\nb'"),
    ("m.json", json.dumps({"models": ["a", "c"], "tasks": ["t\r1"], "scores": [[1], [2]]}),
     "task id 't\\r1'"),
])
def test_exit_code_2_for_a_matrix_id_with_a_line_break(name, text, named, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(text.encode())
    code, _, err = run(capsys, "aggregate", "--matrix", str(path), "--format", "csv")
    assert code == 2
    assert "input error" in err and named in err


@pytest.mark.parametrize("command", ["audit", "aggregate", "corr", "report"])
@pytest.mark.parametrize("name, text, named", [
    pytest.param("m.csv", "model,t1,t2\n", "no models", id="csv-header-only"),
    pytest.param("m.json", json.dumps({"models": [], "tasks": ["t1", "t2"], "scores": []}),
                 "no models", id="json-no-models"),
    pytest.param("m.json", json.dumps({"models": ["a", "b"], "tasks": [], "scores": [[], []]}),
                 "no tasks", id="json-no-tasks"),
])
def test_exit_code_2_for_a_matrix_without_models_or_tasks(command, name, text, named,
                                                         tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    code, _, err = run(capsys, command, "--matrix", str(path))
    assert code == 2
    assert "input error" in err and named in err


def test_exit_code_2_for_a_dataset_id_with_a_line_break(tmp_path, capsys):
    path = tmp_path / "replicates.json"
    sides = {"A": [0.7, 0.71], "B": [0.8, 0.81]}
    path.write_text(json.dumps({"datasets": {"d0": sides, "d\r1": sides}}))
    code, _, err = run(capsys, "compare", "--replicates", str(path))
    assert code == 2
    assert "input error" in err and "dataset id 'd\\r1'" in err


def test_ids_with_commas_and_quotes_stay_legal_and_quoted(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text('model,"t,1",t2\n"a,b",1,2\n"say ""hi""",2,1\n')
    code, stdout, _ = run(capsys, "aggregate", "--matrix", str(path), "--format", "csv")
    assert code == 0
    assert '"say ""hi"""' in stdout
    assert [row[1] for row in csv.reader(stdout.splitlines())][1:] == ["a,b", 'say "hi"']


@pytest.mark.parametrize("command", ["audit", "corr", "aggregate", "report"])
@pytest.mark.parametrize("aggregation, named", [
    ({"method": "arithmetic_mean", "weights": {"T1": 10.0}}, "weights name task 'T1'"),
    ({"method": "macro_average", "groups": {"t1": "g", "t2": "g", "t9": "h"}},
     "groups name task 't9'"),
])
def test_exit_code_2_for_weights_or_groups_of_an_unknown_task(command, aggregation, named,
                                                              tmp_path, capsys):
    matrix, cfg = tmp_path / "m.csv", tmp_path / "cfg.json"
    matrix.write_text("model,t1,t2\nA,1,0\nB,0,1\n")
    cfg.write_text(json.dumps({"matrix": str(matrix), "aggregation": aggregation}))
    code, _, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert "input error" in err and named in err


def test_exit_code_2_for_non_integer_budget_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--matrix", MATRIX, "--budget", "2.5"])
    assert exc.value.code == 2
    assert "--budget: invalid int value: '2.5'" in capsys.readouterr().err


def test_exit_code_2_for_subset_count_past_int64(tmp_path, capsys):
    # C(70, 35) > 2**63: the subsets cannot be ranked in int64, sampled or not
    wide = tmp_path / "wide.csv"
    wide.write_text("model," + ",".join(f"t{j}" for j in range(70)) + "\n" + "".join(
        f"m{i}," + ",".join(str((i * j) % 7) for j in range(70)) + "\n" for i in range(5)))
    code, stdout, err = run(capsys, "audit", "--matrix", str(wide), "--sizes", "35",
                            "--budget", "50")
    assert code == 2 and stdout == ""
    assert f"C(70, 35) = {comb(70, 35)} subsets of size 35" in err
    assert "2**63" in err and "Traceback" not in err


@pytest.mark.parametrize("command, n_tasks, sizes, message", [
    ("audit", 5, ["--sizes", "1,99"], "subset size must be in [1, 5], got 99"),
    # every size 1..70 by default; C(70, 26) is the first count past 2**63
    ("report", 70, [], f"C(70, 26) = {comb(70, 26)} subsets of size 26"),
])
def test_exit_code_2_for_a_bad_size_before_any_size_is_scored(command, n_tasks, sizes, message,
                                                              tmp_path, capsys, monkeypatch):
    def scoring(*args):
        raise AssertionError("a subset size was scored")

    monkeypatch.setattr(rankaudit.rankstats, "_subset_codes", scoring)
    path = tmp_path / "m.csv"
    path.write_text("model," + ",".join(f"t{j}" for j in range(n_tasks)) + "\n" + "".join(
        f"m{i}," + ",".join(str((i * j) % 7) for j in range(n_tasks)) + "\n" for i in range(5)))
    code, stdout, err = run(capsys, command, "--matrix", str(path), *sizes)
    assert code == 2 and stdout == ""
    assert message in err and "Traceback" not in err


def test_exit_code_2_for_bad_cell(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("model,t1\na,xyz\n")
    code, _, err = run(capsys, "audit", "--matrix", str(bad))
    assert code == 2


def test_exit_code_3_for_missing_scores(tmp_path, capsys):
    holey = tmp_path / "holey.csv"
    holey.write_text("model,t1,t2\na,1,\nb,2,3\n")
    code, _, err = run(capsys, "aggregate", "--matrix", str(holey))
    assert code == 3
    assert "computation error" in err


def test_exit_code_3_for_geometric_domain_error(tmp_path, capsys):
    bad = tmp_path / "neg.csv"
    bad.write_text("model,t1,t2\na,1,0\nb,2,3\n")
    code, _, err = run(
        capsys, "aggregate", "--matrix", str(bad), "--method", "geometric_mean",
    )
    assert code == 3


def test_exit_code_3_for_human_normalize_overflow(tmp_path, capsys):
    # Every input is finite; (1e308 - -1e308) / (0 - -1e308) overflows.
    matrix, metrics = tmp_path / "m.csv", tmp_path / "metrics.json"
    matrix.write_text("model,t1\na,1e308\nb,0\n")
    metrics.write_text('{"tasks": {"t1": {"random_baseline": -1e308, "human_reference": 0}}}')
    code, out, err = run(capsys, "aggregate", "--matrix", str(matrix), "--metrics", str(metrics),
                         "--normalize", "human")
    assert code == 3 and out == ""
    assert "computation error" in err and "model 'a', task 't1'" in err


def test_exit_code_3_for_replicate_sum_overflow(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"datasets": {"d0": {"A": [1e308, 1e308], "B": [1.0, 2.0]}}}))
    code, _, err = run(capsys, "compare", "--replicates", str(path))
    assert code == 3
    assert "computation error" in err and "'d0'" in err and "model A" in err


def test_exit_code_3_for_reassignment_sum_overflow(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"datasets": {
        "d0": {"A": [1.0, 2.0], "B": [1.5, 2.5]},
        "d1": {"A": [1e308, -1e308], "B": [1e308, -1e308]},
    }}))
    code, out, err = run(capsys, "compare", "--replicates", str(path))
    assert code == 3 and out == ""
    assert "computation error" in err and "'d1'" in err


def test_exit_code_3_when_out_of_memory(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 1.86 GiB for an array with shape (20000, 100000)")

    monkeypatch.setattr(rankaudit.cli, "simulate", exhausted)
    code, out, err = run(capsys, "simulate-reuse", "--n", "100000", "--i-schedule", "20000",
                         "--trials", "1", "--format", "csv")
    assert code == 3 and out == ""
    assert err == ("rankaudit: computation error: out of memory: Unable to allocate 1.86 GiB "
                   "for an array with shape (20000, 100000)\n")


def test_provenance_hash_tracks_input_bytes(tmp_path, capsys):
    m1 = tmp_path / "m1.csv"
    m1.write_text("model,t1\na,1\nb,2\n")
    code, out1, _ = run(capsys, "aggregate", "--matrix", str(m1), "--format", "json")
    prov1 = json.loads(out1)["provenance"]["inputs"]
    m1.write_text("model,t1\na,1\nb,3\n")
    code, out2, _ = run(capsys, "aggregate", "--matrix", str(m1), "--format", "json")
    prov2 = json.loads(out2)["provenance"]["inputs"]
    assert prov1 != prov2


# -- option precedence and provenance -----------------------------------------------


def _provenance(stdout):
    prov = json.loads(stdout)["provenance"]
    return {**prov["options"], "seed": prov["seed"], "inputs": sorted(prov["inputs"])}


# Each option that both a flag and the config can set: (config entries, flags,
# the resolved value the provenance shows).  The flag wins.
PRECEDENCE = {
    "matrix": ({"matrix": "{other}"}, ["--matrix", MATRIX], {"inputs": [MATRIX]}),
    "metrics": ({"metrics": "{other}"}, ["--metrics", METRICS],
                {"inputs": sorted([MATRIX, METRICS])}),
    "method": ({"aggregation": {"method": "median"}}, ["--method", "average_rank"],
               {"aggregation": "average_rank"}),
    "bin_width": ({"aggregation": {"bin_width": 2.0}}, ["--bin-width", "0.5"],
                  {"bin_width": 0.5}),
    "sizes": ({"subset_sizes": [1]}, ["--sizes", "2,3"], {"sizes": [2, 3]}),
    "empty-sizes": ({"subset_sizes": [1]}, ["--sizes", ""], {"sizes": [1]}),
    "ks": ({"ks": [1]}, ["--ks", "2"], {"ks": [2]}),
    "budget": ({"sampling_budget": 7}, ["--budget", "3"], {"sampling_budget": 3}),
    "seed": ({"seed": 3}, ["--seed", "0"], {"seed": 0}),
    "normalize": ({"normalize": "orient"}, ["--normalize", "none"], {"normalize": "none"}),
}


@pytest.mark.parametrize("option", list(PRECEDENCE))
def test_flag_overrides_config(option, tmp_path, capsys):
    entries, flags, resolved = PRECEDENCE[option]
    other = tmp_path / "other"
    other.write_text("model,t1\na,1\n")
    doc = json.loads(json.dumps({"matrix": MATRIX, **entries}).replace("{other}", str(other)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "audit", "--config", str(cfg), *flags, "--format", "json")
    assert code == 0
    shown = _provenance(stdout)
    assert {key: shown[key] for key in resolved} == resolved


def test_flag_overrides_config_format_out_and_zero_budget(tmp_path, capsys):
    matrix = tmp_path / "scores.json"  # CSV under a JSON name
    matrix.write_text(Path(MATRIX).read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"matrix": str(matrix), "matrix_format": "json",
                               "out": str(tmp_path / "cfg-out"), "sampling_budget": 7}))
    code, _, _ = run(capsys, "aggregate", "--config", str(cfg))
    assert code == 2  # the config's format reads the CSV as JSON
    code, _, _ = run(capsys, "aggregate", "--config", str(cfg), "--matrix-format", "csv",
                     "--out", str(tmp_path / "flag-out"))
    assert code == 0
    assert (tmp_path / "flag-out" / "ranking.json").is_file()
    assert not (tmp_path / "cfg-out").exists()
    # --budget 0 is given, so it overrides the config's 7 and fails its check
    code, _, err = run(capsys, "audit", "--config", str(cfg), "--matrix-format", "csv",
                       "--budget", "0")
    assert code == 2 and "sampling budget must be >= 1, got 0" in err


SIX_BY_FIVE = "model,a,b,c,d,e\nm0,2,2,2,1,2\nm1,2,0,1,1,0\nm2,1,2,1,0,2\n" \
              "m3,0,1,1,2,0\nm4,2,1,0,2,2\nm5,2,1,2,2,1\n"
GROUPS = {"text": "g1", "retrieval": "g1", "listops": "g1", "image": "g1", "pathfinder": "g2"}


# Two runs of one command that differ in one option: (command, common argv,
# first run's extra argv or config, second run's).
PROVENANCE_CASES = {
    # C(5, 2) = 10: budget 3 samples, budget 10 is exhaustive
    "report-budget": ("report", ["--matrix", "{six}", "--sizes", "2", "--ks", "1"],
                      ["--budget", "3"], ["--budget", "10"]),
    "aggregate-topk": ("aggregate", ["--matrix", MATRIX], ["--topk", "1"], ["--topk", "2"]),
    "corr-bin-width": ("corr", ["--matrix", MATRIX, "--method", "robust_average_rank"],
                       ["--bin-width", "1"], ["--bin-width", "20"]),
    "audit-weights": ("audit", ["--matrix", MATRIX, "--ks", "1,3"],
                      {}, {"aggregation": {"weights": {"listops": 100.0}}}),
    "aggregate-groups": ("aggregate", ["--matrix", MATRIX],
                         {"aggregation": {"method": "macro_average", "groups": GROUPS}},
                         {"aggregation": {"method": "macro_average",
                                          "groups": {**GROUPS, "retrieval": "g2"}}}),
}


@pytest.mark.parametrize("case", list(PROVENANCE_CASES))
def test_output_changing_option_changes_provenance(case, tmp_path, capsys):
    command, argv, *variants = PROVENANCE_CASES[case]
    six = tmp_path / "six.csv"
    six.write_text(SIX_BY_FIVE)
    argv = [str(six) if arg == "{six}" else arg for arg in argv]
    runs = []
    for i, extra in enumerate(variants):
        if isinstance(extra, dict):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps(extra))
            extra = ["--config", str(cfg)]
        outputs = []
        for fmt in ("json", "csv"):
            code, stdout, _ = run(capsys, command, *argv, *extra, "--format", fmt)
            assert code == 0
            outputs.append(stdout)
        doc = json.loads(outputs[0])
        options = doc.pop("provenance")["options"]
        runs.append(((doc, outputs[1]), options))
    (first_body, first_options), (second_body, second_options) = runs
    assert first_body != second_body
    assert first_options != second_options
