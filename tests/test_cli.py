import json
from datetime import datetime, timedelta, timezone
from math import comb

import numpy as np
import pytest

import rankaudit.report
from rankaudit.cli import main
from rankaudit.fixtures import fixture_path

MATRIX = str(fixture_path("lra_scores.csv"))
METRICS = str(fixture_path("lra_metrics.json"))


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
    # Numpy's pairwise sum of eight values (the permutation test's observed
    # difference) does not depend on the order.
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


def test_simulate_reuse_bound_annotation(capsys):
    code, stdout, _ = run(
        capsys, "simulate-reuse", "--n", "100", "--i-schedule", "100",
        "--trials", "1", "--format", "csv",
    )
    assert code == 0
    row = stdout.strip().splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(1.0)


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
              {"text": "audit.txt", "json": "audit.json", "csv": "audit_curve.csv"}),
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
    ({"subset_sizes": [True]}, "'subset_sizes'"),
])
def test_exit_code_2_for_malformed_config_value(bad, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"matrix": MATRIX, **bad}))
    code, _, err = run(capsys, "audit", "--config", str(cfg))
    assert code == 2
    assert "input error" in err and key in err


@pytest.mark.parametrize("entry", [{"A": [0.5, 0.6], "B": []}, {"A": "12", "B": [0.5, 0.6]}])
def test_exit_code_2_for_bad_replicate_list(entry, tmp_path, capsys):
    path = tmp_path / "reps.json"
    path.write_text(json.dumps({"datasets": {"d7": entry}}))
    code, _, err = run(capsys, "compare", "--replicates", str(path))
    assert code == 2
    assert "'d7'" in err


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


def test_exit_code_3_for_replicate_sum_overflow(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"datasets": {"d0": {"A": [1e308, 1e308], "B": [1.0, 2.0]}}}))
    code, _, err = run(capsys, "compare", "--replicates", str(path))
    assert code == 3
    assert "computation error" in err and "'d0'" in err and "model A" in err


def test_provenance_hash_tracks_input_bytes(tmp_path, capsys):
    m1 = tmp_path / "m1.csv"
    m1.write_text("model,t1\na,1\nb,2\n")
    code, out1, _ = run(capsys, "aggregate", "--matrix", str(m1), "--format", "json")
    prov1 = json.loads(out1)["provenance"]["inputs"]
    m1.write_text("model,t1\na,1\nb,3\n")
    code, out2, _ = run(capsys, "aggregate", "--matrix", str(m1), "--format", "json")
    prov2 = json.loads(out2)["provenance"]["inputs"]
    assert prov1 != prov2
