#!/usr/bin/env python3
"""End-to-end demo on the bundled long-range benchmark fixture.

Runs the full fragility audit against the transcribed public per-task
accuracy table: the unique Top-3 curve over every subset size, the
per-subset Top-3 table, the per-task rank-correlation profile, and the
mean-vs-median agreement check.  Equivalent CLI invocations are printed
alongside each section.

Run:
    python scripts/lra_audit.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rankaudit import fixtures
from rankaudit.aggregate import AggregationSpec, aggregate
from rankaudit.rankstats import (
    aggregator_agreement,
    subset_tau_profile,
    unique_topk_audit,
)

MEAN = AggregationSpec("arithmetic_mean")


def main() -> int:
    m = fixtures.lra_matrix()
    print(f"fixture: {m.n_models} models x {m.n_tasks} tasks "
          f"({', '.join(m.task_ids)})\n")

    full = aggregate(m, None, MEAN)
    print("full-benchmark ranking (mean aggregation):")
    for mid in full.order():
        print(f"  {full.entries[mid]:>4.1f}  {mid}")
    print("\n# rankaudit aggregate --matrix lra_scores.csv --metrics lra_metrics.json\n")

    print("unique Top-3 outcomes per subset size (A distinct of B subsets):")
    audits = [unique_topk_audit(m, MEAN, size, 3) for size in range(1, m.n_tasks + 1)]
    for audit in audits:
        print(f"  size {audit.subset_size}: {audit.unique_count} / {audit.total_combinations}")
    print("\n# rankaudit audit --matrix ... --ks 3\n")

    print("Top-3 per single task:")
    for subset, tk in sorted(audits[0].per_subset_topk.items()):
        print(f"  {subset[0]:<12} {tk.render()}")
    print()

    profile = subset_tau_profile(m, MEAN, [(t,) for t in m.task_ids])
    taus = [tau for tau in profile.values() if tau is not None]
    print("per-task tau-b against the full ranking:")
    for (task,), tau in profile.items():
        print(f"  {task:<12} {tau:+.3f}")
    print(f"  mean tau-b: {sum(taus) / len(taus):+.3f}")
    print("\n# rankaudit corr --matrix ... --metrics ...\n")

    agreement = aggregator_agreement(
        m, [MEAN, AggregationSpec("median"), AggregationSpec("average_rank")]
    )
    print("scheme agreement (tau-b): mean vs median vs average-rank")
    for row in agreement:
        print("  " + "  ".join(f"{tau:+.3f}" for tau in row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
