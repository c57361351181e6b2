#!/usr/bin/env python3
"""Monte-Carlo calibration for the holdout-reuse acceptance thresholds.

The reuse acceptance test freezes three numbers at n=1000, i=3000 over
100 paired trials:

  * naive mean reported accuracy must exceed 0.5 + 1.5/sqrt(n)
  * naive mean fresh-label accuracy must stay within 0.5 +- 3/(2 sqrt(n))
  * ladder (step 0.02) mean reported-true gap must be at most half of
    the naive gap

This script runs the seeded grid of `rankaudit simulate-reuse --mechanism
both` (same n, trials, step and seed, same means) and prints the observed
means with binomial-scale standard errors, so the margins behind those
frozen constants can be re-checked whenever the attack or the mechanisms change.

Run:
    python scripts/reuse_calibration.py --n 1000 --trials 100
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rankaudit.errors import InputError
from rankaudit.reuse import LADDER, NAIVE, simulate


def run_grid(n: int, trials: int, schedule: list[int], step: float, seed: int) -> None:
    grid = simulate(n, schedule, [NAIVE, LADDER], trials, seed, step)
    print(f"n={n}, trials={trials}, ladder step={step}, root seed={seed}")
    print(f"{'mech':8} {'i':>6} {'reported':>10} {'true':>10} {'gap':>10} "
          f"{'se':>8} {'sqrt(i/n)':>10}")
    gaps: dict[tuple[str, int], float] = {}
    for i in schedule:
        for mechanism in (NAIVE, LADDER):
            outcomes = [grid[mechanism, i, trial] for trial in range(trials)]
            mean_rep = sum(o.reported_accuracy for o in outcomes) / trials
            mean_true = sum(o.true_accuracy for o in outcomes) / trials
            gap = mean_rep - mean_true
            gaps[(mechanism, i)] = gap
            se = 0.5 / math.sqrt(n * trials)
            print(f"{mechanism:8} {i:>6} {mean_rep:>10.4f} {mean_true:>10.4f} "
                  f"{gap:>10.4f} {se:>8.4f} {math.sqrt(i / n):>10.3f}")
    print()
    inflation_floor = 0.5 + 1.5 / math.sqrt(n)
    truth_band = 3.0 / (2.0 * math.sqrt(n))
    print(f"frozen thresholds at n={n}: naive reported > {inflation_floor:.4f}, "
          f"|true - 0.5| <= {truth_band:.4f}, ladder gap <= naive gap / 2")
    for i in schedule:
        ratio = gaps[(LADDER, i)] / gaps[(NAIVE, i)] if gaps[(NAIVE, i)] else float("nan")
        print(f"  i={i}: ladder/naive gap ratio = {ratio:.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--schedule", default="100,400,1600,3000",
                        type=lambda text: [int(x) for x in text.split(",")])
    parser.add_argument("--step", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    try:
        run_grid(args.n, args.trials, args.schedule, args.step, args.seed)
    except InputError as exc:
        print(f"reuse_calibration: input error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
