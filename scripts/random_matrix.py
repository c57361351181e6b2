#!/usr/bin/env python3
"""Write a seeded synthetic score matrix as CSV, the input of the wide CI checks.

Scores are `numpy.random.default_rng(0).random((MODELS, TASKS))`, or
`default_rng(0).integers(0, HIGH, size=(MODELS, TASKS))` when HIGH is
given.  Models are named m0, m1, ..., tasks t0, t1, ...; each score is
written as `str` of its Python value.

Run:
    python scripts/random_matrix.py wide.csv 50 20
    python scripts/random_matrix.py ties.csv 50 16 101
"""

from __future__ import annotations

import argparse

import numpy as np


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="path of the CSV to write")
    parser.add_argument("models", type=int)
    parser.add_argument("tasks", type=int)
    parser.add_argument("high", type=int, nargs="?",
                        help="draw integer scores in [0, HIGH) instead of floats in [0, 1)")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    shape = (args.models, args.tasks)
    scores = rng.random(shape) if args.high is None else rng.integers(0, args.high, size=shape)
    rows = ["model," + ",".join(f"t{j}" for j in range(args.tasks))]
    rows += [f"m{i}," + ",".join(map(str, r)) for i, r in enumerate(scores.tolist())]
    with open(args.out, "w") as f:
        f.write("\n".join(rows) + "\n")


if __name__ == "__main__":
    main()
