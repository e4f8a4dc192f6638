#!/usr/bin/env python3
"""Empirical coverage of the plug-in deviation bounds.

For each bias setting, draws the counts of many training samples, not
their records: one group count each in class shift and PU, cell and bin
counts in stratum shift.  It measures the sup gap between count-plug-in
and exact-rate weighting over a threshold grid, and reports how often
the gap stays under the matching bound (the guarantee is 1 - delta; the
bounds are loose, so expect ~1.0).

Usage: python scripts/run_coverage_study.py [n] [reps]
"""

import sys

from werm.analytic import AnalyticModel
from werm.bounds import coverage_check
from werm.synthetic import StratifiedThresholdModel


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    reps = int(sys.argv[2]) if len(sys.argv) > 2 else 500
    delta, eps = 0.1, 0.3
    model = AnalyticModel(alpha=1.0, beta=1.0, p=0.3)

    runs = [
        (
            "class shift",
            coverage_check(
                "class_shift", model, n=n, delta=delta, reps=reps, seed=41,
                p_train=0.6, epsilon=eps,
            ),
        ),
        (
            "stratum shift",
            coverage_check(
                "stratum_shift",
                StratifiedThresholdModel(pos_rates=(0.2, 0.4, 0.6, 0.8)),
                n=n, delta=delta, reps=reps, seed=42,
                pk=[0.25] * 4, pk_train=[0.4, 0.3, 0.2, 0.1], epsilon=eps,
            ),
        ),
        (
            "pu",
            coverage_check(
                "pu", model, n=n, delta=delta, reps=reps, seed=43,
                q=0.4, epsilon=eps,
            ),
        ),
    ]
    print(f"n={n} reps={reps} delta={delta} epsilon={eps}")
    for name, res in runs:
        print(
            f"{name:14s} coverage {res.coverage:.3f}  bound {res.bound_value:.4f}  "
            f"max deviation {res.deviations.max():.4f}  valid_n {res.valid}"
        )


if __name__ == "__main__":
    main()
