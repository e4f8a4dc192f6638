"""A fixed reference job that tells how fast the host runs right now.

On a shared host the speed of one core swings by half within seconds to
minutes, and every workload slows with it.  The set-up probes run this
job twice between passes, and run.py divides the fastest pass by the
fastest reference job of the same run, so that the ratio cancels the
host's speed.  The job mirrors werm's mix of interpreter work and small
numpy calls (a softmax regression in batches of 1000 rows) but uses no
werm code: a change to werm cannot move it, and it must not change while
it serves as the yardstick.
"""

from __future__ import annotations

import time

import numpy as np


def reference_seconds(epochs: int = 250) -> float:
    """Wall time of a fixed amount of batch softmax-regression work."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5000, 2))
    y = rng.integers(3, size=5000)
    W = rng.standard_normal((2, 3)) * 0.01
    rows = np.arange(1000)
    for _ in range(epochs):
        order = rng.permutation(5000)
        for s in range(0, 5000, 1000):
            idx = order[s : s + 1000]
            Xb, yb = X[idx], y[idx]
            z = Xb @ W
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            p[rows, yb] -= 1.0
            W = W - 0.01 * (Xb.T @ p) / 1000
        ranks = np.argsort(-(X @ W), axis=1, kind="stable")
        float(np.mean(ranks[:, 0] == y))
    return time.perf_counter() - start
