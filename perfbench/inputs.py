"""Seeded inputs for the ``csv_cli`` workload.

Written with plain numpy and the ``csv`` module, never with werm's own
writers, so a change to werm cannot move the benchmark's input generation.
The same seed gives byte-identical files.  Floats are written with
``repr``, which reads back to the same value, so the arrays returned by
:func:`strata_columns` equal what werm parses from the file.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

STRATA_ROWS = 100_000
TEST_ROWS = 20_000
CENSORED_ROWS = 100_000
N_STRATA = 5
N_CLASSES = 3

STRATA_CSV = "strata.csv"
TEST_CSV = "test.csv"
CENSORED_CSV = "censored.csv"
PK_JSON = "pk.json"


def strata_columns(n: int, seed, stream: int):
    """Features, labels and strata of a 5-strata, 3-class planar mixture.

    The law matches ``werm.synthetic.GaussianStrataSpec()`` with uniform
    strata: class means on a circle of radius 2, rotated 22.5 degrees per
    stratum, unit Gaussian noise.
    """
    rng = np.random.default_rng([seed, stream])
    strata = rng.integers(N_STRATA, size=n)
    labels = rng.integers(N_CLASSES, size=n)
    angles = 2.0 * np.pi * labels / N_CLASSES + np.deg2rad(22.5 * strata)
    feats = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    feats += rng.standard_normal((n, 2))
    return feats, labels, strata


def censored_columns(n: int, seed):
    """x ~ U[0,1]; exponential event times with log-rate 1.5*(x-0.5);
    exponential censoring with rate 0.5; label = event by time 1."""
    rng = np.random.default_rng([seed, 3])
    x = rng.random(n)
    event_time = rng.exponential(1.0 / np.exp(1.5 * (x - 0.5)))
    censor_time = rng.exponential(2.0, size=n)
    observed = np.minimum(event_time, censor_time)
    events = (event_time <= censor_time).astype(int)
    labels = (observed <= 1.0).astype(int)
    return x, labels, observed, events


def _write(path: str, header: list[str], columns: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def _floats(arr) -> list[str]:
    return [repr(v) for v in arr.tolist()]


def _ints(arr) -> list[str]:
    return [str(v) for v in arr.tolist()]


def write_csv_cli_inputs(directory: str, seed: int) -> None:
    """Write the workload's CSVs and its stratum prior."""
    os.makedirs(directory, exist_ok=True)
    for name, n, stream in ((STRATA_CSV, STRATA_ROWS, 1), (TEST_CSV, TEST_ROWS, 2)):
        feats, labels, strata = strata_columns(n, seed, stream)
        _write(
            os.path.join(directory, name),
            ["x0", "x1", "y", "s"],
            [_floats(feats[:, 0]), _floats(feats[:, 1]), _ints(labels), _ints(strata)],
        )
    x, labels, observed, events = censored_columns(CENSORED_ROWS, seed)
    _write(
        os.path.join(directory, CENSORED_CSV),
        ["x0", "y", "t", "e"],
        [_floats(x), _ints(labels), _floats(observed), _ints(events)],
    )
    with open(os.path.join(directory, PK_JSON), "w") as fh:
        json.dump([1.0 / N_STRATA] * N_STRATA, fh)
