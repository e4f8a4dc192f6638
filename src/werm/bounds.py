"""Generalization and plug-in deviation bounds as evaluable formulas.

Excess-risk bounds (:func:`evaluate_bound`):

    lemma1      4*phi_sup*E[Rad] + 2*phi_sup*L*sqrt(2*log(1/delta)/n)
    corollary1  (2*max(p,1-p)/eps) * (2*E[Rad] + sqrt(2*log(2/delta)/n))
                    + (4/eps^2) * sqrt(log(4/delta)/(2n))
    theorem1    (2*max_pk/eps) * (2*E[Rad] + L*sqrt(2*log(2/delta)/n))
                    + (4L/eps^2) * sqrt(log(4K/delta)/(2n))
    theorem2    (2*max(2p,1)/eps) * (2*E[Rad] + sqrt(2*log(2/delta)/n))
                    + (4(2p+1)/eps^2) * sqrt(log(4/delta)/(2n))

Plug-in deviation bounds (:func:`deviation_bound`), controlling the gap
between count-plug-in and exact-rate weighting uniformly over the
hypothesis grid:

    approx1     (2/eps^2) * sqrt(log(2/delta)/(2n))        [class shift]
    approx2     (2L/eps^2) * sqrt(log(2K/delta)/(2n))      [stratum shift]
    approx3     (2(2p+1)/eps^2) * sqrt(log(2/delta)/(2n))  [PU]

Each statement carries a sample-size condition (reported as
``required_n``; ``valid`` flags whether n meets it) and every bound is
reported with its constituent terms so experiments can show which one
dominates.  eps is the separation margin: all group rates are assumed to
lie in (eps, 1-eps), and every bound blows up as eps -> 0.

Rademacher averages are estimated by Monte Carlo over an explicit finite
hypothesis grid; no combinatorial-dimension machinery is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .core import Dataset, LossSpec, ValidationError, per_record_losses
from .synthetic import StratifiedThresholdModel
from .weights import (
    TargetPrior,
    class_shift_weights,
    oracle_class_shift_weights,
    oracle_pu_weights,
    oracle_stratum_shift_weights,
    pu_weights,
    stratum_shift_weights,
)

__all__ = [
    "BoundInputs",
    "BoundResult",
    "CoverageResult",
    "evaluate_bound",
    "deviation_bound",
    "prior_sensitivity_bound",
    "rademacher_mc",
    "coverage_check",
    "EXCESS_BOUND_KINDS",
    "DEVIATION_BOUND_KINDS",
]

EXCESS_BOUND_KINDS = ("lemma1", "corollary1", "theorem1", "theorem2")
DEVIATION_BOUND_KINDS = ("approx1", "approx2", "approx3")

_RADEMACHER_BLOCK = 1024


@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by the bound formulas; unused fields may stay None."""

    n: int
    delta: float
    epsilon: float | None = None
    L: float = 1.0
    phi_sup: float | None = None
    p: float | None = None
    max_pk: float | None = None
    K: int | None = None
    rademacher: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError("delta must lie in (0, 1)")
        if self.epsilon is not None and not 0.0 < self.epsilon < 0.5:
            raise ValidationError("epsilon must lie in (0, 1/2)")
        if self.L < 0:
            raise ValidationError("L must be >= 0")
        if self.phi_sup is not None and self.phi_sup < 0:
            raise ValidationError("phi_sup must be >= 0")
        if self.p is not None and not 0.0 < self.p < 1.0:
            raise ValidationError("p must lie in (0, 1)")
        if self.max_pk is not None and not 0.0 < self.max_pk <= 1.0:
            raise ValidationError("max_pk must lie in (0, 1]")
        if self.K is not None and self.K < 1:
            raise ValidationError("K must be >= 1")
        if self.rademacher < 0:
            raise ValidationError("rademacher must be >= 0")


@dataclass(frozen=True)
class BoundResult:
    """Evaluated bound: total value, named terms, and validity."""

    value: float
    valid: bool
    terms: dict[str, float]
    required_n: float


def _require(inputs: BoundInputs, kind: str, *fields: str) -> None:
    for f in fields:
        if getattr(inputs, f) is None:
            raise ValidationError(f"bound kind {kind!r} needs field {f!r}")


def _hoeffding_radius(log_arg: float, n: int) -> float:
    return math.sqrt(math.log(log_arg) / (2.0 * n))


def _result(terms: dict[str, float], required_n: float, n: int) -> BoundResult:
    return BoundResult(
        value=float(sum(terms.values())),
        valid=bool(n >= required_n),
        terms=terms,
        required_n=float(required_n),
    )


def evaluate_bound(kind: str, inputs: BoundInputs) -> BoundResult:
    """Excess-risk bound of the given kind at the given inputs."""
    n, delta, eps, rad = inputs.n, inputs.delta, inputs.epsilon, inputs.rademacher
    if kind == "lemma1":
        _require(inputs, kind, "phi_sup")
        terms = {
            "complexity": 4.0 * inputs.phi_sup * rad,
            "deviation": 2.0
            * inputs.phi_sup
            * inputs.L
            * math.sqrt(2.0 * math.log(1.0 / delta) / n),
        }
        return _result(terms, required_n=1.0, n=n)
    if kind == "corollary1":
        _require(inputs, kind, "p", "epsilon")
        lead = 2.0 * max(inputs.p, 1.0 - inputs.p) / eps
        terms = {
            "estimation": lead * (2.0 * rad + math.sqrt(2.0 * math.log(2.0 / delta) / n)),
            "plug_in": (4.0 / eps**2) * _hoeffding_radius(4.0 / delta, n),
        }
        return _result(terms, required_n=2.0 * math.log(4.0 / delta) / eps**2, n=n)
    if kind == "theorem1":
        _require(inputs, kind, "max_pk", "epsilon", "K")
        lead = 2.0 * inputs.max_pk / eps
        terms = {
            "estimation": lead
            * (2.0 * rad + inputs.L * math.sqrt(2.0 * math.log(2.0 / delta) / n)),
            "plug_in": (4.0 * inputs.L / eps**2)
            * _hoeffding_radius(4.0 * inputs.K / delta, n),
        }
        return _result(
            terms, required_n=2.0 * math.log(4.0 * inputs.K / delta) / eps**2, n=n
        )
    if kind == "theorem2":
        _require(inputs, kind, "p", "epsilon")
        lead = 2.0 * max(2.0 * inputs.p, 1.0) / eps
        terms = {
            "estimation": lead * (2.0 * rad + math.sqrt(2.0 * math.log(2.0 / delta) / n)),
            "plug_in": (4.0 * (2.0 * inputs.p + 1.0) / eps**2)
            * _hoeffding_radius(4.0 / delta, n),
        }
        return _result(terms, required_n=2.0 * math.log(4.0 / delta) / eps**2, n=n)
    raise ValidationError(f"unknown bound kind {kind!r}")


def deviation_bound(kind: str, inputs: BoundInputs) -> BoundResult:
    """Plug-in-vs-exact weighting deviation bound of the given kind."""
    n, delta, eps = inputs.n, inputs.delta, inputs.epsilon
    if kind == "approx1":
        _require(inputs, kind, "epsilon")
        value = (2.0 / eps**2) * _hoeffding_radius(2.0 / delta, n)
        required = 2.0 * math.log(2.0 / delta) / eps**2
    elif kind == "approx2":
        _require(inputs, kind, "epsilon", "K")
        value = (2.0 * inputs.L / eps**2) * _hoeffding_radius(2.0 * inputs.K / delta, n)
        required = 2.0 * math.log(2.0 * inputs.K / delta) / eps**2
    elif kind == "approx3":
        _require(inputs, kind, "epsilon", "p")
        value = (2.0 * (2.0 * inputs.p + 1.0) / eps**2) * _hoeffding_radius(
            2.0 / delta, n
        )
        required = 2.0 * math.log(2.0 / delta) / eps**2
    else:
        raise ValidationError(f"unknown deviation bound kind {kind!r}")
    return _result({"deviation": value}, required_n=required, n=n)


def prior_sensitivity_bound(zeta: float) -> float:
    """Bound 2*zeta on the risk change from using a prior within zeta of
    the true positive rate."""
    if zeta < 0:
        raise ValidationError("zeta must be >= 0")
    return 2.0 * zeta


# ---------------------------------------------------------------------------
# Monte-Carlo Rademacher averages
# ---------------------------------------------------------------------------


def _loss_matrix(data: Dataset, hypothesis_grid, loss: LossSpec) -> np.ndarray:
    return np.stack([per_record_losses(data, loss, h) for h in hypothesis_grid])


def _rademacher_samples(loss_matrix: np.ndarray, reps: int, seed):
    """Yield per-replicate max statistics block by block.

    Blocks of fixed size are seeded from (seed, block index), so the
    stream is reproducible for any block-aligned work split.
    """
    _, n = loss_matrix.shape
    done = 0
    block_index = 0
    while done < reps:
        b = min(_RADEMACHER_BLOCK, reps - done)
        rng = np.random.default_rng(np.random.SeedSequence((seed, block_index)))
        sigma = rng.integers(0, 2, size=(b, n)) * 2.0 - 1.0
        yield np.abs(loss_matrix @ sigma.T).max(axis=0) / n
        done += b
        block_index += 1


def rademacher_mc(
    data: Dataset, hypothesis_grid, loss: LossSpec, reps: int, seed
) -> float:
    """Monte-Carlo Rademacher average of the loss class over a finite grid.

    Averages, over ``reps`` sign draws, the maximum over the grid of
    |(1/n) * sum_i sigma_i * loss_i|.  Deterministic per seed.
    """
    mean, _ = _rademacher_mc_detail(data, hypothesis_grid, loss, reps, seed)
    return mean


def _rademacher_mc_detail(data, hypothesis_grid, loss, reps, seed):
    grid = list(hypothesis_grid)
    if not grid:
        raise ValidationError("hypothesis grid must be nonempty")
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    M = _loss_matrix(data, grid, loss)
    total = 0.0
    total_sq = 0.0
    for vals in _rademacher_samples(M, reps, seed):
        total += vals.sum()
        total_sq += (vals**2).sum()
    mean = total / reps
    var = max(total_sq / reps - mean**2, 0.0)
    return float(mean), float(math.sqrt(var))


# ---------------------------------------------------------------------------
# Empirical coverage of the deviation bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageResult:
    """Fraction of replicates whose sup deviation stayed under the bound."""

    coverage: float
    bound_value: float
    required_n: float
    valid: bool
    reps: int
    deviations: np.ndarray


def _sup_threshold_deviation(data: Dataset, diffs: np.ndarray, grid: np.ndarray) -> float:
    """sup over the theta grid of |(1/n) sum_i diffs_i * loss_i(theta)|,
    for the positive-above threshold loss."""
    x = data.features[:, 0]
    pos = data.labels == 1
    out = np.zeros(grid.size)
    for mask, flip in ((pos, False), (~pos, True)):
        xs = x[mask]
        ds = diffs[mask]
        order = np.argsort(xs)
        xs = xs[order]
        cum = np.concatenate(([0.0], np.cumsum(ds[order])))
        below = cum[np.searchsorted(xs, grid, side="left")]  # sum over x < theta
        out += (cum[-1] - below) if flip else below
    return float(np.abs(out).max() / data.n)


def coverage_check(
    setting: str,
    model,
    n: int,
    delta: float,
    reps: int,
    seed,
    *,
    p_train: float | None = None,
    q: float | None = None,
    pk=None,
    pk_train=None,
    epsilon: float | None = None,
    grid_size: int = 101,
) -> CoverageResult:
    """Empirical coverage of the plug-in deviation bound for a setting.

    Over ``reps`` training draws, computes the sup over a fixed theta
    grid of |plug-in weighted risk - exact-rate weighted risk| and the
    fraction of replicates where it stays below the matching deviation
    bound.  The contract is coverage >= 1 - delta; the bounds are loose,
    so coverage near 1 is the norm.  Replicate r draws its seed from
    (seed, r), making results independent of any work split.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    grid = np.linspace(0.0, 1.0, grid_size)

    if setting == "class_shift":
        if p_train is None:
            raise ValidationError("class_shift coverage needs p_train")
        eps = epsilon if epsilon is not None else min(p_train, 1.0 - p_train)
        bound = deviation_bound(
            "approx1", BoundInputs(n=n, delta=delta, epsilon=eps)
        )
        prior = TargetPrior(p=model.p)

        def one(rep_seed):
            data = analytic.sample(model, n, p_train, rep_seed)
            w_hat = class_shift_weights(data, prior)
            w_star = oracle_class_shift_weights(data, model.p, p_train)
            return _sup_threshold_deviation(data, w_hat.weights - w_star.weights, grid)

    elif setting == "stratum_shift":
        if pk is None or pk_train is None:
            raise ValidationError("stratum_shift coverage needs pk and pk_train")
        pk = np.asarray(pk, dtype=float)
        pk_train = np.asarray(pk_train, dtype=float)
        if not isinstance(model, StratifiedThresholdModel):
            raise ValidationError("stratum_shift coverage needs a StratifiedThresholdModel")
        eps = (
            epsilon
            if epsilon is not None
            else float(np.minimum(pk_train, 1.0 - pk_train).min())
        )
        bound = deviation_bound(
            "approx2", BoundInputs(n=n, delta=delta, epsilon=eps, K=pk.size, L=1.0)
        )
        prior = TargetPrior(pk=tuple(pk))

        def one(rep_seed):
            data = model.sample(n, pk_train, rep_seed)
            w_hat = stratum_shift_weights(data, prior)
            w_star = oracle_stratum_shift_weights(data, pk, pk_train)
            return _sup_threshold_deviation(data, w_hat.weights - w_star.weights, grid)

    elif setting == "pu":
        if q is None:
            raise ValidationError("pu coverage needs q")
        eps = epsilon if epsilon is not None else min(q, 1.0 - q)
        bound = deviation_bound(
            "approx3", BoundInputs(n=n, delta=delta, epsilon=eps, p=model.p)
        )
        prior = TargetPrior(p=model.p)

        def one(rep_seed):
            data = analytic.sample_pu(model, n, q, rep_seed)
            w_hat = pu_weights(data, prior)
            w_star = oracle_pu_weights(data, model.p, q)
            return _sup_threshold_deviation(data, w_hat.weights - w_star.weights, grid)

    else:
        raise ValidationError(f"unknown coverage setting {setting!r}")

    deviations = np.array(
        [one(np.random.SeedSequence((seed, r))) for r in range(reps)]
    )
    coverage = float(np.mean(deviations <= bound.value))
    return CoverageResult(
        coverage=coverage,
        bound_value=bound.value,
        required_n=bound.required_n,
        valid=bound.valid,
        reps=reps,
        deviations=deviations,
    )
