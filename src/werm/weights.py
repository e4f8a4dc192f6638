"""Plug-in importance-weight estimators for four sample-selection-bias settings.

Every estimator returns a :class:`~werm.core.WeightVector` scaled so that
``(1/n) * sum_i w_i * loss_i`` evaluated by :func:`werm.core.weighted_empirical_risk`
equals the intended reweighted objective; count-based plug-ins therefore
carry a factor n (w_i = n * rate / count).

Settings
--------
class shift
    Train and test share class-conditional feature laws but differ in the
    positive rate; the likelihood ratio depends on the label only.
stratum shift
    Same, with strata in place of labels: w_i = n * p_k / n_k for the
    record's stratum k, where p_k is the known test stratum probability.
positive-unlabeled
    Training data pools labeled positives (label 1) with unlabeled
    records (label 0); weights 2*p*n/n_pos and n/n_unl make the weighted
    0/1 risk an estimate of the test risk up to the constant offset -p
    (see :func:`pu_risk_offset`).
right censoring
    Records carry an observed duration and an event flag; uncensored
    records are weighted by the inverse of the estimated censoring
    survival just before their time (IPCW), censored records get zero.
    The censoring survival is a marginal Kaplan-Meier estimate; the
    artifact assumes test-side durations are never censored, which is an
    assumption about the data, not something the code can check.

``oracle_*`` variants return the exact likelihood-ratio weights for a
known generating mechanism; they exist so experiments can separate
estimation error from the effect of reweighting itself.

:func:`setting` is the one place that names, for each of the paper's
settings with a closed-form test bed (``class_shift``, ``pu`` and
``stratum_shift``), its model type, training-rate name, sampler, plug-in
and oracle.  ``bounds.coverage_check`` draws its replicates through it,
and the experiment runner its class_shift and pu training sets.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import analytic, synthetic
from .core import (
    Dataset,
    DegenerateClassError,
    EmptyStratumError,
    PositivityViolationError,
    SchemaError,
    ValidationError,
    WeightVector,
    _check_distribution,
    _check_rate,
    write_rows,
)


@dataclass(frozen=True)
class TargetPrior:
    """Known test-side information.

    p
        Test positive rate, in (0, 1).
    pk
        Test stratum probabilities: finite, nonnegative, summing to 1
        within 1e-12.  (A single stratum with pk = [1.0] is legitimate.)
    """

    p: float | None = None
    pk: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.p is not None:
            _check_rate(self.p, "p")
        if self.pk is not None:
            pk = _check_distribution(self.pk, "pk", 1e-12)
            object.__setattr__(self, "pk", tuple(float(v) for v in pk))

    def pk_array(self) -> np.ndarray:
        if self.pk is None:
            raise ValidationError("prior has no stratum probabilities")
        return np.asarray(self.pk, dtype=float)


# ---------------------------------------------------------------------------
# Label / stratum plug-ins
# ---------------------------------------------------------------------------


def _check_binary(data: Dataset) -> None:
    if data.labels is None:
        raise SchemaError("dataset has no labels")
    if data.labels.max() > 1:
        raise SchemaError("binary labels required")


def _populated_counts(data: Dataset, prior: TargetPrior, what: str) -> tuple[int, int]:
    """(n_pos, n_neg) of binary data whose two classes are both populated;
    ``what`` names the weights in the error for a missing prior.p."""
    if prior.p is None:
        raise ValidationError(f"{what} need prior.p")
    _check_binary(data)
    n_pos = data.n_pos
    n_neg = data.n - n_pos
    if n_pos == 0:
        raise DegenerateClassError(1)
    if n_neg == 0:
        raise DegenerateClassError(0)
    return n_pos, n_neg


def class_shift_weights(data: Dataset, prior: TargetPrior) -> WeightVector:
    """w_i = n*p/n_pos for label 1, n*(1-p)/n_neg for label 0.

    The weight vector has mean exactly 1 whenever both classes are
    populated; empty classes raise :class:`DegenerateClassError`.
    """
    n_pos, n_neg = _populated_counts(data, prior, "class shift weights")
    n = data.n
    w_pos = n * prior.p / n_pos
    w_neg = n * (1.0 - prior.p) / n_neg
    return WeightVector(np.array([w_neg, w_pos])[data.labels])


def stratum_shift_weights(data: Dataset, prior: TargetPrior) -> WeightVector:
    """w_i = n * p_k / n_k for the record's stratum k."""
    if data.strata is None:
        raise SchemaError("dataset has no strata")
    pk = prior.pk_array()
    if data.n_strata > pk.size:
        raise SchemaError(
            f"dataset has {data.n_strata} strata but prior gives {pk.size}"
        )
    counts = np.bincount(data.strata, minlength=pk.size)
    for k in np.flatnonzero((pk > 0) & (counts == 0)):
        raise EmptyStratumError(int(k))
    per_stratum = np.zeros(pk.size)
    populated = counts > 0
    per_stratum[populated] = data.n * pk[populated] / counts[populated]
    return WeightVector(per_stratum[data.strata])


def pu_weights(data: Dataset, prior: TargetPrior) -> WeightVector:
    """w_i = 2*p*n/n_pos for labeled positives, n/n_unl for unlabeled.

    With the plain 0/1 classification loss, ``(1/n) * sum w_i * loss_i``
    estimates the test risk shifted by the constant +p; add
    :func:`pu_risk_offset` to recover the risk estimate itself.
    """
    n_pos, n_unl = _populated_counts(data, prior, "PU weights")
    n = data.n
    w_pos = 2.0 * prior.p * n / n_pos
    w_unl = n / n_unl
    return WeightVector(np.array([w_unl, w_pos])[data.labels])


def pu_risk_offset(prior: TargetPrior) -> float:
    """The constant -p completing the PU risk estimate."""
    if prior.p is None:
        raise ValidationError("PU offset needs prior.p")
    return -prior.p


# ---------------------------------------------------------------------------
# Oracle (exact likelihood-ratio) weights
# ---------------------------------------------------------------------------


def oracle_class_shift_weights(data: Dataset, p: float, p_train: float) -> WeightVector:
    """Exact class-shift weights p/p_train and (1-p)/(1-p_train)."""
    _check_rate(p, "p")
    _check_rate(p_train, "p_train")
    _check_binary(data)
    return WeightVector(np.array([(1.0 - p) / (1.0 - p_train), p / p_train])[data.labels])


def oracle_stratum_shift_weights(data: Dataset, pk, pk_train) -> WeightVector:
    """Exact stratum-shift weights p_k / p_train_k."""
    if data.strata is None:
        raise SchemaError("dataset has no strata")
    pk = np.asarray(pk, dtype=float)
    pk_train = np.asarray(pk_train, dtype=float)
    if pk.shape != pk_train.shape:
        raise ValidationError("pk and pk_train must have equal length")
    if np.any((pk > 0) & (pk_train <= 0)):
        raise ValidationError("pk_train must be positive wherever pk is")
    ratio = np.zeros(pk.size)
    pos = pk_train > 0
    ratio[pos] = pk[pos] / pk_train[pos]
    return WeightVector(ratio[data.strata])


def oracle_pu_weights(data: Dataset, p: float, q: float) -> WeightVector:
    """Exact PU weights 2p/q for labeled positives and 1/(1-q) for unlabeled."""
    _check_rate(p, "p")
    _check_rate(q, "q")
    _check_binary(data)
    return WeightVector(np.array([1.0 / (1.0 - q), 2.0 * p / q])[data.labels])


Setting = namedtuple("Setting", "model_type rate sampler plug_in oracle")


def setting(name: str) -> Setting:
    """class_shift, pu or stratum_shift as its model type, training-rate
    name, ``sampler(model, n, rate, seed)``, ``plug_in(data, prior)`` and
    ``oracle(data, target, rate)``, target being the prior's p or pk.  Each
    function is read at call time, so a rebinding reaches every caller."""
    strata_model = synthetic.StratifiedThresholdModel
    table = {
        "class_shift": (analytic.AnalyticModel, "p_train", analytic.sample,
                        class_shift_weights, oracle_class_shift_weights),
        "pu": (analytic.AnalyticModel, "q", analytic.sample_pu, pu_weights, oracle_pu_weights),
        "stratum_shift": (strata_model, "pk_train", strata_model.sample,
                          stratum_shift_weights, oracle_stratum_shift_weights),
    }
    if name not in table:
        raise ValidationError(f"unknown setting {name!r}")
    return Setting(*table[name])


# ---------------------------------------------------------------------------
# Kaplan-Meier and IPCW
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KmCurve:
    """Product-limit survival estimate as a right-continuous step function.

    ``times`` holds the sorted distinct times at which the estimate drops
    (times with events only); ``survival[j]`` is S(times[j]).  Before the
    first drop S = 1.
    """

    times: np.ndarray
    survival: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.survival, dtype=float)
        if t.shape != s.shape or t.ndim != 1:
            raise ValidationError("times and survival must be equal-length vectors")
        if t.size and np.any(np.diff(t) <= 0):
            raise ValidationError("times must be strictly increasing")
        if s.size and (np.any(np.diff(s) > 1e-15) or s.min() < 0 or s.max() > 1):
            raise ValidationError("survival must be nonincreasing within [0, 1]")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "survival", s)

    def survival_at(self, t) -> np.ndarray:
        """S(t), right-continuous."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right")
        return np.concatenate(([1.0], self.survival))[idx]

    def survival_before(self, t) -> np.ndarray:
        """Left limit S(t-)."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="left")
        return np.concatenate(([1.0], self.survival))[idx]

    def to_csv(self, path) -> None:
        write_rows(path, ["t", "s"], [self.times, self.survival])


def km_fit(times, events) -> KmCurve:
    """Kaplan-Meier product-limit estimator.

    ``events[i]`` is True when ``times[i]`` is an observed event of the
    distribution being estimated, False when it is censored for that
    purpose.  At tied times events are processed before censorings, i.e.
    records censored at t still count as at risk for events at t.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    if t.ndim != 1 or t.shape != e.shape:
        raise ValidationError("times and events must be equal-length vectors")
    if t.size == 0:
        raise ValidationError("empty survival input")
    if not np.all(np.isfinite(t)) or t.min() < 0:
        raise ValidationError("times must be finite and >= 0")

    n = t.size
    order = np.argsort(t, kind="stable")
    t_sorted = t[order]
    e_sorted = e[order]
    uniq, start = np.unique(t_sorted, return_index=True)
    d = np.add.reduceat(e_sorted.astype(int), start)  # events per distinct time
    at_risk = n - start  # everyone with time >= uniq[j]
    drop = d > 0
    factors = 1.0 - d[drop] / at_risk[drop]
    return KmCurve(times=uniq[drop], survival=np.cumprod(factors))


def ipcw_weights(data: Dataset, km: KmCurve) -> WeightVector:
    """w_i = event_i / S_cens(t_i-) with S_cens the censoring survival.

    ``km`` must be fitted on the censoring distribution, i.e. with the
    event indicator flipped: ``km_fit(times, ~events)``.  Censored
    records get weight 0; an uncensored record whose censoring survival
    has already hit zero raises :class:`PositivityViolationError`.
    """
    if data.times is None:
        raise SchemaError("dataset has no survival fields")
    w = np.zeros(data.n)
    unc = np.flatnonzero(data.events)
    if unc.size:
        s = km.survival_before(data.times[unc])
        bad = np.flatnonzero(s <= 0.0)
        if bad.size:
            raise PositivityViolationError(int(unc[bad[0]]))
        w[unc] = 1.0 / s
    return WeightVector(w)
