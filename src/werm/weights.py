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
    0/1 risk an estimate of the test risk up to the constant offset -p.
right censoring
    Records carry an observed duration and an event flag; uncensored
    records are weighted by the inverse of the estimated censoring
    survival just before their time (IPCW), censored records get zero.
    The censoring survival is a marginal Kaplan-Meier estimate; the
    artifact assumes test-side durations are never censored, which is an
    assumption about the data, not something the code can check.

``oracle_*`` variants return the exact likelihood-ratio weights for a
known generating mechanism; they exist so experiments can separate
estimation error from the effect of reweighting itself.  In every setting
the oracle is the plug-in given the training law in place of its
estimate: the group table at the training group shares with n = 1, or
:func:`ipcw_weights` given the known censoring law.

:func:`modes` is the one table of reweighting modes, which the experiment
runner and the CLI both read; each ``experiment.SCENARIOS`` record names
the modes it runs.

:func:`setting` is the one place that names, for each of the paper's
settings with a closed-form test bed (``class_shift``, ``pu`` and
``stratum_shift``), its model type, training-rate name, group column,
sampler and oracle, its one group table and its deviation bound kind.
``bounds.coverage_check`` reads the table, and the experiment runner draws
its class_shift and pu training sets through the sampler.
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
    _check_real,
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
        :func:`class_shift_weights` reads them over the labels when p is None.
    """

    p: float | None = None
    pk: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.p is not None:
            _check_real(self.p, "p", "(0, 1)")
        if self.pk is not None:
            pk = _check_distribution(self.pk, "pk", 1e-12)
            object.__setattr__(self, "pk", tuple(float(v) for v in pk))

    def pk_array(self) -> np.ndarray:
        if self.pk is None:
            raise ValidationError("prior has no stratum probabilities")
        return np.asarray(self.pk, dtype=float)


# ---------------------------------------------------------------------------
# Group tables (see setting): one weight per label or stratum
# ---------------------------------------------------------------------------


def _per_group(counts, n: int, rates: np.ndarray, empty_error) -> np.ndarray:
    """n * rate / count for each group on the last axis of ``counts``: 0 for
    an empty group of rate 0, ``empty_error(group)`` for one of positive rate."""
    counts = np.asarray(counts)
    empty = (rates > 0) & (counts == 0)
    if empty.any():
        raise empty_error(int(np.argwhere(empty)[0, -1]))
    return np.divide(rates * n, counts, out=np.zeros(counts.shape), where=counts > 0)


def _shares(rate, name: str) -> np.ndarray:
    """The two-group law (1 - rate, rate) of a rate in (0, 1)."""
    _check_real(rate, name, "(0, 1)")
    return np.array([1.0 - rate, rate])


def _class_rates(prior: TargetPrior) -> np.ndarray:
    """The test class distribution: (1 - p, p), or pk when p is not given."""
    if prior.p is None and prior.pk is not None:
        return prior.pk_array()
    return _shares(prior.p, "prior.p")


def _class_shift_table(counts, n: int, prior: TargetPrior) -> np.ndarray:
    return _per_group(counts, n, _class_rates(prior), DegenerateClassError)


def _pu_table(counts, n: int, prior: TargetPrior) -> np.ndarray:
    _check_real(prior.p, "prior.p", "(0, 1)")
    return _per_group(counts, n, np.array([1.0, 2.0 * prior.p]), DegenerateClassError)


def _stratum_shift_table(counts, n: int, prior: TargetPrior) -> np.ndarray:
    return _per_group(counts, n, prior.pk_array(), EmptyStratumError)


def _groups(data: Dataset, column: str, size: int) -> np.ndarray:
    """``data``'s group column (``labels`` or ``strata``), refused unless its
    ids index a table of ``size`` groups."""
    groups = getattr(data, column)
    if groups is None:
        raise SchemaError(f"dataset has no {column}")
    found = data.n_strata if column == "strata" else int(groups.max()) + 1
    if found > size:
        raise SchemaError(f"dataset {column} take {found} values but the weights cover {size}")
    return groups


def _plug_in(data: Dataset, column: str, size: int, table, prior: TargetPrior,
             shares=None) -> WeightVector:
    """Each record's weight from ``table(counts, n, prior)`` of its group: at
    ``data``'s own group counts and n, or at the training law's ``shares``
    with n = 1, which is the exact ratio."""
    groups = _groups(data, column, size)
    counts, n = (np.bincount(groups, minlength=size), data.n) if shares is None else (shares, 1)
    return WeightVector(table(counts, n, prior)[groups])


def class_shift_weights(data: Dataset, prior: TargetPrior) -> WeightVector:
    """w_i = n * q_j / n_j for the record's label j, toward the test class
    distribution q: (1 - p, p) from ``prior.p``, so n*p/n_pos for label 1
    and n*(1-p)/n_neg for label 0; with no p, ``prior.pk`` over the labels.

    The weight vector has mean exactly 1 whenever every class of positive
    q is populated; an empty one raises :class:`DegenerateClassError`.
    """
    return _plug_in(data, "labels", _class_rates(prior).size, _class_shift_table, prior)


def stratum_shift_weights(data: Dataset, prior: TargetPrior) -> WeightVector:
    """w_i = n * p_k / n_k for the record's stratum k."""
    return _plug_in(data, "strata", prior.pk_array().size, _stratum_shift_table, prior)


def pu_weights(data: Dataset, prior: TargetPrior) -> WeightVector:
    """w_i = 2*p*n/n_pos for labeled positives, n/n_unl for unlabeled.

    With the plain 0/1 classification loss, ``(1/n) * sum w_i * loss_i``
    estimates the test risk shifted by the constant +p; subtract p to
    recover the risk estimate itself.
    """
    return _plug_in(data, "labels", 2, _pu_table, prior)


def oracle_class_shift_weights(data: Dataset, p: float, p_train: float) -> WeightVector:
    """Exact class-shift weights p/p_train and (1-p)/(1-p_train)."""
    _check_real(p, "p", "(0, 1)")
    return _plug_in(data, "labels", 2, _class_shift_table, TargetPrior(p=p),
                    _shares(p_train, "p_train"))


def oracle_stratum_shift_weights(data: Dataset, pk, pk_train) -> WeightVector:
    """Exact stratum-shift weights p_k / p_train_k; ``pk_train`` must be a
    distribution, as ``pk`` must."""
    prior = TargetPrior(pk=pk)
    pk, shares = prior.pk_array(), np.asarray(pk_train, dtype=float)
    if pk.shape != shares.shape:
        raise ValidationError("pk and pk_train must have equal length")
    if np.any((pk > 0) & (shares <= 0)):
        raise ValidationError("pk_train must be positive wherever pk is")
    _check_distribution(shares, "pk_train", 1e-9)
    return _plug_in(data, "strata", pk.size, _stratum_shift_table, prior, shares)


def oracle_pu_weights(data: Dataset, p: float, q: float) -> WeightVector:
    """Exact PU weights 2p/q for labeled positives and 1/(1-q) for unlabeled."""
    _check_real(p, "p", "(0, 1)")
    return _plug_in(data, "labels", 2, _pu_table, TargetPrior(p=p), _shares(q, "q"))


Setting = namedtuple("Setting", "model_type rate group sampler oracle plug_in_table bound")


def setting(name: str) -> Setting:
    """class_shift, pu or stratum_shift as its model type, training-rate
    name, group column (``labels`` or ``strata``), ``sampler(model, n, rate,
    seed)``, record oracle ``oracle(data, target, rate)``, target being the
    prior's p or pk, its group table ``plug_in_table(counts, n, prior)``,
    vectorised over the leading axes of the group counts, and the
    ``bounds.deviation_bound`` kind its coverage check tests.  As in all
    four settings, the oracle is the plug-in given the training law: this
    table at the training group shares with n = 1, as the censored oracle
    is :func:`ipcw_weights` at the known censoring law.  An empty group is
    named from the first row, in C order, that has one.  The record
    estimators, oracles included, index the table by each record's group.
    Each function is read at call time, so a rebinding reaches every
    caller; any other name raises ValidationError."""
    strata_model = synthetic.StratifiedThresholdModel
    table = {
        "class_shift": (analytic.AnalyticModel, "p_train", "labels", analytic.sample,
                        oracle_class_shift_weights, _class_shift_table, "approx1"),
        "pu": (analytic.AnalyticModel, "q", "labels", analytic.sample_pu, oracle_pu_weights,
               _pu_table, "approx3"),
        "stratum_shift": (strata_model, "pk_train", "strata", strata_model.sample,
                          oracle_stratum_shift_weights, _stratum_shift_table, "approx2"),
    }
    if not (isinstance(name, str) and name in table):
        raise ValidationError(f"unknown setting {name!r}; the settings are {', '.join(table)}")
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


def ipcw_weights(data: Dataset, km) -> WeightVector:
    """w_i = event_i / S_cens(t_i-) with S_cens the censoring survival.

    ``km`` is any censoring curve with ``survival_before(t)``: a
    :class:`KmCurve` ``km_fit(times, ~events)`` for the plug-in, the known
    law (a ``synthetic.CensoredSpec``) for the oracle.  Censored records get
    weight 0; an uncensored record whose censoring survival is zero raises
    :class:`PositivityViolationError`.
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


def censoring_curve(data: Dataset) -> KmCurve:
    """``km_fit`` of ``data``'s times with the censored records as events."""
    if data.times is None:
        raise SchemaError("reweighting mode 'ipcw' needs survival times and events (t, e)")
    return km_fit(data.times, ~data.events)


# ---------------------------------------------------------------------------
# The reweighting modes
# ---------------------------------------------------------------------------


def uniform_weights(data: Dataset, prior: TargetPrior | None = None) -> WeightVector:
    """All ones; on censored data the event flag, since a censored label is unseen."""
    if data.events is None:
        return WeightVector.ones(data.n)
    return WeightVector(data.events.astype(float))


Mode = namedtuple("Mode", "estimator prior")


def modes() -> dict[str, Mode]:
    """Each reweighting mode's ``estimator(data, prior)`` and the
    ``TargetPrior`` field it reads (``"p"``, ``"pk"`` or None):

    uniform  all ones; the event flag on censored data
    class    the labels toward the test class distribution, (1 - p, p) or
             pk (strata_shift: uniform classes); the unlabeled-as-negative
             baseline on pu data
    pu       positive-unlabeled weights toward p
    strata   the strata toward pk
    ipcw     inverse-probability-of-censoring weights, by Kaplan-Meier

    Each ``experiment.SCENARIOS`` record names the rows it runs, and the
    runner adds ``oracle``, each scenario's exact likelihood ratio, to
    separate estimation error from the effect of reweighting.  Estimators
    are read at call time, so a rebinding reaches every caller."""
    return {
        "uniform": Mode(uniform_weights, None),
        "class": Mode(class_shift_weights, "p"),
        "pu": Mode(pu_weights, "p"),
        "strata": Mode(stratum_shift_weights, "pk"),
        "ipcw": Mode(lambda data, prior: ipcw_weights(data, censoring_curve(data)), None),
    }
