"""Seeded synthetic data generators used by experiments and coverage checks.

All generators draw through ``np.random.default_rng(seed)`` and are
deterministic per seed.  The stratum-conditional laws depend only on the
generator's parameters, never on the stratum probabilities used for a
particular draw, so resampling with different stratum distributions is a
pure stratum-shift: the within-stratum feature/label laws stay fixed.

Strata are drawn by inverse CDF: one ``rng.random`` uniform per record,
located in the normalised cumulative stratum probabilities.  That is how
``Generator.choice`` draws with ``p``, so the uniforms and the ids are
the ones ``choice`` gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, ValidationError, _check_count, _check_distribution, _check_real


def _draw_strata(rng: np.random.Generator, pk, n: int, name: str = "pk") -> np.ndarray:
    """n stratum ids ~ pk by inverse CDF over ``rng.random(n)``; the same
    draws as ``rng.choice(pk.size, size=n, p=pk)``.  ``pk``, named ``name``
    in the error, must sum to 1 within 1e-9."""
    cdf = _check_distribution(pk, name, 1e-9).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(n), side="right")


@dataclass(frozen=True)
class GaussianStrataSpec:
    """K-strata, J-class planar Gaussian mixture.

    Class j has a base mean on a circle of radius ``class_radius`` at
    angle 2*pi*j/J; stratum k rotates the whole class layout by
    k * rotation_deg degrees.  Labels are uniform within every stratum,
    so strata differ only in where the classes sit: a model trained on a
    skewed stratum mix places its boundaries for the dominant rotations.
    """

    n_strata: int = 5
    n_classes: int = 3
    class_radius: float = 2.0
    rotation_deg: float = 22.5
    noise: float = 1.0

    def __post_init__(self):
        _check_count(self.n_strata, "n_strata", 1)
        _check_count(self.n_classes, "n_classes", 2)
        _check_real(self.noise, "noise", "(0, inf)")
        for value in (self.class_radius, self.rotation_deg):
            _check_real(value, "class_radius and rotation_deg")


def gaussian_strata_sample(
    spec: GaussianStrataSpec, n: int, pk, seed
) -> Dataset:
    """n records with strata ~ pk, uniform labels, Gaussian features."""
    if np.size(pk) != spec.n_strata:
        raise ValidationError("pk must be a distribution over the strata")
    _check_count(n, "n", 1)
    rng = np.random.default_rng(seed)
    strata = _draw_strata(rng, pk, n)
    labels = rng.integers(spec.n_classes, size=n)
    angles = 2.0 * np.pi * labels / spec.n_classes + np.deg2rad(
        spec.rotation_deg * strata
    )
    means = spec.class_radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    feats = means + spec.noise * rng.standard_normal((n, 2))
    return Dataset(
        features=feats,
        labels=labels,
        strata=strata,
        n_classes=spec.n_classes,
        n_strata=spec.n_strata,
    )


@dataclass(frozen=True)
class StratifiedThresholdModel:
    """1-d stratified source for deviation studies: X ~ U[0,1] in every
    stratum, with a stratum-specific positive-label rate."""

    pos_rates: tuple[float, ...]

    def __post_init__(self):
        rates = np.asarray(self.pos_rates, dtype=float)
        if rates.ndim != 1 or rates.size == 0:
            raise ValidationError("pos_rates must be a nonempty vector")
        if not ((rates > 0) & (rates < 1)).all():
            raise ValidationError("pos_rates must lie in (0, 1)")

    @property
    def n_strata(self) -> int:
        return len(self.pos_rates)

    def sample(self, n: int, pk_train, seed) -> Dataset:
        if np.size(pk_train) != self.n_strata:
            raise ValidationError("pk_train length must match the strata count")
        _check_count(n, "n", 1)
        rng = np.random.default_rng(seed)
        strata = _draw_strata(rng, pk_train, n, "pk_train")
        rates = np.asarray(self.pos_rates)[strata]
        labels = (rng.random(n) < rates).astype(int)
        x = rng.random(n)
        return Dataset(
            features=x[:, None],
            labels=labels,
            strata=strata,
            n_classes=2,
            n_strata=self.n_strata,
        )


# ---------------------------------------------------------------------------
# Right-censored durations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensoredSpec:
    """Scalar covariate x ~ U[0,1]; event time exponential with
    log-rate ``slope * (x - 0.5)``; independent exponential censoring with
    rate ``censor_rate``.  The classification target is whether the event
    happens by ``horizon``.  Long durations are censored more often, so
    the uncensored subsample over-represents early events; IPCW undoes
    that."""

    slope: float = 1.5
    censor_rate: float = 0.5
    horizon: float = 1.0

    def __post_init__(self):
        _check_real(self.slope, "slope")
        for name in ("censor_rate", "horizon"):
            _check_real(getattr(self, name), name, "(0, inf)")
        with np.errstate(over="ignore"):  # an overflow reads inf, which the rule refuses
            for x in (0.0, 1.0):  # the two ends of x's range bound the rate
                _check_real(self.event_rate(x), f"event_rate exp(slope * {x - 0.5:g})", "(0, inf)")

    def event_rate(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.slope * (x - 0.5))

    def survival_before(self, t) -> np.ndarray:
        """Censoring survival S_c(t-), equal to S_c(t) as the law is continuous."""
        return np.exp(-self.censor_rate * np.asarray(t, dtype=float))


def censored_train_sample(spec: CensoredSpec, n: int, seed) -> Dataset:
    """Training view: (x, observed time, event flag) plus the horizon label
    computed from the observed time (meaningful only where event=1; the
    weighting schemes give censored records zero weight)."""
    _check_count(n, "n", 1)
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    y_time = rng.exponential(1.0 / spec.event_rate(x))
    c_time = rng.exponential(1.0 / spec.censor_rate, size=n)
    observed = np.minimum(y_time, c_time)
    event = y_time <= c_time
    labels = (observed <= spec.horizon).astype(int)
    return Dataset(
        features=x[:, None],
        labels=labels,
        times=observed,
        events=event,
        n_classes=2,
    )


def censored_test_sample(spec: CensoredSpec, n: int, seed) -> Dataset:
    """Test view: uncensored durations, labels = event by the horizon."""
    _check_count(n, "n", 1)
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    y_time = rng.exponential(1.0 / spec.event_rate(x))
    labels = (y_time <= spec.horizon).astype(int)
    return Dataset(features=x[:, None], labels=labels, n_classes=2)

