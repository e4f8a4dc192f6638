"""Closed-form binary test bed on [0, 1] with power-shaped class densities.

The positive class has density (1+alpha) * x**alpha and the negative
class (1+beta) * (1-x)**beta, with test positive rate p.  For a
threshold rule that predicts the positive class at or above theta, the
exact risk is

    R(theta) = p * theta**(1+alpha) + (1-p) * (1-theta)**(1+beta)

which this module evaluates, minimizes, and samples from.  It is the
ground-truth oracle behind every statistical test in the repo: risks are
exact, optimal thresholds are exact (or solved to 1e-10), and samplers
use inverse-CDF draws.  The per-record loss of that rule is the
``threshold-sign`` loss of :mod:`werm.core` (a record at x == theta is
predicted positive); its population mean is exactly R(theta).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import Dataset, ValidationError, _as_float, _check_count, _check_real


BISECTION_TOL = 1e-10
BISECTION_MAX_ITER = 200


@dataclass(frozen=True)
class AnalyticModel:
    """Exponents (alpha, beta) and test positive rate p."""

    alpha: float
    beta: float
    p: float

    def __post_init__(self):
        for value in (self.alpha, self.beta):
            _check_real(value, "alpha and beta", "[0, inf)")
        _check_real(self.p, "p", "(0, 1)")


def true_risk(m: AnalyticModel, theta: float) -> float:
    """Exact risk p*theta^(1+alpha) + (1-p)*(1-theta)^(1+beta)."""
    if not 0.0 <= _as_float(theta) <= 1.0:
        raise ValidationError(f"theta={theta} outside [0, 1]")
    return m.p * theta ** (1.0 + m.alpha) + (1.0 - m.p) * (1.0 - theta) ** (
        1.0 + m.beta
    )


def _risk_slope(m: AnalyticModel, theta: float) -> float:
    """d/dtheta of the risk; theta^0 is read as 1 so alpha=0 stays finite."""
    up = m.p * (1.0 + m.alpha) * (theta**m.alpha if m.alpha > 0 else 1.0)
    down = (1.0 - m.p) * (1.0 + m.beta) * ((1.0 - theta) ** m.beta if m.beta > 0 else 1.0)
    return up - down


def optimal_threshold(m: AnalyticModel) -> float:
    """Risk-minimizing threshold, by bisection on the risk derivative.

    The derivative is strictly increasing, so the sign change brackets a
    unique interior root whenever one exists; otherwise the minimizing
    endpoint is returned.  With alpha = beta = 0 the risk is linear in
    theta: the sign of the slope picks an endpoint, and at p = 1/2 every
    theta is optimal -- 0.5 is returned with a warning.
    """
    if m.alpha == 0.0 and m.beta == 0.0:
        slope = 2.0 * m.p - 1.0
        if slope == 0.0:
            warnings.warn(
                "risk is constant in theta; minimizer is non-unique, returning 0.5",
                stacklevel=2,
            )
            return 0.5
        return 1.0 if slope < 0 else 0.0
    if _risk_slope(m, 0.0) >= 0.0:
        return 0.0
    if _risk_slope(m, 1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if _risk_slope(m, mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= BISECTION_TOL:
            break
    return 0.5 * (lo + hi)


def closed_form_threshold(m: AnalyticModel) -> float:
    """Exact optimal threshold for the exponent pairs that admit one.

    Supported pairs: (1/2, 1/2) -> (1-p)^2 / (p^2 + (1-p)^2),
    (1, 1) -> 1-p, and (2, 2) -> sqrt(1-p) / (sqrt(p) + sqrt(1-p)).
    """
    p = m.p
    if (m.alpha, m.beta) == (0.5, 0.5):
        return (1 - p) ** 2 / (p**2 + (1 - p) ** 2)
    if (m.alpha, m.beta) == (1.0, 1.0):
        return 1.0 - p
    if (m.alpha, m.beta) == (2.0, 2.0):
        return np.sqrt(1 - p) / (np.sqrt(p) + np.sqrt(1 - p))
    raise ValidationError(f"no closed form for (alpha, beta)=({m.alpha}, {m.beta})")


def excess_error(m: AnalyticModel, p_train: float) -> float:
    """Test-risk gap R(theta*_train) - R(theta*_test); nonnegative."""
    _check_real(p_train, "p_train", "(0, 1)")
    theta_train = optimal_threshold(replace(m, p=p_train))
    theta_test = optimal_threshold(m)
    gap = true_risk(m, theta_train) - true_risk(m, theta_test)
    # Root tolerance can leave a ~1e-20 negative residue near the minimum.
    return gap if gap > 0.0 else 0.0


# ---------------------------------------------------------------------------
# Samplers (inverse CDF, deterministic per seed)
# ---------------------------------------------------------------------------


def _draw(m: AnalyticModel, u: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Each record's feature by the inverse CDF of its own class: u^(1/(1+alpha))
    for a positive, 1 - u^(1/(1+beta)) for a negative."""
    x = np.empty_like(u)
    x[positive] = u[positive] ** (1.0 / (1.0 + m.alpha))
    x[~positive] = 1.0 - u[~positive] ** (1.0 / (1.0 + m.beta))
    return x


def sample(m: AnalyticModel, n: int, class_rate: float, seed) -> Dataset:
    """n records with Bernoulli(class_rate) labels and inverse-CDF features."""
    _check_count(n, "n", 1)
    _check_real(class_rate, "class_rate", "(0, 1)")
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < class_rate).astype(int)
    x = _draw(m, rng.random(n), labels == 1)
    return Dataset(features=x[:, None], labels=labels, n_classes=2)


def sample_pu(m: AnalyticModel, n: int, q: float, seed) -> Dataset:
    """Positive-unlabeled sample: with rate q a labeled positive drawn from
    the positive class, otherwise an unlabeled draw from the marginal."""
    _check_count(n, "n", 1)
    _check_real(q, "q", "(0, 1)")
    rng = np.random.default_rng(seed)
    labeled = rng.random(n) < q
    from_pos = rng.random(n) < m.p  # class of the latent unlabeled draw
    x = _draw(m, rng.random(n), labeled | from_pos)
    return Dataset(features=x[:, None], labels=labeled.astype(int), n_classes=2)


# ---------------------------------------------------------------------------
# Plot-ready curves
# ---------------------------------------------------------------------------


def risk_curve(m: AnalyticModel, n_points: int = 201) -> tuple[np.ndarray, np.ndarray]:
    _check_count(n_points, "n_points", 1)
    thetas = np.linspace(0.0, 1.0, n_points)
    risks = np.array([true_risk(m, t) for t in thetas])
    return thetas, risks


def excess_curve(m: AnalyticModel) -> tuple[np.ndarray, np.ndarray]:
    p_grid = np.linspace(0.05, 0.95, 19)  # the training rates p'
    return p_grid, np.array([excess_error(m, pp) for pp in p_grid])
