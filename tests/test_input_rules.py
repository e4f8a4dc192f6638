"""Each input rule, checked once in ``werm.core``, driven through every
entry point that applies it; and the package's public surface."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import werm
from werm import analytic, biasgen, bounds, experiment, synthetic, train, weights
from werm.core import Dataset, DomainError, ValidationError

NAN = float("nan")
GOOD_PK = [0.5, 0.25, 0.25]
STRATA_DATA = Dataset(
    features=np.zeros((30, 1)), labels=np.zeros(30, dtype=int), strata=np.arange(30) % 3
)
MODEL = analytic.AnalyticModel(1.0, 1.0, 0.3)


def _coverage(pk_train):
    return bounds.coverage_check(
        "stratum_shift", synthetic.StratifiedThresholdModel(pos_rates=(0.2, 0.5, 0.8)),
        n=50, delta=0.1, reps=1, seed=0, pk=[1 / 3] * 3, pk_train=pk_train, epsilon=0.3,
    )


# entry point -> (the name its error gives the distribution, its sum
# tolerance, a call that takes the distribution)
DISTRIBUTION_SITES = {
    "TargetPrior": ("pk", 1e-12, lambda pk: weights.TargetPrior(pk=pk)),
    "BiasSpec": ("target_pk", 1e-12, lambda pk: biasgen.BiasSpec(gamma=0.5, target_pk=pk)),
    "gaussian_strata_sample": ("pk", 1e-9, lambda pk: synthetic.gaussian_strata_sample(
        synthetic.GaussianStrataSpec(n_strata=3), 10, pk, 0)),
    "StratifiedThresholdModel.sample": ("pk_train", 1e-9, lambda pk: synthetic.StratifiedThresholdModel(
        pos_rates=(0.2, 0.5, 0.8)).sample(10, pk, 0)),
    "coverage_check": ("pk_train", 1e-9, _coverage),
    "subsample_to_distribution": ("p_prime", 1e-9, lambda pk: biasgen.subsample_to_distribution(
        STRATA_DATA, pk, 0)),
}

BAD_DISTRIBUTIONS = {
    "nan": lambda tol: [NAN, 0.5, 0.5],
    "+inf": lambda tol: [math.inf, 0.25, 0.25],
    "-inf": lambda tol: [-math.inf, 0.5, 0.5],
    "empty": lambda tol: [],
    "2-d": lambda tol: [GOOD_PK],
    "negative entry": lambda tol: [-0.25, 0.75, 0.5],
    "sum off by 2 tol": lambda tol: [0.5, 0.25, 0.25 + 2 * tol],
    "not numbers": lambda tol: ["half", 0.25, 0.25],
}


@pytest.mark.parametrize("bad", sorted(BAD_DISTRIBUTIONS))
@pytest.mark.parametrize("site", sorted(DISTRIBUTION_SITES))
def test_distribution_rule_rejects(site, bad):
    name, tol, call = DISTRIBUTION_SITES[site]
    with pytest.raises(ValidationError, match=name):
        call(BAD_DISTRIBUTIONS[bad](tol))


@pytest.mark.parametrize("site", sorted(DISTRIBUTION_SITES))
def test_distribution_rule_accepts_sum_within_tolerance(site):
    name, tol, call = DISTRIBUTION_SITES[site]
    call([0.5, 0.25, 0.25 + tol / 2])


def test_distribution_message_names_finite_stratum_probabilities():
    with pytest.raises(ValidationError) as err:
        biasgen.subsample_to_distribution(STRATA_DATA, [NAN, 0.5, 0.5], 0)
    assert str(err.value) == (
        "p_prime must be a nonempty vector of finite, nonnegative stratum "
        "probabilities that sum to 1 within 1e-09"
    )


# entry point -> (the rate's name in the error, a call that takes the rate)
RATE_SITES = {
    "AnalyticModel.p": ("p", lambda v: analytic.AnalyticModel(1.0, 1.0, v)),
    "excess_error": ("p_train", lambda v: analytic.excess_error(MODEL, v)),
    "sample": ("class_rate", lambda v: analytic.sample(MODEL, 10, v, 0)),
    "sample_pu": ("q", lambda v: analytic.sample_pu(MODEL, 10, v, 0)),
    "TargetPrior.p": ("p", lambda v: weights.TargetPrior(p=v)),
    "BoundInputs.delta": ("delta", lambda v: bounds.BoundInputs(n=10, delta=v)),
    "BoundInputs.p": ("p", lambda v: bounds.BoundInputs(n=10, delta=0.1, p=v)),
    "oracle_class_shift_weights.p_train": (
        "p_train", lambda v: weights.oracle_class_shift_weights(STRATA_DATA, 0.5, v)),
    "oracle_pu_weights.q": ("q", lambda v: weights.oracle_pu_weights(STRATA_DATA, 0.5, v)),
}


@pytest.mark.parametrize("value", [0.0, 1.0, NAN])
@pytest.mark.parametrize("site", sorted(RATE_SITES))
def test_rate_rule(site, value):
    name, call = RATE_SITES[site]
    with pytest.raises(ValidationError) as err:
        call(value)
    assert str(err.value) == f"{name} must lie in (0, 1)"


# a NaN where a bound is required: rejected with the message a value out of
# range gets, and the same error class
NAN_CASES = {
    "BiasSpec.gamma": (DomainError, "gamma must be > 0", lambda: biasgen.BiasSpec(gamma=NAN)),
    "TrainConfig.lr": (ValidationError, "lr must be > 0", lambda: train.TrainConfig(lr=NAN)),
    "TrainConfig.weight_decay": (
        ValidationError, "weight_decay must be >= 0", lambda: train.TrainConfig(weight_decay=NAN)),
    "TrainConfig.init_std": (
        ValidationError, "init_std must be >= 0", lambda: train.TrainConfig(init_std=NAN)),
    "AnalyticModel.alpha": (
        ValidationError, "alpha and beta must be >= 0", lambda: analytic.AnalyticModel(NAN, 1.0, 0.3)),
    "AnalyticModel.beta": (
        ValidationError, "alpha and beta must be >= 0", lambda: analytic.AnalyticModel(1.0, NAN, 0.3)),
    "GaussianStrataSpec.noise": (
        ValidationError, "noise must be > 0", lambda: synthetic.GaussianStrataSpec(noise=NAN)),
    "StratifiedThresholdModel.pos_rates": (
        ValidationError, r"pos_rates must lie in \(0, 1\)",
        lambda: synthetic.StratifiedThresholdModel(pos_rates=(0.5, NAN))),
    "BoundInputs.L": (
        ValidationError, "L must be >= 0", lambda: bounds.BoundInputs(n=10, delta=0.1, L=NAN)),
    "BoundInputs.phi_sup": (
        ValidationError, "phi_sup must be >= 0",
        lambda: bounds.BoundInputs(n=10, delta=0.1, phi_sup=NAN)),
    "BoundInputs.rademacher": (
        ValidationError, "rademacher must be >= 0",
        lambda: bounds.BoundInputs(n=10, delta=0.1, rademacher=NAN)),
}


@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_nan_rejected(case):
    error, message, call = NAN_CASES[case]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "field,value", [("batch_size", 2.5), ("batch_size", 10.0), ("epochs", 2.5), ("epochs", NAN)]
)
def test_train_counts_must_be_integers(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be an integer"):
        train.TrainConfig(**{field: value})
    train.TrainConfig(**{field: np.int64(3)})


@pytest.mark.parametrize(
    "field,value",
    [("slope", NAN), ("slope", math.inf), ("censor_rate", 0.0), ("censor_rate", -1.0),
     ("censor_rate", NAN), ("horizon", 0.0), ("horizon", NAN)],
)
def test_censored_spec_checks(field, value):
    with pytest.raises(ValidationError, match=field):
        synthetic.CensoredSpec(**{field: value})
    with pytest.raises(ValidationError, match=field):
        experiment.ExperimentSpec(scenario="censored", synthetic={field: value})


def _fresh(code: str) -> str:
    src = os.path.dirname(os.path.dirname(werm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def test_package_root_binds_no_public_name():
    assert _fresh("import werm; print(sorted(n for n in vars(werm) if n[0] != '_'))") == "[]"


def test_submodule_imports_stay_narrow():
    out = _fresh(
        "import sys, werm.analytic; a = 'werm.weights' in sys.modules\n"
        "import werm.experiment; print(a, 'werm.bounds' in sys.modules)"
    )
    assert out == "False False"
