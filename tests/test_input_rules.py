"""Each input rule, checked once in ``werm.core``, driven through every
entry point that applies it; and the package's public surface."""

import dataclasses
import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import werm
from werm import analytic, biasgen, bounds, cli, core, experiment, synthetic, train, weights
from werm.core import Dataset, ValidationError, WermError

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
    "coverage_check.p_train": ("p_train", lambda v: bounds.coverage_check(
        "class_shift", MODEL, n=50, delta=0.1, reps=1, seed=0, p_train=v)),
    "coverage_check.q": ("q", lambda v: bounds.coverage_check(
        "pu", MODEL, n=50, delta=0.1, reps=1, seed=0, q=v)),
    "ExperimentSpec synthetic.p": ("synthetic.p", lambda v: experiment.ExperimentSpec(
        scenario="analytic_excess", synthetic={"p": v})),
    "ExperimentSpec synthetic.p_train": ("synthetic.p_train", lambda v: experiment.ExperimentSpec(
        scenario="class_shift", synthetic={"p": 0.3, "p_train": v})),
}


@pytest.mark.parametrize("value", [0.0, 1.0, NAN, "x"])
@pytest.mark.parametrize("site", sorted(RATE_SITES))
def test_rate_rule(site, value):
    """A rate of the wrong type is refused like one out of range, not with
    a raw TypeError from the comparison."""
    name, call = RATE_SITES[site]
    with pytest.raises(ValidationError) as err:
        call(value)
    assert str(err.value) == f"{name} must lie in (0, 1)"


# a rate that a field requires: None is refused by the rate rule too
# (coverage_check names the rate keyword its setting needs instead)
@pytest.mark.parametrize("site", sorted(set(RATE_SITES) - {
    "TargetPrior.p", "BoundInputs.p", "coverage_check.p_train", "coverage_check.q"}))
def test_required_rate_refuses_none(site):
    name, call = RATE_SITES[site]
    with pytest.raises(ValidationError, match=rf"^{name} must lie in \(0, 1\)$"):
        call(None)


# a NaN where a bound is required: rejected with the message a value out of
# range gets, and the same error class
NAN_CASES = {
    "BiasSpec.gamma": (ValidationError, r"gamma must lie in \(0, 1\]", lambda: biasgen.BiasSpec(gamma=NAN)),
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
    "true_risk.theta": (
        ValidationError, r"theta=nan outside \[0, 1\]", lambda: analytic.true_risk(MODEL, NAN)),
}


@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_nan_rejected(case):
    error, message, call = NAN_CASES[case]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("value", [math.inf, -1.0])
@pytest.mark.parametrize("field", ["L", "phi_sup", "rademacher"])
def test_bound_inputs_must_be_finite(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be >= 0 and finite"):
        bounds.BoundInputs(n=10, delta=0.1, **{field: value})


@pytest.mark.parametrize(
    "fields,message",
    [({"epsilon": 1e-200}, "underflows"), ({"epsilon": 5e-324}, "underflows"),
     ({"n": 10**400}, "float range"), ({"K": 10**309}, "float range")],
)
def test_bound_inputs_refuse_what_the_formulas_cannot_evaluate(fields, message):
    """These used to reach the formulas and raise ZeroDivisionError or
    OverflowError there."""
    with pytest.raises(ValidationError, match=message):
        bounds.BoundInputs(**{"n": 10, "delta": 0.5, **fields})
    bounds.deviation_bound("approx1", bounds.BoundInputs(n=10**300, delta=0.5, epsilon=1e-150))


HUGE = 10**400  # past the float range: a formula's float() of it overflows


def _huge_id(value):
    return "huge" if value is HUGE else None


# BoundInputs field -> the start of the message that names it
BOUND_FIELDS = {
    "epsilon": "epsilon must lie in", "L": "L must be >= 0", "phi_sup": "phi_sup must be >= 0",
    "max_pk": "max_pk must lie in", "rademacher": "rademacher must be >= 0",
}
# values each field used to take, or meet with a raw TypeError
BOUND_FIELD_VALUES = [
    *[("epsilon", v) for v in ("x", [0.3])],
    *[("max_pk", v) for v in ("x", [0.3], True)],
    *[("phi_sup", v) for v in ("x", [0.3], True, HUGE)],
    *[(f, v) for f in ("L", "rademacher") for v in ("x", [0.3], True, HUGE, None)],
]


@pytest.mark.parametrize("field,value", BOUND_FIELD_VALUES, ids=_huge_id)
def test_bound_inputs_test_the_type_first(field, value):
    """Not a raw TypeError from the range comparison, nor one or an
    OverflowError later in a formula; None is refused where every formula
    reads the field."""
    with pytest.raises(ValidationError, match=f"^{BOUND_FIELDS[field]}"):
        bounds.BoundInputs(n=10, delta=0.1, **{field: value})


def test_coverage_check_refuses_a_text_epsilon():
    with pytest.raises(ValidationError, match="^epsilon must lie in"):
        bounds.coverage_check("class_shift", MODEL, n=50, delta=0.1, reps=1, seed=0,
                              p_train=0.6, epsilon="0.3")


@pytest.mark.parametrize("zeta", [NAN, math.inf, "x", None, True, HUGE], ids=_huge_id)
def test_prior_sensitivity_refuses_what_is_not_a_finite_zeta(zeta):
    with pytest.raises(ValidationError, match="^zeta must be >= 0 and finite$"):
        bounds.prior_sensitivity_bound(zeta)


THRESHOLD_DATA = Dataset(features=np.array([[0.2], [0.7], [0.4]]), labels=np.array([1, 0, 1]))
THRESH = core.LossSpec("threshold-sign")
THRESHOLD_MESSAGE = r"^a threshold must be a real number in the float range, or \+-inf$"


def _no_signs(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))


@pytest.mark.parametrize(
    "theta", [NAN, "a", None, [0.1, 0.2], True, HUGE, np.array(0.5)], ids=_huge_id
)
def test_thresholds_are_checked(monkeypatch, theta):
    _no_signs(monkeypatch)
    for call in (
        lambda: core.per_record_losses(THRESHOLD_DATA, THRESH, theta).mean(),
        lambda: bounds.rademacher_mc(THRESHOLD_DATA, [0.5, theta], THRESH, reps=10, seed=0),
    ):
        with pytest.raises(ValidationError, match=THRESHOLD_MESSAGE):
            call()


@pytest.mark.parametrize("grid", [0.5, None, []])
def test_rademacher_grid_must_be_a_nonempty_sequence(monkeypatch, grid):
    _no_signs(monkeypatch)
    with pytest.raises(ValidationError, match="^hypothesis grid must be a nonempty sequence"):
        bounds.rademacher_mc(THRESHOLD_DATA, grid, THRESH, reps=10, seed=0)


def test_loss_must_be_a_loss_spec(monkeypatch):
    _no_signs(monkeypatch)
    with pytest.raises(ValidationError, match="^loss must be a LossSpec$"):
        core.per_record_losses(THRESHOLD_DATA, "threshold-sign", 0.5).mean()
    with pytest.raises(ValidationError, match="^loss must be a LossSpec$"):
        bounds.rademacher_mc(THRESHOLD_DATA, [0.5], None, reps=10, seed=0)


def test_infinite_thresholds_are_the_constant_classifiers():
    # -inf predicts class 1 everywhere, +inf class 0 everywhere
    def risk(theta):
        return core.per_record_losses(THRESHOLD_DATA, THRESH, theta).mean()

    assert risk(-math.inf) == pytest.approx(1 / 3)
    assert risk(math.inf) == pytest.approx(2 / 3)
    assert risk(np.float32(0.3)) == pytest.approx(2 / 3)


# a loss entry point, called with ``data`` in place of a Dataset
NOT_A_DATASET = {
    "rademacher_mc": lambda data: bounds.rademacher_mc(data, [0.5], THRESH, reps=10, seed=0),
    # the plain empirical risk: the mean of the per-record losses
    "empirical_risk": lambda data: core.per_record_losses(data, THRESH, 0.5).mean(),
    "weighted_empirical_risk": lambda data: core.weighted_empirical_risk(
        data, core.WeightVector.ones(3), THRESH, 0.5),
}


@pytest.mark.parametrize("data", [None, THRESHOLD_DATA.features, "data"], ids=["None", "array", "str"])
@pytest.mark.parametrize("site", sorted(NOT_A_DATASET))
def test_loss_entry_points_refuse_what_is_not_a_dataset(monkeypatch, site, data):
    _no_signs(monkeypatch)
    with pytest.raises(ValidationError, match="^data must be a Dataset$"):
        NOT_A_DATASET[site](data)


@pytest.mark.parametrize("w", [None, np.ones(3), [1.0, 1.0, 1.0]], ids=["None", "array", "list"])
def test_weighted_risk_refuses_what_is_not_a_weight_vector(w):
    with pytest.raises(ValidationError, match="^weights must be a WeightVector$"):
        core.weighted_empirical_risk(THRESHOLD_DATA, w, THRESH, 0.5)


@pytest.mark.parametrize("theta", ["x", None, [0.5], True, HUGE], ids=_huge_id)
def test_true_risk_tests_the_type_first(theta):
    with pytest.raises(ValidationError, match=r"outside \[0, 1\]$"):
        analytic.true_risk(MODEL, theta)


@pytest.mark.parametrize(
    "field,value", [("batch_size", 2.5), ("batch_size", 10.0), ("epochs", 2.5), ("epochs", NAN)]
)
def test_train_counts_must_be_integers(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be an integer"):
        train.TrainConfig(**{field: value})
    train.TrainConfig(**{field: np.int64(3)})


# entry point -> (the count's name in the error, a call that takes the count)
COUNT_SITES = {
    "BoundInputs.n": ("n", lambda v: bounds.BoundInputs(n=v, delta=0.1)),
    "BoundInputs.K": ("K", lambda v: bounds.BoundInputs(n=10, delta=0.1, K=v)),
    "sample": ("n", lambda v: analytic.sample(MODEL, v, 0.3, 0)),
    "sample_pu": ("n", lambda v: analytic.sample_pu(MODEL, v, 0.3, 0)),
    "power_law_distribution": ("K", lambda v: biasgen.power_law_distribution(
        biasgen.BiasSpec(gamma=0.5, target_pk=(1.0,)), v)),
    "coverage_check.grid_size": ("grid_size", lambda v: bounds.coverage_check(
        "class_shift", MODEL, n=50, delta=0.1, reps=1, seed=0, p_train=0.6, grid_size=v)),
    "risk_curve": ("n_points", lambda v: analytic.risk_curve(MODEL, v)),
}


@pytest.mark.parametrize("value", [0, 2.5, 3.0, "2", NAN])
@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_count_rule(site, value):
    """A count of the wrong type is refused like one out of range."""
    name, call = COUNT_SITES[site]
    with pytest.raises(ValidationError) as err:
        call(value)
    assert str(err.value) == f"{name} must be an integer >= 1"
    call(np.int64(1))


# a count that sizes an array: each entry point refuses one past the ceiling
CEILING_SITES = {
    **{site: COUNT_SITES[site] for site in COUNT_SITES if not site.startswith("BoundInputs")},
    "coverage_check.n": ("n", lambda v: bounds.coverage_check(
        "class_shift", MODEL, n=v, delta=0.1, reps=1, seed=0, p_train=0.6)),
    "coverage_check.reps": ("reps", lambda v: bounds.coverage_check(
        "class_shift", MODEL, n=50, delta=0.1, reps=v, seed=0, p_train=0.6)),
    "rademacher_mc.reps": ("reps", lambda v: bounds.rademacher_mc(
        THRESHOLD_DATA, [0.5], THRESH, reps=v, seed=0)),
    "StratifiedThresholdModel.sample": ("n", lambda v: synthetic.StratifiedThresholdModel(
        pos_rates=(0.2, 0.5)).sample(v, [0.5, 0.5], 0)),
    "gaussian_strata_sample": ("n", lambda v: synthetic.gaussian_strata_sample(
        synthetic.GaussianStrataSpec(n_strata=2), v, [0.5, 0.5], 0)),
    "censored_train_sample": ("n", lambda v: synthetic.censored_train_sample(
        synthetic.CensoredSpec(), v, 0)),
    "censored_test_sample": ("n", lambda v: synthetic.censored_test_sample(
        synthetic.CensoredSpec(), v, 0)),
    "subsample_to_distribution": ("max_size", lambda v: biasgen.subsample_to_distribution(
        STRATA_DATA, GOOD_PK, 0, max_size=v)),
    "ExperimentSpec.n_train": ("n_train", lambda v: experiment.ExperimentSpec(
        scenario="analytic_excess", n_train=v)),
    "TrainConfig.epochs": ("epochs", lambda v: train.TrainConfig(epochs=v)),
}


@pytest.mark.parametrize("value", [2**20 + 1, 2**63, 2**70, 2**1024])
@pytest.mark.parametrize("site", sorted(CEILING_SITES))
def test_count_ceiling(site, value):
    """Past 2**20 a count is refused before numpy sees it: no raw
    OverflowError, IndexError or size error, and no huge allocation."""
    name, call = CEILING_SITES[site]
    with pytest.raises(ValidationError) as err:
        call(value)
    assert str(err.value) == f"{name} must be at most 1,048,576"


def test_default_source_size_is_refused_before_work():
    """strata_shift draws 4 * n_train source records when synthetic.n_source
    is not given; past the ceiling the spec is refused, not each replicate."""
    with pytest.raises(ValidationError, match=r"^synthetic.n_source must be at most 1,048,576$"):
        experiment.ExperimentSpec(scenario="strata_shift", n_train=2**18 + 1)
    experiment.ExperimentSpec(scenario="strata_shift", n_train=2**18 + 1,
                              synthetic={"n_source": 2**20})


def test_count_ceiling_is_inclusive_and_bound_inputs_keep_none():
    """coverage_check draws counts, so n = 2**20 costs no more than n = 2,000;
    BoundInputs.n and .K size nothing and go up to the float range."""
    r = bounds.coverage_check("class_shift", MODEL, n=2**20, delta=0.1, reps=2, seed=0,
                              p_train=0.6, epsilon=0.3)
    assert r.reps == 2 and r.valid
    for value in (2**63, 2**70):
        bounds.BoundInputs(n=value, delta=0.1, K=value)
    for field in ("n", "K"):
        with pytest.raises(ValidationError, match="float range"):
            bounds.BoundInputs(**{"n": 10, "delta": 0.1, field: 2**1024})


@pytest.mark.parametrize(
    "field,value",
    [("slope", NAN), ("slope", math.inf), ("slope", 1e300), ("slope", -1e300),
     ("censor_rate", 0.0), ("censor_rate", -1.0), ("censor_rate", NAN), ("censor_rate", math.inf),
     ("horizon", 0.0), ("horizon", NAN), ("horizon", math.inf)],
)
def test_censored_spec_checks(field, value):
    with pytest.raises(ValidationError, match=field):
        synthetic.CensoredSpec(**{field: value})
    with pytest.raises(ValidationError, match=field):
        experiment.ExperimentSpec(scenario="censored", synthetic={field: value})


# the records werm builds for its caller, not inputs: they take no rule
OUTPUT_RECORDS = {"BoundResult", "CoverageResult"}
# what each input record needs besides the field under test
REQUIRED_ARGS = {
    "AnalyticModel": {"alpha": 1.0, "beta": 1.0, "p": 0.3},
    "BiasSpec": {"gamma": 0.5},
    "BoundInputs": {"n": 10, "delta": 0.1},
}


def _real_fields():
    """(class, field) for every float field of werm's input records, found
    through ``dataclasses.fields``, so that a new one is tested too."""
    found = []
    for module in (analytic, biasgen, bounds, core, experiment, synthetic, train, weights):
        for cls in vars(module).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__ and cls.__name__ not in OUTPUT_RECORDS):
                found += [(cls, f.name) for f in dataclasses.fields(cls)
                          if f.type in ("float", "float | None")]
    return found


REAL_FIELDS = _real_fields()


def test_the_real_fields_are_found():
    assert {f"{cls.__name__}.{name}" for cls, name in REAL_FIELDS} >= {
        "TrainConfig.lr", "GaussianStrataSpec.noise", "CensoredSpec.horizon", "BiasSpec.gamma",
        "AnalyticModel.beta", "BoundInputs.max_pk", "TargetPrior.p"}


@pytest.mark.parametrize("value", [NAN, math.inf, -math.inf, "0.5", True, False, HUGE],
                         ids=["nan", "inf", "-inf", "text", "true", "false", "huge"])
@pytest.mark.parametrize("cls,name", REAL_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in REAL_FIELDS])
def test_every_real_field_takes_the_one_rule(cls, name, value):
    """A value that is not a finite real number is refused with
    ValidationError, never a raw TypeError or
    OverflowError, and the message names the field."""
    args = REQUIRED_ARGS.get(cls.__name__, {})
    cls(**args)
    with pytest.raises(ValidationError, match=rf"\b{name}\b"):
        cls(**{**args, name: value})


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
        "import werm.weights; w = [m in sys.modules for m in ('werm.bounds', 'werm.experiment')]\n"
        "import werm.experiment; print(a, *w, 'werm.bounds' in sys.modules)"
    )
    assert out == "False False False False"


def test_rademacher_mc_leaves_numpy_ma_unimported():
    """Deduplicating the grid costs no numpy.ma import (np.unique's float
    path imports it)."""
    out = _fresh(
        "import sys\n"
        "from werm import analytic, bounds, core\n"
        "data = analytic.sample(analytic.AnalyticModel(1.0, 1.0, 0.5), 64, 0.5, 6)\n"
        "grid = [1.0, 0.5, float('inf'), 0.5, -0.0, 0.0, float('inf')]\n"
        "bounds.rademacher_mc(data, grid, core.LossSpec('threshold-sign'), 10, 9)\n"
        "print('numpy.ma' in sys.modules)"
    )
    assert out == "False"


def _traced_names():
    """The (owner, attribute) pairs of ``perfbench/tracer.py``'s TARGETS,
    the file loaded without writing a bytecode cache next to it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = dont_write
    return [(owner, attr) for _, owner, attr, _, _ in tracer.TARGETS]


@pytest.mark.parametrize("owner,attr", _traced_names())
def test_benchmark_traced_names_exist(owner, attr):
    """A traced benchmark run looks each name up on its module, and each
    method in its class's own namespace; a rename must update the tracer."""
    module_name, _, class_name = owner.partition(".")
    module = importlib.import_module(f"werm.{module_name}")
    if class_name:
        assert callable(vars(getattr(module, class_name)).get(attr))
    else:
        assert callable(getattr(module, attr, None))


def _no_draws(monkeypatch):
    """Make every sampler an experiment draws from, and its CSV reader,
    fail the test."""
    fail = lambda *a, **k: pytest.fail("drew")  # noqa: E731
    for module, name in [
        (analytic, "sample"), (analytic, "sample_pu"), (synthetic, "gaussian_strata_sample"),
        (synthetic, "censored_train_sample"), (synthetic, "censored_test_sample"),
        (biasgen, "subsample_to_distribution"), (experiment, "read_csv"),
    ]:
        monkeypatch.setattr(module, name, fail)


CLASS_SHIFT = {"scenario": "class_shift", "synthetic": {"p": 0.3, "p_train": 0.6}}
STRATA = {"scenario": "strata_shift"}
LONE_CSV = "train_csv and test_csv: both paths or neither, strata_shift only"

# a spec document -> what the error says; each is refused before any draw
BAD_SPECS = {
    "p_train NaN": ({**CLASS_SHIFT, "synthetic": {"p": 0.3, "p_train": NAN}},
                    r"synthetic.p_train must lie in \(0, 1\)"),
    "q above 1": ({"scenario": "pu", "synthetic": {"p": 0.3, "q": 1.5}},
                  r"synthetic.q must lie in \(0, 1\)"),
    "model_kind cnn": ({**CLASS_SHIFT, "model_kind": "cnn"}, "unknown model kind 'cnn'"),
    "class_radius NaN": ({**STRATA, "synthetic": {"class_radius": NAN}},
                         "class_radius and rotation_deg must be finite"),
    "rotation_deg inf": ({**STRATA, "synthetic": {"rotation_deg": math.inf}},
                         "class_radius and rotation_deg must be finite"),
    "noise inf": ({**STRATA, "synthetic": {"noise": math.inf}},
                  "'synthetic': noise must be > 0 and finite"),
    "class_radius text": ({**STRATA, "synthetic": {"class_radius": "2"}},
                          "'synthetic': class_radius and rotation_deg must be finite"),
    "lr inf": ({**STRATA, "train": {"lr": math.inf}}, "'train': lr must be > 0 and finite"),
    "lr text": ({**STRATA, "train": {"lr": "0.1"}}, "'train': lr must be > 0 and finite"),
    "lr true": ({**STRATA, "train": {"lr": True}}, "'train': lr must be > 0 and finite"),
    "momentum null": ({**STRATA, "train": {"momentum": None}},
                      r"'train': momentum must lie in \[0, 1\)"),
    "weight_decay inf": ({**STRATA, "train": {"weight_decay": math.inf}},
                         "'train': weight_decay must be >= 0 and finite"),
    "init_std inf": ({**STRATA, "train": {"init_std": math.inf}},
                     "'train': init_std must be >= 0 and finite"),
    "no config": (None, "missing .*'scenario'"),
    "synthetic a list": ({**STRATA, "synthetic": [1]}, "'synthetic' must be a JSON object"),
    "train a list": ({**STRATA, "train": []}, "'train' must be a JSON object"),
    "prior a number": ({**STRATA, "prior": 0.5}, "'prior' must be a JSON object"),
    "bias a string": ({**STRATA, "bias": "identity"}, "'bias' must be a JSON object"),
    "replicates 2.5": ({**CLASS_SHIFT, "replicates": 2.5}, "replicates must be an integer >= 1"),
    "replicates text": ({**CLASS_SHIFT, "replicates": "2"}, "replicates must be an integer >= 1"),
    "replicates true": ({**CLASS_SHIFT, "replicates": True}, "replicates must be an integer >= 1"),
    "n_train 0": ({**CLASS_SHIFT, "n_train": 0}, "n_train must be an integer >= 1"),
    "n_test -3": ({**CLASS_SHIFT, "n_test": -3}, "n_test must be an integer >= 1"),
    "n_source -5": ({**STRATA, "synthetic": {"n_source": -5}},
                    "synthetic.n_source must be an integer >= 1"),
    "n_strata 2.5": ({**STRATA, "synthetic": {"n_strata": 2.5}}, "n_strata must be an integer >= 1"),
    "n_classes 1": ({**STRATA, "synthetic": {"n_classes": 1}}, "n_classes must be an integer >= 2"),
    "top_k 1.5": ({**CLASS_SHIFT, "top_k": 1.5}, "top_k must be an integer >= 1"),
    "top_k above 2 classes": ({**CLASS_SHIFT, "top_k": 3}, "top-k with k=3 invalid for 2 classes"),
    "top_k above drawn classes": ({**STRATA, "synthetic": {"n_classes": 4}, "top_k": 5},
                                  "top-k with k=5 invalid for 4 classes"),
    "train_csv alone": ({**STRATA, "train_csv": "a.csv"}, LONE_CSV),
    "test_csv alone": ({**STRATA, "test_csv": "b.csv"}, LONE_CSV),
    "csv pair on class_shift": ({**CLASS_SHIFT, "train_csv": "a.csv", "test_csv": "b.csv"}, LONE_CSV),
    "csv pair not paths": ({**STRATA, "train_csv": 0, "test_csv": 0}, LONE_CSV),
    "pairs entry short": ({"scenario": "analytic_excess", "synthetic": {"pairs": [[1]]}},
                          "'synthetic'.*missing .*'beta'"),
    "pairs entry text": ({"scenario": "analytic_excess", "synthetic": {"pairs": [["a", 1]]}},
                         "^error: spec field 'synthetic': alpha and beta must be >= 0 and finite$"),
    "pairs a number": ({"scenario": "analytic_excess", "synthetic": {"pairs": 5}},
                       r"synthetic.pairs must be a list of \[alpha, beta\] pairs"),
    # both first pairs print as a1_b1, and one curve would overwrite the other
    "pairs naming a curve twice": ({"scenario": "analytic_excess",
                                    "synthetic": {"pairs": [[1, 1], [1.0000001, 1], [2, 2]]}},
                                   r"synthetic.pairs name a curve twice: \['a1_b1', 'a1_b1', 'a2_b2'\]"),
    "p text, no pairs": ({"scenario": "analytic_excess", "synthetic": {"p": "x", "pairs": []}},
                         r"synthetic.p must lie in \(0, 1\)"),
    "p 1, no pairs": ({"scenario": "analytic_excess", "synthetic": {"p": 1.0, "pairs": []}},
                      r"synthetic.p must lie in \(0, 1\)"),
    # a bias that cannot fit the drawn strata once failed every replicate, exit 5
    "bias permutation of 2 strata": ({**STRATA, "bias": {"gamma": 0.5, "permutation": [1, 2]}},
                                     r"permutation must be a bijection of 1\.\.5"),
    "bias target_pk of 2 strata": ({**STRATA, "bias": {"gamma": 0.5, "target_pk": [0.5, 0.5]}},
                                   "target_pk has 2 entries, expected 5"),
    "prior.pk too short": ({**STRATA, "prior": {"pk": [0.5, 0.5]}},
                           "prior.pk needs 5 entries, one per stratum"),
    "prior.pk sums to 2": ({**STRATA, "prior": {"pk": [0.4] * 5}},
                           "prior.pk must be a nonempty vector of finite, nonnegative"),
    "prior.pk empty": ({**STRATA, "prior": {"pk": []}},
                       "prior.pk must be a nonempty vector of finite, nonnegative"),
    "prior.pk text": ({**STRATA, "prior": {"pk": ["a"] * 5}},
                      "prior.pk must be a nonempty vector of finite, nonnegative"),
    "prior.pk NaN with csvs": ({**STRATA, "prior": {"pk": [NAN, 1.0]}, "train_csv": "a.csv",
                                "test_csv": "b.csv"},
                               "prior.pk must be a nonempty vector of finite, nonnegative"),
    "prior.p on class_shift": ({**CLASS_SHIFT, "prior": {"p": 0.9}}, "'class_shift' does not "
                               "read prior.p; a test positive rate is synthetic.p"),
    "prior.pK on strata_shift": ({**STRATA, "prior": {"pK": [1]}},
                                 "'strata_shift' does not read prior.pK; it reads pk$"),
    "prior.pk on pu": ({"scenario": "pu", "synthetic": {"p": 0.3, "q": 0.4},
                        "prior": {"pk": [1.0]}}, "'pu' does not read prior.pk; it reads none"),
    "prior.pk on censored": ({"scenario": "censored", "prior": {"pk": [0.5, 0.5]}},
                             "'censored' does not read prior.pk"),
    "prior.p on analytic_excess": ({"scenario": "analytic_excess", "prior": {"p": 0.3}},
                                   "'analytic_excess' does not read prior.p; .* synthetic.p"),
    "modes repeated": ({**STRATA, "modes": ["uniform", "uniform"]}, "modes repeat a mode"),
    "modes empty": ({**STRATA, "modes": []}, "modes must be a nonempty list"),
    "modes a string": ({**STRATA, "modes": "uniform"}, "modes must be a nonempty list"),
    "document a number": (5, "a spec document must be a JSON object"),
    # an infinite censoring rate or horizon once ran, censoring every record
    # (weights all zero) or labelling every one positive, and exited 0
    "censor_rate Infinity": ({"scenario": "censored", "synthetic": {"censor_rate": math.inf}},
                             "'synthetic': censor_rate must be > 0 and finite"),
    "horizon Infinity": ({"scenario": "censored", "synthetic": {"horizon": math.inf}},
                         "'synthetic': horizon must be > 0 and finite"),
    # exp(1e300 * 0.5) overflows: the event rate would read inf at x = 1
    "slope 1e300": ({"scenario": "censored", "synthetic": {"slope": 1e300}},
                    r"'synthetic': event_rate exp\(slope \* -0.5\) must be > 0 and finite"),
    "document a list": ([["scenario", "pu"]], "a spec document must be a JSON object"),
    "document a string": ("s", "a spec document must be a JSON object"),
}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_experiment_refuses_spec_before_any_draw(tmp_path, monkeypatch, capsys, case):
    doc, message = BAD_SPECS[case]
    _no_draws(monkeypatch)
    argv = ["experiment", "--out", str(tmp_path / "out")]
    if doc is not None:
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        argv += ["--config", str(tmp_path / "spec.json")]
    code = cli.main(argv)
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert re.search(message, out.err)
    assert not (tmp_path / "out").exists()


# an out_dir that is not a nonempty string once built: most wrote nothing and
# exited 0, while 5 and true wrote into directories named 5/ and True/
@pytest.mark.parametrize("out_dir,flags", [
    *[(value, []) for value in ([], {}, "", False, True, 5)], ("out", ["--out", ""]),
], ids=repr)
def test_experiment_refuses_an_out_dir_that_is_not_a_path(tmp_path, monkeypatch, capsys,
                                                          out_dir, flags):
    _no_draws(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps({**CLASS_SHIFT, "out_dir": out_dir}))
    code = cli.main(["experiment", "--config", "spec.json", *flags])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == "error: out_dir must be a nonempty path\n"
    assert os.listdir(tmp_path) == ["spec.json"]


JSON_VALUES = st.recursive(
    st.sampled_from([None, True, 0, 1, 2, -3, 2**70, 0.5, 2.5, NAN, math.inf, -math.inf, "x"])
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# one spec per scenario that builds
GOOD_SPECS = {
    "analytic_excess": {"scenario": "analytic_excess", "synthetic": {"p": 0.3}},
    "class_shift": CLASS_SHIFT,
    "pu": {"scenario": "pu", "synthetic": {"p": 0.3, "q": 0.4}},
    "strata_shift": {**STRATA, "bias": {"gamma": 0.5}, "synthetic": {"n_source": 100}},
    "censored": {"scenario": "censored"},
}


def _names(*classes, extra=()):
    return sorted({f.name for cls in classes for f in dataclasses.fields(cls)} | {*extra, "junk"})


# the spec's fields (owner None) and those of its objects, each with a junk name
SPEC_FIELDS = {
    None: _names(experiment.ExperimentSpec),
    "train": _names(train.TrainConfig),
    "bias": _names(biasgen.BiasSpec),
    "synthetic": _names(
        synthetic.GaussianStrataSpec, synthetic.CensoredSpec, analytic.AnalyticModel,
        extra=("p_train", "q", "n_source", "pairs"),
    ),
    "prior": _names(extra=("p", "pk")),
}
SPEC_EDITS = st.sampled_from(list(SPEC_FIELDS)).flatmap(
    lambda owner: st.tuples(st.just(owner), st.sampled_from(SPEC_FIELDS[owner]), JSON_VALUES)
)


@settings(max_examples=500, deadline=None)
@given(scenario=st.sampled_from(sorted(GOOD_SPECS)), edits=st.lists(SPEC_EDITS, min_size=1, max_size=3))
@example("strata_shift", [("bias", "permutation", ["x", NAN, math.inf])])
@example("class_shift", [(None, "replicate_seeds", {"": None})])
@example("pu", [(None, "synthetic", [1])])
def test_spec_from_json_builds_or_refuses(scenario, edits):
    """A spec document with fields or object fields set to any JSON value,
    NaN, inf, lists and objects included, builds or raises
    ValidationError, drawing nothing."""
    doc = json.loads(json.dumps(GOOD_SPECS[scenario]))
    for owner, name, value in edits:
        fields = doc if owner is None else doc.setdefault(owner, {})
        if isinstance(fields, dict):
            fields[name] = value
    with pytest.MonkeyPatch.context() as monkeypatch:
        _no_draws(monkeypatch)
        try:
            experiment.ExperimentSpec.from_json(doc)
        except ValidationError:
            pass


# any value a caller might pass where the bound API wants a number
ANY_VALUE = (
    st.sampled_from([None, True, False, NAN, math.inf, -math.inf, HUGE, -HUGE, 2**1024])
    | st.text(max_size=3) | st.floats() | st.integers() | st.lists(st.floats(), max_size=2)
)
# each TrainConfig field: a value that is often valid, or any value
TRAIN_CONFIG_FIELDS = {
    "lr": st.floats(1e-4, 1.0), "momentum": st.floats(0.0, 0.99),
    "weight_decay": st.floats(0.0, 1.0), "batch_size": st.integers(1, 100),
    "epochs": st.integers(0, 5), "seed": st.integers(0, 10), "init_std": st.floats(0.0, 1.0),
}


@settings(max_examples=300, deadline=None)
@given(fields=st.fixed_dictionaries(
    {}, optional={name: valid | ANY_VALUE for name, valid in TRAIN_CONFIG_FIELDS.items()}
))
@example(fields={"lr": "0.1"})
@example(fields={"momentum": None})
@example(fields={"lr": True})
def test_train_config_builds_with_finite_reals_or_refuses(fields):
    """TrainConfig, fed any value, raises ValidationError or holds real,
    finite rates, so no replicate meets a raw TypeError or an inf."""
    try:
        cfg = train.TrainConfig(**fields)
    except ValidationError:
        return
    for name in ("lr", "momentum", "weight_decay", "init_std"):
        value = getattr(cfg, name)
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name


# each BoundInputs field: a value that is often valid, or any value
BOUND_INPUT_FIELDS = {
    "n": st.integers(1, 10**6), "delta": st.floats(0.0, 1.0), "epsilon": st.floats(0.0, 0.5),
    "L": st.floats(0.0, 10.0), "phi_sup": st.floats(0.0, 10.0), "p": st.floats(0.0, 1.0),
    "max_pk": st.floats(0.0, 1.0), "K": st.integers(1, 100), "rademacher": st.floats(0.0, 1.0),
}


@settings(max_examples=300, deadline=None)
@given(
    fields=st.fixed_dictionaries(
        {}, optional={name: valid | ANY_VALUE for name, valid in BOUND_INPUT_FIELDS.items()}
    ),
    zeta=st.floats(0.0, 1.0) | ANY_VALUE,
    grid=st.lists(st.floats(0.0, 1.0) | ANY_VALUE, max_size=3) | ANY_VALUE,
)
@example(fields={"L": None, "K": 2, "epsilon": 0.3}, zeta=NAN, grid=0.5)
def test_bound_api_fails_only_with_werm_errors(fields, zeta, grid):
    """BoundInputs and every bound kind, prior_sensitivity_bound and
    rademacher_mc's grid, fed any value, give a result or a WermError."""
    try:
        inputs = bounds.BoundInputs(**{"n": 10, "delta": 0.1, **fields})
    except WermError:
        inputs = None
    if inputs is not None:
        for kind in bounds.EXCESS_BOUND_KINDS + bounds.DEVIATION_BOUND_KINDS:
            try:
                bounds.evaluate_bound(kind, inputs)
            except WermError:
                pass
    try:
        bounds.prior_sensitivity_bound(zeta)
    except WermError:
        pass
    try:
        bounds.rademacher_mc(THRESHOLD_DATA, grid, THRESH, reps=3, seed=0)
    except WermError:
        pass


@settings(max_examples=300, deadline=None)
@given(
    data=st.just(THRESHOLD_DATA) | ANY_VALUE,
    w=st.sampled_from([core.WeightVector.ones(3), core.WeightVector.ones(2), np.ones(3)])
    | ANY_VALUE,
    theta=st.floats(-0.5, 1.5) | ANY_VALUE,
    n_points=st.integers(-3, 300) | st.sampled_from([2**20 + 1, 2**63, 2**70])
    | ANY_VALUE,
)
def test_loss_and_curve_api_fail_only_with_werm_errors(data, w, theta, n_points):
    """per_record_losses, weighted_empirical_risk, true_risk and risk_curve, fed
    any value, give a result or a WermError."""
    for call in (
        lambda: core.per_record_losses(data, THRESH, theta).mean(),
        lambda: core.weighted_empirical_risk(data, w, THRESH, theta),
        lambda: analytic.true_risk(MODEL, theta),
        lambda: analytic.risk_curve(MODEL, n_points),
    ):
        try:
            call()
        except WermError:
            pass
