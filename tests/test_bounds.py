"""Bound formulas, Rademacher Monte Carlo, and coverage experiments."""

import hashlib
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from werm import analytic, bounds, weights
from werm.analytic import AnalyticModel, sample, true_risk
from werm.bounds import (
    DEVIATION_BOUND_KINDS,
    EXCESS_BOUND_KINDS,
    BoundInputs,
    BoundResult,
    _rademacher_draws,
    coverage_check,
    deviation_bound,
    evaluate_bound,
    prior_sensitivity_bound,
    rademacher_mc,
)
from werm.core import (
    Dataset,
    DegenerateClassError,
    EmptyStratumError,
    LossSpec,
    ValidationError,
    per_record_losses,
)
from werm.experiment import ExperimentSpec, run_experiment
from werm.synthetic import StratifiedThresholdModel
from werm.weights import (
    TargetPrior,
    class_shift_weights,
    oracle_class_shift_weights,
    pu_weights,
    stratum_shift_weights,
)

THRESH = LossSpec("threshold-sign")


def _sup_threshold_deviation(data, diffs, grid):
    """sup over the theta grid of |(1/n) sum_i diffs_i * loss_i(theta)| for
    the positive-above threshold loss, swept over the records: the reference
    for coverage_check's count formula.  Each class's x values are sorted
    and its diffs prefix-summed in that order, so that one searchsorted per
    class reads the sum over x < theta."""
    x = data.features[:, 0]
    pos = data.labels == 1
    out = np.zeros(grid.size)
    for mask, flip in ((pos, False), (~pos, True)):
        xs = x[mask]
        ds = diffs[mask]
        order = np.argsort(xs)
        xs = xs[order]
        cum = np.concatenate(([0.0], np.cumsum(ds[order])))
        below = cum[np.searchsorted(xs, grid, side="left")]
        out += (cum[-1] - below) if flip else below
    return float(np.abs(out).max() / data.n)


class TestExcessBounds:
    def test_lemma1_spot_value(self):
        # phi_sup=1, rademacher=0, L=1, delta=1/e, n=2 -> 2*sqrt(2*1/2) = 2
        res = evaluate_bound(
            "lemma1",
            BoundInputs(n=2, delta=1 / math.e, phi_sup=1.0, L=1.0, rademacher=0.0),
        )
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert res.valid and res.required_n == 1.0

    def test_corollary1_formula(self):
        p, eps, delta, n, rad = 0.5, 0.2, 0.05, 1000, 0.02
        res = evaluate_bound(
            "corollary1", BoundInputs(n=n, delta=delta, epsilon=eps, p=p, rademacher=rad)
        )
        t1 = (2 * max(p, 1 - p) / eps) * (2 * rad + math.sqrt(2 * math.log(2 / delta) / n))
        t2 = (4 / eps**2) * math.sqrt(math.log(4 / delta) / (2 * n))
        assert res.terms["estimation"] == pytest.approx(t1, rel=1e-12)
        assert res.terms["plug_in"] == pytest.approx(t2, rel=1e-12)
        assert res.value == pytest.approx(5.3103, abs=1e-3)
        assert res.required_n == pytest.approx(2 * math.log(4 / delta) / eps**2)

    def test_theorem1_formula(self):
        n, delta, eps, K, L, max_pk, rad = 4000, 0.05, 0.1, 6, 2.0, 0.4, 0.03
        res = evaluate_bound(
            "theorem1",
            BoundInputs(
                n=n, delta=delta, epsilon=eps, K=K, L=L, max_pk=max_pk, rademacher=rad
            ),
        )
        t1 = (2 * max_pk / eps) * (2 * rad + L * math.sqrt(2 * math.log(2 / delta) / n))
        t2 = (4 * L / eps**2) * math.sqrt(math.log(4 * K / delta) / (2 * n))
        assert res.value == pytest.approx(t1 + t2, rel=1e-12)
        assert res.required_n == pytest.approx(2 * math.log(4 * K / delta) / eps**2)

    def test_theorem2_formula(self):
        n, delta, eps, p, rad = 3000, 0.1, 0.25, 0.3, 0.01
        res = evaluate_bound(
            "theorem2", BoundInputs(n=n, delta=delta, epsilon=eps, p=p, rademacher=rad)
        )
        t1 = (2 * max(2 * p, 1.0) / eps) * (2 * rad + math.sqrt(2 * math.log(2 / delta) / n))
        t2 = (4 * (2 * p + 1) / eps**2) * math.sqrt(math.log(4 / delta) / (2 * n))
        assert res.value == pytest.approx(t1 + t2, rel=1e-12)

    def test_vanishes_in_the_limit(self):
        res = evaluate_bound(
            "corollary1",
            BoundInputs(n=10**14, delta=0.05, epsilon=0.2, p=0.5, rademacher=0.0),
        )
        assert res.value < 1e-4

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_bound("corollary1", BoundInputs(n=100, delta=0.1, p=0.5))
        with pytest.raises(ValidationError):
            evaluate_bound("lemma1", BoundInputs(n=100, delta=0.1))
        with pytest.raises(ValidationError):
            evaluate_bound("nope", BoundInputs(n=100, delta=0.1))

    def test_value_is_sum_of_terms(self):
        res = evaluate_bound(
            "theorem2",
            BoundInputs(n=500, delta=0.2, epsilon=0.3, p=0.6, rademacher=0.05),
        )
        assert res.value == pytest.approx(sum(res.terms.values()), rel=1e-15)


class TestDeviationBounds:
    def test_approx1_spot_values(self):
        res = deviation_bound("approx1", BoundInputs(n=1000, delta=0.05, epsilon=0.2))
        assert res.value == pytest.approx(2.1473, abs=1e-3)
        assert res.required_n == pytest.approx(184.44, abs=0.01)
        assert res.valid

    def test_quadrupling_n_halves_exactly(self):
        for kind, extra in (
            ("approx1", {}),
            ("approx2", {"K": 4}),
            ("approx3", {"p": 0.3}),
        ):
            a = deviation_bound(kind, BoundInputs(n=500, delta=0.1, epsilon=0.2, **extra))
            b = deviation_bound(kind, BoundInputs(n=2000, delta=0.1, epsilon=0.2, **extra))
            assert a.value == 2.0 * b.value  # exact halving under x4 samples

    def test_approx2_at_K1_is_scaled_approx1(self):
        base = deviation_bound("approx1", BoundInputs(n=700, delta=0.07, epsilon=0.15))
        scaled = deviation_bound(
            "approx2", BoundInputs(n=700, delta=0.07, epsilon=0.15, K=1, L=3.0)
        )
        assert scaled.value == pytest.approx(3.0 * base.value, rel=1e-12)

    def test_validity_flag(self):
        res = deviation_bound("approx1", BoundInputs(n=50, delta=0.05, epsilon=0.2))
        assert not res.valid and res.required_n > 50

    def test_monotone_in_n_and_delta(self):
        values_n = [
            deviation_bound("approx1", BoundInputs(n=n, delta=0.1, epsilon=0.2)).value
            for n in (100, 400, 1600, 6400)
        ]
        assert all(b < a for a, b in zip(values_n, values_n[1:]))
        values_d = [
            deviation_bound("approx1", BoundInputs(n=1000, delta=d, epsilon=0.2)).value
            for d in (0.2, 0.1, 0.01, 0.001)
        ]
        assert all(b > a for a, b in zip(values_d, values_d[1:]))

    def test_blows_up_as_epsilon_vanishes(self):
        wide = deviation_bound("approx1", BoundInputs(n=1000, delta=0.1, epsilon=0.1))
        narrow = deviation_bound("approx1", BoundInputs(n=1000, delta=0.1, epsilon=1e-3))
        assert narrow.value >= 10.0 * wide.value

    def test_excess_bounds_blow_up_too(self):
        for kind, extra in (
            ("corollary1", {"p": 0.5}),
            ("theorem1", {"K": 3, "max_pk": 0.5}),
            ("theorem2", {"p": 0.5}),
        ):
            wide = evaluate_bound(kind, BoundInputs(n=1000, delta=0.1, epsilon=0.1, **extra))
            narrow = evaluate_bound(
                kind, BoundInputs(n=1000, delta=0.1, epsilon=1e-3, **extra)
            )
            assert narrow.value >= 10.0 * wide.value

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            BoundInputs(n=0, delta=0.1)
        with pytest.raises(ValidationError):
            BoundInputs(n=10, delta=1.5)
        with pytest.raises(ValidationError):
            BoundInputs(n=10, delta=0.1, epsilon=0.7)


class TestPriorSensitivity:
    def test_values(self):
        assert prior_sensitivity_bound(0.0) == 0.0
        assert prior_sensitivity_bound(0.05) == pytest.approx(0.1)
        with pytest.raises(ValidationError):
            prior_sensitivity_bound(-0.01)

    def test_analytic_risk_difference_under_bound(self):
        m = AnalyticModel(1.0, 2.0, 0.4)
        for zeta in (0.01, 0.05):
            shifted = AnalyticModel(m.alpha, m.beta, m.p + zeta)
            gaps = [
                abs(true_risk(shifted, t) - true_risk(m, t))
                for t in np.linspace(0, 1, 201)
            ]
            assert max(gaps) <= prior_sensitivity_bound(zeta) + 1e-15


class TestRademacher:
    def test_zero_loss_gives_zero(self):
        data = Dataset(features=np.full((30, 1), 0.9), labels=np.ones(30, int), n_classes=2)
        # every positive sits above theta=0.1: loss identically zero
        assert rademacher_mc(data, [0.1], THRESH, reps=50, seed=0) == 0.0

    def test_single_hypothesis_single_record(self):
        data = Dataset(features=np.array([[0.2]]), labels=[1], n_classes=2)
        # loss of the lone record at theta=0.9 is 1 -> E|sigma|*1 = 1
        assert rademacher_mc(data, [0.9], THRESH, reps=64, seed=1) == pytest.approx(1.0)

    def test_self_consistency_against_large_reference(self):
        # threshold classifiers on 100 uniform points
        m = AnalyticModel(0.0, 0.0, 0.5)
        data = sample(m, 100, 0.5, 5)
        grid = list(np.linspace(0, 1, 21))
        draws = _rademacher_draws(data, grid, THRESH, 10_000, seed=1)
        ref = rademacher_mc(data, grid, THRESH, reps=1_000_000, seed=2)
        assert abs(draws.mean() - ref) <= 3 * draws.std() / math.sqrt(10_000)

    def test_bad_args(self):
        data = Dataset(features=np.array([[0.2]]), labels=[1], n_classes=2)
        with pytest.raises(ValidationError):
            rademacher_mc(data, [], THRESH, reps=10, seed=0)
        with pytest.raises(ValidationError):
            rademacher_mc(data, [0.5], THRESH, reps=0, seed=0)


class TestHoeffdingBlock:
    def test_empirical_rate_concentration(self):
        """Hoeffding: |n_pos/n - p'| <= sqrt(log(2/delta)/(2n)) in at least
        (1-delta)*reps - 3*sqrt(reps*delta*(1-delta)) of 10000 replicates."""
        reps, n, p_train, delta = 10_000, 500, 0.35, 0.1
        rng = np.random.default_rng(99)
        rates = (rng.random((reps, n)) < p_train).mean(axis=1)
        radius = math.sqrt(math.log(2 / delta) / (2 * n))
        hits = int(np.sum(np.abs(rates - p_train) <= radius))
        floor = (1 - delta) * reps - 3 * math.sqrt(reps * delta * (1 - delta))
        assert hits >= floor


class TestCoverage:
    def test_forced_equality_gives_zero_deviation(self):
        """When the plug-in rate equals the exact rate, the weight vectors
        coincide and the sup deviation is identically zero."""
        m = AnalyticModel(1.0, 1.0, 0.3)
        data = sample(m, 400, 0.5, 21)
        p_emp = np.mean(data.labels == 1)
        w_hat = class_shift_weights(data, TargetPrior(p=m.p))
        w_star = oracle_class_shift_weights(data, m.p, p_emp)
        np.testing.assert_allclose(w_hat.weights, w_star.weights, atol=1e-12)
        dev = _sup_threshold_deviation(
            data, w_hat.weights - w_star.weights, np.linspace(0, 1, 101)
        )
        assert dev <= 1e-12

    def test_sup_deviation_matches_direct_scan(self):
        m = AnalyticModel(1.0, 1.0, 0.3)
        data = sample(m, 150, 0.55, 23)
        rng = np.random.default_rng(2)
        diffs = rng.normal(size=data.n)
        grid = np.linspace(0, 1, 11)
        from werm.core import per_record_losses

        direct = max(
            abs(np.sum(diffs * per_record_losses(data, THRESH, float(t)))) / data.n
            for t in grid
        )
        assert _sup_threshold_deviation(data, diffs, grid) == pytest.approx(
            direct, abs=1e-12
        )

    def test_class_shift_coverage(self):
        m = AnalyticModel(1.0, 1.0, 0.3)
        res = coverage_check(
            "class_shift", m, n=800, delta=0.1, reps=60, seed=3, p_train=0.6
        )
        assert res.coverage >= 0.9
        assert res.valid

    def test_stratum_shift_coverage(self):
        sm = StratifiedThresholdModel(pos_rates=(0.3, 0.5, 0.7))
        res = coverage_check(
            "stratum_shift",
            sm,
            n=800,
            delta=0.1,
            reps=60,
            seed=4,
            pk=[1 / 3] * 3,
            pk_train=[0.5, 0.3, 0.2],
        )
        assert res.coverage >= 0.9

    def test_pu_coverage(self):
        m = AnalyticModel(1.0, 1.0, 0.3)
        res = coverage_check("pu", m, n=800, delta=0.1, reps=60, seed=5, q=0.4)
        assert res.coverage >= 0.9

    def test_small_n_flags_invalid_but_reports(self):
        m = AnalyticModel(1.0, 1.0, 0.3)
        res = coverage_check(
            "class_shift", m, n=30, delta=0.01, reps=10, seed=6, p_train=0.6, epsilon=0.1
        )
        assert not res.valid
        assert 0.0 <= res.coverage <= 1.0

    def test_zero_reps_rejected(self):
        m = AnalyticModel(1.0, 1.0, 0.3)
        with pytest.raises(ValidationError):
            coverage_check("class_shift", m, n=100, delta=0.1, reps=0, seed=0, p_train=0.5)

    def test_unknown_setting_rejected(self):
        """A name that is not a weights.setting key, of any type, is refused
        with ValidationError naming the settings, there and in coverage_check."""
        m = AnalyticModel(1.0, 1.0, 0.3)
        known = "the settings are class_shift, pu, stratum_shift$"
        for setting in ("covariate", ["class_shift"], None):
            with pytest.raises(ValidationError, match=known):
                coverage_check(setting, m, n=100, delta=0.1, reps=1, seed=0, p_train=0.6)
            with pytest.raises(ValidationError, match=known):
                weights.setting(setting)


# ---------------------------------------------------------------------------
# Bit identity with the branch-per-kind formulas the tables replaced
# ---------------------------------------------------------------------------


def _radius(log_arg, n):
    return math.sqrt(math.log(log_arg) / (2.0 * n))


def _reference_bound(kind, i):
    """(terms, required_n) of each kind, written out one branch per kind as
    the formulas stood before the deviation and excess tables."""
    n, delta, eps, rad = i.n, i.delta, i.epsilon, i.rademacher
    need = {
        "lemma1": ("phi_sup",), "corollary1": ("p", "epsilon"),
        "theorem1": ("max_pk", "epsilon", "K"), "theorem2": ("p", "epsilon"),
        "approx1": ("epsilon",), "approx2": ("epsilon", "K"), "approx3": ("epsilon", "p"),
    }[kind]
    for f in need:
        if getattr(i, f) is None:
            raise ValidationError(f"bound kind {kind!r} needs field {f!r}")
    if kind == "lemma1":
        terms = {
            "complexity": 4.0 * i.phi_sup * rad,
            "deviation": 2.0 * i.phi_sup * i.L * math.sqrt(2.0 * math.log(1.0 / delta) / n),
        }
        return terms, 1.0
    if kind == "corollary1":
        lead = 2.0 * max(i.p, 1.0 - i.p) / eps
        return {
            "estimation": lead * (2.0 * rad + math.sqrt(2.0 * math.log(2.0 / delta) / n)),
            "plug_in": (4.0 / eps**2) * _radius(4.0 / delta, n),
        }, 2.0 * math.log(4.0 / delta) / eps**2
    if kind == "theorem1":
        lead = 2.0 * i.max_pk / eps
        return {
            "estimation": lead * (2.0 * rad + i.L * math.sqrt(2.0 * math.log(2.0 / delta) / n)),
            "plug_in": (4.0 * i.L / eps**2) * _radius(4.0 * i.K / delta, n),
        }, 2.0 * math.log(4.0 * i.K / delta) / eps**2
    if kind == "theorem2":
        lead = 2.0 * max(2.0 * i.p, 1.0) / eps
        return {
            "estimation": lead * (2.0 * rad + math.sqrt(2.0 * math.log(2.0 / delta) / n)),
            "plug_in": (4.0 * (2.0 * i.p + 1.0) / eps**2) * _radius(4.0 / delta, n),
        }, 2.0 * math.log(4.0 / delta) / eps**2
    if kind == "approx1":
        value, required = (2.0 / eps**2) * _radius(2.0 / delta, n), 2.0 * math.log(2.0 / delta)
    elif kind == "approx2":
        value = (2.0 * i.L / eps**2) * _radius(2.0 * i.K / delta, n)
        required = 2.0 * math.log(2.0 * i.K / delta)
    else:
        value = (2.0 * (2.0 * i.p + 1.0) / eps**2) * _radius(2.0 / delta, n)
        required = 2.0 * math.log(2.0 / delta)
    return {"deviation": value}, required / eps**2


def _outcome(fn):
    """A bound's (value, terms, required_n, valid), or its error."""
    try:
        r = fn()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return r.value, r.terms, r.required_n, r.valid


def _reference_outcome(kind, inputs):
    def fn():
        terms, required = _reference_bound(kind, inputs)
        return BoundResult(float(sum(terms.values())), bool(inputs.n >= required), terms,
                           float(required))
    return _outcome(fn)


def _same(a, b):
    """Equal under ==, reading nan as equal to nan."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


_unit = dict(exclude_min=True, exclude_max=True)
PAIRED = {"corollary1": "approx1", "theorem1": "approx2", "theorem2": "approx3"}


class TestFormulaParity:
    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(EXCESS_BOUND_KINDS + DEVIATION_BOUND_KINDS),
        n=st.one_of(st.integers(1, 10**8), st.integers(1, 10)),
        delta=st.one_of(st.floats(0.0, 1.0, **_unit), st.floats(1e-12, 0.5)),
        epsilon=st.one_of(st.none(), st.floats(0.0, 0.5, **_unit)),
        L=st.floats(0.0, 50.0),
        phi_sup=st.one_of(st.none(), st.floats(0.0, 10.0)),
        p=st.one_of(st.none(), st.floats(0.0, 1.0, **_unit)),
        max_pk=st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True)),
        K=st.one_of(st.none(), st.integers(1, 10**6)),
        rademacher=st.floats(0.0, 2.0),
    )
    def test_equal_to_branch_per_kind_formulas(self, kind, **fields):
        """value, terms, required_n and valid are ==-equal to the formulas
        written out per kind, errors included; the excess kinds' plug-in
        term is 2 x the paired deviation bound at delta/2.  Inputs whose
        epsilon**2 underflows to 0 are refused when they are built."""
        if fields["epsilon"] is not None and fields["epsilon"] ** 2 == 0.0:
            with pytest.raises(ValidationError, match="epsilon"):
                BoundInputs(**fields)
            return
        inputs = BoundInputs(**fields)
        evaluate = evaluate_bound if kind in EXCESS_BOUND_KINDS else deviation_bound
        got = _outcome(lambda: evaluate(kind, inputs))
        want = _reference_outcome(kind, inputs)
        if kind in PAIRED and inputs.delta / 2.0 == 0.0 and want[0] is not ValidationError:
            # delta = 5e-324: the halved delta is 0, so the paired deviation
            # bound rejects it where the written-out formula gave inf
            want = (ValidationError, "delta must lie in (0, 1)")
        assert _same(got, want), (got, want)

    def test_smallest_delta_has_no_half(self):
        inputs = BoundInputs(n=10, delta=5e-324, epsilon=0.1, p=0.3)
        with pytest.raises(ValidationError, match="delta must lie in"):
            evaluate_bound("corollary1", inputs)
        assert evaluate_bound("corollary1", BoundInputs(n=10, delta=1e-323, epsilon=0.1, p=0.3)
                              ).value == math.inf

    def test_excess_is_estimation_plus_twice_deviation_at_half_delta(self):
        inputs = BoundInputs(n=4000, delta=0.05, epsilon=0.1, K=6, L=2.0, max_pk=0.4,
                             p=0.3, rademacher=0.03)
        for kind, paired in PAIRED.items():
            res = evaluate_bound(kind, inputs)
            dev = deviation_bound(paired, BoundInputs(**{**inputs.__dict__, "delta": 0.025}))
            assert res.terms["plug_in"] == 2.0 * dev.value
            assert (res.required_n, res.valid) == (dev.required_n, dev.valid)


# (mean, sd) of the draws at the block edges, taken from the bit kernel
# (one raw bit per record, blocks of 1,024)
RADEMACHER_PINS = {
    1: (0.09375, 0.0),
    1023: (0.12003604594330401, 0.045107473202783424),
    1024: (0.120025634765625, 0.04508667240062773),
    1025: (0.12003048780487804, 0.04506494111895331),
}


@pytest.mark.parametrize("reps", sorted(RADEMACHER_PINS))
def test_rademacher_pinned_at_block_edges(reps):
    data = sample(AnalyticModel(1.0, 1.0, 0.5), 64, 0.5, 6)
    grid = list(np.linspace(0, 1, 11))
    draws = _rademacher_draws(data, grid, THRESH, reps, 9)
    got = (rademacher_mc(data, grid, THRESH, reps, 9), float(draws.std()))
    assert got == RADEMACHER_PINS[reps]


def _one_call_rademacher(data, grid, reps, seed):
    """Per-draw maxima from one sign per record, the estimator's law by its
    definition: each block's (size, n) sign matrix is drawn in one call and
    multiplied by the (grid, n) loss matrix."""
    M = np.stack([per_record_losses(data, THRESH, h) for h in grid])
    n = M.shape[1]
    vals = []
    for b, done in enumerate(range(0, reps, 1024)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        size = (min(1024, reps - done), n)
        vals.append(np.abs(M @ (rng.integers(0, 2, size=size) * 2.0 - 1.0).T).max(axis=0) / n)
    return np.concatenate(vals)


def _record_cells(data, grid):
    """Each record's (class, bin) cell as class * bins + bin, its bin being
    the number of distinct thresholds at or below its x, and the bin count."""
    edges = np.unique(grid)
    bins = (edges[None, :] <= data.features[:, :1]).sum(axis=1)
    return bins + (edges.size + 1) * (data.labels == 1), edges.size + 1


def _one_call_cells(data, grid, reps, seed):
    """The bit kernel by its definition: each block draws all its raw words
    in one call, n // 64 + 1 a draw; the record at place t of the stable
    (class, bin) cell order takes bit t of its draw's words, read by shifts,
    as its sign; and a draw's maximum is max |M sigma| / n over the (grid, n)
    loss matrix M."""
    cells, _ = _record_cells(data, grid)
    place = np.empty(data.n, np.uint64)
    place[np.argsort(cells, kind="stable")] = np.arange(data.n)
    M = np.stack([per_record_losses(data, THRESH, h) for h in grid])
    vals = []
    for b, done in enumerate(range(0, reps, 1024)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        raw = rng.bit_generator.random_raw((min(1024, reps - done), data.n // 64 + 1))
        bits = (raw[:, place >> np.uint64(6)] >> (place & np.uint64(63))) & np.uint64(1)
        vals.append(np.abs(M @ (2.0 * bits - 1.0).T).max(axis=0) / data.n)
    return np.concatenate(vals)


RADEMACHER_GRID = [-math.inf, *np.linspace(0, 1, 9), math.inf]


# reps at the block edges (1,024 draws) and below; n at the word edges too
# (64 signs a word), so that cells straddle words and a last word is partial
@pytest.mark.parametrize("reps", [1, 15, 16, 17, 63, 64, 65, 1023, 1024, 1025, 2049])
@pytest.mark.parametrize("n", [1, 7, 64, 333, 2001, 63, 127, 128, 129])
def test_rademacher_equals_one_call_blocks(n, reps):
    data = sample(AnalyticModel(1.0, 1.0, 0.5), n, 0.5, n)
    got = _rademacher_draws(data, RADEMACHER_GRID, THRESH, reps, 9)
    assert np.array_equal(got, _one_call_cells(data, RADEMACHER_GRID, reps, 9))


def test_rademacher_reps_give_a_prefix():
    data = sample(AnalyticModel(1.0, 1.0, 0.5), 333, 0.5, 6)
    want = _rademacher_draws(data, RADEMACHER_GRID, THRESH, 2049, 9)[:1023]
    assert np.array_equal(_rademacher_draws(data, RADEMACHER_GRID, THRESH, 1023, 9), want)


def test_rademacher_law_is_the_record_sign_law():
    """Cell sign sums against one sign per record, on independent seeds
    fixed before the first run: the means agree within 4 standard errors."""
    data = sample(AnalyticModel(1.0, 1.0, 0.3), 2000, 0.3, 5)
    grid = list(np.linspace(0, 1, 101))
    got = _rademacher_draws(data, grid, THRESH, 20_000, 11)
    ref = _one_call_rademacher(data, grid, 20_000, 12)
    se = math.sqrt(got.var() / got.size + ref.var() / ref.size)
    assert abs(got.mean() - ref.mean()) <= 4 * se


@pytest.mark.parametrize("rows", [1, 3, 1024])
def test_rademacher_does_not_depend_on_row_count(monkeypatch, rows):
    data = sample(AnalyticModel(1.0, 1.0, 0.5), 333, 0.5, 6)
    want = _rademacher_draws(data, RADEMACHER_GRID, THRESH, 2049, 9)
    # a draw at n = 333 takes 6 words, and the grid's 12 bins make 24 cells
    monkeypatch.setattr(bounds, "_CHUNK", rows * (6 + 24))
    assert np.array_equal(_rademacher_draws(data, RADEMACHER_GRID, THRESH, 2049, 9), want)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rademacher_working_set_is_a_few_sign_rows():
    """At n = 4,000 one block's whole sign matrix, as int64 and as float64,
    is about 63 MB; a few rows of cell sign sums stay under 8 MB."""
    data = sample(AnalyticModel(1.0, 1.0, 0.5), 4000, 0.5, 6)
    peak = _traced_peak(lambda: _rademacher_draws(data, RADEMACHER_GRID, THRESH, 1024, 9))
    assert peak < 8e6


def test_rademacher_working_set_does_not_grow_with_the_grid():
    """At n = 4,000 a (1001, n) loss matrix alone would be 32 MB: a
    1,001-threshold grid peaks within 1 MB of an 11-threshold grid."""
    data = sample(AnalyticModel(1.0, 1.0, 0.5), 4000, 0.5, 6)
    peaks = [_traced_peak(lambda: _rademacher_draws(data, list(np.linspace(0, 1, size)),
                                                    THRESH, 1024, 9))
             for size in (11, 1001)]
    assert peaks[1] - peaks[0] < 1e6, peaks


def test_rademacher_working_set_at_the_count_ceiling():
    """At n = 2**20 records a per-record sign block of 16 rows is 134 MB
    as int64; the records are binned once, within 32 MB."""
    data = sample(AnalyticModel(1.0, 1.0, 0.5), 2**20, 0.5, 6)
    peak = _traced_peak(lambda: rademacher_mc(data, RADEMACHER_GRID, THRESH, 1024, 9))
    assert peak < 32e6


_tied_x = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(-0.5, 1.5)
_thresholds = st.sampled_from([-math.inf, math.inf, 0.0, -0.0, 0.5]) | st.floats(-1.0, 2.0)


@st.composite
def _rademacher_cases(draw):
    """Heavily tied x from a pool of at most 6 values, labels that may leave
    a class empty (n = 1 included), and an unsorted grid with repeats."""
    n = draw(st.integers(1, 50))
    pool = draw(st.lists(_tied_x, min_size=1, max_size=6))
    x = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    classes = draw(st.sampled_from([[0], [1], [0, 1]]))
    labels = np.array(draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n)))
    grid = draw(st.lists(_thresholds, min_size=1, max_size=12))
    grid += draw(st.lists(st.sampled_from(grid), max_size=4))
    data = Dataset(features=x[:, None], labels=labels, n_classes=2)
    return data, grid, draw(st.integers(1, 70)), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(_rademacher_cases())
def test_rademacher_equals_loss_matrix_reference(case):
    """For any signs, the (class, bin) cell sums swept equal max |M sigma|
    over the (grid, n) loss matrix M, so the cells lose nothing; and the
    records fall in the same cells, ties with the grid included."""
    data, grid, reps, seed = case
    signs = np.random.default_rng(seed).choice([-1, 1], size=(10, data.n))
    cells, size = _record_cells(data, grid)
    sums = np.stack([np.bincount(cells, weights=s, minlength=2 * size) for s in signs])
    M = np.stack([per_record_losses(data, THRESH, h) for h in grid])
    want = np.abs(M @ signs.T).max(axis=0)
    one_group = sums.reshape(len(signs), 1, 2, size)
    assert np.array_equal(bounds._count_deviations(one_group, np.ones_like), want)
    got = _rademacher_draws(data, grid, THRESH, reps, seed)
    assert np.array_equal(got, _one_call_cells(data, grid, reps, seed))


# ---------------------------------------------------------------------------
# coverage_check: the c04 calls, pinned
# ---------------------------------------------------------------------------

C04_MODEL = AnalyticModel(1.0, 1.0, 0.3)
C04_STRATIFIED = StratifiedThresholdModel(pos_rates=(0.2, 0.4, 0.6, 0.8))
C04_CALLS = {
    "class_shift": (C04_MODEL, dict(seed=41, p_train=0.6)),
    "stratum_shift": (C04_STRATIFIED, dict(seed=42, pk=[0.25] * 4, pk_train=[0.4, 0.3, 0.2, 0.1])),
    "pu": (C04_MODEL, dict(seed=43, q=0.4)),
}
# SHA-256 of repr((coverage, bound_value)) + deviations.tobytes() at the c04
# parameters (n=2000, delta=0.1, epsilon=0.3) with 40 replicates, blocks of
# 1,024: class_shift and pu taken from one binomial group count a replicate,
# stratum_shift from the count kernel (multinomial cell and bin counts)
COVERAGE_PINS = {
    "class_shift": "850f741a6ce1ac0dc556ee35fb92383e41caf6d9c4ff075b9e95db0f8c21962d",
    "stratum_shift": "35ac8ab7d4d0297ce35d5a0b343f88921ad253c0fa2bbfeccae371796b38e583",
    "pu": "73718d05aa9c35db6572b2e5e8d2aa60edc182ed6c17db2f6710ecdee6fbc6e1",
}
# the same with the default epsilon and 5 replicates, hashing
# repr((coverage, bound_value, required_n, valid)) + deviations.tobytes()
DEFAULT_EPSILON_PINS = {
    "class_shift": "824eb628ab313562cd568c0cbf9fa40397daf5d75d02037f7db470103f50a110",
    "stratum_shift": "f139303ae48adcaae854069758fb8520e22ee8502e23e986287142033b3d7f1d",
    "pu": "1e7c9efb6986f79001f212861fe842f0c2995e50c410558653568916a6ef59a3",
}


@pytest.mark.parametrize("setting", sorted(C04_CALLS))
def test_coverage_pinned(setting):
    model, kw = C04_CALLS[setting]
    r = coverage_check(setting, model, n=2000, delta=0.1, reps=40, epsilon=0.3, **kw)
    digest = hashlib.sha256(repr((r.coverage, r.bound_value)).encode() + r.deviations.tobytes())
    assert digest.hexdigest() == COVERAGE_PINS[setting]
    r = coverage_check(setting, model, n=2000, delta=0.1, reps=5, **kw)
    key = repr((r.coverage, r.bound_value, r.required_n, r.valid)).encode()
    assert hashlib.sha256(key + r.deviations.tobytes()).hexdigest() == DEFAULT_EPSILON_PINS[setting]


def _no_draws(monkeypatch):
    fail = lambda *a, **k: pytest.fail("drew")  # noqa: E731
    monkeypatch.setattr(analytic, "sample", fail)
    monkeypatch.setattr(analytic, "sample_pu", fail)
    monkeypatch.setattr(StratifiedThresholdModel, "sample", fail)


@pytest.mark.parametrize(
    "setting,rate",
    [("class_shift", {"p_train": 0.5}), ("pu", {"q": 0.5}),
     ("stratum_shift", {"pk": [0.5, 0.5], "pk_train": [0.5, 0.5]})],
)
def test_balanced_rate_asks_for_epsilon(monkeypatch, setting, rate):
    """min(rate, 1 - rate) is 1/2 at a balanced rate, outside (0, 1/2): the
    error names the setting and the rate argument, not an epsilon the
    caller never passed."""
    _no_draws(monkeypatch)
    model = StratifiedThresholdModel((0.3, 0.6)) if setting == "stratum_shift" else C04_MODEL
    name = next(k for k in rate if k != "pk")
    with pytest.raises(ValidationError, match=f"{setting}.*balanced {name}.*pass epsilon"):
        coverage_check(setting, model, n=100, delta=0.1, reps=2, seed=0, **rate)


@pytest.mark.parametrize("setting", sorted(C04_CALLS))
def test_wrong_model_type_rejected_before_any_draw(monkeypatch, setting):
    _no_draws(monkeypatch)
    model, kw = C04_CALLS[setting]
    wrong = C04_MODEL if model is C04_STRATIFIED else C04_STRATIFIED
    with pytest.raises(ValidationError, match=f"{setting} coverage needs a {type(model).__name__}"):
        coverage_check(setting, wrong, n=100, delta=0.1, reps=2, **kw)


def _record_setting_calls(monkeypatch) -> list:
    """Rebind each sampler and estimator of weights.setting at its home
    name to a wrapper that logs the call's name."""
    calls = []
    homes = [(weights, name) for name in (
        "class_shift_weights", "stratum_shift_weights", "pu_weights", "oracle_class_shift_weights",
        "oracle_stratum_shift_weights", "oracle_pu_weights",
    )] + [(analytic, "sample"), (analytic, "sample_pu"), (StratifiedThresholdModel, "sample")]
    for owner, name in homes:
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _f=fn, _n=name: calls.append(_n) or _f(*a))
    return calls


# a replicate's calls: the draw, the plug-in, the oracle
SETTING_CALLS = {
    "class_shift": ["sample", "class_shift_weights", "oracle_class_shift_weights"],
    "stratum_shift": ["sample", "stratum_shift_weights", "oracle_stratum_shift_weights"],
    "pu": ["sample_pu", "pu_weights", "oracle_pu_weights"],
}


@pytest.mark.parametrize(
    "scenario,rate", [("class_shift", {"p_train": 0.6}), ("pu", {"q": 0.4})]
)
def test_experiment_draws_go_through_home_names(monkeypatch, scenario, rate):
    """The same rebinding reaches the runner's test draw and each
    replicate's training draw and oracle weights."""
    calls = _record_setting_calls(monkeypatch)
    spec = ExperimentSpec(
        scenario=scenario, modes=("oracle",), replicates=2, n_train=50, n_test=50,
        train={"epochs": 1}, synthetic={"p": 0.3, **rate},
    )
    assert run_experiment(spec)["failures"] == []
    sampler, _, oracle = SETTING_CALLS[scenario]
    assert calls == ["sample"] + [sampler, oracle] * 2


# ---------------------------------------------------------------------------
# coverage_check: cell and bin counts, not records
# ---------------------------------------------------------------------------

PLUG_INS = {"class_shift": class_shift_weights, "pu": pu_weights,
            "stratum_shift": stratum_shift_weights}


def _law_inputs(setting, grid):
    """What coverage_check derives from the c04 arguments: the setting's row,
    its rates, prior, oracle target and training group shares, and the cell
    law on the grid."""
    model, kw = C04_CALLS[setting]
    row = weights.setting(setting)
    rates = np.asarray(kw[row.rate]) if "pk" in kw else kw[row.rate]
    prior = TargetPrior(pk=kw["pk"]) if "pk" in kw else TargetPrior(p=model.p)
    target = prior.pk_array() if "pk" in kw else prior.p
    shares = rates if "pk" in kw else np.array([1.0 - rates, rates])
    return model, row, rates, prior, target, shares, bounds._cell_law(setting, model, shares, grid)


def _record_counts(data, grid, groups):
    """A record draw's (group, class, bin) counts: the group is the stratum,
    else the label; bin j holds x in [grid[j-1], grid[j])."""
    group = data.labels if data.strata is None else data.strata
    counts = np.zeros((groups, 2, grid.size + 1), dtype=np.int64)
    bins = np.searchsorted(grid, data.features[:, 0], side="right")
    np.add.at(counts, (group, data.labels, bins), 1)
    return counts


@pytest.mark.parametrize("grid_size", [1, 2, 11, 101])
@pytest.mark.parametrize("n", [50, 2000])
@pytest.mark.parametrize("setting", sorted(C04_CALLS))
def test_count_formula_matches_record_sweep(setting, n, grid_size):
    """From one record draw's own cell and bin counts, the count formula
    gives the per-record sweep's sup deviation within 1e-12, on grids that
    hold only theta = 0, only the end points, or more."""
    grid = np.linspace(0.0, 1.0, grid_size)
    model, row, rates, prior, target, shares, joint = _law_inputs(setting, grid)
    oracle = row.plug_in_table(shares, 1, prior)
    checked = 0
    for r in range(20):
        data = row.sampler(model, n, rates, [2611, n, r])
        try:
            diffs = PLUG_INS[setting](data, prior).weights - row.oracle(data, target, rates).weights
        except (DegenerateClassError, EmptyStratumError):
            continue
        want = _sup_threshold_deviation(data, diffs, grid)
        counts = _record_counts(data, grid, joint.shape[0])[None]
        got = bounds._count_deviations(
            counts, lambda c: row.plug_in_table(c, n, prior) - oracle)[0] / n
        assert abs(got - want) <= 1e-12, (r, got, want)
        checked += 1
    assert checked >= 15


_label_diffs = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats(-1e3, 1e3))


@st.composite
def _tied_cases(draw):
    """x from a pool of at most 8 values that often sit on the grid or off
    [0, 1], labels that may leave a class empty, a diff per label."""
    n = draw(st.integers(1, 60))
    grid = np.linspace(0.0, 1.0, draw(st.integers(1, 30)))
    pool = draw(st.lists(st.one_of(st.sampled_from(list(grid[:3]) + [0.5, 1.0]),
                                   st.floats(-0.5, 1.5)), min_size=1, max_size=8))
    x = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.sampled_from(draw(st.sampled_from([[0], [1], [0, 1]]))),
                                    min_size=n, max_size=n)))
    data = Dataset(features=x[:, None], labels=labels, n_classes=2)
    return data, np.array([draw(_label_diffs), draw(_label_diffs)]), grid


@settings(max_examples=400, deadline=None)
@given(_tied_cases())
def test_count_formula_matches_record_sweep_on_ties(case):
    """Records on a threshold count as at or above it in both sweeps."""
    data, label_diffs, grid = case
    want = _sup_threshold_deviation(data, label_diffs[data.labels], grid)
    got = bounds._count_deviations(
        _record_counts(data, grid, 2)[None], lambda c: np.broadcast_to(label_diffs, c.shape)
    )[0] / data.n
    assert abs(got - want) <= 1e-12 * (1.0 + np.abs(label_diffs).max()), (got, want)


@pytest.mark.parametrize("setting", sorted(C04_CALLS))
def test_counts_follow_the_record_law(monkeypatch, setting):
    """Summed over 100 replicates of n = 1,000, the record sampler's cell and
    bin counts pass a chi-square test against the cell law at the 1e-3
    level, and so do the counts coverage_check draws for stratum_shift.  A
    label setting draws no cell counts (see the group-count tests below)."""
    grid = np.linspace(0.0, 1.0, 21)
    model, row, rates, _, _, _, joint = _law_inputs(setting, grid)
    n, reps = 1000, 100
    observed = [sum(_record_counts(row.sampler(model, n, rates, [5309, r]), grid, joint.shape[0])
                    for r in range(reps))]
    if row.group == "strata":
        seen = []
        monkeypatch.setattr(bounds, "_count_deviations", lambda counts, *_: (
            seen.append(counts.sum(axis=0)) or np.ones(len(counts))))
        coverage_check(setting, model, n=n, delta=0.1, reps=reps, epsilon=0.3, grid_size=21,
                       **{**C04_CALLS[setting][1], "seed": 5310})
        observed.append(sum(seen))
    expected = reps * n * joint
    live = expected > 0
    for counts in observed:
        assert counts.sum() == reps * n and counts[~live].sum() == 0
        assert stats.chisquare(counts[live], expected[live]).pvalue > 1e-3


LABEL_SETTINGS = [s for s in sorted(C04_CALLS) if weights.setting(s).group == "labels"]


def _label_diff(setting, n, grid, shares=None):
    """The cell law on the grid and coverage_check's plug-in minus oracle
    table at n, at c04 or at other training group ``shares``."""
    model, row, _, prior, _, c04_shares, _ = _law_inputs(setting, grid)
    shares = c04_shares if shares is None else shares
    oracle = row.plug_in_table(shares, 1, prior)
    return (bounds._cell_law(setting, model, shares, grid),
            lambda c: row.plug_in_table(c, n, prior) - oracle)


@pytest.mark.parametrize("grid_size", [1, 2, 11, 101])
@pytest.mark.parametrize("n", [50, 2000])
@pytest.mark.parametrize("setting", LABEL_SETTINGS)
def test_group_count_formula_equals_the_count_kernel(setting, n, grid_size):
    """On cell and bin counts drawn from the cell law at c04, the group-count
    formula of a label setting gives the count kernel's deviations to the
    bit, on grids that hold only theta = 0, only the end points, or more."""
    grid = np.linspace(0.0, 1.0, grid_size)
    joint, diff = _label_diff(setting, n, grid)
    rng = np.random.default_rng([7193, n, grid_size])
    counts = rng.multinomial(n, joint.ravel(), size=1000).reshape(1000, *joint.shape)
    got = bounds._label_deviations(counts.sum(axis=(2, 3)), diff, grid_size)
    assert got.tobytes() == bounds._count_deviations(counts, diff).tobytes()


@pytest.mark.parametrize("grid_size", [2, 101])
def test_group_count_formula_where_group_one_gap_is_larger(grid_size):
    """At p_train = 0.2, r_1/pi_1 = 1.5 exceeds r_0/pi_0 = 0.875, so theta = 1
    holds the sup: the formula takes it, within rounding of the count
    kernel's sum over the bins."""
    n, grid = 2000, np.linspace(0.0, 1.0, grid_size)
    joint, diff = _label_diff("class_shift", n, grid, np.array([0.8, 0.2]))
    rng = np.random.default_rng([7194, grid_size])
    counts = rng.multinomial(n, joint.ravel(), size=1000).reshape(1000, *joint.shape)
    groups = counts.sum(axis=(2, 3))
    got = bounds._label_deviations(groups, diff, grid_size)
    assert np.abs(got - bounds._count_deviations(counts, diff)).max() / n <= 1e-15
    assert np.any(got > np.abs(groups * diff(groups))[:, 0])


@pytest.mark.parametrize("setting", LABEL_SETTINGS)
def test_label_deviations_follow_the_group_count_law(setting):
    """A label setting's replicate is one group count k ~ Binomial(n, pi_1),
    and its deviation |k - n*pi_1|/n * max_g r_g/pi_g.  At c04, 4,000
    replicates sit on those atoms and pass a chi-square test against the
    binomial law at the 1e-3 level, the tail pooled to 5 expected."""
    model, kw = C04_CALLS[setting]
    n, reps = 2000, 4000
    _, row, _, prior, _, shares, _ = _law_inputs(setting, np.linspace(0.0, 1.0, 101))
    r = coverage_check(setting, model, n=n, delta=0.1, reps=reps, epsilon=0.3,
                       **{**kw, "seed": 6151})
    centre = n * shares[1]
    assert centre == round(centre)  # 1,200 and 800: the atoms are |k - centre|
    steps = r.deviations * n / row.plug_in_table(shares, 1, prior).max()
    j = np.rint(steps).astype(int)
    assert np.abs(steps - j).max() < 1e-9
    k = np.arange(n + 1)
    expected = reps * np.bincount(np.abs(k - int(centre)), stats.binom.pmf(k, n, shares[1]))
    observed = np.bincount(j, minlength=expected.size)
    cut = int(np.argmax(expected < 5))
    pooled = lambda a: np.append(a[:cut], a[cut:].sum())  # noqa: E731
    assert stats.chisquare(pooled(observed), pooled(expected)).pvalue > 1e-3


def test_label_settings_draw_no_cell_counts(monkeypatch):
    """class_shift and pu run without the cell law or the count kernel;
    stratum_shift still needs both."""
    def fail(*args):
        raise RuntimeError("cell kernel")

    monkeypatch.setattr(bounds, "_cell_law", fail)
    monkeypatch.setattr(bounds, "_count_deviations", fail)
    for setting in sorted(C04_CALLS):
        model, kw = C04_CALLS[setting]
        call = lambda: coverage_check(  # noqa: E731
            setting, model, n=2000, delta=0.1, reps=2048, epsilon=0.3, **kw)
        if setting in LABEL_SETTINGS:
            assert call().reps == 2048
        else:
            with pytest.raises(RuntimeError, match="cell kernel"):
                call()


@pytest.mark.parametrize("setting", sorted(C04_CALLS))
def test_coverage_reps_give_a_prefix(setting):
    """Fewer replicates give a prefix of the deviations, within the first
    block of 1,024 and across it."""
    model, kw = C04_CALLS[setting]
    run = lambda reps: coverage_check(  # noqa: E731
        setting, model, n=2000, delta=0.1, reps=reps, epsilon=0.3, **kw).deviations
    long = run(2000)
    for reps in (40, 1100):
        assert run(reps).tobytes() == long[:reps].tobytes()


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_coverage_does_not_depend_on_row_count(monkeypatch, rows):
    monkeypatch.setattr(bounds, "_ROWS", rows)
    for setting in sorted(C04_CALLS):
        test_coverage_pinned(setting)


@pytest.mark.parametrize("grid_size", [1, 2])
@pytest.mark.parametrize("setting", sorted(C04_CALLS))
def test_coverage_on_the_grid_end_points(setting, grid_size):
    model, kw = C04_CALLS[setting]
    r = coverage_check(setting, model, n=2000, delta=0.1, reps=20, epsilon=0.3,
                       grid_size=grid_size, **kw)
    assert r.deviations.shape == (20,) and np.all(np.isfinite(r.deviations))
    assert np.all(r.deviations >= 0) and 0.0 <= r.coverage <= 1.0


def _empty_group_error(call):
    try:
        call()
    except (DegenerateClassError, EmptyStratumError) as err:
        return type(err), str(err), vars(err)
    return None


@pytest.mark.parametrize("setting", sorted(C04_CALLS))
def test_empty_group_same_error_on_both_paths(setting):
    """At n = 1 every replicate has an empty class or stratum: coverage_check
    raises what the record estimator raises.  On equal counts, the group
    table and the record estimator name the same group."""
    model, row, rates, prior, _, _, _ = _law_inputs(setting, np.linspace(0.0, 1.0, 3))
    kw = C04_CALLS[setting][1]
    count_path = _empty_group_error(lambda: coverage_check(
        setting, model, n=1, delta=0.1, reps=3, epsilon=0.3, **kw))
    record = row.sampler(model, 1, rates, [77, 0])
    assert count_path is not None
    assert count_path[0] == _empty_group_error(lambda: PLUG_INS[setting](record, prior))[0]
    seen = set()
    for r in range(60):
        data = row.sampler(model, 3, rates, [4407, r])
        counts = np.bincount(getattr(data, row.group), minlength=max(np.size(rates), 2))
        on_records = _empty_group_error(lambda: PLUG_INS[setting](data, prior))
        assert _empty_group_error(lambda: row.plug_in_table(counts, 3, prior)) == on_records
        assert _empty_group_error(lambda: row.plug_in_table(counts[None], 3, prior)) == on_records
        seen.add(on_records and on_records[1])
    assert len(seen) >= 2


@pytest.mark.parametrize("setting", sorted(C04_CALLS))
def test_coverage_draws_no_records(monkeypatch, setting):
    """coverage_check draws counts: no sampler or record estimator runs, and
    no Dataset is built."""
    calls = _record_setting_calls(monkeypatch)
    _no_draws(monkeypatch)
    monkeypatch.setattr(Dataset, "__post_init__", lambda self: pytest.fail("built a Dataset"))
    model, kw = C04_CALLS[setting]
    assert coverage_check(setting, model, n=200, delta=0.1, reps=3, epsilon=0.3, **kw).reps == 3
    assert calls == []


# ---------------------------------------------------------------------------
# Typed errors before the first replicate is drawn
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "setting,bad",
    [("class_shift", {"grid_size": 0}), ("class_shift", {"grid_size": -3}),
     ("class_shift", {"grid_size": 2.5}), ("pu", {"grid_size": "101"}),
     ("class_shift", {"seed": -1}), ("pu", {"seed": 2.5}), ("pu", {"seed": None}),
     ("stratum_shift", {"pk_train": [0.4, 0.3, 0.2, 0.2]}),
     ("stratum_shift", {"pk_train": [0.6, 0.5, -0.1, 0.0]}),
     ("stratum_shift", {"pk_train": [np.nan, 0.3, 0.2, 0.1]}),
     ("stratum_shift", {"pk_train": []}),
     # a rate keyword the setting does not read
     ("class_shift", {"q": 0.9}), ("class_shift", {"pk": [0.5, 0.5]}),
     ("class_shift", {"pk_train": [1.0]}), ("pu", {"p_train": 0.6}), ("pu", {"pk": [1.0]}),
     ("pu", {"pk_train": [1.0]}), ("stratum_shift", {"p_train": 0.6}),
     ("stratum_shift", {"q": 0.4})],
)
def test_bad_arguments_rejected_before_any_draw(monkeypatch, setting, bad):
    _no_draws(monkeypatch)
    model, kw = C04_CALLS[setting]
    unread = (set(bad) - set(kw)) & {"p_train", "q", "pk", "pk_train"}
    match = f"{setting} coverage reads .*, not {unread.pop()}$" if unread else None
    with pytest.raises(ValidationError, match=match):
        coverage_check(setting, model, n=100, delta=0.1, reps=2, epsilon=0.3, **{**kw, **bad})


@pytest.mark.parametrize("pk", [[0.5, 0.5], [0.2] * 5])
def test_pk_of_another_length_than_pk_train_rejected_before_any_draw(monkeypatch, pk):
    monkeypatch.setattr(bounds, "_by_block", lambda *a: pytest.fail("drew"))
    with pytest.raises(ValidationError, match="^pk and pk_train must have equal length$"):
        coverage_check("stratum_shift", C04_STRATIFIED, n=100, delta=0.1, reps=3, seed=1,
                       pk=pk, pk_train=[0.25] * 4, epsilon=0.3)


def test_nan_stratum_prior_rejected_before_any_draw(monkeypatch):
    _no_draws(monkeypatch)
    model, kw = C04_CALLS["stratum_shift"]
    with pytest.raises(ValidationError, match="finite"):
        coverage_check("stratum_shift", model, n=100, delta=0.1, reps=2, epsilon=0.3,
                       **{**kw, "pk": [np.nan, 0.5, 0.25, 0.25]})


@pytest.mark.parametrize("seed", [-1, 2.5, "seven"])
def test_rademacher_bad_seed_is_typed(seed):
    data = Dataset(features=np.array([[0.2]]), labels=[1], n_classes=2)
    with pytest.raises(ValidationError, match="seed"):
        rademacher_mc(data, [0.5], THRESH, reps=10, seed=seed)


# ---------------------------------------------------------------------------
# Seeded blocks on threads
# ---------------------------------------------------------------------------

# SHA-256 of deviations.tobytes() at the c04 parameters (n=2000, delta=0.1,
# epsilon=0.3) with 3,000 replicates, three blocks and the last one short,
# taken from one loop over the blocks: class_shift and pu from one group
# count a replicate, stratum_shift from the count kernel
POOL_PINS = {
    "class_shift": "38579d002241c2a070891f228b9fa481ad40aeb569c32d354a68942f318757aa",
    "stratum_shift": "23172c8a20e7a3cd7875ab7fc7c2b245c83c34f30b59258360620eef5586ad17",
    "pu": "4a58d5ca2faf72b2233c36eaf12be79b035ff5f96cbf5bf48c1714680063a5d6",
}


def _cpus(monkeypatch, count):
    monkeypatch.setattr(bounds, "_usable_cpus", lambda: count)


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_coverage_same_bits_on_any_cpu_count(monkeypatch, cpus):
    """Block b draws from its own stream into its own slot, so any thread
    count gives the one-loop deviations, byte for byte."""
    _cpus(monkeypatch, cpus)
    for setting in sorted(C04_CALLS):
        model, kw = C04_CALLS[setting]
        r = coverage_check(setting, model, n=2000, delta=0.1, reps=3000, epsilon=0.3, **kw)
        assert hashlib.sha256(r.deviations.tobytes()).hexdigest() == POOL_PINS[setting]
        test_coverage_pinned(setting)


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_rademacher_same_bits_on_any_cpu_count(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    data = sample(AnalyticModel(1.0, 1.0, 0.5), 333, 0.5, 6)
    for reps in (1, 1024, 1025, 4000):
        got = _rademacher_draws(data, RADEMACHER_GRID, THRESH, reps, 9)
        assert got.tobytes() == _one_call_cells(data, RADEMACHER_GRID, reps, 9).tobytes()
    for reps in sorted(RADEMACHER_PINS):
        test_rademacher_pinned_at_block_edges(reps)


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_lowest_failing_block_raises_in_the_caller(monkeypatch, cpus):
    """Blocks 2 and 3 of five raise: the caller gets block 2's exception
    itself, as one loop over the blocks would raise it."""
    _cpus(monkeypatch, cpus)
    raised = {}

    def draw(rng, rows):
        block = rng.bit_generator.seed_seq.entropy[1]
        if block in (2, 3):
            raise raised.setdefault(block, ValueError(f"block {block}"))
        return np.zeros(rows)

    with pytest.raises(ValueError) as info:
        bounds._by_block(3, 5 * 1024, 16, draw)
    assert info.value is raised[2]


def test_no_block_starts_above_a_failed_one(monkeypatch):
    """Block 1 fails on the other thread while the caller is still in block
    0: the caller then stops, as one loop would, and draws no block 2, 4 or 6."""
    _cpus(monkeypatch, 2)
    drawn, failed, worker = set(), threading.Event(), []

    def draw(rng, rows):
        block = rng.bit_generator.seed_seq.entropy[1]
        if block == 0 and block not in drawn:
            assert failed.wait(10)
            worker[0].join(10)  # block 1's failure is recorded once its thread ends
        drawn.add(block)
        if block == 1:
            worker.append(threading.current_thread())
            failed.set()
            raise ValueError("block 1")
        return np.zeros(rows)

    with pytest.raises(ValueError, match="block 1"):
        bounds._by_block(3, 8 * 1024, 16, draw)
    assert drawn == {0, 1}


def test_an_interrupt_while_joining_stops_every_thread(monkeypatch):
    """An interrupt that lands while the caller waits reaches the caller
    after each thread's current block: the worker draws block 1 and no
    other, and no thread is left running."""
    _cpus(monkeypatch, 2)
    drawn, worker = [], []
    in_block_1, interrupted = threading.Event(), threading.Event()
    real_join = threading.Thread.join

    def join(thread, timeout=None):
        if not interrupted.is_set():
            interrupted.set()
            raise KeyboardInterrupt
        return real_join(thread, timeout)

    def draw(rng, rows):
        block = rng.bit_generator.seed_seq.entropy[1]
        if block == 0 and block not in drawn:
            assert in_block_1.wait(10)
        if block == 1 and block not in drawn:
            worker.append(threading.current_thread())
            in_block_1.set()
            assert interrupted.wait(10)
            time.sleep(0.2)  # the caller records the interrupt meanwhile
        drawn.append(block)
        return np.zeros(rows)

    monkeypatch.setattr(threading.Thread, "join", join)
    with pytest.raises(KeyboardInterrupt):
        bounds._by_block(3, 8 * 1024, 16, draw)
    assert not worker[0].is_alive()
    assert {b for b in drawn if b % 2} == {1}


def test_many_blocks_on_more_threads_than_cores(monkeypatch):
    """64 blocks of chunks of 16 on eight threads, switching threads every
    microsecond: every slot holds its own block's draws, as in one loop."""
    draw = lambda rng, rows: rng.random(rows)  # noqa: E731
    _cpus(monkeypatch, 1)
    want = bounds._by_block(5, 64 * 1024, 16, draw)
    _cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = bounds._by_block(5, 64 * 1024, 16, draw)
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == want.tobytes()


def test_warning_in_a_worker_raises_in_the_caller(monkeypatch):
    """A RuntimeWarning turned error in a worker thread's plug-in table
    reaches the coverage_check caller; the caller's own blocks do not warn."""
    _cpus(monkeypatch, 2)
    real = weights._class_shift_table

    def table(counts, n, prior):
        if threading.current_thread() is not threading.main_thread():
            warnings.warn("plug-in table", RuntimeWarning)
        return real(counts, n, prior)

    monkeypatch.setattr(weights, "_class_shift_table", table)
    model, kw = C04_CALLS["class_shift"]
    with warnings.catch_warnings(), pytest.raises(RuntimeWarning, match="plug-in table"):
        warnings.simplefilter("error", RuntimeWarning)
        coverage_check("class_shift", model, n=2000, delta=0.1, reps=2048, epsilon=0.3, **kw)


def test_errstate_reaches_the_worker_threads(monkeypatch):
    """numpy keeps errstate in a context variable, which a new thread does
    not inherit: block 1's thread runs in a copy of the caller's context."""
    _cpus(monkeypatch, 2)
    real, seen = bounds._count_deviations, []

    def recorded(counts, diff):
        seen.append((threading.current_thread() is threading.main_thread(),
                     np.geterr()["divide"]))
        return real(counts, diff)

    monkeypatch.setattr(bounds, "_count_deviations", recorded)
    model, kw = C04_CALLS["stratum_shift"]
    with np.errstate(divide="raise"):
        coverage_check("stratum_shift", model, n=2000, delta=0.1, reps=2048, epsilon=0.3, **kw)
    assert {divide for _, divide in seen} == {"raise"}
    assert {on_main for on_main, _ in seen} == {True, False}


@pytest.mark.parametrize("cpus,reps", [(5, 1024), (1, 3000)])
def test_one_block_or_one_cpu_starts_no_thread(monkeypatch, cpus, reps):
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(threading, "Thread", lambda *a, **k: pytest.fail("started a thread"))
    model, kw = C04_CALLS["pu"]
    coverage_check("pu", model, n=2000, delta=0.1, reps=reps, epsilon=0.3, **kw)


def test_rademacher_working_set_on_threads(monkeypatch):
    """Four blocks on four threads hold four chunks of sign sums at once:
    still under the one-block bound of 8 MB at n = 4,000."""
    _cpus(monkeypatch, 4)
    data = sample(AnalyticModel(1.0, 1.0, 0.5), 4000, 0.5, 6)
    peak = _traced_peak(lambda: _rademacher_draws(data, RADEMACHER_GRID, THRESH, 4096, 9))
    assert peak < 8e6


def test_usable_cpus_reads_the_affinity_set_else_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert bounds._usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert bounds._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert bounds._usable_cpus() == 1
