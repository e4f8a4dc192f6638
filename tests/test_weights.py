"""Plug-in weight estimators, Kaplan-Meier, and IPCW."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from werm import analytic, experiment, synthetic
from werm.core import (
    Dataset,
    DegenerateClassError,
    EmptyStratumError,
    LossSpec,
    PositivityViolationError,
    SchemaError,
    ValidationError,
    weighted_empirical_risk,
)
from werm.weights import (
    KmCurve,
    TargetPrior,
    class_shift_weights,
    ipcw_weights,
    km_fit,
    oracle_class_shift_weights,
    oracle_pu_weights,
    oracle_stratum_shift_weights,
    pu_weights,
    stratum_shift_weights,
)

THRESH = LossSpec("threshold-sign")
NOT_A_DISTRIBUTION = re.escape(
    "pk_train must be a nonempty vector of finite, nonnegative stratum probabilities "
    "that sum to 1 within 1e-09"
)


def labeled(labels, strata=None):
    labels = np.asarray(labels)
    return Dataset(
        features=np.zeros((labels.size, 1)), labels=labels, strata=strata, n_classes=2
    )


class TestTargetPrior:
    def test_p_out_of_range(self):
        with pytest.raises(ValidationError):
            TargetPrior(p=0.0)
        with pytest.raises(ValidationError):
            TargetPrior(p=1.0)

    def test_pk_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            TargetPrior(pk=(0.5, 0.4))
        TargetPrior(pk=(1.0,))  # single stratum allowed

    @pytest.mark.parametrize("pk", [(np.nan, 1.0), (np.nan,), (0.5, np.nan, 0.5)])
    def test_pk_nan_rejected(self, pk):
        with pytest.raises(ValidationError, match="finite"):
            TargetPrior(pk=pk)


class TestClassShift:
    def test_derived_example(self):
        # labels [+,+,-,-,-], p = 0.6 -> w+ = 1.5, w- = 2/3
        w = class_shift_weights(labeled([1, 1, 0, 0, 0]), TargetPrior(p=0.6))
        np.testing.assert_allclose(w.weights[:2], 1.5)
        np.testing.assert_allclose(w.weights[2:], 2.0 / 3.0)
        assert abs(w.mean - 1.0) <= 1e-12

    def test_empirical_rate_gives_unit_weights(self):
        data = labeled([1, 1, 0, 0, 0])
        w = class_shift_weights(data, TargetPrior(p=2.0 / 5.0))
        np.testing.assert_allclose(w.weights, 1.0, atol=1e-15)

    def test_single_class_degenerate(self):
        with pytest.raises(DegenerateClassError) as err:
            class_shift_weights(labeled([1, 1, 1]), TargetPrior(p=0.5))
        assert err.value.group == 0

    def test_reproduces_two_ratio_objective(self):
        """Core's (1/n) sum w*loss equals the per-class count-normalized form."""
        rng = np.random.default_rng(5)
        x = rng.random(40)
        y = rng.integers(0, 2, 40)
        y[:2] = [0, 1]
        data = Dataset(features=x[:, None], labels=y, n_classes=2)
        p, theta = 0.35, 0.6
        w = class_shift_weights(data, TargetPrior(p=p))
        via_core = weighted_empirical_risk(data, w, THRESH, theta)
        pos = y == 1
        direct = (p / pos.sum()) * np.sum(x[pos] < theta) + (
            (1 - p) / (~pos).sum()
        ) * np.sum(x[~pos] >= theta)
        assert via_core == pytest.approx(direct, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_mean_weight_is_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 60))
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        w = class_shift_weights(labeled(y), TargetPrior(p=float(rng.uniform(0.05, 0.95))))
        assert abs(w.mean - 1.0) <= 1e-12


class TestStratumShift:
    def test_derived_example(self):
        # strata [0,0,1], pk = [.5,.5] -> [0.75, 0.75, 1.5]
        data = labeled([0, 1, 0], strata=[0, 0, 1])
        w = stratum_shift_weights(data, TargetPrior(pk=(0.5, 0.5)))
        np.testing.assert_allclose(w.weights, [0.75, 0.75, 1.5])

    def test_empirical_frequencies_give_unit_weights(self):
        data = labeled([0, 1, 0, 1], strata=[0, 0, 1, 2])
        w = stratum_shift_weights(data, TargetPrior(pk=(0.5, 0.25, 0.25)))
        np.testing.assert_allclose(w.weights, 1.0, atol=1e-15)

    def test_single_stratum(self):
        data = labeled([0, 1], strata=[0, 0])
        w = stratum_shift_weights(data, TargetPrior(pk=(1.0,)))
        np.testing.assert_allclose(w.weights, 1.0)

    def test_empty_stratum_named(self):
        data = labeled([0, 1], strata=[0, 0])
        with pytest.raises(EmptyStratumError) as err:
            stratum_shift_weights(data, TargetPrior(pk=(0.5, 0.5)))
        assert err.value.stratum == 1

    def test_reproduces_count_normalized_objective(self):
        rng = np.random.default_rng(6)
        n = 60
        x = rng.random(n)
        y = rng.integers(0, 2, n)
        s = rng.integers(0, 3, n)
        s[:3] = [0, 1, 2]
        y[:2] = [0, 1]
        data = Dataset(features=x[:, None], labels=y, strata=s, n_classes=2)
        pk = np.array([0.2, 0.5, 0.3])
        theta = 0.45
        w = stratum_shift_weights(data, TargetPrior(pk=tuple(pk)))
        via_core = weighted_empirical_risk(data, w, THRESH, theta)
        loss = np.where(y == 1, x < theta, x >= theta).astype(float)
        counts = np.bincount(s, minlength=3)
        direct = sum(
            pk[k] / counts[k] * loss[s == k].sum() for k in range(3)
        )
        assert via_core == pytest.approx(direct, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_mean_weight_is_one(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 6))
        n = int(rng.integers(K, 60) + K)
        s = np.concatenate([np.arange(K), rng.integers(0, K, n - K)])
        pk = rng.random(K) + 0.1
        pk = pk / pk.sum()
        data = labeled(rng.integers(0, 2, n), strata=s)
        w = stratum_shift_weights(data, TargetPrior(pk=tuple(pk)))
        assert abs(w.mean - 1.0) <= 1e-12


class TestPu:
    def test_derived_example(self):
        # n=4, n_pos=1, p=0.3 -> w+ = 2.4, w- = 4/3
        w = pu_weights(labeled([1, 0, 0, 0]), TargetPrior(p=0.3))
        assert w.weights[0] == pytest.approx(2.4)
        np.testing.assert_allclose(w.weights[1:], 4.0 / 3.0)

    def test_balanced_case(self):
        w = pu_weights(labeled([1, 1, 0, 0]), TargetPrior(p=0.5))
        np.testing.assert_allclose(w.weights, 2.0)

    def test_no_positives_errors(self):
        with pytest.raises(DegenerateClassError):
            pu_weights(labeled([0, 0]), TargetPrior(p=0.5))

    def test_offset(self):
        """The weighted 0/1 risk less p is the test risk of each constant
        classifier: 1 - p for all positive, p for all negative."""
        data = labeled([1, 0, 0, 0])
        for p in (0.3, 1e-9, 1 - 1e-12):
            w = pu_weights(data, TargetPrior(p=p)).weights
            assert np.mean(w * (data.labels == 0)) - p == pytest.approx(1.0 - p)
            assert np.mean(w * (data.labels == 1)) - p == pytest.approx(p, abs=1e-15)

    def test_reproduces_direct_objective(self):
        m = analytic.AnalyticModel(1.0, 1.0, 0.4)
        data = analytic.sample_pu(m, 300, 0.3, 11)
        w = pu_weights(data, TargetPrior(p=m.p))
        theta = 0.55
        via_core = weighted_empirical_risk(data, w, THRESH, theta)
        x = data.features[:, 0]
        pos = data.labels == 1
        direct = (2 * m.p / pos.sum()) * np.sum(x[pos] < theta) + (
            1.0 / (~pos).sum()
        ) * np.sum(x[~pos] >= theta)
        assert via_core == pytest.approx(direct, abs=1e-12)


class TestIdealWeightUnbiasedness:
    def test_monte_carlo_mean_matches_true_risk(self):
        """E[(1/n) sum phi(y_i) loss_i] equals the exact risk; checked with
        2000 replicates at 4 standard errors."""
        m = analytic.AnalyticModel(1.0, 1.0, 0.3)
        p_train, n, reps, theta = 0.6, 200, 2000, 0.5
        target = analytic.true_risk(m, theta)
        vals = []
        for r in range(reps):
            data = analytic.sample(m, n, p_train, [31337, r])
            w = oracle_class_shift_weights(data, m.p, p_train)
            vals.append(weighted_empirical_risk(data, w, THRESH, theta))
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - target) <= 4 * se


class TestKaplanMeier:
    def test_hand_product_limit(self):
        km = km_fit([2.0, 3.0, 5.0, 7.0], [True, True, False, True])
        np.testing.assert_array_equal(km.times, [2.0, 3.0, 7.0])
        np.testing.assert_allclose(km.survival, [0.75, 0.5, 0.0])
        np.testing.assert_allclose(km.survival_at([2, 3, 5, 7]), [0.75, 0.5, 0.5, 0.0])

    def test_no_events_is_all_ones(self):
        km = km_fit([1.0, 2.0, 3.0], [False, False, False])
        assert km.times.size == 0
        np.testing.assert_allclose(km.survival_at([0.0, 5.0]), 1.0)

    def test_single_event(self):
        km = km_fit([4.0], [True])
        np.testing.assert_allclose(km.survival_at(4.0), 0.0)
        np.testing.assert_allclose(km.survival_before(4.0), 1.0)

    def test_all_events_equals_empirical_survival(self):
        rng = np.random.default_rng(8)
        t = rng.exponential(size=200)
        km = km_fit(t, np.ones(200, dtype=bool))
        for probe in rng.choice(t, size=20, replace=False):
            assert km.survival_at(probe) == pytest.approx(np.mean(t > probe), abs=1e-12)

    def test_ties_events_processed_before_censorings(self):
        # the record censored at t=2 stays at risk for the event at t=2
        km = km_fit([2.0, 2.0, 3.0], [True, False, True])
        np.testing.assert_allclose(km.survival_at(2.0), 2.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            km_fit([], [])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40, 300, 2000])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scipy_ecdf(self, n, seed):
        """Differential oracle: scipy's right-censored ECDF survival, with
        heavy ties between event and censoring times (a few integer times)
        and event shares from none to all."""
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng([n, seed])
        t = rng.integers(0, max(2, n // 10), n).astype(float)
        events = rng.random(n) < [0.0, 0.3, 0.8, 1.0][seed]
        km = km_fit(t, events)
        sf = scipy_stats.ecdf(scipy_stats.CensoredData.right_censored(t, ~events)).sf
        grid = np.unique(np.concatenate([t, t + 0.5, [-1.0, t.max() + 1.0]]))
        np.testing.assert_allclose(km.survival_at(grid), sf.evaluate(grid), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            km.survival_before(grid), sf.evaluate(grid - 0.25), rtol=1e-12, atol=1e-15
        )

    def test_csv_round_trip(self, tmp_path):
        km = km_fit([2.0, 3.0, 5.0, 7.0], [True, True, False, True])
        path = tmp_path / "km.csv"
        km.to_csv(path)
        times, survival = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1).T
        np.testing.assert_array_equal(times, km.times)
        np.testing.assert_array_equal(survival, km.survival)

    def test_empty_curve_is_one_everywhere(self):
        km = KmCurve(times=[], survival=[])
        assert km.times.shape == km.survival.shape == (0,)
        assert km.survival_at([0.0, 5.0]).tolist() == [1.0, 1.0]

    def test_csv_bytes(self, tmp_path):
        """CRLF line ends and repr floats (bytes as written before the CSV
        writers were merged)."""
        km_fit([2.0, 3.0, 5.0, 7.0], [True, True, False, True]).to_csv(tmp_path / "km.csv")
        assert (tmp_path / "km.csv").read_bytes() == b"t,s\r\n2.0,0.75\r\n3.0,0.5\r\n7.0,0.0\r\n"


class TestIpcw:
    def survival_data(self, times, events):
        times = np.asarray(times, dtype=float)
        return Dataset(
            features=np.zeros((times.size, 1)),
            labels=np.zeros(times.size, dtype=int),
            times=times,
            events=events,
            n_classes=2,
        )

    def test_censored_records_get_zero(self):
        data = self.survival_data([1.0, 2.0], [True, False])
        km = km_fit(data.times, ~data.events)
        w = ipcw_weights(data, km)
        assert w.weights[1] == 0.0

    def test_uncensored_only_gives_unit_weights(self):
        data = self.survival_data([1.0, 2.0, 3.0], [True, True, True])
        km = km_fit(data.times, ~data.events)
        np.testing.assert_allclose(ipcw_weights(data, km).weights, 1.0)

    def test_half_survival_doubles_weight(self):
        # censoring events at t=1,2 leave S_cens(3-) = 0.5 * ... build directly
        km = KmCurve(times=np.array([2.0]), survival=np.array([0.5]))
        data = self.survival_data([3.0], [True])
        assert ipcw_weights(data, km).weights[0] == pytest.approx(2.0)

    def test_positivity_violation_names_record(self):
        km = KmCurve(times=np.array([1.0]), survival=np.array([0.0]))
        data = self.survival_data([0.5, 2.0], [True, True])
        with pytest.raises(PositivityViolationError) as err:
            ipcw_weights(data, km)
        assert err.value.record_index == 1

    def test_needs_survival_fields(self):
        data = Dataset(features=np.zeros((2, 1)), labels=[0, 1])
        km = km_fit([1.0], [True])
        with pytest.raises(SchemaError):
            ipcw_weights(data, km)

    @staticmethod
    def known_law_weights(cspec, data):
        """event / S_c(t) written out for the exponential censoring law."""
        w = np.zeros(data.n)
        unc = np.flatnonzero(data.events)
        w[unc] = 1.0 / np.exp(-cspec.censor_rate * np.asarray(data.times[unc], dtype=float))
        return w

    @pytest.mark.parametrize("fields", [{}, {"slope": -1.0, "censor_rate": 2.5, "horizon": 0.5}])
    def test_censored_oracle_is_the_known_law_formula(self, fields):
        spec = experiment.ExperimentSpec(scenario="censored", modes=("oracle",), replicates=4,
                                         n_train=300, synthetic=fields)
        shared = experiment.SCENARIOS["censored"].shared(spec, [spec.base_seed, 999])
        for seed in spec.seeds():
            data = shared.draw_train(seed)
            expected = self.known_law_weights(spec.generator(), data)
            assert shared.oracle(data).weights.tobytes() == expected.tobytes()

    def test_censored_oracle_refuses_an_underflowed_survival(self):
        """exp(-t) is 0.0 past t = 746: no weight, and the plug-in's error."""
        data = self.survival_data([1.0, 800.0, 900.0], [True, False, True])
        with pytest.raises(PositivityViolationError) as err:
            ipcw_weights(data, synthetic.CensoredSpec(censor_rate=1.0))
        assert err.value.record_index == 2


def test_weight_vector_csv_round_trip(tmp_path):
    from werm.core import WeightVector

    w = WeightVector(np.array([0.5, 2.0, 0.0]))
    path = tmp_path / "w.csv"
    w.to_csv(path)
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1)
    np.testing.assert_array_equal(back, w.weights)


# ---------------------------------------------------------------------------
# Metamorphic relations: permuting or duplicating the records
# ---------------------------------------------------------------------------


@st.composite
def _records(draw):
    """A binary dataset with both classes and all K strata populated, tied
    survival times and a permutation of its rows."""
    K = draw(st.integers(1, 4))
    n = draw(st.integers(max(2, K), 40))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels[:2] = [0, 1]
    strata = [k % K for k in range(n)]
    draw(st.randoms()).shuffle(strata)
    times = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5]), min_size=n, max_size=n))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    data = Dataset(
        features=np.arange(float(n))[:, None], labels=np.array(labels),
        strata=np.array(strata), times=np.array(times), events=np.array(events),
        n_classes=2, n_strata=K,
    )
    return data, np.array(draw(st.permutations(range(n))))


def _count_weights(data, p=0.3):
    pk = TargetPrior(pk=tuple([1.0 / data.n_strata] * data.n_strata))
    return {
        "class": class_shift_weights(data, TargetPrior(p=p)).weights,
        "stratum": stratum_shift_weights(data, pk).weights,
        "pu": pu_weights(data, TargetPrior(p=p)).weights,
    }


def _ipcw(data):
    try:
        return ipcw_weights(data, km_fit(data.times, ~data.events)).weights
    except PositivityViolationError:
        return PositivityViolationError


class TestMetamorphic:
    @settings(max_examples=200, deadline=None)
    @given(_records())
    def test_weights_permute_with_the_records(self, case):
        data, perm = case
        shuffled = data.take(perm)
        before, after = _count_weights(data), _count_weights(shuffled)
        for name in before:
            np.testing.assert_array_equal(after[name], before[name][perm], err_msg=name)
        ipcw, ipcw_shuffled = _ipcw(data), _ipcw(shuffled)
        if ipcw is PositivityViolationError:
            assert ipcw_shuffled is PositivityViolationError
        else:
            np.testing.assert_array_equal(ipcw_shuffled, ipcw[perm])

    @settings(max_examples=200, deadline=None)
    @given(_records())
    def test_duplicating_the_dataset_leaves_count_weights_unchanged(self, case):
        data, _ = case
        twice = data.take(np.tile(np.arange(data.n), 2))
        before, after = _count_weights(data), _count_weights(twice)
        for name in before:
            np.testing.assert_array_equal(after[name], np.tile(before[name], 2), err_msg=name)


# ---------------------------------------------------------------------------
# Label-only estimators: lookup tables against np.where
# ---------------------------------------------------------------------------


def _where_oracles(data, p, p_train, q):
    """The two label-only oracles written with np.where, as they stood
    before their lookup tables."""
    pos = data.labels == 1
    return {
        "oracle_class": np.where(pos, p / p_train, (1.0 - p) / (1.0 - p_train)),
        "oracle_pu": np.where(pos, 2.0 * p / q, 1.0 / (1.0 - q)),
    }


def _where_weights(data, p, p_train, q):
    """The same for all four label-only estimators; both classes populated."""
    n = data.n
    n_pos = int(np.sum(data.labels == 1))
    n_neg = n - n_pos
    pos = data.labels == 1
    return {
        "class": np.where(pos, n * p / n_pos, n * (1.0 - p) / n_neg),
        "pu": np.where(pos, 2.0 * p * n / n_pos, n / n_neg),
        **_where_oracles(data, p, p_train, q),
    }


_rate = st.floats(1e-3, 1.0 - 1e-3)


class TestLookupTables:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=2, max_size=50), _rate, _rate, _rate)
    def test_equal_to_np_where(self, labels, p, p_train, q):
        labels[:2] = [0, 1]
        data = labeled(labels)
        got = {
            "class": class_shift_weights(data, TargetPrior(p=p)).weights,
            "pu": pu_weights(data, TargetPrior(p=p)).weights,
            "oracle_class": oracle_class_shift_weights(data, p, p_train).weights,
            "oracle_pu": oracle_pu_weights(data, p, q).weights,
        }
        for name, want in _where_weights(data, p, p_train, q).items():
            assert got[name].dtype == want.dtype and got[name].tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("labels", [[0, 0], [1, 1, 1]])
    def test_oracles_accept_one_class(self, labels):
        data = labeled(labels)
        want = _where_oracles(data, 0.3, 0.6, 0.4)
        assert oracle_class_shift_weights(data, 0.3, 0.6).weights.tobytes() == (
            want["oracle_class"].tobytes())
        assert oracle_pu_weights(data, 0.3, 0.4).weights.tobytes() == want["oracle_pu"].tobytes()

    def test_oracles_reject_non_binary_or_missing_labels(self):
        three = Dataset(features=np.zeros((3, 1)), labels=[0, 1, 2])
        unlabeled = Dataset(features=np.zeros((3, 1)))
        for data in (three, unlabeled):
            with pytest.raises(SchemaError):
                oracle_class_shift_weights(data, 0.3, 0.6)
            with pytest.raises(SchemaError):
                oracle_pu_weights(data, 0.3, 0.4)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_stratum_oracle_is_pk_over_pk_train(self, K, draw):
        """Each record's weight is pk[s] / pk_train[s], bit for bit."""
        raw = np.array(draw.draw(st.lists(st.floats(0.01, 1.0), min_size=K, max_size=K)))
        pk = raw / raw.sum()
        raw_train = np.array(draw.draw(st.lists(st.floats(1e-3, 1.0), min_size=K, max_size=K)))
        pk_train = raw_train / raw_train.sum()
        strata = draw.draw(st.lists(st.integers(0, K - 1), min_size=1, max_size=30))
        data = labeled([0] * len(strata), strata=strata)
        want = np.array([pk[s] / pk_train[s] for s in strata])
        got = oracle_stratum_shift_weights(data, pk, pk_train).weights
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_stratum_oracle_weighs_an_unseen_stratum_zero(self):
        """A stratum with pk = pk_train = 0 gets weight 0, not 0/0."""
        data = labeled([0, 1, 0], strata=[0, 1, 2])
        w = oracle_stratum_shift_weights(data, [0.5, 0.0, 0.5], [0.25, 0.0, 0.75])
        assert w.weights.tobytes() == np.array([0.5 / 0.25, 0.0, 0.5 / 0.75]).tobytes()

    @pytest.mark.parametrize("pk_train,message", [
        ([0.5, 0.5], "pk and pk_train must have equal length"),
        ([0.5, 0.0, 0.5], "pk_train must be positive wherever pk is"),
        ([0.5, -0.1, 0.6], "pk_train must be positive wherever pk is"),
        ([0.5, np.nan, 7.0], NOT_A_DISTRIBUTION),
        ([0.25, 0.25, 0.25], NOT_A_DISTRIBUTION),
    ])
    def test_stratum_oracle_refusals(self, pk_train, message):
        data = labeled([0, 1, 0], strata=[0, 1, 2])
        with pytest.raises(ValidationError, match=f"^{message}$"):
            oracle_stratum_shift_weights(data, [0.25, 0.25, 0.5], pk_train)

    @pytest.mark.parametrize("pk_train", [[0.5, -0.1, 0.6], [0.5, np.nan, 7.0]])
    def test_stratum_oracle_refuses_a_bad_share_where_pk_is_zero(self, pk_train):
        """The positivity check looks only where pk > 0; the rest of
        pk_train must still make a distribution."""
        data = labeled([0, 1, 0], strata=[0, 1, 2])
        with pytest.raises(ValidationError, match=f"^{NOT_A_DISTRIBUTION}$"):
            oracle_stratum_shift_weights(data, [1.0, 0.0, 0.0], pk_train)
