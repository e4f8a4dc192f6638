"""Core dataset / loss / risk behavior."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from werm.core import (
    Dataset,
    LossSpec,
    NumericError,
    SchemaError,
    ValidationError,
    WeightVector,
    classification_metrics,
    log_softmax,
    mean_cross_entropy,
    per_record_losses,
    read_csv,
    weighted_empirical_risk,
    write_csv,
)

THRESH = LossSpec("threshold-sign")


def make_binary(xs, ys):
    return Dataset(features=np.asarray(xs, float)[:, None], labels=ys, n_classes=2)


class TestEmpiricalRisk:
    def test_hand_sum(self):
        # every record is below theta, so only the positives err: losses [1, 0, 1] -> 2/3
        data = make_binary([0.0, 0.0, 0.0], [1, 0, 1])
        risk = per_record_losses(data, THRESH, 0.5).mean()
        assert risk == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_all_correct_is_zero(self):
        data = make_binary([0.9, 0.1], [1, 0])
        assert per_record_losses(data, THRESH, 0.5).mean() == 0.0

    def test_single_record_mean_is_the_loss(self):
        # a negative at or above theta is an error, one below it is not
        data = make_binary([0.5], [0])
        assert per_record_losses(data, THRESH, 0.5).mean() == 1.0
        assert per_record_losses(data, THRESH, 0.6).mean() == 0.0

    def test_zero_one_risk_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(1, 30)
            data = make_binary(rng.random(n), rng.integers(0, 2, n))
            assert 0.0 <= per_record_losses(data, THRESH, rng.random()).mean() <= 1.0


class TestWeightedRisk:
    def test_hand_weighted_sum(self):
        # losses [1, 0, 1], w = [2, 1, 1] -> 1.0
        data = make_binary([0.0, 0.0, 0.0], [1, 0, 1])
        w = WeightVector(np.array([2.0, 1.0, 1.0]))
        risk = weighted_empirical_risk(data, w, THRESH, 0.5)
        assert risk == pytest.approx(1.0, abs=1e-15)

    def test_identity_weights_match_bitwise(self):
        rng = np.random.default_rng(1)
        data = make_binary(rng.random(17), rng.integers(0, 2, 17))
        theta = rng.random()
        plain = per_record_losses(data, THRESH, theta).mean()
        weighted = weighted_empirical_risk(data, WeightVector.ones(17), THRESH, theta)
        assert plain == weighted  # bit-for-bit

    def test_null_weights(self):
        data = make_binary([0.1, 0.9], [0, 1])
        w = WeightVector(np.zeros(2))
        assert weighted_empirical_risk(data, w, THRESH, 0.5) == 0.0

    def test_length_mismatch_is_schema_error(self):
        data = make_binary([0.1, 0.9], [0, 1])
        with pytest.raises(SchemaError):
            weighted_empirical_risk(data, WeightVector.ones(3), THRESH, 0.5)

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(ValidationError):
            WeightVector(np.array([1.0, np.inf]))
        with pytest.raises(ValidationError):
            WeightVector(np.array([1.0, -0.5]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity_in_weights(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        data = make_binary(rng.random(n), rng.integers(0, 2, n))
        w1 = rng.random(n) * 3
        w2 = rng.random(n) * 3
        r1 = weighted_empirical_risk(data, WeightVector(w1), THRESH, 0.4)
        r2 = weighted_empirical_risk(data, WeightVector(w2), THRESH, 0.4)
        r12 = weighted_empirical_risk(data, WeightVector(w1 + w2), THRESH, 0.4)
        assert r12 == pytest.approx(r1 + r2, rel=1e-12, abs=1e-15)


class TestMetrics:
    def test_true_class_ranked_sixth_counts_against_top5(self):
        logits = -np.arange(10.0)[None, :]  # class 0 largest ... class 9 smallest
        data = Dataset(features=np.zeros((1, 1)), labels=[5], n_classes=10)
        out = classification_metrics(data, logits, k=5)
        assert out["top_k_error"] == 1.0
        assert out["miss_rate"] == 1.0

    def test_perfect_logits(self):
        data = Dataset(features=np.zeros((4, 1)), labels=[0, 1, 2, 1], n_classes=3)
        logits = np.eye(3)[data.labels] * 10.0
        out = classification_metrics(data, logits, k=2)
        assert out["miss_rate"] == 0.0 and out["top_k_error"] == 0.0

    def test_per_record_sce_value(self):
        data = Dataset(features=np.zeros((1, 1)), labels=[0], n_classes=2)
        sce = mean_cross_entropy(data, np.array([[1.0, 0.0]]))
        assert sce == pytest.approx(0.313262, abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(float, st.tuples(st.integers(1, 40), st.integers(2, 6)),
                      elements=st.floats(-50.0, 50.0)), st.integers(0, 2**32))
    def test_sce_keeps_the_plain_mean_bits(self, logits, seed):
        n, J = logits.shape
        labels = np.random.default_rng(seed).integers(0, J, n)
        data = Dataset(features=np.zeros((n, 1)), labels=labels, n_classes=J)
        ce = -log_softmax(np.ascontiguousarray(logits.T))[labels, np.arange(n)]
        assert mean_cross_entropy(data, logits) == float(np.mean(ce))

    def test_sce_of_huge_finite_cross_entropies_is_finite(self):
        """Each cross-entropy is 1.5e308; their plain sum overflows."""
        data = Dataset(features=np.zeros((3, 1)), labels=[0, 0, 0], n_classes=2)
        logits = np.array([[-0.7e308, 0.8e308]] * 3)
        assert mean_cross_entropy(data, logits) == pytest.approx(1.5e308, rel=1e-15)

    def test_sce_refuses_a_logit_spread_past_the_float_range(self):
        data = Dataset(features=np.zeros((2, 1)), labels=[0, 0], n_classes=2)
        with pytest.raises(NumericError, match="^non-finite cross-entropy$"):
            mean_cross_entropy(data, np.array([[0.0, 1.0], [-1e308, 1e308]]))

    def test_tie_broken_toward_lowest_class(self):
        data = Dataset(features=np.zeros((1, 1)), labels=[1], n_classes=3)
        out = classification_metrics(data, np.array([[1.0, 1.0, 0.0]]), k=1)
        assert out["miss_rate"] == 1.0  # argmax tie resolves to class 0
        data0 = Dataset(features=np.zeros((1, 1)), labels=[0], n_classes=3)
        assert classification_metrics(data0, np.array([[1.0, 1.0, 0.0]]), k=1)["miss_rate"] == 0.0

    def test_miss_rate_is_top1(self):
        rng = np.random.default_rng(3)
        data = Dataset(features=np.zeros((50, 1)), labels=rng.integers(0, 4, 50), n_classes=4)
        logits = rng.normal(size=(50, 4))
        out1 = classification_metrics(data, logits, k=1)
        assert out1["miss_rate"] == out1["top_k_error"]

    def test_k_beyond_classes_rejected(self):
        data = Dataset(features=np.zeros((1, 1)), labels=[0], n_classes=2)
        with pytest.raises(ValidationError):
            classification_metrics(data, np.zeros((1, 2)), k=3)


class TestSoftmax:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=5.0, size=(5, 8))  # class-major: 8 records
        probs = np.exp(log_softmax(logits))
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-12)
        shifted = np.exp(log_softmax(logits + 42.0))
        np.testing.assert_allclose(probs, shifted, atol=1e-12)

    def test_log_softmax_stable_for_large_logits(self):
        out = log_softmax(np.array([[1000.0], [0.0]]))
        assert np.all(np.isfinite(out))

    def test_nonfinite_logits_raise(self):
        data = Dataset(features=np.zeros((1, 1)), labels=[0], n_classes=2)
        with pytest.raises(NumericError):
            classification_metrics(data, np.array([[np.nan, 0.0]]), k=1)
        with pytest.raises(NumericError):
            mean_cross_entropy(data, np.array([[np.nan, 0.0]]))


U = 2.0**-53  # the unit roundoff of float64
# the reference computations run in np.longdouble, which must be wider
LONGDOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="np.longdouble is float64 here"
)


def longdouble_log_softmax(logits):
    """log_softmax of class-major (..., J, B) logits, one max and one sum
    reduction over the classes, in np.longdouble; also returns z, the
    logits less their max."""
    x = np.asarray(logits, dtype=np.longdouble)
    z = x - x.max(axis=-2, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-2, keepdims=True)), z


def assert_within_longdouble(got, logits):
    """Each entry of log_softmax(logits) within 4 J u (|z| + log J + 1) of
    the longdouble reference; a non-finite reference entry is matched
    exactly."""
    want, z = longdouble_log_softmax(logits)
    assert got.shape == want.shape
    finite = np.isfinite(want)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    assert (got[np.isinf(want)] == want[np.isinf(want)]).all()
    J = logits.shape[-2]
    bound = 4 * J * U * (np.abs(z) + np.log(np.longdouble(J)) + 1)
    err = np.abs(got.astype(np.longdouble) - want)
    assert (err[finite] <= bound[finite]).all(), float((err / bound)[finite].max())


def assert_same_bits(got, want):
    """NaNs in the same places, every other entry byte-equal."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def assert_layout_and_stack_bits(logits):
    """log_softmax of record-major (B, J) logits given class-major gives the
    same bits for a C-contiguous copy and for the transposed view, and for
    each (J, B) block of a stack with one or two leading axes."""
    lt = np.ascontiguousarray(logits.T)
    flipped = np.ascontiguousarray(logits[::-1].T)
    want = log_softmax(lt)
    assert_same_bits(log_softmax(logits.T), want)
    stack = log_softmax(np.stack([flipped, lt]))
    assert_same_bits(stack[1], want)
    assert_same_bits(stack[0], log_softmax(flipped))
    grid = log_softmax(np.stack([[lt, flipped], [-lt, lt]]))
    assert_same_bits(grid[0, 0], want)
    assert_same_bits(grid[0, 1], log_softmax(flipped))
    assert_same_bits(grid[1, 0], log_softmax(-lt))
    assert_same_bits(grid[1, 1], want)


class TestLogSoftmaxMatchesRowReductions:
    """The class-major kernel is within a few ulps of the row reductions
    computed in np.longdouble, on both sides of the J = 8 width where
    numpy's pairwise sum changes its order, and its bits depend neither on
    the input's layout nor on the other blocks of a stack."""

    FINITE = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)

    def draw_logits(self, data):
        B = data.draw(st.integers(1, 64), label="B")
        J = data.draw(st.integers(2, 32), label="J")
        # a small pool of values makes exact ties and mixed-sign zeros common
        pool = data.draw(st.lists(self.FINITE, min_size=1, max_size=4), label="pool")
        pool += [0.0, -0.0]
        if data.draw(st.booleans(), label="non-finite"):
            pool += [np.inf, -np.inf, np.nan]
        return data.draw(
            hnp.arrays(float, (B, J), elements=st.one_of(st.sampled_from(pool), self.FINITE)),
            label="logits",
        )

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_bits(self, data):
        logits = self.draw_logits(data)
        with np.errstate(all="ignore"):
            assert_layout_and_stack_bits(logits)

    @LONGDOUBLE
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_within_longdouble_bound(self, data):
        lt = np.ascontiguousarray(self.draw_logits(data).T)
        with np.errstate(all="ignore"):
            assert_within_longdouble(log_softmax(lt), lt)

    @LONGDOUBLE
    @pytest.mark.parametrize("J", [1, 2, 3, 7, 8, 9, 16])
    @pytest.mark.parametrize("B", [1000, 5000, 20000])
    def test_bits_at_batch_and_test_set_sizes(self, B, J):
        logits = np.random.default_rng(B + J).normal(scale=4.0, size=(B, J))
        assert_layout_and_stack_bits(logits)
        lt = np.ascontiguousarray(logits.T)
        assert_within_longdouble(log_softmax(lt), lt)


def argsort_metrics(data, logits, k):
    """classification_metrics as it stood before ranks were counted: a
    stable argsort of the negated logits, record-major."""
    order = np.argsort(-logits, axis=1, kind="stable")
    ranks = np.argmax(order == data.labels[:, None], axis=1)
    return {
        "miss_rate": float(np.mean(ranks != 0)),
        "top_k_error": float(np.mean(ranks >= k)),
    }


def assert_mean_cross_entropy_within_longdouble(data, logits):
    """mean_cross_entropy of record-major logits within
    4 (J + n) u mean(|z| + log J + 1) at the labels of the longdouble
    reference: the log-softmax bound plus the mean's own rounding."""
    logp, z = longdouble_log_softmax(logits.T)
    at = (data.labels, np.arange(data.n))
    want = np.mean(-logp[at])
    J = data.n_classes
    bound = 4 * (J + data.n) * U * np.mean(np.abs(z[at]) + np.log(np.longdouble(J)) + 1)
    for lg in (logits, np.ascontiguousarray(logits.T).T):
        assert abs(np.longdouble(mean_cross_entropy(data, lg)) - want) <= bound


class TestMetricsMatchArgsortRanks:
    """Counted ranks give the metrics of the stable argsort, and
    ``mean_cross_entropy`` is within its bound of the longdouble row
    reductions, ties and mixed-sign zeros included, for record-major logits
    and for the transposed view of class-major ones."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equal(self, data):
        n = data.draw(st.integers(1, 64), label="n")
        J = data.draw(st.integers(2, 12), label="J")
        k = data.draw(st.integers(1, J), label="k")
        pool = data.draw(st.lists(st.floats(-50, 50), min_size=1, max_size=3), label="pool")
        pool += [0.0, -0.0]
        logits = data.draw(
            hnp.arrays(float, (n, J), elements=st.one_of(st.sampled_from(pool), st.floats(-1e6, 1e6))),
            label="logits",
        )
        labels = data.draw(hnp.arrays(int, n, elements=st.integers(0, J - 1)), label="labels")
        ds = Dataset(features=np.zeros((n, 1)), labels=labels, n_classes=J)
        want = argsort_metrics(ds, logits, k)
        assert classification_metrics(ds, logits, k) == want
        assert classification_metrics(ds, np.ascontiguousarray(logits.T).T, k) == want
        assert_mean_cross_entropy_within_longdouble(ds, logits)

    @pytest.mark.parametrize("J", [2, 3, 7, 8, 10])
    def test_equal_at_test_set_size(self, J):
        rng = np.random.default_rng(J)
        n = 5000
        logits = np.round(rng.normal(size=(n, J)), 1)  # many exact ties
        logits[rng.random((n, J)) < 0.1] = -0.0
        ds = Dataset(features=np.zeros((n, 1)), labels=rng.integers(0, J, n), n_classes=J)
        for k in range(1, J + 1):
            assert classification_metrics(ds, logits, k) == argsort_metrics(ds, logits, k)
        assert_mean_cross_entropy_within_longdouble(ds, logits)


class TestDatasetValidation:
    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Dataset(features=np.zeros((0, 2)))

    def test_one_dim_features_rejected(self):
        with pytest.raises(SchemaError):
            Dataset(features=np.zeros(5))

    def test_label_exceeding_J_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(features=np.zeros((2, 1)), labels=[0, 3], n_classes=2)

    def test_counts(self):
        data = Dataset(
            features=np.zeros((5, 1)), labels=[1, 1, 0, 0, 0], strata=[0, 0, 1, 2, 2]
        )
        assert np.count_nonzero(data.labels == 1) == 2
        np.testing.assert_array_equal(data.stratum_counts(), [2, 1, 2])

    def test_take_preserves_class_count(self):
        data = Dataset(features=np.zeros((4, 1)), labels=[0, 1, 2, 0], n_classes=5)
        sub = data.take([1, 3])
        assert sub.n_classes == 5
        np.testing.assert_array_equal(sub.labels, [1, 0])


class TestCsv:
    def test_round_trip_all_fields(self, tmp_path):
        data = Dataset(
            features=np.array([[0.25, -1.5], [3.0, 2.0]]),
            labels=[1, 0],
            strata=[0, 1],
            times=[1.5, 2.0],
            events=[True, False],
        )
        path = tmp_path / "d.csv"
        write_csv(data, path)
        back = read_csv(path)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.labels, data.labels)
        np.testing.assert_array_equal(back.strata, data.strata)
        np.testing.assert_array_equal(back.times, data.times)
        np.testing.assert_array_equal(back.events, data.events)

    @pytest.mark.parametrize("groups", [
        c for k in range(4) for c in itertools.combinations(("y", "s", "te"), k)
    ], ids=lambda groups: "-".join(groups) or "none")
    def test_round_trip_every_optional_column_subset(self, tmp_path, groups):
        """Columns y, s and the pair (t, e), each present or absent: written
        in the order y, s, t, e, read back into the same Dataset fields."""
        values = {"y": [1, 0], "s": [0, 2], "t": [1.5, 0.25], "e": [True, False]}
        fields = {"y": "labels", "s": "strata", "t": "times", "e": "events"}
        columns = "".join(groups)
        data = Dataset(features=np.array([[0.25], [3.0]]),
                       **{fields[c]: values[c] for c in columns})
        write_csv(data, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_text().splitlines()[0] == ",".join(["x0", *columns])
        back = read_csv(tmp_path / "d.csv")
        np.testing.assert_array_equal(back.features, data.features)
        for c, name in fields.items():
            if c in columns:
                np.testing.assert_array_equal(getattr(back, name), values[c])
            else:
                assert getattr(back, name) is None

    def test_header_infers_shape(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,y\n0.0,1.0,1\n2.0,3.0,0\n4.0,5.0,1\n")
        data = read_csv(path)
        assert (data.n, data.d) == (3, 2)

    def test_bad_cell_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,y\n0.0,1\noops,0\n")
        with pytest.raises(SchemaError, match="line 3"):
            read_csv(path)

    def test_survival_only_dataset_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,t,e\n0.1,2.0,1\n0.2,3.0,0\n")
        data = read_csv(path)
        assert data.labels is None and data.times is not None

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,z\n0.0,1\n")
        with pytest.raises(SchemaError):
            read_csv(path)

    def test_written_bytes(self, tmp_path):
        """CRLF line ends, floats as repr, ints and event flags in decimal
        (bytes as written before the CSV writers were merged)."""
        data = Dataset(
            features=np.array([[0.1, 1 / 3], [-2.5e-10, 1e22]]),
            labels=[1, 0],
            strata=[0, 2],
            times=[1.5, 0.1 + 0.2],
            events=[True, False],
        )
        write_csv(data, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == (
            b"x0,x1,y,s,t,e\r\n"
            b"0.1,0.3333333333333333,1,0,1.5,1\r\n"
            b"-2.5e-10,1e+22,0,2,0.30000000000000004,0\r\n"
        )
        write_csv(Dataset(features=np.array([[0.5], [2.0]])), tmp_path / "f.csv")
        assert (tmp_path / "f.csv").read_bytes() == b"x0\r\n0.5\r\n2.0\r\n"

    def test_weight_vector_bytes(self, tmp_path):
        WeightVector(np.array([0.5, 1 / 3, 0.0, 2e-7])).to_csv(tmp_path / "w.csv")
        assert (tmp_path / "w.csv").read_bytes() == (
            b"w\r\n0.5\r\n0.3333333333333333\r\n0.0\r\n2e-07\r\n"
        )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_write_read_round_trip(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 12))
        d = data.draw(st.integers(1, 3))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        column = lambda elements: data.draw(  # noqa: E731
            st.one_of(st.none(), st.lists(elements, min_size=n, max_size=n))
        )
        times = column(st.floats(0.0, 1e300))
        original = Dataset(
            features=np.array(data.draw(st.lists(st.lists(finite, min_size=d, max_size=d),
                                                 min_size=n, max_size=n))),
            labels=column(st.integers(0, 4)),
            strata=column(st.integers(0, 3)),
            times=times,
            events=None if times is None else data.draw(
                st.lists(st.booleans(), min_size=n, max_size=n)
            ),
        )
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        write_csv(original, path)
        back = read_csv(path)
        for name in ("features", "labels", "strata", "times", "events"):
            a, b = getattr(original, name), getattr(back, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert a.dtype == b.dtype, name
                np.testing.assert_array_equal(a, b, err_msg=name)
        assert (back.n_classes, back.n_strata) == (original.n_classes, original.n_strata)

    def test_time_without_event_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,t\n0.0,1.0\n")
        with pytest.raises(SchemaError):
            read_csv(path)


class TestThresholdSignLoss:
    def test_orientation_against_closed_form_risk(self):
        # positives err below theta under the default orientation
        data = make_binary([0.2, 0.8, 0.2, 0.8], [1, 1, 0, 0])
        np.testing.assert_array_equal(
            per_record_losses(data, THRESH, 0.5), [1.0, 0.0, 0.0, 1.0]
        )

    def test_needs_scalar_binary_data(self):
        wide = Dataset(features=np.zeros((2, 2)), labels=[0, 1])
        with pytest.raises(SchemaError):
            per_record_losses(wide, THRESH, 0.5)
        multi = Dataset(features=np.zeros((2, 1)), labels=[0, 2], n_classes=3)
        with pytest.raises(SchemaError):
            per_record_losses(multi, THRESH, 0.5)

    def test_unknown_loss_kind_rejected(self):
        for kind in ("hinge", "softmax-cross-entropy"):
            with pytest.raises(ValidationError):
                LossSpec(kind)
