"""Models, objective, backprop, momentum updates, and the fit loop."""

import hashlib
import math

import numpy as np
import pytest

from werm import train as train_mod
from werm.core import Dataset, NumericError, SchemaError, ValidationError, WeightVector
from werm.train import (
    ModelParams,
    TrainConfig,
    fit,
    gradient,
    hidden_size,
    init_params,
    logits_batch,
    momentum_step,
    weighted_objective,
    zero_velocity,
)


def blob_dataset(n=60, seed=0, separation=3.0):
    """Two linearly separable Gaussian blobs in the plane."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    centers = np.array([[-separation / 2, 0.0], [separation / 2, 0.0]])
    X = centers[y] + rng.normal(scale=0.5, size=(n, 2))
    return Dataset(features=X, labels=y, n_classes=2)


def fit_one(data, w, kind, cfg, **kwargs):
    """fit over one weight vector; its (params, log)."""
    (result,) = fit(data, [w], kind, cfg, **kwargs)
    return result


def random_instance(rng, kind):
    d = int(rng.integers(1, 6))
    J = int(rng.integers(2, 5))
    B = int(rng.integers(1, 9))
    cfg = TrainConfig(
        seed=int(rng.integers(10_000)),
        weight_decay=float(rng.uniform(0.0, 0.5)),
        init_std=0.5,
    )
    params = init_params(kind, d, J, cfg)
    batch = Dataset(
        features=rng.normal(size=(B, d)),
        labels=rng.integers(0, J, B),
        n_classes=J,
    )
    w = WeightVector(rng.uniform(0.2, 2.0, B))
    return params, batch, w, cfg


def flatten_grads(g):
    return np.concatenate([g[k].ravel() for k in sorted(g)])


def fd_gradient(params, batch, w, cfg, step=1e-5):
    out = {}
    for key, arr in params.params.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = weighted_objective(params, batch, w, cfg)
            flat[i] = orig - step
            lo = weighted_objective(params, batch, w, cfg)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * step)
        out[key] = g
    return out


def reference_fit(data, w, kind, cfg):
    """The training loop as it stood before fit moved onto raw arrays:
    a validated Dataset and WeightVector per batch, and separate objective
    and gradient passes."""
    params = init_params(kind, data.d, data.n_classes, cfg)
    velocity = zero_velocity(params)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    objectives = []
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(data.n)
        batch_objectives = []
        for start in range(0, data.n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = data.take(idx)
            bw = WeightVector(w.weights[idx])
            batch_objectives.append(weighted_objective(params, batch, bw, cfg))
            grad = gradient(params, batch, bw, cfg)
            momentum_step(params, velocity, grad, cfg)
        objectives.append(float(np.mean(batch_objectives)))
    return params, objectives


def row_major_step(params, X, y, w, cfg):
    """The record-major (B, J) training step in np.longdouble, the oracle
    of the class-major step.  Returns the objective and gradients, and for
    each of them the scale of the float64 step's rounding error: each sum
    taken over its terms' absolute values, with (p + onehot) in place of
    |p - onehot| (the label entry cancels), times max|logit| + log J + 1 for
    the log-softmax's own error.  A logit is itself a sum, so max|logit| is
    taken over the absolute values of its terms."""
    ld = np.longdouble
    p = {k: v.astype(ld) for k, v in params.params.items()}
    a = {k: np.abs(v) for k, v in p.items()}
    X, w = X.astype(ld), w.astype(ld)
    if params.kind == "linear":
        logits = X @ p["W"] + p["b"]
        abs_logits = np.abs(X) @ a["W"] + a["b"]
    else:
        pre = X @ p["W1"] + p["b1"]
        hidden = np.maximum(pre, 0.0)
        abs_hidden = (np.abs(X) @ a["W1"] + a["b1"]) * (pre > 0.0)
        logits = hidden @ p["W2"] + p["b2"]
        abs_logits = abs_hidden @ a["W2"] + a["b2"]
    B, J = logits.shape
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    onehot = np.arange(J) == y[:, None]
    picked = logp[np.arange(B), y]
    wd = cfg.weight_decay
    penalty = 0.5 * sum((p[k] ** 2).sum() for k in params.weight_keys())
    probs = np.exp(logp)
    gout = (probs - onehot) * (w / B)[:, None]
    terms = (probs + onehot) * (w / B)[:, None]
    factor = abs_logits.max() + np.log(ld(J)) + 1
    objective = ((w * -picked).sum() / B + wd * penalty,
                 factor * (w * (np.abs(picked) + 1)).sum() / B + wd * penalty)
    if params.kind == "linear":
        return objective, {
            "W": (X.T @ gout + wd * p["W"], factor * (np.abs(X).T @ terms) + wd * a["W"]),
            "b": (gout.sum(axis=0), factor * terms.sum(axis=0)),
        }
    ghid = (gout @ p["W2"].T) * (pre > 0.0)
    hid_terms = (terms @ a["W2"].T) * (pre > 0.0)
    return objective, {
        "W1": (X.T @ ghid + wd * p["W1"], factor * (np.abs(X).T @ hid_terms) + wd * a["W1"]),
        "b1": (ghid.sum(axis=0), factor * hid_terms.sum(axis=0)),
        "W2": (hidden.T @ gout + wd * p["W2"], factor * (abs_hidden.T @ terms) + wd * a["W2"]),
        "b2": (gout.sum(axis=0), factor * terms.sum(axis=0)),
    }


def assert_within_row_major(params, obj, grad, X, y, w, cfg):
    """The objective and each gradient entry within 16 n u scale of the
    longdouble oracle, n = B + max(dims) + J and u = 2**-53."""
    (ref_obj, obj_scale), ref_grad = row_major_step(params, X, y, w, cfg)
    B, J = len(y), params.dims[-1]
    tol = 16 * (B + max(params.dims) + J) * 2.0**-53
    shape = (B, params.dims)
    assert abs(np.longdouble(obj) - ref_obj) <= tol * obj_scale, shape
    assert sorted(grad) == sorted(ref_grad)
    for k, (ref, scale) in ref_grad.items():
        assert grad[k].shape == ref.shape, (shape, k)
        assert (np.abs(grad[k] - ref) <= tol * scale).all(), (shape, k)


class TestInit:
    @pytest.mark.parametrize("seed", [-1, None, 2.5, np.random.default_rng(0)])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed must be"):
            TrainConfig(seed=seed)

    def test_deterministic(self):
        cfg = TrainConfig(seed=5)
        a = init_params("mlp", 4, 3, cfg)
        b = init_params("mlp", 4, 3, cfg)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_zero_std_gives_zero_weights(self):
        cfg = TrainConfig(seed=0, init_std=0.0)
        p = init_params("linear", 3, 2, cfg)
        assert not p.params["W"].any()
        assert not p.params["b"].any()

    def test_entry_mean_near_zero(self):
        cfg = TrainConfig(seed=1, init_std=0.01)
        p = init_params("linear", 1000, 1000, cfg)
        assert abs(p.params["W"].mean()) <= 4 * 0.01 / 1000

    def test_biases_zero_and_hidden_size(self):
        cfg = TrainConfig(seed=2)
        p = init_params("mlp", 10, 4, cfg)
        assert not p.params["b1"].any() and not p.params["b2"].any()
        assert p.params["W1"].shape == (10, hidden_size(10, 4))
        assert hidden_size(2048, 1000) == 1524

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            init_params("tree", 2, 2, TrainConfig())


class TestForward:
    def test_zero_weights_yield_bias(self):
        p = ModelParams("linear", {"W": np.zeros((3, 2)), "b": np.array([1.5, -2.0])}, (3, 2))
        np.testing.assert_array_equal(logits_batch(p, np.ones(3))[0], [1.5, -2.0])

    def test_identity_map(self):
        p = ModelParams("linear", {"W": np.eye(2), "b": np.zeros(2)}, (2, 2))
        np.testing.assert_array_equal(logits_batch(p, np.array([3.0, -1.0]))[0], [3.0, -1.0])

    def test_dead_relu_yields_output_bias(self):
        p = ModelParams(
            "mlp",
            {
                "W1": np.full((2, 3), -1.0),
                "b1": np.zeros(3),
                "W2": np.ones((3, 2)),
                "b2": np.array([0.25, 0.75]),
            },
            (2, 3, 2),
        )
        np.testing.assert_array_equal(logits_batch(p, np.array([1.0, 2.0]))[0], [0.25, 0.75])

    def test_shape_mismatch(self):
        p = init_params("linear", 3, 2, TrainConfig())
        with pytest.raises(SchemaError):
            logits_batch(p, np.ones(4))


class TestObjective:
    def test_uniform_logits_value(self):
        p = ModelParams("linear", {"W": np.zeros((1, 2)), "b": np.zeros(2)}, (1, 2))
        batch = Dataset(features=np.zeros((1, 1)), labels=[0], n_classes=2)
        val = weighted_objective(p, batch, WeightVector.ones(1), TrainConfig())
        assert val == pytest.approx(math.log(2.0), abs=1e-12)

    def test_logit_gap_value(self):
        p = ModelParams("linear", {"W": np.zeros((1, 2)), "b": np.array([1.0, 0.0])}, (1, 2))
        batch = Dataset(features=np.zeros((1, 1)), labels=[0], n_classes=2)
        val = weighted_objective(p, batch, WeightVector.ones(1), TrainConfig())
        assert val == pytest.approx(0.313262, abs=1e-6)

    def test_zero_weights_zero_decay(self):
        rng = np.random.default_rng(3)
        p, batch, _, _ = random_instance(rng, "linear")
        cfg = TrainConfig(weight_decay=0.0)
        val = weighted_objective(p, batch, WeightVector(np.zeros(batch.n)), cfg)
        assert val == 0.0

    def test_penalty_excludes_biases(self):
        batch = Dataset(features=np.zeros((1, 1)), labels=[0], n_classes=2)
        p = ModelParams(
            "linear", {"W": np.array([[2.0, 0.0]]), "b": np.array([5.0, 5.0])}, (1, 2)
        )
        cfg = TrainConfig(weight_decay=1.0)
        val = weighted_objective(p, batch, WeightVector(np.zeros(1)), cfg)
        assert val == pytest.approx(0.5 * 4.0)  # only W enters the penalty


class TestBatchChecks:
    """The public objective and gradient keep their schema checks even
    though fit bypasses them."""

    @pytest.fixture
    def setup(self):
        cfg = TrainConfig(seed=0)
        return init_params("mlp", 2, 2, cfg), blob_dataset(n=8), cfg

    @pytest.mark.parametrize("fn", [weighted_objective, gradient])
    def test_batch_without_labels(self, setup, fn):
        params, batch, cfg = setup
        unlabeled = Dataset(features=batch.features)
        with pytest.raises(SchemaError, match="labels"):
            fn(params, unlabeled, WeightVector.ones(batch.n), cfg)

    @pytest.mark.parametrize("fn", [weighted_objective, gradient])
    def test_weight_length_mismatch(self, setup, fn):
        params, batch, cfg = setup
        with pytest.raises(SchemaError, match="weights"):
            fn(params, batch, WeightVector.ones(batch.n + 1), cfg)

    @pytest.mark.parametrize("fn", [weighted_objective, gradient])
    def test_feature_dim_mismatch(self, setup, fn):
        params, batch, cfg = setup
        wide = Dataset(features=np.ones((batch.n, 3)), labels=batch.labels, n_classes=2)
        with pytest.raises(SchemaError, match="feature dim"):
            fn(params, wide, WeightVector.ones(batch.n), cfg)

    @pytest.mark.parametrize("fn", [weighted_objective, gradient])
    def test_label_beyond_model_classes(self, setup, fn):
        """A label past the model's J must not index into the next row."""
        params, batch, cfg = setup
        labels = batch.labels.copy()
        labels[0] = 2
        wider = Dataset(features=batch.features, labels=labels, n_classes=3)
        with pytest.raises(SchemaError, match="label id"):
            fn(params, wider, WeightVector.ones(batch.n), cfg)


class TestGradient:
    def test_zero_weights_zero_decay_zero_grad(self):
        rng = np.random.default_rng(4)
        p, batch, _, _ = random_instance(rng, "mlp")
        cfg = TrainConfig(weight_decay=0.0)
        g = gradient(p, batch, WeightVector(np.zeros(batch.n)), cfg)
        assert max(abs(g[k]).max() for k in g) == 0.0

    def test_pure_penalty_gradient_is_w(self):
        rng = np.random.default_rng(5)
        p, batch, _, _ = random_instance(rng, "linear")
        cfg = TrainConfig(weight_decay=1.0)
        g = gradient(p, batch, WeightVector(np.zeros(batch.n)), cfg)
        np.testing.assert_allclose(g["W"], p.params["W"])
        np.testing.assert_allclose(g["b"], 0.0)

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_matches_central_differences(self, kind):
        rng = np.random.default_rng(6)
        for _ in range(6):
            params, batch, w, cfg = random_instance(rng, kind)
            bp = flatten_grads(gradient(params, batch, w, cfg))
            fd = flatten_grads(fd_gradient(params, batch, w, cfg))
            rel = np.abs(bp - fd).max() / max(1.0, np.abs(fd).max())
            assert rel <= 1e-4


class TestMomentum:
    """momentum_step updates the params and velocity it is given, in place."""

    def make(self):
        p = ModelParams("linear", {"W": np.ones((2, 2)), "b": np.zeros(2)}, (2, 2))
        g = {"W": np.full((2, 2), 0.5), "b": np.array([1.0, -1.0])}
        return p, g

    def test_zero_momentum_is_plain_gd(self):
        p, g = self.make()
        cfg = TrainConfig(lr=0.1, momentum=0.0)
        v = zero_velocity(p)
        momentum_step(p, v, g, cfg)
        np.testing.assert_allclose(p.params["W"], 1.0 - 0.1 * 0.5)
        np.testing.assert_allclose(v["b"], 0.1 * g["b"])

    def test_zero_gradient_coasts_on_velocity(self):
        p, g = self.make()
        zero_g = {k: np.zeros_like(v) for k, v in g.items()}
        v0 = {"W": np.full((2, 2), 0.2), "b": np.zeros(2)}
        cfg = TrainConfig(lr=0.1, momentum=0.9)
        momentum_step(p, v0, zero_g, cfg)
        np.testing.assert_allclose(p.params["W"], 1.0 - 0.9 * 0.2)
        np.testing.assert_allclose(v0["W"], 0.9 * 0.2)

    def test_zero_gradient_zero_velocity_is_identity(self):
        p, g = self.make()
        zero_g = {k: np.zeros_like(v) for k, v in g.items()}
        momentum_step(p, zero_velocity(p), zero_g, TrainConfig(lr=0.5))
        np.testing.assert_array_equal(p.params["W"], np.ones((2, 2)))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=0)


class TestFit:
    def test_descends_on_separable_blob(self):
        data = blob_dataset()
        cfg = TrainConfig(lr=1e-4, epochs=5, batch_size=20, seed=3)
        _, log = fit_one(data, WeightVector.ones(data.n), "linear", cfg)
        assert log.objective[-1] < log.objective[0]

    def test_zero_epochs_returns_initial_params(self):
        data = blob_dataset()
        cfg = TrainConfig(epochs=0, seed=4)
        params, log = fit_one(data, WeightVector.ones(data.n), "linear", cfg)
        expected = init_params("linear", data.d, data.n_classes, cfg)
        np.testing.assert_array_equal(params.params["W"], expected.params["W"])
        assert log.epochs == []

    def test_bitwise_deterministic(self):
        data = blob_dataset(seed=5)
        test = blob_dataset(seed=16)
        cfg = TrainConfig(lr=0.01, epochs=4, batch_size=16, seed=6)
        w = WeightVector.ones(data.n)
        p1, log1 = fit_one(data, w, "mlp", cfg, eval_data=test)
        p2, log2 = fit_one(data, w, "mlp", cfg, eval_data=test)
        assert log1.objective == log2.objective
        assert len(log1.miss_rate) == 4
        assert log1.miss_rate == log2.miss_rate
        for k in p1.params:
            np.testing.assert_array_equal(p1.params[k], p2.params[k])

    def test_full_batch_objective_nonincreasing(self):
        data = blob_dataset(seed=7)
        cfg = TrainConfig(
            lr=1e-4, momentum=0.0, weight_decay=0.1, epochs=15,
            batch_size=data.n, seed=8,
        )
        _, log = fit_one(data, WeightVector.ones(data.n), "linear", cfg)
        assert all(b <= a + 1e-12 for a, b in zip(log.objective, log.objective[1:]))

    def test_integer_weights_equal_duplicated_records(self):
        """Weighted full-batch training equals training on a dataset where
        integer weights are realized by duplication (weights sum to n)."""
        rng = np.random.default_rng(9)
        X = rng.normal(size=(4, 2))
        y = np.array([0, 1, 0, 1])
        w = np.array([2.0, 0.0, 1.0, 1.0])
        base = Dataset(features=X, labels=y, n_classes=2)
        dup_idx = np.repeat(np.arange(4), w.astype(int))
        dup = base.take(dup_idx)
        cfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=0.01,
                          epochs=6, batch_size=4, seed=10)
        _, log_w = fit_one(base, WeightVector(w), "linear", cfg)
        _, log_d = fit_one(dup, WeightVector.ones(4), "linear", cfg)
        np.testing.assert_allclose(log_w.objective, log_d.objective, atol=1e-10)

    def test_eval_data_drives_metrics(self):
        train = blob_dataset(seed=11)
        test = blob_dataset(seed=12)
        cfg = TrainConfig(lr=0.05, epochs=3, batch_size=30, seed=13)
        _, log = fit_one(train, WeightVector.ones(train.n), "linear", cfg, eval_data=test)
        assert len(log.miss_rate) == 3
        assert all(0.0 <= m <= 1.0 for m in log.miss_rate)

    def test_without_eval_data_nothing_is_evaluated(self):
        train = blob_dataset(seed=17)
        test = blob_dataset(seed=18)
        cfg = TrainConfig(lr=0.05, epochs=3, batch_size=25, seed=19)
        w = WeightVector.ones(train.n)
        p_lean, log_lean = fit_one(train, w, "mlp", cfg)
        p_eval, log_eval = fit_one(train, w, "mlp", cfg, eval_data=test)
        for k in p_eval.params:
            np.testing.assert_array_equal(p_lean.params[k], p_eval.params[k])
        assert log_lean.objective == log_eval.objective
        assert log_lean.epochs == [0, 1, 2]
        assert log_lean.miss_rate == [] and log_lean.top_k_error == []
        assert list(log_lean.rows()) == []

    def test_zero_decay_adds_nothing_where_squares_overflow(self):
        """With weight_decay = 0 the penalty term is exactly 0.0: weights
        past 1.3e154, whose squares overflow, leave the objective finite,
        and equal to a run whose weights stay below that."""
        data = blob_dataset(n=200, seed=21)
        logs = [
            fit_one(data, WeightVector.ones(data.n), "linear",
                    TrainConfig(lr=lr, momentum=0.0, epochs=3, batch_size=200, seed=22))[1]
            for lr in (1e150, 1e155)
        ]
        assert np.isfinite(logs[1].objective).all()
        assert logs[1].objective == logs[0].objective

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_reports_location(self):
        data = blob_dataset(seed=14)
        cfg = TrainConfig(lr=1e18, epochs=30, batch_size=60, seed=15, weight_decay=1.0)
        with pytest.raises(NumericError, match=r"non-finite logits \(epoch \d+, batch 0\)"):
            fit_one(data, WeightVector.ones(data.n), "linear", cfg)


class TestFitMatchesReferenceLoop:
    """fit on raw arrays is bit-identical to the per-batch Dataset loop."""

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("weights", ["random", "some_zero", "all_zero"])
    def test_params_and_objective(self, kind, weights):
        data = blob_dataset(n=53, seed=20)  # 53 % 10 != 0: a short final batch
        rng = np.random.default_rng(21)
        w = rng.uniform(0.0, 3.0, data.n)
        if weights == "some_zero":
            w[::3] = 0.0
        elif weights == "all_zero":
            w[:] = 0.0
        cfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=1e-3,
                          epochs=5, batch_size=10, seed=22, init_std=0.1)
        if weights == "all_zero":  # the reference loop takes it; fit refuses it
            with pytest.raises(ValidationError, match="^weight vector 0 is all zero"):
                fit_one(data, WeightVector(w), kind, cfg)
            return
        params, log = fit_one(data, WeightVector(w), kind, cfg)
        ref_params, ref_objective = reference_fit(data, WeightVector(w), kind, cfg)
        for k in ref_params.params:
            np.testing.assert_array_equal(params.params[k], ref_params.params[k])
        np.testing.assert_array_equal(log.objective, ref_objective)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is float64 here")
class TestStepMatchesRowMajor:
    """The class-major step is within a rounding bound of the record-major
    step computed in np.longdouble, on batches sliced out of larger epoch
    arrays as fit slices them, with B = 1, d = 1 and zero weights among the
    shapes."""

    @staticmethod
    def case(rng, kind, weights):
        B = int(rng.choice([1, 1, 2, 3, 7, 64, 257, 1000, rng.integers(1, 1200)]))
        d = int(rng.choice([1, 1, 2, rng.integers(1, 9)]))
        J = int(rng.integers(2, 13))
        cfg = TrainConfig(
            seed=int(rng.integers(10_000)),
            weight_decay=float(rng.choice([0.0, rng.uniform(0.0, 0.5)])),
            init_std=float(rng.choice([0.0, 0.1, 2.0])),
        )
        params = init_params(kind, d, J, cfg)
        for arr in params.params.values():  # nonzero biases too
            arr += rng.normal(scale=0.3, size=arr.shape)
        n = B + int(rng.integers(0, 40))
        start = int(rng.integers(0, n - B + 1))
        batch = slice(start, start + B)
        X = rng.normal(scale=2.0, size=(n, d))
        y = rng.integers(0, J, n)
        w = rng.uniform(0.0, 3.0, n)
        if weights == "zero":
            w[:] = 0.0
        elif weights == "some_zero":
            w[rng.random(n) < 0.4] = 0.0
        onehot = train_mod._one_hot(y, J)
        stack = ModelParams(kind, {k: v[None] for k, v in params.params.items()}, params.dims)
        obj, grad = train_mod._objective_and_gradient(
            stack, X[batch], onehot[:, batch], w[None, batch], cfg
        )
        grad = {k: v[0] for k, v in grad.items()}
        return params, float(obj[0]), grad, (X[batch], y[batch], w[batch], cfg)

    @pytest.mark.parametrize("weights", ["zero", "some_zero", "random"])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_objective_and_gradient(self, kind, weights):
        rng = np.random.default_rng(["linear", "mlp"].index(kind) * 10 + len(weights))
        for _ in range(150):
            params, obj, grad, batch = self.case(rng, kind, weights)
            assert_within_row_major(params, obj, grad, *batch)

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_public_wrappers(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(40):
            params, batch, w, cfg = random_instance(rng, kind)
            obj = weighted_objective(params, batch, w, cfg)
            grad = gradient(params, batch, w, cfg)
            assert_within_row_major(params, obj, grad, batch.features, batch.labels, w.weights, cfg)


class TestFitLeavesInputsAlone:
    """fit updates only the parameters and velocity it creates."""

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_inputs_unchanged(self, kind):
        data = blob_dataset(n=45, seed=23)
        data = Dataset(features=data.features, labels=data.labels, strata=data.labels % 2)
        test = blob_dataset(n=20, seed=24)
        w = WeightVector(np.random.default_rng(25).uniform(0.0, 2.0, data.n))
        arrays = [data.features, data.labels, data.strata, w.weights, test.features, test.labels]
        before = [a.copy() for a in arrays]
        cfg = TrainConfig(lr=0.1, epochs=3, batch_size=8, seed=26, weight_decay=0.01)
        params, _ = fit_one(data, w, kind, cfg, eval_data=test)
        for a, b in zip(arrays, before):
            assert a.tobytes() == b.tobytes()
        assert all(not np.shares_memory(p, a) for p in params.params.values() for a in arrays)


class TestStackedFit:
    """fit over M weight vectors gives each model the bytes of its own
    one-vector fit, and evaluates each model once per epoch."""

    CASES = [  # (n, d, J, batch_size)
        (53, 2, 3, 10),  # a short final batch
        (41, 3, 9, 8),  # J = 9
        (12, 1, 4, 1),  # B = 1 and d = 1; 12 batch objectives, summed pairwise
        (30, 1, 12, 7),  # J = 12 with d = 1
        (20, 1, 2, 2),  # the mlp has one hidden unit
    ]

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("n,d,J,B", CASES)
    def test_same_bytes_as_one_vector_fits(self, monkeypatch, kind, n, d, J, B):
        rng = np.random.default_rng([n, d, J, B])
        data = Dataset(features=rng.normal(scale=2.0, size=(n, d)),
                       labels=rng.integers(0, J, n), n_classes=J)
        test = Dataset(features=rng.normal(size=(25, d)), labels=rng.integers(0, J, 25),
                       n_classes=J)
        some_zero = rng.uniform(0.0, 3.0, n)
        some_zero[::3] = 0.0
        last_only = np.zeros(n)  # one weighted record: most batches are all zero
        last_only[-1] = 1.0
        weights = [WeightVector(v) for v in
                   (rng.uniform(0.0, 3.0, n), last_only, some_zero, np.ones(n))]
        cfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=1e-3, epochs=4,
                          batch_size=B, seed=n, init_std=0.3)
        calls = []
        real = train_mod.classification_metrics

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(train_mod, "classification_metrics", counting)
        stacked = fit(data, weights, kind, cfg, eval_data=test, top_k=2)
        stacked_calls = len(calls)
        alone = [fit_one(data, w, kind, cfg, eval_data=test, top_k=2) for w in weights]
        assert stacked_calls == len(calls) - stacked_calls == cfg.epochs * len(weights)
        assert len(stacked) == len(weights)
        for (params, log), (ref_params, ref_log) in zip(stacked, alone):
            assert sorted(params.params) == sorted(ref_params.params)
            for k in params.params:
                assert params.params[k].tobytes() == ref_params.params[k].tobytes(), k
            assert np.asarray(log.objective).tobytes() == np.asarray(ref_log.objective).tobytes()
            assert list(log.rows()) == list(ref_log.rows())

    def test_weight_vectors_checked(self):
        data = blob_dataset(n=10)
        cfg = TrainConfig(epochs=1)
        for bad in (WeightVector.ones(10), []):
            with pytest.raises(ValidationError, match="sequence"):
                fit(data, bad, "linear", cfg)
        with pytest.raises(SchemaError, match="dataset size"):
            fit(data, [WeightVector.ones(10), WeightVector.ones(9)], "linear", cfg)

    def test_all_zero_vector_refused_before_any_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(train_mod, "_objective_and_gradient", no_step)
        data = blob_dataset(n=10)
        weights = [WeightVector.ones(10), WeightVector(np.zeros(10))]
        with pytest.raises(ValidationError, match="^weight vector 1 is all zero"):
            fit(data, weights, "linear", TrainConfig(epochs=1))


def golden_instance(J, d=4):
    rng = np.random.default_rng(30 + J)
    n = 257  # 257 = 8 * 32 + 1: the final batch is one row
    y = rng.integers(0, J, n)
    centers = rng.normal(scale=2.0, size=(J, d))
    X = centers[y] + rng.normal(size=(n, d))
    w = rng.uniform(0.0, 3.0, n)
    w[::7] = 0.0
    return Dataset(features=X, labels=y, n_classes=J), WeightVector(w)


class TestFitGoldenDigests:
    """SHA-256 of fit's final params and objective log, taken when the
    class-major step with one log-softmax and plain axis sums became the
    definition.  The reference-loop test shares the training step with fit
    and so cannot see a change to that kernel; these pins can.  J = 3 and
    J = 10 lie on both sides of the J = 8 width where numpy's pairwise sum
    changes its order."""

    DIGESTS = {
        ("linear", 3): ("da993c5e25759a2be48f170bd69873143af0189fec1aecbbf6ee1dd47477a4c9",
                        "13f554405155e28da91c8bb7d3181746ec27395bd34e026bf41dc60cd17a45f4"),
        ("linear", 10): ("5fe279f6f0eac700a36c8b54ecf6264110148071b7820c6c087971716e057fcc",
                         "0b6118e4b4ba0941dd8cd4fe48603d97f793918fbabf3c5709fededcd9279d5c"),
        ("mlp", 3): ("51f91286cddc8fdf3ebd3632f09c110ff46202b44c80f19ba26b16e5db76737a",
                     "6c1cc888167694e543b83aebe1e7f55c7ae02ddb10134d22c4e9d6f66f9e9c94"),
        ("mlp", 10): ("3ae4ee6b0e27b78c694ba2b36786a2d556d7558c151f395d86ad94842efdce01",
                      "47541a54d18ebe0d310ec0d3439676f9f975c424154ce83e8dbce7aa9bcc1020"),
    }

    # d = 1 and d = 2 (an mlp hidden layer of (d + J) // 2 units): numpy
    # takes a product with a unit dimension through gemv/dot
    SMALL_D = {
        ("linear", 3, 1): ("2016fb75f423b1b043d0b0f638c1b31e825893a1ffa8045a101f4cbb8f0d5791",
                           "d2633d745cd0053912aa96ec8107d8f23960aa7fb8a00895caa4867709b993f2"),
        ("linear", 3, 2): ("008b53e726e279dc103fcc74f87f17e115612c6d63c7768cfda708839e9baa93",
                           "41c98a15886efd117228b7a0391d207c77567ae9563b20c148ecae8297088b1c"),
        ("linear", 10, 1): ("7b01a588e977ea4cfa2a28ca70298606dbccea93e3f34083472b1fc6e8e21a4a",
                            "7e573d716dbf051aa775143b0f4913abb2f1dfea6bb8baa140c6bd4f7b604d01"),
        ("linear", 10, 2): ("f3680dae921b0aeda6f49ecc10dd35515c390247e612d75d57477ff9b7685a8d",
                            "fbd37ca3bc5ed5eea46ae23675ea9064e840c1632bf293b4932d45885a358bee"),
        ("mlp", 3, 1): ("a67bb9a08ecdab87bb5b4c21a19e0baf1b6f4ddcf5869e75b974bf5f4cbde810",
                        "277cf343fba10949c1f2eb5bdac82debb2a535ff2a306141ad6e23e160c96003"),
        ("mlp", 3, 2): ("d19377c3ad7db98e58e92e4f9f5331832605050ab4157e2c207a567bb7f62004",
                        "d15e6eb7024ed0774f772d84d5686eebe4623f38bcf968a179f91ea8b27ad9d6"),
        ("mlp", 10, 1): ("cde91ec8dfa92c9c0d3376c74fa0371353846adfc09a3e021ce384688555dfcf",
                         "7b2479e8a85cbf3d6cfd5a2f42832f3e9fd1e7ac1cd4d80eb2d5d6736bd1753d"),
        ("mlp", 10, 2): ("20f85b35318faebb3af0a265df77433dee2413d625bb3cebeb05cbf04af53faf",
                         "6f34fef40eb6ffc71daeafdac5efe8149fb5e5fedcef3aa693d7c432b370618c"),
    }

    @staticmethod
    def digests(kind, J, d=4):
        data, w = golden_instance(J, d)
        cfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=1e-3,
                          epochs=6, batch_size=32, seed=40, init_std=0.1)
        params, log = fit_one(data, w, kind, cfg)
        h = hashlib.sha256()
        for k in sorted(params.params):
            h.update(k.encode())
            h.update(params.params[k].tobytes())
        return h.hexdigest(), hashlib.sha256(np.asarray(log.objective).tobytes()).hexdigest()

    @pytest.mark.parametrize("kind,J", sorted(DIGESTS))
    def test_params_and_objective(self, kind, J):
        assert self.digests(kind, J) == self.DIGESTS[(kind, J)]

    @pytest.mark.parametrize("kind,J,d", sorted(SMALL_D))
    def test_one_and_two_features(self, kind, J, d):
        assert self.digests(kind, J, d) == self.SMALL_D[(kind, J, d)]
