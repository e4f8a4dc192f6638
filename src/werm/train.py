"""Desk-scale weighted training: linear / one-hidden-layer softmax models,
weighted cross-entropy with L2 penalty, momentum batch gradient descent.

The objective on a batch of size B with weights w is

    (1/B) * sum_i w_i * ce(logits_i, y_i)  +  wd * 0.5 * sum ||W||_F^2

where ce is the softmax cross-entropy (computed with max-logit
subtraction) and the penalty covers weight matrices only, never biases.
Updates follow the classical momentum rule v <- momentum*v + lr*grad,
params <- params - v, with velocity starting at zero.

``fit`` gathers the rows of each epoch's shuffle once (``take``) with a
(J, n) one-hot of their labels, and trains on batch slices of both; the
public ``weighted_objective`` and ``gradient`` check a batch's schema and
share the same step.  Per-epoch test metrics are computed only when
``fit`` is given ``eval_data``.

The step holds logits and their gradient class-major, as (J, B) arrays,
so its elementwise ops and ``core.log_softmax`` run along the B records.
It keeps the bits of the record-major step it replaced: ``W.T @ X.T`` is
the same BLAS product as ``X @ W``; subtracting the one-hot changes only
the label entries (x - 0.0 is x); a bias gradient is the sequential sum
along B (``_batch_sum``); and a weight gradient takes the gradient back to
rows when the layer input is one column wide, where numpy computes a gemv
whose sums depend on layout.

Everything here is single-threaded and bit-reproducible per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Dataset,
    NumericError,
    SchemaError,
    ValidationError,
    WeightVector,
    _check_count,
    _check_seed,
    classification_metrics,
    log_softmax,
)


MODEL_KINDS = ("linear", "mlp")


@dataclass
class ModelParams:
    """Parameter arrays keyed "W","b" (linear) or "W1","b1","W2","b2" (mlp)."""

    kind: str
    params: dict[str, np.ndarray]
    dims: tuple[int, ...]  # (d, J) or (d, h, J)

    def weight_keys(self) -> list[str]:
        return [k for k in self.params if k.startswith("W")]


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 1000
    epochs: int = 10
    seed: int = 0
    init_std: float = 0.01

    def __post_init__(self):
        if not self.lr > 0:
            raise ValidationError("lr must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError("momentum must lie in [0, 1)")
        if not self.weight_decay >= 0:
            raise ValidationError("weight_decay must be >= 0")
        _check_count(self.batch_size, "batch_size", 1)
        _check_count(self.epochs, "epochs", 0)
        if not self.init_std >= 0:
            raise ValidationError("init_std must be >= 0")
        _check_seed(self.seed)


def hidden_size(d: int, J: int) -> int:
    return (d + J) // 2


def init_params(kind: str, d: int, J: int, cfg: TrainConfig) -> ModelParams:
    """Gaussian(0, init_std^2) weights, zero biases; deterministic per seed."""
    if kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {kind!r}")
    if d < 1 or J < 1:
        raise ValidationError("need d >= 1 and J >= 1")
    rng = np.random.default_rng(cfg.seed)
    s = cfg.init_std
    if kind == "linear":
        return ModelParams(
            kind,
            {"W": rng.normal(0.0, s, (d, J)) if s else np.zeros((d, J)),
             "b": np.zeros(J)},
            (d, J),
        )
    h = hidden_size(d, J)
    return ModelParams(
        kind,
        {
            "W1": rng.normal(0.0, s, (d, h)) if s else np.zeros((d, h)),
            "b1": np.zeros(h),
            "W2": rng.normal(0.0, s, (h, J)) if s else np.zeros((h, J)),
            "b2": np.zeros(J),
        },
        (d, h, J),
    )


def _forward(params: ModelParams, X: np.ndarray):
    """Class-major (J, B) logits of the (B, d) rows X, plus the (B, h)
    hidden pre-activations and activations of an mlp."""
    p = params.params
    if params.kind == "linear":
        return p["W"].T @ X.T + p["b"][:, None], None, None
    pre = X @ p["W1"] + p["b1"]
    hidden = np.maximum(pre, 0.0)
    return p["W2"].T @ hidden.T + p["b2"][:, None], pre, hidden


def logits_batch(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """(n, J) logits, a transposed view of the class-major result."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != params.dims[0]:
        raise SchemaError(f"feature dim {X.shape[1]} != model dim {params.dims[0]}")
    return _forward(params, X)[0].T


def _penalty(params: ModelParams) -> float:
    return 0.5 * sum(float((params.params[k] ** 2).sum()) for k in params.weight_keys())


def _one_hot(labels: np.ndarray, J: int) -> np.ndarray:
    return (np.arange(J)[:, None] == labels).astype(float)


def _batch_sum(gout: np.ndarray) -> np.ndarray:
    """The record-major ``.sum(axis=0)`` of a (J, B) gradient: numpy adds the
    B rows in turn to +0.0, and a cumsum would keep a sum of -0.0s negative.
    (At J = 1 numpy sums pairwise, but the gradient is then all +0.0.)"""
    return gout.cumsum(axis=1)[:, -1] + 0.0


def _objective_and_gradient(
    params: ModelParams, X: np.ndarray, onehot: np.ndarray, w: np.ndarray, cfg: TrainConfig
) -> tuple[float, dict[str, np.ndarray]]:
    """Objective and its exact gradient on raw batch arrays (rows X, the
    (J, B) one-hot labels, weights w), from one forward pass and one
    log-softmax.  The caller vouches for the schema."""
    logits, pre, hidden = _forward(params, X)
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits")
    logp = log_softmax(logits)
    B = len(w)
    picked = (logp * onehot).sum(axis=0)  # the other classes add z * 0.0
    objective = float((w * -picked).sum() / B + cfg.weight_decay * _penalty(params))

    gout = np.exp(logp)
    gout -= onehot
    gout *= w / B  # d(objective)/d(logits), class-major
    # a one-column layer input turns the products below into gemv
    g = gout.T if params.dims[-2] > 1 else np.ascontiguousarray(gout.T)
    wd = cfg.weight_decay
    p = params.params
    if params.kind == "linear":
        return objective, {"W": X.T @ g + wd * p["W"], "b": _batch_sum(gout)}
    ghid = (g @ p["W2"].T) * (pre > 0.0)
    return objective, {
        "W1": X.T @ ghid + wd * p["W1"],
        "b1": ghid.sum(axis=0),
        "W2": hidden.T @ g + wd * p["W2"],
        "b2": _batch_sum(gout),
    }


def _batch_arrays(params: ModelParams, batch: Dataset, w: WeightVector):
    """The step's rows, one-hot labels and weights of a checked batch."""
    if batch.labels is None:
        raise SchemaError("training batch needs labels")
    if len(w) != batch.n:
        raise SchemaError("weights must match the batch size")
    if batch.d != params.dims[0]:
        raise SchemaError(f"feature dim {batch.d} != model dim {params.dims[0]}")
    if batch.labels.max() >= params.dims[-1]:
        raise SchemaError(f"label id exceeds the model's {params.dims[-1]} classes")
    return batch.features, _one_hot(batch.labels, params.dims[-1]), w.weights


def weighted_objective(
    params: ModelParams, batch: Dataset, w: WeightVector, cfg: TrainConfig
) -> float:
    """Weighted mean cross-entropy plus the L2 penalty."""
    return _objective_and_gradient(params, *_batch_arrays(params, batch, w), cfg)[0]


def gradient(
    params: ModelParams, batch: Dataset, w: WeightVector, cfg: TrainConfig
) -> dict[str, np.ndarray]:
    """Exact gradient of :func:`weighted_objective`, keyed like params."""
    return _objective_and_gradient(params, *_batch_arrays(params, batch, w), cfg)[1]


def momentum_step(
    params: ModelParams,
    velocity: dict[str, np.ndarray],
    grad: dict[str, np.ndarray],
    cfg: TrainConfig,
) -> None:
    """v <- momentum*v + lr*grad; params <- params - v, in place."""
    for k, p in params.params.items():
        v = velocity[k]
        v *= cfg.momentum
        v += cfg.lr * grad[k]
        p -= v


def zero_velocity(params: ModelParams) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.params.items()}


@dataclass
class TrainingLog:
    """Per-epoch trace: mean batch objective plus end-of-epoch metrics.

    The metric lists stay empty when ``fit`` ran without ``eval_data``;
    ``rows`` then yields nothing.
    """

    epochs: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    miss_rate: list[float] = field(default_factory=list)
    top_k_error: list[float] = field(default_factory=list)

    def rows(self):
        return zip(self.epochs, self.objective, self.miss_rate, self.top_k_error)


def fit(
    data: Dataset,
    w: WeightVector,
    kind: str,
    cfg: TrainConfig,
    eval_data: Dataset | None = None,
    top_k: int = 1,
) -> tuple[ModelParams, TrainingLog]:
    """Momentum batch gradient descent over seeded epoch shuffles.

    The log records, per epoch, the mean weighted batch objective and,
    when ``eval_data`` is given, the miss / top-k error on it; with
    ``eval_data=None`` nothing is evaluated and those lists stay empty.
    Evaluation never changes the trained parameters.  The final short
    batch of an epoch is kept, averaged over its actual size.  Numeric
    failures abort with the epoch and batch index.
    """
    if data.labels is None:
        raise SchemaError("training data needs labels")
    if len(w) != data.n:
        raise SchemaError("weights must match the dataset size")
    params = init_params(kind, data.d, data.n_classes, cfg)
    velocity = zero_velocity(params)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    log = TrainingLog()
    X, y, weights = data.features, data.labels, w.weights

    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(data.n)
        # one gather per epoch; each batch is a slice of these
        X_epoch, w_epoch = X.take(order, axis=0), weights.take(order)
        onehot = _one_hot(y.take(order), data.n_classes)
        batch_objectives = []
        for start in range(0, data.n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            try:
                objective, grad = _objective_and_gradient(
                    params, X_epoch[batch], onehot[:, batch], w_epoch[batch], cfg
                )
            except NumericError as exc:
                raise NumericError(
                    f"{exc} (epoch {epoch}, batch {start // cfg.batch_size})"
                ) from exc
            batch_objectives.append(objective)
            momentum_step(params, velocity, grad, cfg)
        log.epochs.append(epoch)
        log.objective.append(float(np.mean(batch_objectives)))
        if eval_data is None:
            continue
        try:
            metrics = classification_metrics(
                eval_data, logits_batch(params, eval_data.features), k=top_k
            )
        except NumericError as exc:
            raise NumericError(f"{exc} (epoch {epoch}, evaluation)") from exc
        log.miss_rate.append(metrics["miss_rate"])
        log.top_k_error.append(metrics["top_k_error"])
    return params, log
