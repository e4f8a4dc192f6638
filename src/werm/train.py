"""Desk-scale weighted training: linear / one-hidden-layer softmax models,
weighted cross-entropy with L2 penalty, momentum batch gradient descent.

The objective on a batch of size B with weights w is

    (1/B) * sum_i w_i * ce(logits_i, y_i)  +  wd * 0.5 * sum ||W||_F^2

where ce is the softmax cross-entropy (computed with max-logit
subtraction) and the penalty covers weight matrices only, never biases.
Updates follow the classical momentum rule v <- momentum*v + lr*grad,
params <- params - v, with velocity starting at zero.

``fit`` gathers the rows of each epoch's shuffle once and trains on
contiguous batch slices of that copy, with one forward pass per batch for
both the objective and its gradient; the public ``weighted_objective`` and
``gradient`` check a batch's schema and share that same code.  Per-epoch
test metrics are computed only when ``fit`` is given ``eval_data``.

The step's softmax is ``core.log_softmax``, which for fewer than 8
classes reduces over the J columns instead of along each of the B rows.
Its contract is bit-equality with the row reductions ``.max(axis=1)`` and
``.sum(axis=1)``: numpy sums fewer than 8 terms left to right, exactly as
the column loop (e0 + e1) + e2 ... does, and from 8 classes on the row
reductions themselves run.  Trained parameters, objectives and metrics
are therefore the same bits on either path.

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
    """Logits, plus the hidden pre-activations and activations of an mlp."""
    p = params.params
    if params.kind == "linear":
        return X @ p["W"] + p["b"], None, None
    pre = X @ p["W1"] + p["b1"]
    hidden = np.maximum(pre, 0.0)
    return hidden @ p["W2"] + p["b2"], pre, hidden


def logits_batch(params: ModelParams, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != params.dims[0]:
        raise SchemaError(f"feature dim {X.shape[1]} != model dim {params.dims[0]}")
    return _forward(params, X)[0]


def _penalty(params: ModelParams) -> float:
    return 0.5 * sum(float((params.params[k] ** 2).sum()) for k in params.weight_keys())


def _objective_and_gradient(
    params: ModelParams, X: np.ndarray, y: np.ndarray, w: np.ndarray, cfg: TrainConfig
) -> tuple[float, dict[str, np.ndarray]]:
    """Objective and its exact gradient on raw batch arrays, from one
    forward pass and one log-softmax.  The caller vouches for the schema,
    labels below J included: the flat index of a larger label would land
    in the next row."""
    logits, pre, hidden = _forward(params, X)
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits")
    logp = log_softmax(logits)
    B, J = logits.shape
    picked = np.arange(0, B * J, J) + y  # flat index of (i, y_i)
    objective = float((w * -logp.take(picked)).sum() / B + cfg.weight_decay * _penalty(params))

    probs = np.exp(logp)
    probs.put(picked, probs.take(picked) - 1.0)
    gout = probs * (w / B)[:, None]  # d(objective)/d(logits)
    wd = cfg.weight_decay
    p = params.params
    if params.kind == "linear":
        return objective, {"W": X.T @ gout + wd * p["W"], "b": gout.sum(axis=0)}
    ghid = (gout @ p["W2"].T) * (pre > 0.0)
    return objective, {
        "W1": X.T @ ghid + wd * p["W1"],
        "b1": ghid.sum(axis=0),
        "W2": hidden.T @ gout + wd * p["W2"],
        "b2": gout.sum(axis=0),
    }


def _check_batch(params: ModelParams, batch: Dataset, w: WeightVector) -> None:
    if batch.labels is None:
        raise SchemaError("training batch needs labels")
    if len(w) != batch.n:
        raise SchemaError("weights must match the batch size")
    if batch.d != params.dims[0]:
        raise SchemaError(f"feature dim {batch.d} != model dim {params.dims[0]}")
    if batch.labels.max() >= params.dims[-1]:
        raise SchemaError(f"label id exceeds the model's {params.dims[-1]} classes")


def weighted_objective(
    params: ModelParams, batch: Dataset, w: WeightVector, cfg: TrainConfig
) -> float:
    """Weighted mean cross-entropy plus the L2 penalty."""
    _check_batch(params, batch, w)
    return _objective_and_gradient(params, batch.features, batch.labels, w.weights, cfg)[0]


def gradient(
    params: ModelParams, batch: Dataset, w: WeightVector, cfg: TrainConfig
) -> dict[str, np.ndarray]:
    """Exact gradient of :func:`weighted_objective`, keyed like params."""
    _check_batch(params, batch, w)
    return _objective_and_gradient(params, batch.features, batch.labels, w.weights, cfg)[1]


def momentum_step(
    params: ModelParams,
    velocity: dict[str, np.ndarray],
    grad: dict[str, np.ndarray],
    cfg: TrainConfig,
) -> tuple[ModelParams, dict[str, np.ndarray]]:
    """v' = momentum*v + lr*grad; params' = params - v'.  Pure."""
    new_v = {k: cfg.momentum * velocity[k] + cfg.lr * grad[k] for k in params.params}
    new_p = {k: params.params[k] - new_v[k] for k in params.params}
    return ModelParams(params.kind, new_p, params.dims), new_v


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
        # one gather per epoch; each batch is a contiguous slice of it
        X_epoch, y_epoch, w_epoch = X[order], y[order], weights[order]
        batch_objectives = []
        for start in range(0, data.n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            try:
                objective, grad = _objective_and_gradient(
                    params, X_epoch[batch], y_epoch[batch], w_epoch[batch], cfg
                )
            except NumericError as exc:
                raise NumericError(
                    f"{exc} (epoch {epoch}, batch {start // cfg.batch_size})"
                ) from exc
            batch_objectives.append(objective)
            params, velocity = momentum_step(params, velocity, grad, cfg)
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
