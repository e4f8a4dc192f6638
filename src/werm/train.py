"""Desk-scale weighted training: linear / one-hidden-layer softmax models,
weighted cross-entropy with L2 penalty, momentum batch gradient descent.

The objective on a batch of size B with weights w is

    (1/B) * sum_i w_i * ce(logits_i, y_i)  +  wd * 0.5 * sum ||W||_F^2

where ce is the softmax cross-entropy (computed with max-logit
subtraction) and the penalty covers weight matrices only, never biases.
Updates follow the classical momentum rule v <- momentum*v + lr*grad,
params <- params - v, with velocity starting at zero.

``fit`` trains one model per weight vector over one dataset, model kind
and config.  The models share the init and every epoch's shuffle, so each
epoch gathers the rows once (``take``), with a (J, n) one-hot of their
labels and the (M, n) weights of the M models, and each batch slice takes
one stacked step: parameters carry a leading M axis, logits are
(M, J, B), and one ``momentum_step`` updates all M.  One vector is the
stack M = 1, as is the model of a checked batch that the public
``weighted_objective`` and ``gradient`` take; each computes only what it
returns.  A fit logs its learning curve
(each epoch's mean batch objective and test metrics, per model) only when
it is given ``eval_data``; without it no objective is computed at all,
only the gradients the updates need.

The class-major (M, J, B) layout lets elementwise ops and
``core.log_softmax`` run along the B records.  A stacked fit gives each
model the bytes of its own one-vector fit: a stacked matmul calls the
BLAS product once per model, the reductions run per model, and a model's
epoch objective is a 1-d mean.  No summation order is part of the step's
definition: tests hold it within a rounding bound of the same step in
extended precision.

Everything here is single-threaded and bit-reproducible per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    Dataset,
    NumericError,
    SchemaError,
    ValidationError,
    WeightVector,
    _check_count,
    _check_real,
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
        _check_real(self.lr, "lr", "(0, inf)")
        _check_real(self.momentum, "momentum", "[0, 1)")
        for name in ("weight_decay", "init_std"):
            _check_real(getattr(self, name), name, "[0, inf)")
        _check_count(self.batch_size, "batch_size", 1)
        _check_count(self.epochs, "epochs", 0)
        _check_seed(self.seed)


def init_params(kind: str, d: int, J: int, cfg: TrainConfig) -> ModelParams:
    """Gaussian(0, init_std^2) weights, zero biases; deterministic per seed."""
    if kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {kind!r}")
    if d < 1 or J < 1:
        raise ValidationError("need d >= 1 and J >= 1")
    rng = np.random.default_rng(cfg.seed)
    s = cfg.init_std
    dims = (d, J) if kind == "linear" else (d, (d + J) // 2, J)
    layers = [""] if kind == "linear" else ["1", "2"]
    params = {}
    for layer, shape in zip(layers, zip(dims, dims[1:])):
        params["W" + layer] = rng.normal(0.0, s, shape) if s else np.zeros(shape)
        params["b" + layer] = np.zeros(shape[1])
    return ModelParams(kind, params, dims)


def _T(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix in a stack (of a lone matrix, ``a.T``)."""
    return a.swapaxes(-1, -2)


def _forward(params: ModelParams, X: np.ndarray):
    """Class-major (..., J, B) logits of the (B, d) rows X, plus the
    (..., B, h) hidden pre-activations and activations of an mlp; the
    leading axes are those of the parameter arrays."""
    p = params.params
    if params.kind == "linear":
        return _T(p["W"]) @ X.T + p["b"][..., None], None, None
    pre = X @ p["W1"] + p["b1"][..., None, :]
    hidden = np.maximum(pre, 0.0)
    return _T(p["W2"]) @ _T(hidden) + p["b2"][..., None], pre, hidden


def logits_batch(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """(n, J) logits, a transposed view of the class-major result."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != params.dims[0]:
        raise SchemaError(f"feature dim {X.shape[1]} != model dim {params.dims[0]}")
    return _forward(params, X)[0].T


def _penalty(params: ModelParams) -> np.ndarray:
    return 0.5 * sum((params.params[k] ** 2).sum(axis=(-2, -1)) for k in params.weight_keys())


def _one_hot(labels: np.ndarray, J: int) -> np.ndarray:
    return (np.arange(J)[:, None] == labels).astype(float)


def _objective(
    params: ModelParams, logp: np.ndarray, onehot: np.ndarray, w: np.ndarray, cfg: TrainConfig
) -> np.ndarray:
    """The (M,) objectives of one batch, from its class-major
    log-probabilities, (J, B) one-hot labels and (M, B) weights."""
    picked = (logp * onehot).sum(axis=-2)  # the other classes add z * 0.0
    wd = cfg.weight_decay
    # wd = 0 adds exactly 0.0, also where a squared weight overflows
    return (w * -picked).sum(axis=-1) / w.shape[-1] + (wd * _penalty(params) if wd else 0.0)


def _log_probs(params: ModelParams, X: np.ndarray):
    """Class-major log-probabilities of the rows X, plus ``_forward``'s
    hidden arrays; NumericError on a non-finite logit."""
    logits, pre, hidden = _forward(params, X)
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits")
    return log_softmax(logits), pre, hidden


def _objective_and_gradient(
    params: ModelParams, X: np.ndarray, onehot: np.ndarray, w: np.ndarray, cfg: TrainConfig,
    with_objective: bool = True,
) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
    """Objectives and exact gradients of M models on one batch, from one
    forward pass and one log-softmax.  The models are stacked along the
    leading axis of each parameter array; the batch is the rows X, the
    (J, B) one-hot labels, and one row of weights per model, (M, B).
    Returns the (M,) objectives, or ``None`` unless ``with_objective``,
    and gradients stacked like the params.  The caller vouches for the
    schema."""
    logp, pre, hidden = _log_probs(params, X)
    objective = _objective(params, logp, onehot, w, cfg) if with_objective else None

    B, wd = w.shape[-1], cfg.weight_decay
    gout = np.exp(logp)
    gout -= onehot
    gout *= (w / B)[..., None, :]  # d(objective)/d(logits), class-major
    g = _T(gout)
    p = params.params
    if params.kind == "linear":
        return objective, {"W": X.T @ g + wd * p["W"], "b": gout.sum(axis=-1)}
    ghid = (g @ _T(p["W2"])) * (pre > 0.0)
    return objective, {
        "W1": X.T @ ghid + wd * p["W1"],
        "b1": ghid.sum(axis=-2),
        "W2": _T(hidden) @ g + wd * p["W2"],
        "b2": gout.sum(axis=-1),
    }


def _one_model_batch(params: ModelParams, batch: Dataset, w: WeightVector):
    """One model as a stack of M = 1, with the one-hot labels and the (1, B)
    weights of a batch that is checked against it."""
    if batch.labels is None:
        raise SchemaError("training batch needs labels")
    if len(w) != batch.n:
        raise SchemaError("weights must match the batch size")
    if batch.d != params.dims[0]:
        raise SchemaError(f"feature dim {batch.d} != model dim {params.dims[0]}")
    if batch.labels.max() >= params.dims[-1]:
        raise SchemaError(f"label id exceeds the model's {params.dims[-1]} classes")
    stack = ModelParams(params.kind, {k: v[None] for k, v in params.params.items()}, params.dims)
    return stack, _one_hot(batch.labels, params.dims[-1]), w.weights[None]


def weighted_objective(
    params: ModelParams, batch: Dataset, w: WeightVector, cfg: TrainConfig
) -> float:
    """Weighted mean cross-entropy plus the L2 penalty."""
    stack, onehot, weights = _one_model_batch(params, batch, w)
    logp = _log_probs(stack, batch.features)[0]
    return float(_objective(stack, logp, onehot, weights, cfg)[0])


def gradient(
    params: ModelParams, batch: Dataset, w: WeightVector, cfg: TrainConfig
) -> dict[str, np.ndarray]:
    """Exact gradient of :func:`weighted_objective`, keyed like params."""
    stack, onehot, weights = _one_model_batch(params, batch, w)
    grad = _objective_and_gradient(
        stack, batch.features, onehot, weights, cfg, with_objective=False
    )[1]
    return {k: v[0] for k, v in grad.items()}


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


@dataclass
class TrainingLog:
    """Per-epoch trace: mean batch objective plus end-of-epoch metrics.

    Every list stays empty when ``fit`` ran without ``eval_data``, since
    such a fit computes no objective; ``rows`` then yields nothing.
    """

    epochs: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    miss_rate: list[float] = field(default_factory=list)
    top_k_error: list[float] = field(default_factory=list)

    def rows(self):
        return zip(self.epochs, self.objective, self.miss_rate, self.top_k_error)


def _model(stack: ModelParams, m: int) -> ModelParams:
    """Model m of a stack, as views."""
    return ModelParams(stack.kind, {k: v[m] for k, v in stack.params.items()}, stack.dims)


@np.errstate(over="raise", invalid="raise")  # a non-finite value fails where it arises
def fit(
    data: Dataset,
    weights: Sequence[WeightVector],
    kind: str,
    cfg: TrainConfig,
    eval_data: Dataset | None = None,
    top_k: int = 1,
) -> list[tuple[ModelParams, TrainingLog]]:
    """Momentum batch gradient descent over seeded epoch shuffles, one
    model per weight vector, trained as one stack; returns a (params, log)
    pair per vector, with the bits of a fit of that vector alone.

    When ``eval_data`` is given, a log records, per epoch, the mean
    weighted batch objective and the miss / top-k error on ``eval_data``.
    With ``eval_data=None`` no objective is computed and no set is
    evaluated, so the log stays empty.  Logging never changes the trained
    parameters.  The final short batch of an epoch is kept, averaged over
    its actual size.  The first overflow or invalid value among those
    computed raises NumericError naming its epoch and batch.  A weight
    vector that is all zero is refused before any step.
    """
    if data.labels is None:
        raise SchemaError("training data needs labels")
    if isinstance(weights, WeightVector) or not weights:
        raise ValidationError("fit needs a sequence of one or more weight vectors")
    if any(len(w) != data.n for w in weights):
        raise SchemaError("weights must match the dataset size")
    for m, w in enumerate(weights):
        if not w.weights.any():
            raise ValidationError(f"weight vector {m} is all zero: it weights no record")
    model = init_params(kind, data.d, data.n_classes, cfg)
    params = ModelParams(
        kind, {k: np.stack([v] * len(weights)) for k, v in model.params.items()}, model.dims
    )
    velocity = {k: np.zeros_like(v) for k, v in params.params.items()}
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    logs = [TrainingLog() for _ in weights]
    X, y = data.features, data.labels
    W = np.stack([w.weights for w in weights])
    curve = eval_data is not None

    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(data.n)
        # one gather per epoch; each batch is a slice of these
        X_epoch, w_epoch = X.take(order, axis=0), W.take(order, axis=1)
        onehot = _one_hot(y.take(order), data.n_classes)
        batch_objectives = []
        for start in range(0, data.n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            try:
                objective, grad = _objective_and_gradient(
                    params, X_epoch[batch], onehot[:, batch], w_epoch[:, batch], cfg,
                    with_objective=curve,
                )
                momentum_step(params, velocity, grad, cfg)
            except (NumericError, FloatingPointError) as exc:
                raise NumericError(
                    f"{exc} (epoch {epoch}, batch {start // cfg.batch_size})"
                ) from exc
            batch_objectives.append(objective)
        if not curve:
            continue
        # a 1-d mean per model: numpy sums a 2-d array's columns in another order
        for m, (log, objectives) in enumerate(zip(logs, np.array(batch_objectives).T.copy())):
            log.epochs.append(epoch)
            log.objective.append(float(np.mean(objectives)))
            try:
                metrics = classification_metrics(
                    eval_data, logits_batch(_model(params, m), eval_data.features), k=top_k
                )
            except (NumericError, FloatingPointError) as exc:
                raise NumericError(f"{exc} (epoch {epoch}, evaluation)") from exc
            log.miss_rate.append(metrics["miss_rate"])
            log.top_k_error.append(metrics["top_k_error"])
    return [(_model(params, m), log) for m, log in enumerate(logs)]
