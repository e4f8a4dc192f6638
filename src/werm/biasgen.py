"""Controlled strata-distribution bias via power-law subsampling.

Given a dataset with strata and its original stratum distribution
{p_k}, a skewed target distribution is built as

    p'_k  proportional to  gamma ** (-floor(K/2) / sigma(k)) * p_k

for a permutation sigma of {1..K} and a bias knob gamma in (0, 1]
(gamma = 1 leaves the distribution untouched, small gamma is extreme
bias).  The paper's main text prints the exponent as
1 - floor(K/2)/sigma(k); that differs by the global factor gamma, which
the renormalization removes, so both forms give the same p'.

The subsampler repeatedly draws a stratum from p', moves one uniformly
random not-yet-taken record of that stratum into the output, and halts
the first time the drawn stratum has no records left.  It draws in bulk:
the strata of all draws at once, and one random permutation of the
records that fixes the order in which each stratum's records are taken.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Dataset,
    DomainError,
    EmptyStratumError,
    SchemaError,
    ValidationError,
    _check_count,
    _check_distribution,
    _check_real,
    _check_seed,
)
from .synthetic import _draw_strata


@dataclass(frozen=True)
class BiasSpec:
    """Bias knob gamma, stratum permutation, and the original distribution.

    ``permutation`` is either ``"identity"``, ``"random"`` (which uses
    ``perm_seed``), or an explicit tuple of 1-based targets
    ``(sigma(1), ..., sigma(K))``.  ``target_pk`` is the original
    stratum distribution {p_k}; when None it is filled from the data at
    apply time.
    """

    gamma: float
    permutation: str | tuple[int, ...] = "identity"
    perm_seed: int | None = None
    target_pk: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_real(self.gamma, "gamma", "(0, inf)", DomainError)
        _check_real(self.gamma, "gamma", "(0, 1]")
        if isinstance(self.permutation, str):
            if self.permutation not in ("identity", "random"):
                raise ValidationError(
                    "permutation must be 'identity', 'random', or an explicit tuple"
                )
            if self.permutation == "random" and self.perm_seed is None:
                raise ValidationError("random permutation needs perm_seed")
        else:
            object.__setattr__(self, "permutation", tuple(map(operator.index, self.permutation)))
        if self.perm_seed is not None:
            _check_seed(self.perm_seed, "perm_seed")
        if self.target_pk is not None:
            pk = _check_distribution(self.target_pk, "target_pk", 1e-12)
            object.__setattr__(self, "target_pk", tuple(float(v) for v in pk))


def resolve_permutation(spec: BiasSpec, K: int) -> np.ndarray:
    """Concrete sigma as an array of 1-based targets, one per stratum."""
    if spec.permutation == "identity":
        return np.arange(1, K + 1)
    if spec.permutation == "random":
        return np.random.default_rng(spec.perm_seed).permutation(K) + 1
    sigma = np.asarray(spec.permutation, dtype=int)
    if sigma.size != K or sorted(sigma) != list(range(1, K + 1)):
        raise ValidationError(f"permutation must be a bijection of 1..{K}")
    return sigma


def power_law_distribution(spec: BiasSpec, K: int) -> np.ndarray:
    """The renormalized power-law target distribution {p'_k}."""
    _check_count(K, "K", 1)
    if spec.target_pk is None:
        raise ValidationError("spec.target_pk is required")
    pk = np.asarray(spec.target_pk, dtype=float)
    if pk.size != K:
        raise ValidationError(f"target_pk has {pk.size} entries, expected {K}")
    if spec.gamma == 1.0:
        return pk.copy()
    sigma = resolve_permutation(spec, K)
    exponent = -float(K // 2) / sigma
    scaled = pk * spec.gamma**exponent
    return scaled / scaled.sum()


def total_variation(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())


def subsample_to_distribution(
    data: Dataset, p_prime, seed, max_size: int | None = None
) -> Dataset:
    """Draw records stratum-by-stratum until a drawn stratum runs dry.

    Output record order is draw order; each source record appears at
    most once.  Deterministic given (data, p_prime, seed).  ``max_size``,
    an integer >= 1, truncates the output early.

    ``seed`` is a nonnegative integer or a sequence of them; a Generator
    or BitGenerator is refused (ValidationError).  All draws are made at
    once from ``rng = np.random.default_rng(seed)``, with ``limit`` the
    smaller of ``max_size`` and n:

    * the strata of the first ``limit + 1`` draws, by
      :func:`synthetic._draw_strata` (inverse CDF over ``rng.random``,
      which never picks a stratum without mass), and each draw's rank
      among the earlier draws of its stratum;
    * one ``rng.permutation(n)`` of the records, grouped by stratum with a
      stable sort, so each stratum's records stand in uniformly random
      order.

    Draw t takes the rank-th record of its stratum in that order; the first
    draw whose rank reaches its stratum's size halts, and at most ``limit``
    records are taken.  That is the law of the per-draw loop that takes a
    uniformly random not-yet-taken record of each drawn stratum.
    """
    _check_seed(seed)
    p_prime = _check_distribution(p_prime, "p_prime", 1e-9)
    if max_size is not None:
        _check_count(max_size, "max_size", 1)
    sizes = data.stratum_counts()  # SchemaError without strata
    if p_prime.size != data.n_strata:
        raise SchemaError(f"p_prime has {p_prime.size} entries for {data.n_strata} strata")
    empty = np.flatnonzero((p_prime > 0) & (sizes[: p_prime.size] == 0))
    if empty.size:
        raise EmptyStratumError(int(empty[0]))
    rng = np.random.default_rng(seed)
    limit = data.n if max_size is None else min(max_size, data.n)
    k = _draw_strata(rng, p_prime, limit + 1, "p_prime")
    key = np.min_scalar_type(sizes.size - 1)  # K <= 65536 sorts by radix
    order = np.argsort(k.astype(key), kind="stable")
    counts = np.bincount(k, minlength=sizes.size)
    rank = np.empty_like(k)
    rank[order] = np.arange(k.size) - (np.cumsum(counts) - counts)[k[order]]
    halts = rank >= sizes[k]
    stop = min(int(halts.argmax()) if halts.any() else limit, limit)
    perm = rng.permutation(data.n)
    grouped = perm[np.argsort(data.strata[perm].astype(key), kind="stable")]
    return data.take(grouped[(np.cumsum(sizes) - sizes)[k[:stop]] + rank[:stop]])


def apply_bias(
    data: Dataset, spec: BiasSpec, seed, max_size: int | None = None
) -> tuple[Dataset, np.ndarray]:
    """Build p' from the bias settings (filling target_pk from the data
    when absent) and subsample; returns (biased dataset, realized p')."""
    if data.strata is None:
        raise SchemaError("dataset has no strata")
    if spec.target_pk is None:
        counts = data.stratum_counts()
        spec = replace(spec, target_pk=tuple(counts / counts.sum()))
    p_prime = power_law_distribution(spec, data.n_strata)
    out = subsample_to_distribution(data, p_prime, seed, max_size=max_size)
    return out, p_prime
