"""Controlled strata-distribution bias via power-law subsampling.

Given a dataset with strata and its original stratum distribution
{p_k}, a skewed target distribution is built as

    p'_k  proportional to  gamma ** (-floor(K/2) / sigma(k)) * p_k

for a permutation sigma of {1..K} and a bias knob gamma in (0, 1]
(gamma = 1 leaves the distribution untouched, small gamma is extreme
bias).  The paper's main text prints the exponent as
1 - floor(K/2)/sigma(k); that differs by the global factor gamma, which
the renormalization removes, so both forms give the same p'.

The subsampler then repeatedly draws a stratum from p', moves one
uniformly random not-yet-taken record of that stratum into the output,
and halts the first time the drawn stratum has no records left.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Dataset,
    DomainError,
    EmptyStratumError,
    SchemaError,
    ValidationError,
)

__all__ = [
    "BiasSpec",
    "resolve_permutation",
    "power_law_distribution",
    "subsample_to_distribution",
    "apply_bias",
    "total_variation",
]

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
        if self.gamma <= 0.0:
            raise DomainError("gamma must be > 0")
        if self.gamma > 1.0:
            raise ValidationError("gamma must lie in (0, 1]")
        if isinstance(self.permutation, str):
            if self.permutation not in ("identity", "random"):
                raise ValidationError(
                    "permutation must be 'identity', 'random', or an explicit tuple"
                )
            if self.permutation == "random" and self.perm_seed is None:
                raise ValidationError("random permutation needs perm_seed")
        else:
            object.__setattr__(self, "permutation", tuple(int(v) for v in self.permutation))
        if self.target_pk is not None:
            pk = np.asarray(self.target_pk, dtype=float)
            if pk.min() < 0 or abs(pk.sum() - 1.0) > 1e-12:
                raise ValidationError("target_pk must be a distribution summing to 1")
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
    if K < 1:
        raise ValidationError("K must be >= 1")
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


def _check_pools(data: Dataset, p_prime: np.ndarray) -> list[np.ndarray]:
    if data.strata is None:
        raise SchemaError("dataset has no strata")
    if p_prime.ndim != 1 or p_prime.size != data.n_strata:
        raise SchemaError(
            f"p_prime has {p_prime.size} entries for {data.n_strata} strata"
        )
    if p_prime.min() < 0 or abs(p_prime.sum() - 1.0) > 1e-9:
        raise ValidationError("p_prime must be a distribution summing to 1")
    pools = [np.flatnonzero(data.strata == k) for k in range(data.n_strata)]
    for k in np.flatnonzero(p_prime > 0):
        if pools[k].size == 0:
            raise EmptyStratumError(int(k))
    return pools


def subsample_to_distribution(
    data: Dataset,
    p_prime,
    seed,
    max_size: int | None = None,
) -> Dataset:
    """Draw records stratum-by-stratum until a drawn stratum runs dry.

    Output record order is draw order; each source record appears at
    most once.  Deterministic given (data, p_prime, seed).  ``max_size``
    truncates the output early.
    """
    p_prime = np.asarray(p_prime, dtype=float)
    pools = _check_pools(data, p_prime)
    rng = np.random.default_rng(seed)
    cum = np.cumsum(p_prime).tolist()
    last = p_prime.size - 1
    sizes = [pool.size for pool in pools]
    chosen: list[int] = []
    limit = data.n if max_size is None else min(max_size, data.n)
    while len(chosen) < limit:
        k = min(bisect.bisect_right(cum, rng.random()), last)
        if sizes[k] == 0:
            break
        j = int(rng.integers(sizes[k]))
        chosen.append(int(pools[k][j]))
        pools[k][j] = pools[k][sizes[k] - 1]
        sizes[k] -= 1
    if not chosen:
        raise ValidationError("subsample stopped before drawing any record")
    return data.take(chosen)


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
