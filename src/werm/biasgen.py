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

import operator
from array import array
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
    _check_seed,
)


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
        if not self.gamma > 0.0:
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


# A pool this large takes numpy's 64-bit path in ``Generator.integers``,
# which the replay does not mirror.
_MAX_POOL = 2**32 - 1
# Draws replayed as one array block: the first block is _MIN_BLOCK long, a
# block that ran clean doubles the next up to _MAX_BLOCK, and a break sets
# it back, so the work thrown away after a break is at most twice the draws
# kept since the last one, plus _MIN_BLOCK.
_MIN_BLOCK = 256
_MAX_BLOCK = 4096
_LOW32 = np.uint64(0xFFFFFFFF)


def _check_pools(data: Dataset, p_prime: np.ndarray) -> list[array]:
    """Each stratum's record indices, as compact int64 arrays."""
    if data.strata is None:
        raise SchemaError("dataset has no strata")
    if p_prime.size != data.n_strata:
        raise SchemaError(
            f"p_prime has {p_prime.size} entries for {data.n_strata} strata"
        )
    pools = [np.flatnonzero(data.strata == k) for k in range(data.n_strata)]
    for k in np.flatnonzero(p_prime > 0):
        if pools[k].size == 0:
            raise EmptyStratumError(int(k))
    if max(pool.size for pool in pools) >= _MAX_POOL:
        raise ValidationError(f"a stratum pool must hold fewer than {_MAX_POOL} records")
    return [array("q", pool.astype(np.int64, copy=False).tobytes()) for pool in pools]


def _lemire(x: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's 32-bit bounded integers for uint64 arrays of 32 random bits
    x and bounds s >= 1: the draws ``j`` in [0, s) and where a draw is
    rejected (and numpy would take the next 32 bits instead)."""
    prod = x * s
    return prod >> np.uint64(32), (prod & _LOW32) < (np.uint64(2**32) - s) % s


class _Stream:
    """The words of a PCG64, read as ``Generator.random`` and
    ``Generator.integers(s)`` read them, and peeked at in bulk.

    ``half`` is the one-slot 32-bit buffer the integer draws share: a
    fresh word gives its low half and leaves its high half there.
    """

    def __init__(self, seed):
        self._bitgen = np.random.PCG64(seed)
        self._words = np.empty(0, dtype=np.uint64)
        self._at = 0
        self.half: int | None = None

    def peek(self, n: int) -> np.ndarray:
        """The next n words, not consumed."""
        if self._words.size - self._at < n:
            self._words = np.concatenate(
                (self._words[self._at:], self._bitgen.random_raw(max(n, _MAX_BLOCK)))
            )
            self._at = 0
        return self._words[self._at:self._at + n]

    def layout(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The doubles and the 32-bit integer inputs of the next n draws,
        read in the layout that holds while no draw breaks it and the
        buffer is empty; consumes nothing."""
        words = self.peek(3 * ((n + 1) // 2)).reshape(-1, 3)
        u = (words[:, ::2] >> np.uint64(11)).ravel()[:n] * 2.0**-53
        halves = np.stack((words[:, 1] & _LOW32, words[:, 1] >> np.uint64(32)), axis=1)
        return u, halves.ravel()[:n]

    def consume_layout(self, kept: int) -> None:
        """Consume the first ``kept`` draws of the last :meth:`layout`."""
        pairs, odd = divmod(kept, 2)
        if odd:
            self.half = int(self._words[self._at + 3 * pairs + 1]) >> 32
        self._at += 3 * pairs + 2 * odd

    def double(self) -> float:
        word = int(self.peek(1)[0])
        self._at += 1
        return (word >> 11) * 2.0**-53

    def uint32(self) -> int:
        if self.half is not None:
            out, self.half = self.half, None
            return out
        word = int(self.peek(1)[0])
        self._at += 1
        self.half = word >> 32
        return word & 0xFFFFFFFF

    def below(self, s: int) -> int:
        """Lemire's bounded integer in [0, s), as numpy draws it for
        1 <= s < 2**32 - 1."""
        if s == 1:
            return 0
        threshold = (2**32 - s) % s
        while True:
            prod = self.uint32() * s
            if prod & 0xFFFFFFFF >= threshold:
                return prod >> 32


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

    ``seed`` is a nonnegative integer or a sequence of them; a Generator
    or BitGenerator is refused (ValidationError), because the draws are
    replayed from a PCG64 of their own.  Draw i takes ``u = rng.random()``
    and the stratum ``k = min(cum.searchsorted(u, side="right"), K - 1)``
    over the cumulative p'; it halts if k's pool is empty, else takes the
    record at ``j = rng.integers(s)`` of k's s remaining records and
    swap-removes it.  The draws are those of that loop over
    ``np.random.default_rng(seed)`` (numpy 2.x), read from the raw 64-bit
    words of its PCG64 (O'Neill 2014) an array block at a time:

    * a double is ``(w >> 11) * 2**-53``, one word;
    * an integer is Lemire's (2019) 32-bit draw: ``prod = x * s`` for 32
      bits x, ``j = prod >> 32``, taking the next 32 bits while
      ``prod % 2**32 < (2**32 - s) % s``; ``s == 1`` takes no bits.  The
      32 bits are the low half of a fresh word, or the high half that the
      previous integer left in a one-slot buffer; a double does not touch
      the buffer;
    * so, with the buffer empty, draws 2t and 2t + 1 of a block read word
      3t (double), the low half of 3t + 1 (integer), 3t + 2 (double) and
      the high half of 3t + 1 (integer).

    A block computes every draw in that layout at once, the stratum sizes
    from the ranks of equal strata within it (a stable argsort).  A draw
    that breaks the layout (size 1, a rejection, the halting draw) ends
    the block and is taken alone, as is any draw while the buffer holds a
    half; the next block starts from the words and buffer that leaves.
    Only the swap-removes run one pick at a time.  A stratum of 2**32 - 1
    records or more would take numpy's 64-bit integers: ValidationError.
    """
    _check_seed(seed)
    p_prime = _check_distribution(p_prime, "p_prime", 1e-9)
    pools = _check_pools(data, p_prime)
    cum = np.cumsum(p_prime)
    last = p_prime.size - 1
    rank_type = np.min_scalar_type(last)  # at most 16 bits: a radix argsort
    sizes = np.array([len(pool) for pool in pools], dtype=np.int64)
    stream = _Stream(seed)
    chosen = array("q")
    limit = data.n if max_size is None else min(max_size, data.n)
    span = _MIN_BLOCK
    while len(chosen) < limit:
        if stream.half is None:
            n = min(span, limit - len(chosen))
            u, x = stream.layout(n)
            k = np.minimum(cum.searchsorted(u, side="right"), last)
            order = np.argsort(k.astype(rank_type), kind="stable")
            counts = np.bincount(k, minlength=last + 1)
            rank = np.empty(n, dtype=np.int64)
            rank[order] = np.arange(n) - (np.cumsum(counts) - counts)[k[order]]
            s = sizes[k] - rank  # the pool size each draw sees
            j, rejected = _lemire(x, np.maximum(s, 1).astype(np.uint64))
            breaks = (s <= 1) | rejected
            kept = int(breaks.argmax()) if breaks.any() else n
            span = min(2 * span, _MAX_BLOCK) if kept == n else _MIN_BLOCK
            k = k[:kept]
            for stratum, pick, end in zip(k.tolist(), j[:kept].tolist(), (s[:kept] - 1).tolist()):
                pool = pools[stratum]
                chosen.append(pool[pick])
                pool[pick] = pool[end]
            sizes -= np.bincount(k, minlength=last + 1)
            stream.consume_layout(kept)
            if kept == n:
                continue
        # the draw that broke the layout, or one after a buffered half
        stratum = min(int(cum.searchsorted(stream.double(), side="right")), last)
        size = int(sizes[stratum])
        if size == 0:
            break
        pool = pools[stratum]
        pick = stream.below(size)
        chosen.append(pool[pick])
        pool[pick] = pool[size - 1]
        sizes[stratum] -= 1
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
