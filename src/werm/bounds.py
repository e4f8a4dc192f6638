"""Generalization and plug-in deviation bounds as evaluable formulas.

Every plug-in result is built from two inequalities.  A Hoeffding bound,
with a union bound over K group rates, controls the gap between
count-plug-in and exact-rate weighting uniformly over the hypothesis grid
(:func:`deviation_bound`); each ``weights.setting`` row names its kind:

    (2c/eps^2) * sqrt(log(2K/delta)/(2n)),  valid for n >= 2*log(2K/delta)/eps^2

    approx1  [class shift]    c = 1      K = 1
    approx2  [stratum shift]  c = L      K = K
    approx3  [PU]             c = 2p+1   K = 1

Each excess-risk bound (:func:`evaluate_bound`) is an estimation term plus
its paired deviation bound paid twice at delta/2, whose sample-size
condition it inherits:

    (2*lead/eps) * (2*E[Rad] + L*sqrt(2*log(2/delta)/n)) + 2 * deviation(delta/2)

    corollary1  pays approx1   lead = max(p, 1-p)   L = 1
    theorem1    pays approx2   lead = max_pk        L = L
    theorem2    pays approx3   lead = max(2p, 1)    L = 1

``lemma1`` is the weighting-free 4*phi_sup*E[Rad] +
2*phi_sup*L*sqrt(2*log(1/delta)/n).  Every bound reports its terms, its
sample-size condition (``required_n``) and whether n meets it
(``valid``).  ``valid`` says nothing else: corollary1 at p = 0.3,
delta = 0.1 and eps = 0.3 is 1.6 at n = 2,000, vacuous for a 0-1 loss,
yet valid, since required_n is 82.  eps is the separation margin: all
group rates are assumed to lie in (eps, 1-eps), and every plug-in bound
blows up as eps -> 0.

Rademacher averages are estimated by Monte Carlo over an explicit finite
hypothesis grid; no combinatorial-dimension machinery is used.
"""

from __future__ import annotations

import contextvars
import dataclasses
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import weights
from .core import (
    Dataset,
    LossSpec,
    ValidationError,
    _check_count,
    _check_distribution,
    _check_real,
    _check_seed,
    _threshold_checks,
)


EXCESS_BOUND_KINDS = ("lemma1", "corollary1", "theorem1", "theorem2")
DEVIATION_BOUND_KINDS = ("approx1", "approx2", "approx3")

_BLOCK = 1024  # draws per seeded block, in rademacher_mc and coverage_check
# draws at a time inside a block: O(rows * cells * grid) memory per thread for cell and
# bin counts, O(rows) where a coverage replicate is one group count (class_shift and pu)
_ROWS = 16
# each real field of BoundInputs -> the interval its value must lie in
_INPUT_RANGES = {
    "delta": "(0, 1)", "epsilon": "(0, 0.5)", "L": "[0, inf)", "phi_sup": "[0, inf)",
    "p": "(0, 1)", "max_pk": "(0, 1]", "rademacher": "[0, inf)",
}


@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by the bound formulas.  A field whose default is None
    may stay None when the formula does not read it; any other value must be
    a real number in the field's range, so that no formula meets a raw type."""

    n: int
    delta: float
    epsilon: float | None = None
    L: float = 1.0
    phi_sup: float | None = None
    p: float | None = None
    max_pk: float | None = None
    K: int | None = None
    rademacher: float = 0.0

    def __post_init__(self):
        _check_count(self.n, "n", 1, math.inf)
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name in _INPUT_RANGES and (value is not None or field.default is not None):
                _check_real(value, field.name, _INPUT_RANGES[field.name])
        if self.epsilon is not None and self.epsilon**2 == 0.0:
            raise ValidationError("epsilon**2 underflows to 0")
        if self.K is not None:
            _check_count(self.K, "K", 1, math.inf)
        if max(self.n, self.K or 1) > sys.float_info.max:
            raise ValidationError("n and K must not exceed the float range")


@dataclass(frozen=True)
class BoundResult:
    """Evaluated bound: total value, named terms, and validity."""

    value: float
    valid: bool
    terms: dict[str, float]
    required_n: float


def _require(inputs: BoundInputs, kind: str, fields: tuple[str, ...]) -> None:
    for f in fields:
        if getattr(inputs, f) is None:
            raise ValidationError(f"bound kind {kind!r} needs field {f!r}")


def _result(terms: dict[str, float], required_n: float, n: int) -> BoundResult:
    return BoundResult(
        value=float(sum(terms.values())),
        valid=bool(n >= required_n),
        terms=terms,
        required_n=float(required_n),
    )


# deviation kind -> (fields it needs, inputs -> (c, K)) of
# (2c/eps^2) * sqrt(log(2K/delta)/(2n))
_DEVIATIONS = {
    "approx1": (("epsilon",), lambda i: (1.0, 1)),
    "approx2": (("epsilon", "K"), lambda i: (i.L, i.K)),
    "approx3": (("epsilon", "p"), lambda i: (2.0 * i.p + 1.0, 1)),
}

# excess kind -> (fields it needs, the deviation kind it pays for,
# inputs -> (lead, L) of the estimation term)
_EXCESS = {
    "corollary1": (("p", "epsilon"), "approx1", lambda i: (max(i.p, 1.0 - i.p), 1.0)),
    "theorem1": (("max_pk", "epsilon", "K"), "approx2", lambda i: (i.max_pk, i.L)),
    "theorem2": (("p", "epsilon"), "approx3", lambda i: (max(2.0 * i.p, 1.0), 1.0)),
}


def evaluate_bound(kind: str, inputs: BoundInputs) -> BoundResult:
    """Excess-risk or deviation bound of the given kind at the given inputs."""
    if kind in _DEVIATIONS:
        return deviation_bound(kind, inputs)
    n, delta, eps, rad = inputs.n, inputs.delta, inputs.epsilon, inputs.rademacher
    if kind == "lemma1":
        _require(inputs, kind, ("phi_sup",))
        phi, L = inputs.phi_sup, inputs.L
        terms = {
            "complexity": 4.0 * phi * rad,
            "deviation": 2.0 * phi * L * math.sqrt(2.0 * math.log(1.0 / delta) / n),
        }
        return _result(terms, required_n=1.0, n=n)
    if kind not in _EXCESS:
        raise ValidationError(f"unknown bound kind {kind!r}")
    fields, paired, constants = _EXCESS[kind]
    _require(inputs, kind, fields)
    lead, L = constants(inputs)
    plug_in = _deviation(paired, inputs, times=2)
    terms = {
        "estimation": (2.0 * lead / eps)
        * (2.0 * rad + L * math.sqrt(2.0 * math.log(2.0 / delta) / n)),
        "plug_in": plug_in.value,
    }
    return dataclasses.replace(plug_in, value=float(sum(terms.values())), terms=terms)


def deviation_bound(kind: str, inputs: BoundInputs) -> BoundResult:
    """Plug-in-vs-exact weighting deviation bound of the given kind."""
    return _deviation(kind, inputs, times=1)


def _deviation(kind: str, inputs: BoundInputs, times: int) -> BoundResult:
    """``times`` x the deviation bound at delta/times.  The factor goes
    into the constants, 2*times*c/eps^2 and log(2*times*K/delta), not onto
    the rounded bound: 2 x approx2 at delta/2 is then (4L/eps^2) *
    sqrt(log(4K/delta)/(2n)) to the bit, also where L/eps^2 or delta/2 is
    subnormal."""
    if kind not in _DEVIATIONS:
        raise ValidationError(f"unknown deviation bound kind {kind!r}")
    fields, constants = _DEVIATIONS[kind]
    _require(inputs, kind, fields)
    _check_real(inputs.delta / times, "delta", "(0, 1)")
    c, K = constants(inputs)
    log_term = math.log(2.0 * times * K / inputs.delta)
    value = (2.0 * times * c / inputs.epsilon**2) * math.sqrt(log_term / (2.0 * inputs.n))
    return _result(
        {"deviation": value}, required_n=2.0 * log_term / inputs.epsilon**2, n=inputs.n
    )


def prior_sensitivity_bound(zeta: float) -> float:
    """Bound 2*zeta on the risk change from using a prior within zeta of
    the true positive rate."""
    _check_real(zeta, "zeta", "[0, inf)")
    return 2.0 * zeta


# ---------------------------------------------------------------------------
# Monte-Carlo Rademacher averages
# ---------------------------------------------------------------------------


def rademacher_mc(data: Dataset, hypothesis_grid, loss: LossSpec, reps: int, seed) -> float:
    """Monte-Carlo Rademacher average of the loss class over a finite grid.

    Averages, over ``reps`` sign draws, the maximum over the grid of
    |(1/n) * sum_i sigma_i * loss_i|.  The grid holds thresholds: real
    numbers, +-inf included (the two constant classifiers), NaN not.

    Records of one class between two adjacent distinct thresholds have the
    same loss at every threshold, so a draw needs only each such (class,
    bin) cell's sign sum: 2 * Binomial(c, 1/2) - c for c records, the law of
    c summed signs.  The records are binned once; a draw then costs
    O(grid), whatever n.  Draws are seeded in blocks of 1,024 (see
    ``_by_block``), so ``reps`` changes no draw.  With ``reps`` above 1,024
    the blocks run on one thread per usable CPU, with the same bits at any
    count.  Each draw's maximum is an integer over n.
    """
    return float(_rademacher_draws(data, hypothesis_grid, loss, reps, seed).mean())


def _rademacher_draws(data, hypothesis_grid, loss, reps, seed) -> np.ndarray:
    """The ``reps`` per-draw maxima whose mean is :func:`rademacher_mc`."""
    grid = list(hypothesis_grid) if np.iterable(hypothesis_grid) else []
    if not grid:
        raise ValidationError("hypothesis grid must be a nonempty sequence of thresholds")
    _check_count(reps, "reps", 1)
    _check_seed(seed)
    # sorted, each value once; np.unique would import numpy.ma for this
    edges = np.sort(_threshold_checks(data, loss, grid))
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    # a record's cell is class * bins + bin; bin j holds x in [edges[j-1], edges[j])
    cells = np.searchsorted(edges, data.features[:, 0], side="right")
    np.add(cells, edges.size + 1, out=cells, where=data.labels == 1)
    counts = np.bincount(cells, minlength=2 * edges.size + 2).reshape(2, -1)

    def draw(rng, rows):
        sums = rng.binomial(counts, 0.5, size=(rows, *counts.shape))
        sums *= 2  # in place: a chunk holds one (rows, 2, bins) array
        sums -= counts
        # integer sums times integer ones: every draw keeps its bits
        return _count_deviations(sums[:, None], np.ones_like)

    return _by_block(seed, reps, _ROWS, draw) / data.n


def _sweep(steps: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Each row's max over the thresholds of |base + (steps summed over the
    bins below the threshold)|: the last bin lies above every threshold."""
    return np.abs(np.cumsum(steps, axis=1)[:, :-1] + base[:, None]).max(axis=1)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _by_block(seed, reps: int, rows: int, draw) -> np.ndarray:
    """The ``reps`` values of ``draw(rng, count)``, called on chunks of at
    most ``rows`` draws in blocks of 1,024, block b from
    ``SeedSequence((seed, b))``: consecutive calls continue one stream, so
    ``rows`` changes no value.  The blocks run on one thread per usable CPU,
    the caller's among them, each other thread in a copy of the caller's
    context (numpy 2 keeps ``errstate`` there); block b always draws from
    its own stream into its own slot, so the thread count changes no bit
    either.  Only ``reps`` above 1,024 give more than one block: a lone
    block or CPU starts no thread.  The lowest block that raises raises
    here, as it would in one loop, and no thread starts a block above it;
    an exception of the caller's own (an interrupt while it waits) stops
    every thread after its current block."""
    out = np.empty(reps)
    starts = range(0, reps, _BLOCK)
    workers = min(len(starts), _usable_cpus())
    errors, lock = {}, threading.Lock()  # failed block -> its exception; -1 the caller's

    def work(first):
        for b in range(first, len(starts), workers):
            with lock:
                if errors and min(errors) < b:  # one loop would have stopped below b
                    return
            rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
            end = min(starts[b] + _BLOCK, reps)
            try:
                for lo in range(starts[b], end, rows):
                    out[lo : min(lo + rows, end)] = draw(rng, min(rows, end - lo))
            except BaseException as err:
                with lock:
                    errors[b] = err
                return

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(work, t))
               for t in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        work(0)
        for thread in threads:
            thread.join()
    except BaseException as err:
        with lock:
            errors[-1] = err
        for thread in threads:
            if thread.is_alive():
                thread.join()
    if errors:
        raise errors[min(errors)]
    return out


# ---------------------------------------------------------------------------
# Empirical coverage of the deviation bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageResult:
    """Fraction of replicates whose sup deviation stayed under the bound."""

    coverage: float
    bound_value: float
    required_n: float
    valid: bool
    reps: int
    deviations: np.ndarray


def _cell_law(setting: str, model, shares, grid: np.ndarray) -> np.ndarray:
    """The (group, class, bin) probabilities of a record: its group, drawn
    from the training law's group ``shares``, its label, and its bin of the
    grid.  Bin j holds x in [grid[j-1], grid[j]), the first and last bins
    x < grid[0] and x >= grid[-1].  The bins come from the class-conditional
    CDFs at the grid: x^(1+alpha) for positives, 1 - (1-x)^(1+beta) for
    negatives, their p-mixture for PU's unlabeled records, and x in every
    stratum."""
    if setting == "stratum_shift":
        if np.size(shares) != model.n_strata:
            raise ValidationError("pk_train length must match the strata count")
        r = np.asarray(model.pos_rates)
        prob, cdf = np.stack([shares * (1.0 - r), shares * r], axis=1), grid
    else:
        pos = grid ** (1.0 + model.alpha)
        neg = 1.0 - (1.0 - grid) ** (1.0 + model.beta)
        if setting == "pu":
            neg = model.p * pos + (1.0 - model.p) * neg
        # the group is the label: group g holds class g alone
        prob, cdf = np.diag(shares), np.stack([neg, pos])
    joint = prob[..., None] * np.maximum(np.diff(cdf, prepend=0.0, append=1.0), 0.0)
    return joint / joint.sum()


def _label_deviations(counts, diff, grid_size: int) -> np.ndarray:
    """:func:`_count_deviations` from the (replicate, group) counts alone,
    where group g holds class g alone and every x lies in [0, 1).  The two
    groups' weight differences have opposite signs, so the gap at any theta
    lies between the gaps of the constant rules theta = 0 and theta = 1,
    c_0 * d_0 and c_1 * d_1: the sup is the larger.  A grid of size 1 holds
    theta = 0 alone."""
    gaps = np.abs(counts * diff(counts))
    return gaps[:, 0] if grid_size == 1 else gaps.max(axis=1)


def _count_deviations(counts, diff) -> np.ndarray:
    """Each replicate's sup over the grid of |sum_i diffs_i * loss_i(theta)|
    from its (group, class, bin) counts, ``diff(group counts)`` giving each
    group's plug-in minus oracle weight: a positive record adds its group's
    difference below theta, a negative one at or above theta.  Signed sums
    in place of counts, in one group of weight 1, give a Rademacher draw."""
    per_class = counts.sum(axis=3)
    d = diff(per_class.sum(axis=2))
    steps = ((counts[:, :, 1] - counts[:, :, 0]) * d[:, :, None]).sum(axis=1)
    return _sweep(steps, (per_class[:, :, 0] * d).sum(axis=1))


def coverage_check(
    setting: str,
    model,
    n: int,
    delta: float,
    reps: int,
    seed,
    *,
    p_train: float | None = None,
    q: float | None = None,
    pk=None,
    pk_train=None,
    epsilon: float | None = None,
    grid_size: int = 101,
) -> CoverageResult:
    """Empirical coverage of the plug-in deviation bound for a setting.

    Over ``reps`` training draws, computes the sup over a fixed theta
    grid of |plug-in weighted risk - exact-rate weighted risk| and the
    fraction of replicates where it stays below the deviation bound whose
    kind the setting's ``weights.setting`` row names.  The contract is
    coverage >= 1 - delta; the bounds are loose, so coverage near 1 is the
    norm.  class_shift reads ``p_train``, pu ``q``, and stratum_shift
    ``pk`` (its target) and ``pk_train``; a rate keyword the setting does
    not read is refused.

    No record is drawn.  The plug-in weights depend on n and the group
    counts alone, the exact ratios on neither (see ``weights.setting``), so
    a draw's deviation depends only on how many of its records fall in each
    (group, class) cell and grid bin.  A setting grouped by label (class_shift
    and pu) needs only the group counts: each group holds one class, and the
    sup is at theta = 0 or 1 (``_label_deviations``).  Its replicates draw
    one binomial group count each, the law of the cell counts' group totals,
    from a different stream.  stratum_shift draws the cell and bin counts
    from their multinomial law.  Neither cost grows with n.  Draws are
    seeded as in ``_by_block``, so fewer ``reps`` give a prefix of
    ``deviations``.  With ``reps`` above 1,024 the blocks of 1,024
    replicates run on one thread per usable CPU, with the same bits at any
    count.
    """
    for name, count in (("n", n), ("reps", reps), ("grid_size", grid_size)):
        _check_count(count, name, 1)
    _check_seed(seed)
    model_type, rate_arg, column, _, _, plug_in_table, kind = weights.setting(setting)
    # a stratum setting's rates are a distribution, and its target is pk
    stratified = column == "strata"
    given = {"p_train": p_train, "q": q, "pk": pk, "pk_train": pk_train}
    reads = ("pk", rate_arg) if stratified else (rate_arg,)
    for key in [k for k, v in given.items() if v is not None and k not in reads]:
        raise ValidationError(f"{setting} coverage reads {' and '.join(reads)}, not {key}")
    if any(given[key] is None for key in reads):
        raise ValidationError(f"{setting} coverage needs {' and '.join(reads)}")
    rates = given[rate_arg]
    if stratified:
        rates = shares = _check_distribution(rates, "pk_train", 1e-9)
    else:
        shares = weights._shares(rates, rate_arg)
    if not isinstance(model, model_type):
        raise ValidationError(f"{setting} coverage needs a {model_type.__name__}")
    if epsilon is None:
        epsilon = float(np.min(np.minimum(rates, 1.0 - rates)))
        if epsilon >= 0.5:
            raise ValidationError(
                f"{setting} coverage: a balanced {rate_arg} gives no default epsilon "
                "(min(rate, 1 - rate) = 1/2 is outside (0, 1/2)); pass epsilon"
            )
    prior = weights.TargetPrior(pk=pk) if stratified else weights.TargetPrior(p=model.p)
    if stratified and len(prior.pk) != shares.size:
        raise ValidationError("pk and pk_train must have equal length")
    inputs = BoundInputs(n=n, delta=delta, epsilon=epsilon, p=prior.p, K=np.size(rates))
    bound = deviation_bound(kind, inputs)

    oracle = plug_in_table(shares, 1, prior)  # the exact ratio: the plug-in at the training law
    diff = lambda c: plug_in_table(c, n, prior) - oracle  # noqa: E731
    if column == "labels":
        def draw(rng, rows):
            k = rng.binomial(n, shares[1], size=rows)
            return _label_deviations(np.stack([n - k, k], axis=1), diff, grid_size)
    else:
        joint = _cell_law(setting, model, shares, np.linspace(0.0, 1.0, grid_size))

        def draw(rng, rows):
            counts = rng.multinomial(n, joint.ravel(), size=rows).reshape(rows, *joint.shape)
            return _count_deviations(counts, diff)

    deviations = _by_block(seed, reps, _ROWS, draw)
    deviations /= n
    coverage = float(np.mean(deviations <= bound.value))
    return CoverageResult(coverage, bound.value, bound.required_n, bound.valid, reps, deviations)
