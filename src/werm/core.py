"""Datasets, loss functions, and (weighted) empirical risk evaluation.

This module is the shared substrate of the package: a small array-backed
dataset type, nonnegative per-record weight vectors, the threshold 0/1
loss, and the plain / weighted empirical risk functionals

    risk(theta)          = (1/n) * sum_i loss(theta, z_i)
    weighted(theta, w)   = (1/n) * sum_i w_i * loss(theta, z_i)

The weighted functional always divides by n; weight estimators elsewhere
fold any count ratios into the weights themselves, so one evaluation path
serves every bias setting.

Label convention: binary problems store the positive class as label 1 and
the negative class as label 0.  In positive-unlabeled data, label 1 marks
a labeled positive and label 0 an unlabeled record.

CSV schema (external interface): a header row with feature columns
``x0..x{d-1}`` (floats) and optional columns ``y`` (int label), ``s``
(int stratum), ``t`` (nonnegative float time), ``e`` (0/1 event flag).
A missing optional column means the field is absent for every record.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class WermError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(WermError):
    """An argument value is invalid or an invariant is broken."""


class SchemaError(ValidationError):
    """Structurally inconsistent data: shapes, columns, or field presence."""


class DegenerateClassError(ValidationError):
    """A label group that must be populated is empty.

    The offending group is available as ``.group`` (0/1 class id for
    binary settings).
    """

    def __init__(self, group: int):
        self.group = group
        super().__init__(f"label group {group} is empty")


class EmptyStratumError(ValidationError):
    """A stratum with positive target probability has no records."""

    def __init__(self, stratum: int):
        self.stratum = stratum
        super().__init__(f"stratum {stratum} is empty")


class PositivityViolationError(ValidationError):
    """A weight denominator hit zero for a record that needs a weight."""

    def __init__(self, record_index: int):
        self.record_index = record_index
        super().__init__(f"zero survival mass at record {record_index}; weight undefined")


class NumericError(WermError):
    """A computation produced non-finite values."""


def _check_seed(seed, name: str = "seed") -> None:
    """ValidationError unless ``seed`` is entropy that ``np.random.SeedSequence``
    takes: a nonnegative integer or a sequence of them.  None (fresh
    entropy), a SeedSequence, a Generator and a BitGenerator are refused,
    so that every seeded result is reproducible from a plain value."""
    try:
        if seed is None:
            raise TypeError("got None")
        np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"{name} must be a nonnegative integer or a sequence of them ({exc})"
        ) from None


def _as_float(value) -> float:
    """``value`` as a float, or NaN unless it is a real number (a Python or
    numpy int or float, bool excluded) within the float range.  A caller
    that refuses NaN then compares floats, and never meets a raw TypeError
    or OverflowError, whatever it was given."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


def _check_real(value, name: str, interval: str = "(-inf, inf)") -> None:
    """ValidationError unless ``value`` is a finite real number in ``interval``,
    written like "(0, 1]"; the type is tested first, through ``_as_float``.
    The message states the interval, or its lower end when the upper end is
    inf: "must be > 0 and finite", "must be finite"."""
    x = _as_float(value)
    low, high = interval[1:-1].split(", ")
    above = x > float(low) if interval[0] == "(" else x >= float(low)
    below = x < float(high) if interval[-1] == ")" else x <= float(high)
    if not (above and below and math.isfinite(x)):
        sign = ">" if interval[0] == "(" else ">="
        rule = (f"lie in {interval}" if high != "inf" else "be finite" if low == "-inf"
                else f"be {sign} {low} and finite")
        raise ValidationError(f"{name} must {rule}")


def _check_count(value, name: str, minimum: int, ceiling: float = 2**20) -> None:
    """ValidationError unless ``value`` is an integer in [``minimum``,
    ``ceiling``]; the type is tested first, so a value of any other type,
    bool included, is refused too.  Every count that sizes an array or a
    loop (records, grid points, replicates, strata, epochs) has the ceiling
    2**20 = 1,048,576, so none reaches numpy's own size errors; only
    ``bounds.BoundInputs`` lifts it, for n and K, which size nothing."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= minimum):
        raise ValidationError(f"{name} must be an integer >= {minimum}")
    if value > ceiling:
        raise ValidationError(f"{name} must be at most {ceiling:,}")


def _check_top_k(k: int, J: int) -> None:
    """ValidationError unless top-k is defined over J classes: 1 <= k <= J."""
    if not 1 <= k <= J:
        raise ValidationError(f"top-k with k={k} invalid for {J} classes")


def _check_distribution(pk, name: str, tol: float) -> np.ndarray:
    """``pk`` as a float vector, or ValidationError unless it is a
    distribution: 1-d, nonempty, finite, nonnegative, and summing to 1
    within ``tol``."""
    try:
        pk = np.asarray(pk, dtype=float)
        ok = (
            pk.ndim == 1
            and pk.size > 0
            and np.isfinite(pk).all()
            and pk.min() >= 0
            and abs(pk.sum() - 1.0) <= tol
        )
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValidationError(
            f"{name} must be a nonempty vector of finite, nonnegative stratum "
            f"probabilities that sum to 1 within {tol:g}"
        )
    return pk


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    """A homogeneous collection of records, stored column-wise.

    Parameters
    ----------
    features : (n, d) float array
    labels : (n,) int array, optional
        Class ids in ``{0..J-1}``.
    strata : (n,) int array, optional
        Stratum ids in ``{0..K-1}``.
    times : (n,) float array, optional
        Nonnegative durations.
    events : (n,) bool array, optional
        True when the duration is an observed event, False when censored.
    n_classes, n_strata : int, optional
        J and K; inferred from the data when omitted (J floored at 2 so
        that a degenerate single-class sample still counts as binary).
    """

    features: np.ndarray
    labels: np.ndarray | None = None
    strata: np.ndarray | None = None
    times: np.ndarray | None = None
    events: np.ndarray | None = None
    n_classes: int | None = None
    n_strata: int | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2:
            raise SchemaError(
                "features must be a (n, d) matrix; reshape scalar features to (n, 1)"
            )
        n = self.features.shape[0]
        if n == 0:
            raise SchemaError("dataset must be nonempty")
        if not np.isfinite(self.features).all():
            raise ValidationError("features contain non-finite values")

        # each id column, the count it implies, and that count's floor
        for name, count, floor in (("labels", "n_classes", 2), ("strata", "n_strata", 1)):
            if getattr(self, name) is None:
                continue
            ids = np.asarray(getattr(self, name), dtype=int)
            _check_column(ids, n, name)
            setattr(self, name, ids)
            if ids.min() < 0:
                raise ValidationError(f"{name} must be nonnegative ids")
            if getattr(self, count) is None:
                setattr(self, count, max(floor, int(ids.max()) + 1))
            elif ids.max() >= getattr(self, count):
                raise ValidationError(f"an id in {name} exceeds {count}")
        if (self.times is None) != (self.events is None):
            raise SchemaError("times and events must be given together")
        if self.times is not None:
            self.times = np.asarray(self.times, dtype=float)
            _check_column(self.times, n, "times")
            if not np.isfinite(self.times).all() or self.times.min() < 0:
                raise ValidationError("times must be finite and >= 0")
            self.events = np.asarray(self.events, dtype=bool)
            _check_column(self.events, n, "events")

    # -- basic shape accessors ------------------------------------------------

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.n

    # -- counts ---------------------------------------------------------------

    def stratum_counts(self) -> np.ndarray:
        if self.strata is None:
            raise SchemaError("dataset has no strata")
        return np.bincount(self.strata, minlength=self.n_strata)

    # -- row subsets -----------------------------------------------------------

    def take(self, indices: Sequence[int]) -> "Dataset":
        """Row subset (in the given order), keeping J and K."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            features=self.features[idx],
            labels=None if self.labels is None else self.labels[idx],
            strata=None if self.strata is None else self.strata[idx],
            times=None if self.times is None else self.times[idx],
            events=None if self.events is None else self.events[idx],
            n_classes=self.n_classes,
            n_strata=self.n_strata,
        )


@dataclass(frozen=True)
class WeightVector:
    """Per-record nonnegative importance weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValidationError("weights must be a flat vector")
        if w.size == 0:
            raise ValidationError("weight vector must be nonempty")
        if not np.isfinite(w).all():
            raise ValidationError("weights must be finite")
        if w.min() < 0:
            raise ValidationError("weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size

    @property
    def mean(self) -> float:
        return float(self.weights.mean())

    @staticmethod
    def ones(n: int) -> "WeightVector":
        return WeightVector(np.ones(n))

    def to_csv(self, path) -> None:
        write_rows(path, ["w"], [self.weights])


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

LOSS_KINDS = ("threshold-sign",)


@dataclass(frozen=True)
class LossSpec:
    """Loss selector.  Its one kind, ``threshold-sign``, takes a scalar
    threshold on a single feature as params; the loss is the 0/1 error of
    "predict class 1 iff x >= threshold", whose population risk is the
    closed-form risk of the power-density test bed in :mod:`werm.analytic`."""

    kind: str

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValidationError(f"unknown loss kind {self.kind!r}")


def _threshold_checks(data: Dataset, loss: LossSpec, thresholds) -> np.ndarray:
    """The thresholds as a float array, once ``data`` is a Dataset with
    scalar features and binary labels, ``loss`` a LossSpec, and each
    threshold a real number within the float range, or +-inf (the two
    constant classifiers); NaN is refused."""
    if not isinstance(data, Dataset):
        raise ValidationError("data must be a Dataset")
    if not isinstance(loss, LossSpec):
        raise ValidationError("loss must be a LossSpec")
    thetas = np.array([_as_float(t) for t in thresholds])
    if np.isnan(thetas).any():
        raise ValidationError("a threshold must be a real number in the float range, or +-inf")
    if data.d != 1:
        raise SchemaError("threshold-sign loss needs scalar features")
    if data.labels is None or data.labels.max() > 1:
        raise SchemaError("threshold-sign loss needs binary labels")
    return thetas


def per_record_losses(data: Dataset, loss: LossSpec, params) -> np.ndarray:
    """Evaluate loss(params, z_i) for every record, as a float vector.

    ``params`` is the threshold: a real number within the float range, or
    +-inf (the two constant classifiers); NaN is refused."""
    (theta,) = _threshold_checks(data, loss, [params])
    above = data.features[:, 0] >= theta
    return np.where(data.labels == 1, ~above, above).astype(float)


def weighted_empirical_risk(
    data: Dataset, w: WeightVector, loss: LossSpec, params
) -> float:
    """(1/n) * sum_i w_i * loss(params, z_i)."""
    losses = per_record_losses(data, loss, params)
    if not isinstance(w, WeightVector):
        raise ValidationError("weights must be a WeightVector")
    if len(w) != data.n:
        raise SchemaError(f"weight length {len(w)} != dataset size {data.n}")
    return float(np.mean(w.weights * losses))


# ---------------------------------------------------------------------------
# Softmax and classification metrics
# ---------------------------------------------------------------------------


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log softmax over the classes of class-major (..., J, B) logits, whose
    column i holds record i's J logits, with max-logit subtraction; any
    leading axes (a stack of models) are independent.

    The logits are made C-contiguous first (a no-op for the class-major
    arrays werm passes), so the bits do not depend on the input's layout and
    each (J, B) block of a stack gets the bits it gets alone.
    """
    logits = np.ascontiguousarray(logits)
    z = logits - logits.max(axis=-2, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-2, keepdims=True))


def _class_major(data: Dataset, logits: np.ndarray, k: int | None = None) -> np.ndarray:
    """A checked (J, n) copy of given (n, J) logits; ``k`` is checked as a
    top-k over J classes when given."""
    if data.labels is None:
        raise SchemaError("metrics need labels")
    logits = np.asarray(logits, dtype=float)
    J = data.n_classes
    if logits.shape != (data.n, J):
        raise SchemaError(f"logits must have shape {(data.n, J)}")
    if k is not None:
        _check_top_k(k, J)
    lt = np.ascontiguousarray(logits.T)
    if not np.isfinite(lt).all():
        raise NumericError("non-finite logits")
    return lt


def classification_metrics(data: Dataset, logits: np.ndarray, k: int) -> dict:
    """Miss rate and top-k error of given (n, J) logits.

    Ties in the logit ranking are broken toward the lowest class id, so
    the metrics are deterministic.  ``miss_rate`` equals the top-1 error.
    The work runs class-major on ``logits.T`` (no copy when the logits are
    the transposed view ``train.logits_batch`` returns).  A record's rank
    is counted: the classes with a larger logit, plus the lower-id classes
    with an equal one, which is its place in a stable descending sort.
    """
    lt = _class_major(data, logits, k)
    own = lt[data.labels, np.arange(data.n)]
    ahead = (lt > own) | ((lt == own) & (np.arange(data.n_classes)[:, None] < data.labels))
    ranks = ahead.sum(axis=0)
    return {"miss_rate": float(np.mean(ranks != 0)), "top_k_error": float(np.mean(ranks >= k))}


def mean_cross_entropy(data: Dataset, logits: np.ndarray) -> float:
    """Mean softmax cross-entropy of given (n, J) logits at the labels,
    taken through :func:`_scaled`, so finite cross-entropies give a finite
    mean; NumericError when a record's cross-entropy is not finite (a logit
    spread past the float range)."""
    lt = _class_major(data, logits)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        ce = -log_softmax(lt)[data.labels, np.arange(data.n)]
    if not np.isfinite(ce).all():
        raise NumericError("non-finite cross-entropy")
    scaled, e = _scaled(ce)
    return float(np.ldexp(np.mean(scaled), e))


def _scaled(values) -> tuple[np.ndarray, int]:
    """``values`` over 2**e, and e, the binary exponent of the largest
    magnitude (0 for no values), so that no sum or square of the scaled
    values overflows.  Scaling by a power of two is exact: a mean or sd of
    the scaled values times 2**e keeps its bits unless it would overflow or
    underflow."""
    e = int(np.frexp(np.max(np.abs(values)))[1]) if len(values) else 0
    return np.ldexp(values, -e), e


# ---------------------------------------------------------------------------
# CSV input / output
# ---------------------------------------------------------------------------

def _check_column(arr: np.ndarray, n: int, name: str) -> None:
    if arr.ndim != 1 or arr.shape[0] != n:
        raise SchemaError(f"{name} must be a length-{n} vector")


def _parse_header(header: list[str]) -> int:
    """Check a stripped dataset header; returns the feature count d."""
    if len(set(header)) != len(header):
        raise SchemaError("duplicate CSV column names")
    x_cols = [name for name in header if name.startswith("x")]
    for name in header:
        if name in _OPTIONAL_COLUMNS or name.startswith("x"):
            continue
        raise SchemaError(f"unknown CSV column {name!r}")
    d = len(x_cols)
    if d == 0:
        raise SchemaError("CSV needs at least one feature column x0")
    expected = [f"x{j}" for j in range(d)]
    if sorted(x_cols) != sorted(expected):
        raise SchemaError("feature columns must be x0..x{d-1} with no gaps")
    return d


def _event(cell: str) -> bool:
    flag = cell.strip()
    if flag not in ("0", "1"):
        raise ValueError(f"event flag must be 0/1, got {flag!r}")
    return flag == "1"


# cell kind -> the numpy field it is parsed into; event flags are read as
# text (an object field, so no width truncates them) and checked after.
_FIELD_TYPES = {float: "f8", int: "i8", _event: "O"}
# optional CSV column -> (its Dataset field, its cell kind), in check order
_OPTIONAL_COLUMNS = {"y": ("labels", int), "s": ("strata", int), "t": ("times", float),
                     "e": ("events", _event)}


def _check_cell(kind, cell: str) -> None:
    """Raise ValueError unless numpy's reader parses ``cell`` as ``kind``
    to the value Python's ``float``/``int`` give (numpy rejects digit-group
    underscores, non-ASCII digits and ints outside int64)."""
    value = kind(cell)
    if kind is _event:
        return
    if "_" in cell or not cell.strip().isascii():
        raise ValueError(f"{cell!r} has digit-group underscores or non-ASCII digits")
    if kind is int and not -(2**63) <= value < 2**63:
        raise ValueError(f"{cell!r} is outside the int64 range")


def _raise_bad_line(path, names: list[str], kinds: dict) -> None:
    """Raise the SchemaError naming the first malformed data line.

    Lines are counted as ``csv.reader`` records, blank ones included;
    cells are checked in the order of ``kinds``.
    """
    checks = [(names.index(name), kind) for name, kind in kinds.items()]
    with open(path, newline="") as fh:
        records = _records(path, fh)
        next(records)  # the header
        for line_no, row in records:
            if not row:
                continue
            if len(row) != len(names):
                raise SchemaError(
                    f"{path}: line {line_no}: expected {len(names)} cells, got {len(row)}"
                )
            try:
                for i, kind in checks:
                    _check_cell(kind, row[i])
            except ValueError as exc:
                raise SchemaError(f"{path}: line {line_no}: {exc}") from exc


def _records(path, fh):
    """Yield (line number, cells) for each ``csv.reader`` record of ``fh``;
    a cell longer than ``csv.field_size_limit()`` raises SchemaError naming
    its line, and bytes that do not decode one naming the file."""
    line_no = 0
    try:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            yield line_no, row
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {line_no + 1}: {exc}") from exc
    except UnicodeDecodeError as exc:  # text is decoded in chunks: no line
        raise SchemaError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc


def read_csv(path) -> Dataset:
    """Parse a dataset CSV with numpy's C reader; blank lines are skipped,
    and a malformed file raises :class:`SchemaError` naming its first bad line."""
    # universal newlines: numpy's reader splits rows at "\n" only
    with open(path) as fh:
        _, header = next(_records(path, fh), (1, None))
        if header is None:
            raise SchemaError(f"{path}: empty file")
        names = [h.strip() for h in header]
        d = _parse_header(names)
        # cell kinds in the order cells are checked: features, then y, s, t, e
        kinds = {f"x{j}": float for j in range(d)}
        kinds.update((c, kind) for c, (_, kind) in _OPTIONAL_COLUMNS.items() if c in names)
        dtype = np.dtype([(name, _FIELD_TYPES[kinds[name]]) for name in names])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows
                table = np.loadtxt(
                    fh, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1
                )
            cols = {
                name: _events(table[name]) if kind is _event
                else np.ascontiguousarray(table[name])
                for name, kind in kinds.items()
            }
        except ValueError as exc:
            _raise_bad_line(path, names, kinds)
            raise SchemaError(f"{path}: {exc}") from exc
    if not cols["x0"].size:
        raise SchemaError(f"{path}: no data rows")
    if ("t" in cols) != ("e" in cols):
        raise SchemaError(f"{path}: columns t and e must appear together")
    return Dataset(
        features=np.column_stack([cols[f"x{j}"] for j in range(d)]),
        **{field: cols.get(name) for name, (field, _) in _OPTIONAL_COLUMNS.items()},
    )


def _events(cells: np.ndarray) -> np.ndarray:
    """The event flags of an object column of cell text: the cells "1" and
    "0" are compared as arrays, and only the others (padded, or bad) go
    through :func:`_event`, in order, so the first bad one raises."""
    flags = cells == "1"
    for i in np.flatnonzero(~(flags | (cells == "0"))):
        flags[i] = _event(cells[i])
    return flags


def write_csv(data: Dataset, path) -> None:
    cols = {name: getattr(data, field) for name, (field, _) in _OPTIONAL_COLUMNS.items()}
    cols = {name: c.astype(int) if name == "e" else c for name, c in cols.items() if c is not None}
    write_rows(
        path,
        [f"x{j}" for j in range(data.d)] + list(cols),
        [*data.features.T, *cols.values()],
    )


def _cells(column) -> Iterable[str]:
    """The csv module's text of each cell: ``repr`` of a float (so also of
    an ``np.float64``), ``str`` of anything else.

    A numeric array is formatted one ``_LINES_PER_WRITE`` block at a time,
    through ``tolist`` and one method for all its cells.  Its values are
    keyed on their bits, so -0.0 and 0.0, and NaN payloads, stay apart.
    When at most a quarter of its cells are distinct, each distinct value
    is formatted once and the cells are gathered from those strings.  The
    strings, about 80 bytes each, are held at once, and then take less than
    ``tolist`` of the whole column would (32 bytes a float cell).
    """
    if not (isinstance(column, np.ndarray) and column.dtype.kind in "biuf"):
        return [float.__repr__(c) if isinstance(c, float) else str(c) for c in column]
    fmt = float.__repr__ if column.dtype.kind == "f" else str
    starts = range(0, column.size, _LINES_PER_WRITE)
    keys = column.view(f"u{column.itemsize}")
    ordered = np.sort(keys)
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    if 4 * np.count_nonzero(first) > keys.size:
        return itertools.chain.from_iterable(
            map(fmt, column[i:i + _LINES_PER_WRITE].tolist()) for i in starts
        )
    distinct = ordered[first]
    del ordered, first  # not held while the strings are made
    texts = np.fromiter(
        map(fmt, distinct.view(column.dtype).tolist()), dtype=object, count=distinct.size
    )
    return itertools.chain.from_iterable(
        texts[np.searchsorted(distinct, keys[i:i + _LINES_PER_WRITE])].tolist() for i in starts
    )


# Lines joined per write, and cells made per column at a time: one string
# for a whole 1e5-row file would hold about 20 MB more at once than a
# ``csv.writer`` loop does.
_LINES_PER_WRITE = 4096


def write_rows(path, header: Sequence[str], columns: Iterable[Sequence]) -> None:
    """Write a header and one column of cells per header name as CSV, each
    line ending in ``\\r\\n``.

    Every CSV file the package writes goes through here.  Cells are
    numbers: float cells are written as ``repr`` (the shortest string that
    reads back to the same float), other cells as ``str``, the text
    ``csv.writer`` gives them; no cell is quoted.  In a numeric array
    whose values repeat, each distinct value is formatted once (``_cells``).
    """
    lines = map(",".join, zip(*map(_cells, columns)))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for block in iter(lambda: list(itertools.islice(lines, _LINES_PER_WRITE)), []):
            fh.write("\r\n".join(block))
            fh.write("\r\n")
