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
import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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


class DomainError(ValidationError):
    """A numeric argument lies outside its mathematical domain."""


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


def _check_rate(value: float, name: str) -> None:
    """ValidationError unless ``value`` is a real number in the open interval
    (0, 1); the type is tested first, and NaN is refused."""
    if not (isinstance(value, (int, float, np.integer, np.floating)) and 0.0 < value < 1.0):
        raise ValidationError(f"{name} must lie in (0, 1)")


def _check_count(value, name: str, minimum: int) -> None:
    """ValidationError unless ``value`` is an integer >= ``minimum``; the
    type is tested first, so a value of any other type, bool included, is
    refused too."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= minimum):
        raise ValidationError(f"{name} must be an integer >= {minimum}")


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

        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            _check_column(self.labels, n, "labels")
            if self.labels.min() < 0:
                raise ValidationError("labels must be nonnegative class ids")
            if self.n_classes is None:
                self.n_classes = max(2, int(self.labels.max()) + 1)
            elif self.labels.max() >= self.n_classes:
                raise ValidationError("label id exceeds n_classes")
        if self.strata is not None:
            self.strata = np.asarray(self.strata, dtype=int)
            _check_column(self.strata, n, "strata")
            if self.strata.min() < 0:
                raise ValidationError("strata must be nonnegative ids")
            if self.n_strata is None:
                self.n_strata = int(self.strata.max()) + 1
            elif self.strata.max() >= self.n_strata:
                raise ValidationError("stratum id exceeds n_strata")
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

    @property
    def n_pos(self) -> int:
        """Number of records with label 1 (binary convention)."""
        if self.labels is None:
            raise SchemaError("dataset has no labels")
        return int(np.count_nonzero(self.labels == 1))

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

    @staticmethod
    def from_csv(path) -> "WeightVector":
        kinds_of = _exact_header(["w"], "weight CSV must have the single header 'w'")
        return WeightVector(_read_columns(path, kinds_of)["w"])


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


def per_record_losses(data: Dataset, loss: LossSpec, params) -> np.ndarray:
    """Evaluate loss(params, z_i) for every record, as a float vector."""
    if data.d != 1:
        raise SchemaError("threshold-sign loss needs scalar features")
    if data.labels is None or data.labels.max() > 1:
        raise SchemaError("threshold-sign loss needs binary labels")
    theta = float(params)
    above = data.features[:, 0] >= theta
    return np.where(data.labels == 1, ~above, above).astype(float)


def empirical_risk(data: Dataset, loss: LossSpec, params) -> float:
    """(1/n) * sum_i loss(params, z_i)."""
    return float(np.mean(per_record_losses(data, loss, params)))


def weighted_empirical_risk(
    data: Dataset, w: WeightVector, loss: LossSpec, params
) -> float:
    """(1/n) * sum_i w_i * loss(params, z_i)."""
    if len(w) != data.n:
        raise SchemaError(f"weight length {len(w)} != dataset size {data.n}")
    return float(np.mean(w.weights * per_record_losses(data, loss, params)))


# ---------------------------------------------------------------------------
# Softmax and classification metrics
# ---------------------------------------------------------------------------


# numpy's pairwise summation (``pairwise_sum`` in
# numpy/_core/src/umath/loops_utils.h.src) adds a row of fewer than 8 terms
# left to right, but from 8 terms on it keeps 8 partial sums and adds them
# as a tree.  Only below this width does the fold (e0 + e1) + e2 ... over
# the class rows give the bits of the record-major ``.sum(axis=1)``.
_PAIRWISE_BLOCK = 8


def _class_rows(a: np.ndarray):
    """Class-major (..., J, B) logits as (J, ..., B), so that iterating
    gives the J class rows in order."""
    return a.transpose(-2, *range(a.ndim - 2), -1)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log softmax over the classes of class-major (..., J, B) logits, whose
    column i holds record i's J logits, with max-logit subtraction; any
    leading axes (a stack of models) are independent.

    With J < 8 the max and the sum of exponentials fold over the J rows,
    J - 1 vector operations along B each: the max is ``np.maximum`` of
    rows 0, 1, ... and the sum is (e0 + e1) + e2 ....  The result is
    bit-equal to the row reductions ``.max(axis=-1)`` and ``.sum(axis=-1)``
    of the record-major (..., B, J) array, which is what the J >= 8 path
    runs, on a record-major copy, because numpy's sum changes its order
    there (see ``_PAIRWISE_BLOCK``); that path returns a transposed view.
    """
    if logits.shape[-2] < _PAIRWISE_BLOCK:
        z = logits - functools.reduce(np.maximum, _class_rows(logits))[..., None, :]
        total = functools.reduce(np.add, _class_rows(np.exp(z)))
        return z - np.log(total)[..., None, :]
    rows = np.ascontiguousarray(logits.swapaxes(-1, -2))
    z = rows - rows.max(axis=-1, keepdims=True)
    return (z - np.log(np.exp(z).sum(axis=-1))[..., None]).swapaxes(-1, -2)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the classes of class-major (J, B) logits."""
    return np.exp(log_softmax(logits))


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
    """Mean softmax cross-entropy of given (n, J) logits at the labels."""
    lt = _class_major(data, logits)
    return float(np.mean(-log_softmax(lt)[data.labels, np.arange(data.n)]))


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
        if name in _OPTIONAL_KINDS or name.startswith("x"):
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
_OPTIONAL_KINDS = {"y": int, "s": int, "t": float, "e": _event}


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
    its line."""
    line_no = 0
    try:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            yield line_no, row
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {line_no + 1}: {exc}") from exc


def _read_columns(path, kinds_of: Callable[[list[str]], dict]) -> dict[str, np.ndarray]:
    """Parse a CSV into one array per column with numpy's C reader.

    ``kinds_of(header)`` checks the raw header and maps each stripped
    column name to its cell kind (``float``, ``int`` or ``_event``), in the
    order cells are checked.  Blank lines are skipped; a malformed file
    raises :class:`SchemaError` naming its first bad line.  Columns may be
    empty (a header-only file).
    """
    # universal newlines: numpy's reader splits rows at "\n" only
    with open(path) as fh:
        _, header = next(_records(path, fh), (1, None))
        if header is None:
            raise SchemaError(f"{path}: empty file")
        kinds = kinds_of(header)
        names = [h.strip() for h in header]
        dtype = np.dtype([(name, _FIELD_TYPES[kinds[name]]) for name in names])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows
                table = np.loadtxt(
                    fh, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1
                )
            return {
                name: _events(table[name]) if kind is _event
                else np.ascontiguousarray(table[name])
                for name, kind in kinds.items()
            }
        except ValueError as exc:
            _raise_bad_line(path, names, kinds)
            raise SchemaError(f"{path}: {exc}") from exc


def _events(cells: np.ndarray) -> np.ndarray:
    """The event flags of an object column of cell text: the cells "1" and
    "0" are compared as arrays, and only the others (padded, or bad) go
    through :func:`_event`, in order, so the first bad one raises."""
    flags = cells == "1"
    for i in np.flatnonzero(~(flags | (cells == "0"))):
        flags[i] = _event(cells[i])
    return flags


def _exact_header(names: list[str], message: str) -> Callable[[list[str]], dict]:
    """``kinds_of`` for :func:`_read_columns`: the header must be exactly
    ``names`` (else SchemaError(message)); every cell is a float."""

    def kinds_of(header: list[str]) -> dict:
        if header != names:
            raise SchemaError(message)
        return dict.fromkeys(names, float)

    return kinds_of


def _dataset_kinds(header: list[str]) -> dict:
    names = [h.strip() for h in header]
    d = _parse_header(names)
    kinds = {f"x{j}": float for j in range(d)}
    kinds.update((name, kind) for name, kind in _OPTIONAL_KINDS.items() if name in names)
    return kinds


def read_csv(path) -> Dataset:
    """Parse a dataset CSV; malformed cells raise with their file line."""
    cols = _read_columns(path, _dataset_kinds)
    if not cols["x0"].size:
        raise SchemaError(f"{path}: no data rows")
    if ("t" in cols) != ("e" in cols):
        raise SchemaError(f"{path}: columns t and e must appear together")
    return Dataset(
        features=np.column_stack([c for name, c in cols.items() if name.startswith("x")]),
        labels=cols.get("y"),
        strata=cols.get("s"),
        times=cols.get("t"),
        events=cols.get("e"),
    )


def write_csv(data: Dataset, path) -> None:
    events = None if data.events is None else data.events.astype(int)
    cols = {"y": data.labels, "s": data.strata, "t": data.times, "e": events}
    cols = {name: c for name, c in cols.items() if c is not None}
    write_rows(
        path,
        [f"x{j}" for j in range(data.d)] + list(cols),
        [*data.features.T, *cols.values()],
    )


def _cells(column) -> Iterable[str]:
    """The csv module's text of each cell: ``repr`` of a float (so also of
    an ``np.float64``), ``str`` of anything else.  A numeric array is read
    through ``tolist`` and formatted by one method for all its cells."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        return map(float.__repr__ if column.dtype.kind == "f" else str, column.tolist())
    return [float.__repr__(c) if isinstance(c, float) else str(c) for c in column]


# Lines joined per write: one string for a whole 1e5-row file would hold
# about 20 MB more at once than a ``csv.writer`` loop does.
_LINES_PER_WRITE = 4096


def write_rows(path, header: Sequence[str], columns: Iterable[Sequence]) -> None:
    """Write a header and one column of cells per header name as CSV, each
    line ending in ``\\r\\n``.

    Every CSV file the package writes goes through here.  Cells are
    numbers: float cells are written as ``repr`` (the shortest string that
    reads back to the same float), other cells as ``str``, the text
    ``csv.writer`` gives them; no cell is quoted.
    """
    lines = map(",".join, zip(*map(_cells, columns)))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for block in iter(lambda: list(itertools.islice(lines, _LINES_PER_WRITE)), []):
            fh.write("\r\n".join(block))
            fh.write("\r\n")
