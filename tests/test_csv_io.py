"""CSV input and output: the dataset reader, the package's only CSV parser,
against the per-row parser it replaced; the column writer against the csv
module; the event column against the per-cell parse."""

import csv
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from werm import core
from werm.core import Dataset, SchemaError, WermError, read_csv, write_rows


def row_loop_read_csv(path) -> Dataset:
    """The per-row parser ``read_csv`` used before it moved to numpy's
    reader, kept as the reference for line numbers, messages and values."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        pos = {name: i for i, name in enumerate(header)}
        if len(pos) != len(header):
            raise SchemaError("duplicate CSV column names")
        x_cols = [name for name in header if name.startswith("x")]
        for name in header:
            if name not in ("y", "s", "t", "e") and not name.startswith("x"):
                raise SchemaError(f"unknown CSV column {name!r}")
        d = len(x_cols)
        if d == 0:
            raise SchemaError("CSV needs at least one feature column x0")
        if sorted(x_cols) != sorted(f"x{j}" for j in range(d)):
            raise SchemaError("feature columns must be x0..x{d-1} with no gaps")
        feats, ys, ss, ts, es = [], [], [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}: line {line_no}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                feats.append([float(row[pos[f'x{j}']]) for j in range(d)])
                if "y" in pos:
                    ys.append(int(row[pos["y"]]))
                if "s" in pos:
                    ss.append(int(row[pos["s"]]))
                if "t" in pos:
                    ts.append(float(row[pos["t"]]))
                if "e" in pos:
                    cell = row[pos["e"]].strip()
                    if cell not in ("0", "1"):
                        raise ValueError(f"event flag must be 0/1, got {cell!r}")
                    es.append(cell == "1")
            except ValueError as exc:
                raise SchemaError(f"{path}: line {line_no}: {exc}") from exc
    if not feats:
        raise SchemaError(f"{path}: no data rows")
    if ("t" in pos) != ("e" in pos):
        raise SchemaError(f"{path}: columns t and e must appear together")
    return Dataset(
        features=np.asarray(feats, dtype=float),
        labels=np.asarray(ys) if ys else None,
        strata=np.asarray(ss) if ss else None,
        times=np.asarray(ts) if ts else None,
        events=np.asarray(es) if es else None,
    )


FIELDS = ("features", "labels", "strata", "times", "events", "n_classes", "n_strata")


def outcome(reader, path):
    """("ok", fields) or ("error", class name, message) of one read."""
    try:
        data = reader(path)
    except WermError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", {name: getattr(data, name) for name in FIELDS})


def assert_same_outcome(path):
    old, new = outcome(row_loop_read_csv, path), outcome(read_csv, path)
    assert old[0] == new[0], (old, new)
    if old[0] == "error":
        assert old == new
        return
    for name in FIELDS:
        a, b = old[1][name], new[1][name]
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        else:
            assert a == b, name


# (file text, expected line number or None for a file-level error)
MALFORMED = {
    "bad_float": ("x0,y\n0.5,1\noops,0\n", 3),
    "label_with_decimal_point": ("x0,y\n0.5,1\n0.5,3.0\n", 3),
    "stratum_with_decimal_point": ("x0,s\n0.5,1.0\n", 2),
    "event_2": ("x0,t,e\n0.5,1.0,1\n0.5,1.0,2\n", 3),
    "event_leading_zero": ("x0,t,e\n0.5,1.0,01\n", 2),
    "event_plus_sign": ("x0,t,e\n0.5,1.0,0\n0.5,1.0,+1\n", 3),
    "event_padded_then_junk": ("x0,t,e\n0.5,1.0," + "1" + " " * 300 + "x\n", 2),
    "short_row": ("x0,x1,y\n0.5,1.5,1\n0.5,1\n", 3),
    "long_row": ("x0,y\n0.5,1\n0.5,1,7\n", 3),
    "trailing_comma": ("x0,y\n0.5,1,\n", 2),
    "blank_lines_before_bad": ("x0,y\n0.5,1\n\n\n0.5,x\n", 5),
    "crlf_blank_lines_before_bad": ("x0,y\r\n\r\n0.5,1\r\n\r\n0.5,x\r\n", 5),
    "whitespace_only_line": ("x0,y\n0.5,1\n\n   \n0.5,1\n", 4),
    "whitespace_only_line_one_column": ("x0\n0.5\n\n \t \n", 4),
    "empty_cell": ("x0,y\n,1\n", 2),
    "empty_quoted_cell": ('x0,y\n0.5,""\n', 2),
    "space_before_quote": ('x0,y\n "0.5",1\n', 2),
    "junk_after_quote": ('x0,y\n"0.5"x,1\n', 2),
    "comment_line": ("x0,y\n0.5,1\n# a note\n", 3),
    "empty_file": ("", None),
    "header_only": ("x0,y\n", None),
    "header_and_blank_lines": ("x0,y\n\n\r\n", None),
    "time_without_event": ("x0,t\n0.5,1.0\n", None),
    "event_without_time": ("x0,e\n0.5,1\n", None),
    "bad_cell_beats_missing_event": ("x0,t\n0.5,oops\n", 2),
    "non_finite_feature": ("x0,y\n0.5,1\nnan,0\n", None),
    "infinite_time": ("x0,t,e\n0.5,Infinity,1\n", None),
    "negative_time": ("x0,t,e\n0.5,-1.0,1\n", None),
}


@pytest.mark.parametrize("text,line", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_file_error_matches_row_loop(tmp_path, text, line):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    with pytest.raises(WermError) as caught:
        read_csv(path)
    with pytest.raises(WermError) as reference:
        row_loop_read_csv(path)
    assert type(caught.value) is type(reference.value)
    assert str(caught.value) == str(reference.value)
    if line is not None:
        assert isinstance(caught.value, SchemaError)
        assert f"line {line}:" in str(caught.value)


ACCEPTED = {
    "event_padded": "x0,t,e\n0.5,1.0,1" + " " * 300 + "\n0.5,2.0,\t0 \n",
    "quoted_cells": 'x0,y,e,t\n"0.5"," 1 ","1","2e3"\n"-1e-3" ,0,0,"7"\n',
    "quoted_header": '" x0 ","y"\r\n0.5,1\r\n',
    "columns_in_any_order": "y,x1,t,e,x0,s\n1,2.5,3.0,1,-0.5,2\n0,1e300,0,0,1E-300,0\n",
    "crlf_and_blank_lines": "x0,y\r\n\r\n0.5,1\r\n\r\n1.5,0\r\n",
    "cr_line_ends": "x0,y\r0.5,1\r1.5,0\r",
    "no_final_newline": "x0,y\n0.5,1\n1.5,0",
    "one_row": "x0\n2.0\n",
    "signs_and_leading_zeros": "x0,y,s\n+0.5,+1,007\n-.5,-0,0\n",
    "exponents": "x0,t,e\n1e-300,2E+3,1\n-4.5e-400,1.5e2,0\n",
}


@pytest.mark.parametrize("text", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_accepted_file_matches_row_loop(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    assert_same_outcome(path)
    assert outcome(read_csv, path)[0] == "ok"


@pytest.mark.parametrize(
    "row", ["1_000.5,1", " ١٢,1", "１,1", "0.5,1_0", "0.5,٣", "0.5,9223372036854775808"]
)
def test_cells_only_python_accepts_raise_schema_error(tmp_path, row):
    """Digit-group underscores and non-ASCII digits, which Python's
    float/int accept but numpy's reader does not, are rejected with their
    line; so are ints outside int64, which the row loop wrapped to negative
    labels or failed on after parsing."""
    path = tmp_path / "d.csv"
    path.write_text(f"x0,y\n1,1\n\n{row}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="line 4:"):
        read_csv(path)


@pytest.mark.parametrize("data", [
    b"x\xff0,y\n0.5,1\n",
    b"x0,y\n0.5,1\n0.\xff,0\n",
    b"x0,y\n" + b"0.5,1\n" * 5000 + b"0.\xff,0\n",  # met by numpy's reader
], ids=["header", "first_decoded_chunk", "past_the_first_chunk"])
def test_undecodable_bytes_raise_schema_error_naming_the_file(tmp_path, data):
    path = tmp_path / "d.csv"
    path.write_bytes(data)
    with pytest.raises(SchemaError, match=re.escape(f"{path}: not utf-8 text")):
        read_csv(path)


def test_separator_controls_around_numbers_are_whitespace(tmp_path):
    """numpy's reader strips the ASCII separators \\x1c-\\x1f around a
    number, as str.strip does; Python's float rejected them."""
    path = tmp_path / "d.csv"
    path.write_text("x0,y\n\x1c0.5\x1f,\x1d1\x1e\n")
    data = read_csv(path)
    assert data.features[0, 0] == 0.5 and data.labels[0] == 1
    with pytest.raises(SchemaError, match="line 2"):
        row_loop_read_csv(path)


# ---------------------------------------------------------------------------
# Differential test against the row loop
# ---------------------------------------------------------------------------

PAD = st.sampled_from(["", "", "", " ", "  ", "\t", " \t"])
FLOAT_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.3e}"),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.4f}"),
    st.sampled_from([".5", "5.", "+2", "-0", "0007.25", "1e5", "2E+3", "-1E-400"]),
)
# (text a cell of this kind usually holds, text that the row loop rejects
# or that makes the dataset invalid)
CELLS = {
    "x": (FLOAT_TEXT, st.sampled_from(["nan", "-inf", "Infinity", "1e400", "oops", "", "1.2.3",
                                       "--1", "1 2", "0x10", "#"])),
    "y": (st.integers(0, 6).map(str) | st.sampled_from(["+1", "007", "-0"]),
          st.sampled_from(["1.0", "1e1", "2.5", "-1", "", "x"])),
    "e": (st.sampled_from(["0", "1"]), st.sampled_from(["01", "2", "+1", "1.0", "true", ""])),
}
CELLS["s"] = CELLS["y"]
CELLS["t"] = (FLOAT_TEXT.map(lambda v: v.lstrip("-")), CELLS["x"][1] | st.just("-1.0"))


@st.composite
def csv_text(draw):
    d = draw(st.integers(1, 3))
    optional = draw(st.lists(st.sampled_from(["y", "s"]), unique=True))
    optional += list(draw(st.sampled_from(["te", "", "te", "t", "e"])))
    names = draw(st.permutations([f"x{j}" for j in range(d)] + optional))

    def cell(kind):
        usual, unusual = CELLS[kind]
        text = draw(unusual if draw(st.integers(0, 60)) == 0 else usual)
        text = draw(PAD) + text + draw(PAD)
        return f'"{text}"' if draw(st.integers(0, 5)) == 0 else text

    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 6))):
        choice = draw(st.integers(0, 60))
        if choice == 0:
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        elif choice < 6:
            lines.append("")
        else:
            cells = [cell(name[0]) for name in names]
            if choice == 6:
                cells = cells[:-1]
            elif choice == 7:
                cells.append("1")
            lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@given(csv_text())
@settings(max_examples=400, deadline=None)
def test_differential_against_row_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("diff") / "d.csv"
    path.write_bytes(text.encode())
    assert_same_outcome(path)


# ---------------------------------------------------------------------------
# The column writer and the event column against the csv module
# ---------------------------------------------------------------------------

SPECIAL_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16, 1e-05,
    0.1 + 0.2, 1 / 3, -2.5e-300, 1.7976931348623157e308,
]

# -0.0 and 0.0, a quiet NaN and one with a payload and its sign bit set,
# +-inf: values whose bits differ while they compare equal, or unequal to
# themselves; the writer keys its distinct values on the bits
BIT_POOL = np.concatenate([
    [-0.0, 0.0, np.inf, -np.inf, 0.1],
    np.array([0x7FF8000000000000, 0xFFF8000000000123], dtype=np.uint64).view(float),
])


def repeated(pool, n, seed=0):
    """n cells drawn from ``pool``: far fewer distinct values than cells."""
    return np.asarray(pool)[np.random.default_rng(seed).integers(0, len(pool), n)]


def csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def written_bytes(tmp_path, header, columns) -> bytes:
    path = tmp_path / "out.csv"
    write_rows(path, header, columns)
    return path.read_bytes()


@pytest.mark.parametrize(
    "columns",
    [
        [np.array(SPECIAL_FLOATS)],
        [np.array(SPECIAL_FLOATS), np.arange(12), np.arange(12) % 2 == 1],
        [list(range(-3, 3)), [True, False] * 3, [np.float64(0.1), np.float64(-0.0), 1e16,
                                                 np.float64(np.nan), 7, False]],
        [np.array([], dtype=float), np.array([], dtype=int)],
        [[], [], []],
        [repeated(BIT_POOL, 100)],
        [repeated([-0.0, 0.0, 1.5], 60)],
        [repeated(np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max]), 50)],
        [repeated(np.array([0, 2**63, 2**64 - 1], dtype=np.uint64), 50)],
        [repeated([True, False], 40), repeated(np.array([0.1, -0.0, 3e38], dtype=np.float32), 40)],
        [np.random.default_rng(1).standard_normal(5000), repeated([0.5, 2.0, 0.0], 5000)],
    ],
    ids=["floats", "float-int-bool-arrays", "mixed-lists", "zero-rows", "zero-rows-lists",
         "repeated-float-bits", "repeated-signed-zeros", "repeated-int64-extremes",
         "repeated-uint64-high", "repeated-bool-float32", "distinct-beside-repeated"],
)
def test_writer_bytes_match_csv_writer(tmp_path, columns):
    header = [f"c{i}" for i in range(len(columns))]
    rows = zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns])
    assert written_bytes(tmp_path, header, columns) == csv_writer_bytes(header, rows)


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 10_000])
def test_writer_bytes_match_csv_writer_across_write_blocks(tmp_path, n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    y = rng.integers(-5, 5, n)
    rows = zip(x.tolist(), y.tolist())
    assert written_bytes(tmp_path, ["x", "y"], [x, y]) == csv_writer_bytes(["x", "y"], rows)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
@settings(max_examples=100, deadline=None)
def test_writer_float_cells_match_csv_writer(tmp_path_factory, cells):
    tmp_path = tmp_path_factory.mktemp("w")
    col = np.array(cells, dtype=float)
    expected = csv_writer_bytes(["a", "b"], zip(col.tolist(), cells))
    assert written_bytes(tmp_path, ["a", "b"], [col, cells]) == expected


@given(st.lists(st.integers(0, len(BIT_POOL) - 1), max_size=80), st.booleans())
@settings(max_examples=100, deadline=None)
def test_writer_repeated_cells_match_csv_writer(tmp_path_factory, picks, as_float32):
    """Lists drawn from a small pool, so that each value is formatted once
    and its cells gathered once the column is long enough."""
    col = BIT_POOL[picks].astype(np.float32 if as_float32 else float)
    ids = np.array(picks, dtype=np.int64)
    expected = csv_writer_bytes(["a", "b"], zip(col.tolist(), ids.tolist()))
    assert written_bytes(tmp_path_factory.mktemp("w"), ["a", "b"], [col, ids]) == expected


@pytest.mark.parametrize("distinct", [2**18, 2**17, 2**16],
                         ids=["all-distinct", "half-distinct", "quarter-distinct"])
def test_writer_peak_no_higher_than_formatting_each_cell(tmp_path, monkeypatch, distinct):
    """The traced peak of writing 2**18 floats stays at or under that of the
    writer that formatted every cell of a column's ``tolist``, through the
    same block writer: at all distinct, at half distinct (formatted once
    each, the distinct strings would pass it) and at a quarter distinct,
    the most that are formatted once each."""
    rng = np.random.default_rng(distinct)
    col = rng.permutation(np.resize(rng.standard_normal(distinct), 2**18))

    def peak():
        tracemalloc.start()
        try:
            write_rows(tmp_path / "w.csv", ["x"], [col])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    new = peak()
    monkeypatch.setattr(core, "_cells", lambda column: map(float.__repr__, column.tolist()))
    assert new <= peak()


EVENT_CELLS = ["1", "0", " 1", "1 ", " 0\t", "01", "", "2", "1\x00", "１", "true"]


@given(st.lists(st.sampled_from(EVENT_CELLS), max_size=30))
@settings(max_examples=200, deadline=None)
def test_event_column_matches_per_cell_parse(cells):
    """Same flags, or the same ValueError from the first bad cell."""

    def parse(fn):
        try:
            return fn()
        except ValueError as exc:
            return str(exc)

    got = parse(lambda: core._events(np.array(cells, dtype=object)).tolist())
    want = parse(lambda: [core._event(c) for c in cells])
    assert got == want
