"""CSV reading and writing against per-cell references.

``load_csv`` converts a column of a block of rows at a time; the property
tests check it against ``float()`` applied to each cell, and blocks of one to
three rows against one block.  The writers hand Python scalars to the csv
module or format the columns of a block of rows at once; the contract tests
check that every number comes out as its shortest round-trip ``repr``, as a
per-cell ``repr`` wrote it.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtsvm import cli, data
from qtsvm.cli import _write_csv, _write_labelled_matrix, main
from qtsvm.data import GENERATORS, gen_example1, inject_label_noise, load_csv
from qtsvm.errors import DataFormatError
from qtsvm.model import load_model, predict_many

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200,
                    suppress_health_check=[HealthCheck.too_slow])

FLOATS = st.floats(-1e300, 1e300, allow_nan=False)
CELL = st.one_of(FLOATS.map(repr), FLOATS.map(lambda v: "%.3g" % v))
PAD = st.sampled_from(["", " ", "  ", "\t"])
LABEL = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                min_size=1, max_size=5).map(str.strip).filter(bool)


def _quoted(text):
    return '"' + text.replace('"', '""') + '"'


@st.composite
def tables(draw):
    """A well-formed labelled CSV: its text, the load_csv arguments, and the
    cells and labels of its data rows."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12))
    label_idx = draw(st.integers(0, n))
    pos_label, neg_label = draw(st.lists(LABEL, min_size=2, max_size=2, unique=True))
    header = draw(st.booleans())
    rows = []
    for _ in range(m):
        cells = [draw(PAD) + draw(CELL) + draw(PAD) for _ in range(n)]
        cells.insert(label_idx, draw(PAD) + draw(st.sampled_from([pos_label, neg_label]))
                     + draw(PAD))
        rows.append(cells)
    lines = []
    if header:
        names = [f"x{i + 1}" for i in range(n)]
        names.insert(label_idx, "label")
        lines.append(",".join(names))
    for cells in rows:
        lines.append(",".join(
            _quoted(c) if i == label_idx or draw(st.booleans()) else c
            for i, c in enumerate(cells)))
    label_column = draw(st.sampled_from(
        [label_idx, label_idx - (n + 1)] + (["label"] if header else [])))
    return "\n".join(lines) + "\n", label_column, pos_label, rows, label_idx


def _reference(rows, label_idx, pos_label):
    """Per-cell float() of the feature cells, split by the stripped label."""
    pos, neg = [], []
    for cells in rows:
        feats = [float(c) for i, c in enumerate(cells) if i != label_idx]
        (pos if cells[label_idx].strip() == pos_label else neg).append(feats)
    n = len(rows[0]) - 1
    return (np.array(pos, dtype=float).reshape(len(pos), n),
            np.array(neg, dtype=float).reshape(len(neg), n))


def _bits(X):
    return X.shape, X.tobytes()


@PROPERTY
@given(table=tables())
def test_load_csv_matches_per_cell_float(tmp_path_factory, table):
    text, label_column, pos_label, rows, label_idx = table
    path = tmp_path_factory.getbasetemp() / "property.csv"
    path.write_text(text, encoding="utf-8", newline="")
    d = load_csv(path, label_column=label_column, positive_label=pos_label)
    X_pos, X_neg = _reference(rows, label_idx, pos_label)
    assert _bits(d.X_pos) == _bits(X_pos)
    assert _bits(d.X_neg) == _bits(X_neg)


@PROPERTY
@given(table=tables())
@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_load_csv_in_blocks_matches_one_block(tmp_path_factory, block_rows, table):
    # A table of up to 13 rows is one block by default; in blocks of 1-3
    # rows its header lookahead and its labels cross block boundaries.
    text, label_column, pos_label, _, _ = table
    path = tmp_path_factory.getbasetemp() / "blocks.csv"
    path.write_text(text, encoding="utf-8", newline="")
    one_block = load_csv(path, label_column=label_column, positive_label=pos_label)
    with mock.patch.object(data, "CSV_BLOCK_CELLS", block_rows * data.first_row_width(path)):
        d = load_csv(path, label_column=label_column, positive_label=pos_label)
    assert _bits(d.X_pos) == _bits(one_block.X_pos)
    assert _bits(d.X_neg) == _bits(one_block.X_neg)


def test_load_csv_peak_memory_stays_near_its_result(tmp_path):
    # The whole file held as Python row lists came to more than 10x the
    # result arrays; one block of them is a fixed cost.
    path = tmp_path / "big.csv"
    _write_labelled_matrix(path, *gen_example1(10_000, seed=0).stacked(), "label")
    load_csv(path)
    tracemalloc.start()
    try:
        d = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = d.X_pos.nbytes + d.X_neg.nbytes
    assert d.m == 20_000 and peak < 6 * result, (peak, result)


def test_load_features_peak_is_the_matrix_plus_a_few_blocks(tmp_path):
    # Beyond its matrix, a read holds the block being parsed and converted,
    # however long the file.  Joining per-block parts held the matrix twice:
    # 33.8 MiB for a 12.2 MiB matrix of 20k x 80, so that twice the rows
    # added twice the matrix's growth to the peak.
    rng = np.random.default_rng(0)
    extra = []
    for rows in (10_240, 20_480):
        path = tmp_path / f"wide{rows}.csv"
        np.savetxt(path, rng.normal(size=(rows, 40)), fmt="%.17g", delimiter=",")
        data.load_features(path)
        tracemalloc.start()
        try:
            X = data.load_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - X.nbytes)
    # 20,480 rows: a 6.25 MiB matrix, 0.5 MiB more at either length.  Blocks
    # of 1024 rows, whatever the width, took 6.8 MiB more.
    assert extra[1] < 1.1 * extra[0] and extra[1] < 2**20, extra


def test_ragged_wide_rows_do_not_fill_a_block(tmp_path):
    # A block ends at the cell budget, not at a row count fixed by the
    # first row: a one-cell first row followed by 1000-cell rows stops the
    # first block after one wide row, where 1024-row blocks held about 8 MiB
    # of such rows before the check named row 2.
    path = tmp_path / "ragged.csv"
    path.write_text("1\n" + (",".join(["1"] * 1000) + "\n") * 1500)
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="row 2: expected 1 fields, got 1000"):
            data.load_features(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("tail, read_error", [
    (b"1,2,\xff\n", "codec can't decode byte 0xff"),
    (b'1,"' + b"2" * 200_000 + b'",1\n', "field larger than field limit"),
], ids=["undecodable-bytes", "csv-error"])
def test_a_fault_comes_before_a_read_error_in_a_later_block(tmp_path, tail, read_error):
    # Blocks are read and checked in file order, so a bad cell is reported
    # although the file's bytes go wrong some blocks further on.
    path = tmp_path / "bad.csv"
    body = b"1,2,-1\n" * (8 * data.CSV_BLOCK_CELLS // 3)
    path.write_bytes(b"1,2,1\n1,abc,-1\n" + body + tail)
    with pytest.raises(DataFormatError) as exc:
        load_csv(path)
    assert str(exc.value) == "row 2, column 2: non-numeric cell 'abc'"
    path.write_bytes(b"1,2,1\n1,2,-1\n" + body + tail)
    with pytest.raises(DataFormatError) as exc:
        load_csv(path)
    assert str(exc.value).startswith(f"cannot read {path}: ")
    assert read_error in str(exc.value)


@pytest.mark.parametrize("label_column", [3, 5, 8, -4, -7])
def test_load_csv_rejects_an_out_of_range_label_column(tmp_path, label_column):
    # Such an index once wrapped around and silently read another column.
    # The property test above covers every in-range index, negative ones too.
    path = tmp_path / "three.csv"
    path.write_text("1,1,1\n4,5,6\n")
    with pytest.raises(DataFormatError) as exc:
        load_csv(path, label_column=label_column)
    assert str(exc.value) == f"label column {label_column} is out of range for 3 columns"


def test_a_byte_order_mark_is_not_part_of_the_first_row(tmp_path):
    # A UTF-8 byte-order mark once stayed in the first cell, which made the
    # first row of a headerless file its header: 4 rows loaded as 3.
    path = tmp_path / "marked.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2,1\n3,4,-1\n5,6,1\n7,8,-1\n")
    matrix = [[1, 2, 1], [3, 4, -1], [5, 6, 1], [7, 8, -1]]
    X, y = data.load_labelled(path)
    np.testing.assert_array_equal(X, [row[:2] for row in matrix])
    np.testing.assert_array_equal(y, [row[2] for row in matrix])
    np.testing.assert_array_equal(data.load_features(path), matrix)
    scores, names = data.load_scores(path)
    np.testing.assert_array_equal(scores, matrix)
    assert names == ["method1", "method2", "method3"]
    assert data.first_row_width(path) == 3
    path.write_bytes(b"\xef\xbb\xbflabel,x1,x2\n1,2,3\n-1,4,5\n")
    X, y = data.load_labelled(path, label_column="label")
    np.testing.assert_array_equal(X, [[2, 3], [4, 5]])
    np.testing.assert_array_equal(y, [1, -1])


EDGE_VALUES = [1e16, 9999999999999998.0, 1e-5, 5e-324, -0.0,
               1.7976931348623157e308, 0.1, -2.5e-7, 3, -4, 0]


def _per_cell_repr(rows):
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


def test_write_csv_writes_per_cell_repr(tmp_path):
    rows = [EDGE_VALUES, EDGE_VALUES[::-1],
            np.random.default_rng(0).normal(size=len(EDGE_VALUES)).tolist()]
    header = [f"c{i}" for i in range(len(EDGE_VALUES))]
    _write_csv(tmp_path / "o.csv", [dict(zip(header, row)) for row in rows])
    assert (tmp_path / "o.csv").read_text() == ",".join(header) + "\n" + _per_cell_repr(rows)


def test_labelled_matrix_writes_per_cell_repr(tmp_path):
    floats = [v for v in EDGE_VALUES if isinstance(v, float)]
    X = np.array([floats, floats[::-1], np.random.default_rng(1).normal(size=len(floats))])
    labels = np.array([1.0, -1.0, 1.0])
    header = [f"x{i + 1}" for i in range(X.shape[1])] + ["label"]
    _write_labelled_matrix(tmp_path / "o.csv", X, labels, "label")
    expected = _per_cell_repr([[*map(float, x), int(v)] for x, v in zip(X, labels)])
    assert (tmp_path / "o.csv").read_text() == ",".join(header) + "\n" + expected


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_labelled_matrix_in_blocks_matches_one_block(tmp_path, monkeypatch, block_rows):
    X = np.random.default_rng(2).normal(size=(7, 3))
    labels = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    _write_labelled_matrix(tmp_path / "one.csv", X, labels, "label")
    monkeypatch.setattr(cli, "CSV_BLOCK_CELLS", block_rows * 4)
    _write_labelled_matrix(tmp_path / "blocks.csv", X, labels, "label")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def _per_cell_rows(X, labels):
    return [[*map(float, x), int(label)] for x, label in zip(X, labels)]


def test_generate_and_predict_write_per_cell_repr(tmp_path):
    data, model, pred = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "p.csv"
    assert main(["generate", "--example", "3", "--m", "40", "--seed", "5",
                 "--noise-ratio", "0.1", "--out", str(data)]) == 0
    X, y = inject_label_noise(GENERATORS[3](40, 5), 0.1, seed=6).stacked()
    assert data.read_text() == "x1,x2,label\n" + _per_cell_repr(_per_cell_rows(X, y))

    assert main(["train", "--data", str(data), "--method", "cl1qtsvm", "--c1", "0.01",
                 "--c2", "0.01", "--model-out", str(model)]) == 0
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--out", str(pred)]) == 0
    X, _ = load_csv(data).stacked()
    labels = predict_many(load_model(model), X)
    assert pred.read_text() == "x1,x2,prediction\n" + _per_cell_repr(_per_cell_rows(X, labels))
