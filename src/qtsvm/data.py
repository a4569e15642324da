"""Datasets: synthetic generators, label-noise injection, min-max
normalization to [-1, 1], and the one reader behind every CSV input."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import DataFormatError, InvalidInputError, check_int


@dataclass
class Dataset:
    """Labeled binary samples split into a positive and a negative block."""

    X_pos: np.ndarray
    X_neg: np.ndarray

    def __post_init__(self):
        self.X_pos = np.atleast_2d(np.asarray(self.X_pos, dtype=float))
        self.X_neg = np.atleast_2d(np.asarray(self.X_neg, dtype=float))
        if self.X_pos.size == 0:
            self.X_pos = self.X_pos.reshape(0, self.X_neg.shape[1])
        if self.X_neg.size == 0:
            self.X_neg = self.X_neg.reshape(0, self.X_pos.shape[1])
        if self.X_pos.shape[1] != self.X_neg.shape[1]:
            raise InvalidInputError(
                "positive and negative samples disagree on feature dimension: "
                f"{self.X_pos.shape[1]} vs {self.X_neg.shape[1]}"
            )
        if not (np.isfinite(self.X_pos).all() and np.isfinite(self.X_neg).all()):
            raise InvalidInputError("dataset contains NaN or Inf features")

    @property
    def n(self) -> int:
        return self.X_pos.shape[1]

    @property
    def m_pos(self) -> int:
        return self.X_pos.shape[0]

    @property
    def m_neg(self) -> int:
        return self.X_neg.shape[0]

    @property
    def m(self) -> int:
        return self.m_pos + self.m_neg

    def stacked(self):
        """All features plus a +/-1 label vector, positives first."""
        X = np.vstack([self.X_pos, self.X_neg])
        y = np.concatenate([np.ones(self.m_pos), -np.ones(self.m_neg)])
        return X, y


@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature min/max used for the [-1, 1] rescaling.  apply_scaler
    doubles x - min, so twice each feature's span must be a finite float."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "minimum", np.asarray(self.minimum, dtype=float))
        object.__setattr__(self, "maximum", np.asarray(self.maximum, dtype=float))
        if not (np.isfinite(self.minimum).all() and np.isfinite(self.maximum).all()):
            raise InvalidInputError("normalization bounds must be finite")
        if np.any(self.minimum > self.maximum):
            raise InvalidInputError("normalization minimum exceeds maximum")
        with np.errstate(over="ignore"):
            wide = ~np.isfinite(2.0 * (self.maximum - self.minimum))
        if wide.any():
            j = int(np.argmax(wide))
            raise InvalidInputError(
                f"feature {j} ranges from {self.minimum.flat[j]:.6g} to "
                f"{self.maximum.flat[j]:.6g}, too wide to scale to [-1, 1]")


def fit_scaler(d: Dataset) -> NormalizationParams:
    """Column min/max over the whole dataset (both classes)."""
    X = np.vstack([d.X_pos, d.X_neg])
    if X.shape[0] == 0:
        raise InvalidInputError("cannot fit a scaler on an empty dataset")
    return NormalizationParams(minimum=X.min(axis=0), maximum=X.max(axis=0))


@np.errstate(over="ignore")
def apply_scaler(params: NormalizationParams, X: np.ndarray) -> np.ndarray:
    """Map each feature to [-1, 1]; constant features map to 0.  The last
    dimension of X must be the scaler's feature count.  A NaN, an infinity
    or a value whose scaling overflows gives a non-finite value, silently."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1:] != params.minimum.shape:
        raise InvalidInputError(f"expected {params.minimum.size} features per row, "
                                f"got an input of shape {X.shape}")
    span = params.maximum - params.minimum
    safe = np.where(span > 0, span, 1.0)

    def scaled(x, low, width):
        # 2 (x - low) / width - 1, one operation at a time in one array.
        out = np.subtract(x, low)
        out *= 2.0
        out /= width
        out -= 1.0
        return out

    if X.ndim == 2 and X.shape[1] <= 2:
        # Broadcast over a last axis this short, numpy would loop per row;
        # a column at a time, each operation runs over contiguous rows.
        out = np.empty(X.shape)
        for j in range(X.shape[1]):
            out[:, j] = scaled(X[:, j], params.minimum[j], safe[j])
    else:
        out = scaled(X, params.minimum, safe)
    constant = span <= 0
    if constant.any():
        out[..., constant] = np.where(np.isfinite(X[..., constant]), 0.0, X[..., constant])
    return out


def scale_dataset(d: Dataset, params: NormalizationParams) -> Dataset:
    return Dataset(X_pos=apply_scaler(params, d.X_pos), X_neg=apply_scaler(params, d.X_neg))


def _rng(seed, m_per_class=1) -> np.random.Generator:
    """The random generator of an integer seed >= 0, for m_per_class >= 1."""
    check_int(m_per_class, "m_per_class", 1)
    check_int(seed, "seed", 0)
    return np.random.default_rng(seed)


def gen_example1(m_per_class: int, seed: int) -> Dataset:
    """Two opposing parabolas: x2 = +-0.2222 x1^2 + offset, x1 ~ U[-3,3]."""
    rng = _rng(seed, m_per_class)
    x1p = rng.uniform(-3.0, 3.0, m_per_class)
    x2p = 0.2222 * x1p**2 + 0.5 + rng.normal(0.0, 0.1, m_per_class)
    x1n = rng.uniform(-3.0, 3.0, m_per_class)
    x2n = -0.2222 * x1n**2 + 1.5 + rng.normal(0.0, 0.1, m_per_class)
    return Dataset(X_pos=np.column_stack([x1p, x2p]), X_neg=np.column_stack([x1n, x2n]))


def gen_example2(m_per_class: int, seed: int) -> Dataset:
    """Two half circles of radius 3 with vertical noise on x2.

    Class +1 sits on the upper half (theta in [0, pi]), class -1 on the
    lower half (theta in [pi, 2 pi]); complementary arcs are required for
    the classes to be separable at the reported accuracy level.
    """
    rng = _rng(seed, m_per_class)
    tp = rng.uniform(0.0, math.pi, m_per_class)
    xp = np.column_stack(
        [3.0 * np.cos(tp), 3.0 * np.sin(tp) + rng.normal(0.0, 0.2, m_per_class)]
    )
    tn = rng.uniform(math.pi, 2.0 * math.pi, m_per_class)
    xn = np.column_stack(
        [3.0 * np.cos(tn), 3.0 * np.sin(tn) + rng.normal(0.0, 0.2, m_per_class)]
    )
    return Dataset(X_pos=xp, X_neg=xn)


def gen_example3(m_per_class: int, seed: int) -> Dataset:
    """Mirror-image parabolas 0.75 x1^2 +- 1.5 x1 + 0.75 on shifted supports."""
    rng = _rng(seed, m_per_class)
    x1p = rng.uniform(-3.0, 1.0, m_per_class)
    x2p = 0.75 * x1p**2 + 1.5 * x1p + 0.75 + rng.normal(0.0, 0.1, m_per_class)
    x1n = rng.uniform(-1.0, 3.0, m_per_class)
    x2n = 0.75 * x1n**2 - 1.5 * x1n + 0.75 + rng.normal(0.0, 0.1, m_per_class)
    return Dataset(X_pos=np.column_stack([x1p, x2p]), X_neg=np.column_stack([x1n, x2n]))


GENERATORS = {1: gen_example1, 2: gen_example2, 3: gen_example3}


def inject_label_noise(d: Dataset, ratio: float, seed: int) -> Dataset:
    """Flip the class membership of floor(ratio * m) samples, chosen
    uniformly without replacement over the pooled dataset."""
    if not 0.0 <= ratio < 1.0:
        raise InvalidInputError(f"noise ratio must be in [0, 1), got {ratio}")
    rng = _rng(seed)
    # Exact for a decimal ratio: as floats, 0.29 * 100 = 28.999999999999996.
    n_flip = math.floor(Fraction(str(ratio)) * d.m)
    flip = np.zeros(d.m, dtype=bool)
    flip[rng.choice(d.m, size=n_flip, replace=False)] = True
    flip_pos, flip_neg = flip[: d.m_pos], flip[d.m_pos :]
    new_pos = np.vstack([d.X_pos[~flip_pos], d.X_neg[flip_neg]])
    new_neg = np.vstack([d.X_neg[~flip_neg], d.X_pos[flip_pos]])
    return Dataset(X_pos=new_pos, X_neg=new_neg)


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


# Cells of nonblank CSV rows parsed, converted and written per block, so
# that a block's Python lists and strings take about the same memory
# whatever the file's width, ragged files included.  A three-column file,
# such as the two-feature files that ``generate`` writes, goes in blocks of
# 1024 rows, about 0.25 MB; blocks of 512 to 8192 such rows parsed at the
# same speed.
CSV_BLOCK_CELLS = 3 * 1024


def _row_blocks(path, cells=None):
    """The nonblank rows of a CSV file in lists that each end at the row
    that brings them to ``cells`` cells (default ``CSV_BLOCK_CELLS``).  A
    read error is raised when the reader reaches it, after the blocks
    before it have been handed out.  No block is kept here while the next
    one is parsed."""
    cells = cells or CSV_BLOCK_CELLS
    try:
        with open(path, newline="") as fh:
            # A UTF-8 byte-order mark would stay in the first cell.
            if fh.read(1) != "\ufeff":
                fh.seek(0)
            block, size = [], 0
            for row in csv.reader(fh):
                if "".join(row).strip():
                    block.append(row)
                    size += len(row)
                    if size >= cells:
                        yield block
                        block, size = [], 0
            if block:
                yield block
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc


def _rows(path, cells=None):
    """The first block of rows of a nonempty CSV file and an iterator over
    the others.  The first block has a second row whenever the file has
    one: the header rule looks one row ahead."""
    blocks = _row_blocks(path, cells)
    head = next(blocks, None)
    if head is None:
        raise DataFormatError(f"{path} is empty")
    if len(head) == 1:
        head += next(blocks, [])
    return head, blocks


def first_row_width(path) -> int:
    """The number of fields in the first nonblank row of a CSV file; at most
    one more row is parsed."""
    return len(_rows(path, 1)[0][0])


def _split_header(rows, skip=None):
    """The header rule of every CSV input: the first row is a header when
    more rows follow and it has a non-numeric cell outside column ``skip``
    (a label or dataset-name column).  Returns the stripped header or None,
    the data rows and the number of the first data row."""
    if len(rows) > 1 and any(_float(c) is None for i, c in enumerate(rows[0]) if i != skip):
        return [c.strip() for c in rows[0]], rows[1:], 2
    return None, rows, 1


def _first_fault(rows, first, width, numeric, label_idx=None, positive_label=None,
                 other_label=None):
    """Raise the DataFormatError for the first fault in file order: a ragged
    row, a cell of a ``numeric`` column that is not a finite number, or a
    third label value.  ``first`` is the number of the first row and
    ``other_label`` the non-positive label of the rows before it, if any."""
    for r, row in enumerate(rows, start=first):
        if len(row) != width:
            raise DataFormatError(
                f"row {r}: expected {width} fields, got {len(row)} (ragged file)"
            )
        for ci in numeric:
            value = _float(row[ci])
            if value is None or not math.isfinite(value):
                kind = "non-numeric" if value is None else "non-finite"
                raise DataFormatError(f"row {r}, column {ci + 1}: {kind} cell {row[ci].strip()!r}")
        if label_idx is None:
            continue
        label = row[label_idx].strip()
        if label == positive_label:
            continue
        if other_label is None:
            other_label = label
        elif label != other_label:
            raise DataFormatError(
                f"row {r}: unknown label value {label!r} "
                f"(expected {positive_label!r} or {other_label!r})"
            )


def _block(rows, first, width, numeric, label_idx, positive_label, other_label):
    """One block of ``_table``: its matrix, its positive mask and the
    non-positive label seen so far."""
    if all(len(row) == width for row in rows):
        cols = list(zip(*rows))
        try:
            X = np.array([cols[i] for i in numeric], dtype=float)
        except ValueError:
            pass
        else:
            X = X.reshape(len(numeric), len(rows)).T
            if np.isfinite(X).all():
                if label_idx is None:
                    return X, None, None
                labels = np.array([label.strip() for label in cols[label_idx]], dtype=object)
                pos = labels == positive_label
                others = set(labels[~pos])
                if other_label is not None:
                    others.add(other_label)
                if len(others) <= 1:
                    return X, pos, next(iter(others), None)
    _first_fault(rows, first, width, numeric, label_idx, positive_label, other_label)
    raise AssertionError("unreachable: the row-by-row check found no fault")


def _table(blocks, first, width, numeric, label_idx=None, positive_label=None):
    """The ``numeric`` columns of blocks of CSV data rows as an
    (m, len(numeric)) matrix and, with a label column, the mask of its
    positive rows.  ``first`` is the number of the first data row.

    Cells are converted a column of a block at a time (numpy accepts exactly
    the strings ``float`` accepts) and must be finite; every non-positive
    label must be the first one.  When a block fails, its rows are checked
    one by one, so that the error names the first fault in file order: the
    blocks before it have passed.
    """
    k = len(numeric)
    X, masks, other_label = np.empty((0, k)), [np.zeros(0, dtype=bool)], None
    for rows in filter(None, blocks):
        part, pos, other_label = _block(rows, first, width, numeric, label_idx,
                                        positive_label, other_label)
        # X grows in place by one block, so the matrix is held once.  The
        # copy into X puts the block, a transposed view, in C order.
        X.resize((len(X) + len(part), k), refcheck=False)
        X[len(X) - len(part):] = part
        masks.append(pos)
        first += len(rows)
        del rows  # not held while the next block is read
    return X, None if label_idx is None else np.concatenate(masks)


def load_features(path) -> np.ndarray:
    """Load an unlabeled rectangular CSV of finite numbers, with an optional
    header row, as an (m, n) matrix."""
    head, blocks = _rows(path)
    width = len(head[0])
    _, rows, first = _split_header(head)
    return _table(chain([rows], blocks), first, width, range(width))[0]


def load_csv(path, label_column=-1, positive_label: str = "1") -> Dataset:
    """Load a rectangular CSV of finite numbers with one label column and an
    optional header row.

    ``label_column`` selects the label field by integer index (negative
    allowed) or by header name.  Rows whose label equals ``positive_label``
    (string comparison after stripping) become the positive class; all other
    rows must share a single second label value.
    """
    X, y = load_labelled(path, label_column, positive_label)
    return Dataset(X_pos=X[y > 0], X_neg=X[y < 0])


def load_labelled(path, label_column=-1, positive_label: str = "1"):
    """The rows of a labelled CSV in file order, read as load_csv reads
    them: an (m, n) feature matrix and its +1/-1 labels."""
    head, blocks = _rows(path)
    width = len(head[0])
    if isinstance(label_column, str):
        header, rows, first = [c.strip() for c in head[0]], head[1:], 2
        if label_column not in header:
            raise DataFormatError(f"label column {label_column!r} not found in header")
        label_idx = header.index(label_column)
    else:
        if not -width <= label_column < width:
            raise DataFormatError(f"label column {label_column} is out of range "
                                  f"for {width} columns")
        label_idx = label_column % width
        _, rows, first = _split_header(head, label_idx)
    numeric = [i for i in range(width) if i != label_idx]
    X, pos = _table(chain([rows], blocks), first, width, numeric, label_idx, positive_label)
    return X, np.where(pos, 1.0, -1.0)


def load_scores(path):
    """The scores of a Nemenyi comparison, one row per dataset and one column
    per method, and the method names.

    A benchmark results table (a header with ``dataset``, ``method`` and
    ``acc``) gives the mean ``acc`` per (dataset, noise ratio) and method, in
    sorted (dataset, noise ratio) order with the methods sorted by name.  Any
    other file is a raw score matrix with an optional header of method names;
    its first column holds dataset names when the last row's first cell is
    not a number.
    """
    # The header rule reads the last row, so the blocks are collected.
    raw, blocks = _rows(path)
    raw.extend(chain.from_iterable(blocks))
    width = len(raw[0])
    header = [c.strip() for c in raw[0]]
    if {"dataset", "method", "acc"} <= set(header):
        acc = _table([raw[1:]], 2, width, [header.index("acc")])[0][:, 0]
        ds, method = header.index("dataset"), header.index("method")
        ratio = header.index("noise_ratio") if "noise_ratio" in header else None
        cells = {}
        for row, a in zip(raw[1:], acc.tolist()):
            key = (row[ds], "" if ratio is None else row[ratio])
            cells.setdefault(key, {}).setdefault(row[method], []).append(a)
        if not cells:
            raise DataFormatError(f"{path}: no score rows")
        names = sorted({m for per in cells.values() for m in per})
        keys = sorted(cells)
        for key in keys:
            if set(cells[key]) != set(names):
                raise DataFormatError(f"dataset {key[0]!r} at noise {key[1]!r} "
                                      f"lacks results for some methods")
        return np.array([[np.mean(cells[key][m]) for m in names] for key in keys]), names
    skip = 0 if _float(raw[-1][0]) is None else None
    header, rows, first = _split_header(raw, skip)
    numeric = [i for i in range(width) if i != skip]
    scores = _table([rows], first, width, numeric)[0]
    if header is None:
        return scores, [f"method{j + 1}" for j in range(len(numeric))]
    return scores, [header[i] for i in numeric]
