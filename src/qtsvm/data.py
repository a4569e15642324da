"""Datasets: synthetic generators, label-noise injection, CSV loading,
and min-max normalization to [-1, 1]."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, InvalidInputError


@dataclass
class Dataset:
    """Labeled binary samples split into a positive and a negative block."""

    X_pos: np.ndarray
    X_neg: np.ndarray
    provenance: str = ""

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
    """Per-feature min/max used for the [-1, 1] rescaling."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "minimum", np.asarray(self.minimum, dtype=float))
        object.__setattr__(self, "maximum", np.asarray(self.maximum, dtype=float))
        if not (np.isfinite(self.minimum).all() and np.isfinite(self.maximum).all()):
            raise InvalidInputError("normalization bounds must be finite")
        if np.any(self.minimum > self.maximum):
            raise InvalidInputError("normalization minimum exceeds maximum")


def fit_scaler(d: Dataset) -> NormalizationParams:
    """Column min/max over the whole dataset (both classes)."""
    X = np.vstack([d.X_pos, d.X_neg])
    if X.shape[0] == 0:
        raise InvalidInputError("cannot fit a scaler on an empty dataset")
    return NormalizationParams(minimum=X.min(axis=0), maximum=X.max(axis=0))


def apply_scaler(params: NormalizationParams, X: np.ndarray) -> np.ndarray:
    """Map each feature to [-1, 1]; constant features map to 0."""
    X = np.asarray(X, dtype=float)
    span = params.maximum - params.minimum
    safe = np.where(span > 0, span, 1.0)
    out = 2.0 * (X - params.minimum) / safe - 1.0
    return np.where(span > 0, out, 0.0)


def scale_dataset(d: Dataset, params: NormalizationParams) -> Dataset:
    return Dataset(
        X_pos=apply_scaler(params, d.X_pos),
        X_neg=apply_scaler(params, d.X_neg),
        provenance=d.provenance,
    )


def _noise_std(default_std: float, std: float | None) -> float:
    # Each generator carries a default standard deviation; callers can
    # override it to study other noise levels.
    return default_std if std is None else std


def gen_example1(m_per_class: int, seed: int, noise_std: float | None = None) -> Dataset:
    """Two opposing parabolas: x2 = +-0.2222 x1^2 + offset, x1 ~ U[-3,3]."""
    if m_per_class < 1:
        raise InvalidInputError("m_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    sigma = _noise_std(0.1, noise_std)
    x1p = rng.uniform(-3.0, 3.0, m_per_class)
    x2p = 0.2222 * x1p**2 + 0.5 + rng.normal(0.0, sigma, m_per_class)
    x1n = rng.uniform(-3.0, 3.0, m_per_class)
    x2n = -0.2222 * x1n**2 + 1.5 + rng.normal(0.0, sigma, m_per_class)
    return Dataset(
        X_pos=np.column_stack([x1p, x2p]),
        X_neg=np.column_stack([x1n, x2n]),
        provenance=f"example1(m={m_per_class},seed={seed})",
    )


def gen_example2(m_per_class: int, seed: int, noise_std: float | None = None) -> Dataset:
    """Two half circles of radius 3 with vertical noise on x2.

    Class +1 sits on the upper half (theta in [0, pi]), class -1 on the
    lower half (theta in [pi, 2 pi]); complementary arcs are required for
    the classes to be separable at the reported accuracy level.
    """
    if m_per_class < 1:
        raise InvalidInputError("m_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    sigma = _noise_std(0.2, noise_std)
    tp = rng.uniform(0.0, math.pi, m_per_class)
    xp = np.column_stack(
        [3.0 * np.cos(tp), 3.0 * np.sin(tp) + rng.normal(0.0, sigma, m_per_class)]
    )
    tn = rng.uniform(math.pi, 2.0 * math.pi, m_per_class)
    xn = np.column_stack(
        [3.0 * np.cos(tn), 3.0 * np.sin(tn) + rng.normal(0.0, sigma, m_per_class)]
    )
    return Dataset(
        X_pos=xp, X_neg=xn, provenance=f"example2(m={m_per_class},seed={seed})"
    )


def gen_example3(m_per_class: int, seed: int, noise_std: float | None = None) -> Dataset:
    """Mirror-image parabolas 0.75 x1^2 +- 1.5 x1 + 0.75 on shifted supports."""
    if m_per_class < 1:
        raise InvalidInputError("m_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    sigma = _noise_std(0.1, noise_std)
    x1p = rng.uniform(-3.0, 1.0, m_per_class)
    x2p = 0.75 * x1p**2 + 1.5 * x1p + 0.75 + rng.normal(0.0, sigma, m_per_class)
    x1n = rng.uniform(-1.0, 3.0, m_per_class)
    x2n = 0.75 * x1n**2 - 1.5 * x1n + 0.75 + rng.normal(0.0, sigma, m_per_class)
    return Dataset(
        X_pos=np.column_stack([x1p, x2p]),
        X_neg=np.column_stack([x1n, x2n]),
        provenance=f"example3(m={m_per_class},seed={seed})",
    )


GENERATORS = {1: gen_example1, 2: gen_example2, 3: gen_example3}


def inject_label_noise(d: Dataset, ratio: float, seed: int) -> Dataset:
    """Flip the class membership of floor(ratio * m) samples, chosen
    uniformly without replacement over the pooled dataset."""
    if not 0.0 <= ratio < 1.0:
        raise InvalidInputError(f"noise ratio must be in [0, 1), got {ratio}")
    n_flip = int(ratio * d.m)
    if n_flip == 0:
        return Dataset(X_pos=d.X_pos.copy(), X_neg=d.X_neg.copy(),
                       provenance=d.provenance)
    rng = np.random.default_rng(seed)
    flip = np.zeros(d.m, dtype=bool)
    flip[rng.choice(d.m, size=n_flip, replace=False)] = True
    flip_pos, flip_neg = flip[: d.m_pos], flip[d.m_pos :]
    new_pos = np.vstack([d.X_pos[~flip_pos], d.X_neg[flip_neg]])
    new_neg = np.vstack([d.X_neg[~flip_neg], d.X_pos[flip_pos]])
    return Dataset(
        X_pos=new_pos,
        X_neg=new_neg,
        provenance=f"{d.provenance}+label_noise(ratio={ratio},seed={seed})",
    )


def _is_numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _read_rows(path) -> list:
    """The nonblank rows of a CSV file."""
    try:
        with open(path, newline="") as fh:
            raw = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if not raw:
        raise DataFormatError(f"{path} is empty")
    return raw


def load_features(path) -> np.ndarray:
    """Load an unlabeled rectangular numeric CSV as an (m, n) matrix.

    A header row is auto-detected when the first row has a non-numeric cell.
    """
    raw = _read_rows(path)
    if len(raw) > 1 and not all(_is_numeric(c) for c in raw[0]):
        raw = raw[1:]
    try:
        return np.array(raw, dtype=float)
    except ValueError as exc:
        raise DataFormatError(f"{path} is not a rectangular numeric table: {exc}") from exc


def load_csv(path, label_column=-1, positive_label: str = "1") -> Dataset:
    """Load a rectangular numeric CSV with one label column.

    ``label_column`` selects the label field by integer index (negative
    allowed) or by header name.  Rows whose label equals ``positive_label``
    (string comparison after stripping) become the positive class; all other
    rows must share a single second label value.
    A header row is auto-detected when the first row has a non-numeric cell
    outside the label column.
    """
    raw = _read_rows(path)
    header = None
    width = len(raw[0])
    if isinstance(label_column, str):
        header = [c.strip() for c in raw[0]]
        if label_column not in header:
            raise DataFormatError(f"label column {label_column!r} not found in header")
        label_idx = header.index(label_column)
        raw = raw[1:]
    else:
        label_idx = label_column % width
        # Header heuristic: a non-numeric cell outside the label column.
        has_text = any(
            not _is_numeric(c) for i, c in enumerate(raw[0]) if i != label_idx
        )
        if has_text and len(raw) > 1:
            header = [c.strip() for c in raw[0]]
            raw = raw[1:]

    pos_rows, other_rows, other_label = [], [], None
    for r, row in enumerate(raw, start=2 if header else 1):
        if len(row) != width:
            raise DataFormatError(
                f"row {r}: expected {width} fields, got {len(row)} (ragged file)"
            )
        feats = []
        for ci, cell in enumerate(row):
            if ci == label_idx:
                continue
            cell = cell.strip()
            if not _is_numeric(cell):
                raise DataFormatError(
                    f"row {r}, column {ci + 1}: non-numeric cell {cell!r}"
                )
            feats.append(float(cell))
        label = row[label_idx].strip()
        if label == positive_label:
            pos_rows.append(feats)
        else:
            if other_label is None:
                other_label = label
            elif label != other_label:
                raise DataFormatError(
                    f"row {r}: unknown label value {label!r} "
                    f"(expected {positive_label!r} or {other_label!r})"
                )
            other_rows.append(feats)

    n = width - 1
    return Dataset(
        X_pos=np.array(pos_rows, dtype=float).reshape(len(pos_rows), n),
        X_neg=np.array(other_rows, dtype=float).reshape(len(other_rows), n),
        provenance=str(path),
    )
