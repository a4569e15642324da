"""Trained classifier: a pair of quadratic surfaces and the
normalized-distance decision rule."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import NormalizationParams, apply_scaler
from .errors import (
    InvalidInputError,
    MalformedModelFileError,
    ModelFileError,
    ModelInconsistencyError,
    ModelVersionError,
)
from .lifting import LiftingMode, lifted_dim, lifting_mode, unpack_weights

MODEL_FORMAT_VERSION = 1

# Guard for the distance denominator; the decision ratio is undefined
# when the surface gradient Wx + b vanishes.
GRADIENT_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainedModel:
    """Pair of surfaces, each its lifted weight vector w (see lifting), plus
    the preprocessing state needed to predict directly on raw
    (unnormalized) inputs.  mode is a LiftingMode or its value; each vector
    must hold lifted_dim(n, mode) finite entries, n the scaler's feature
    count."""

    w_pos: np.ndarray
    w_neg: np.ndarray
    mode: LiftingMode
    scaler: NormalizationParams

    def __post_init__(self):
        object.__setattr__(self, "mode", lifting_mode(self.mode))
        length = lifted_dim(self.n, self.mode)
        for side in ("w_pos", "w_neg"):
            w = np.array(getattr(self, side), dtype=float)
            if w.shape != (length,):
                raise InvalidInputError(f"{side} has shape {w.shape}, expected ({length},) "
                                        f"for n={self.n} in {self.mode.value} mode")
            if not np.isfinite(w).all():
                raise InvalidInputError(f"{side} has non-finite entries")
            object.__setattr__(self, side, w)

    @property
    def n(self) -> int:
        return self.scaler.minimum.size


def _distances(Xs: np.ndarray, W: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Normalized distances of the scaled rows Xs to a stack of S surfaces
    (W (S, n, n), b (S, n), c (S,)); shape (S, rows).

    W is symmetric, so Xs W serves both the quadratic term and the
    gradient Wx + b.  Under reduced lifting W is given as its diagonals
    (S, n), as unpack_weights gives it: Xs W is then Xs * diag(W), O(n) per
    row and surface.  That is the dense Xs @ W bit for bit, since the matrix
    product only adds exact zeros to each x_j w_jj.

    With n <= 2 features the quadratic term, the gradient and its norm are
    formed one feature column at a time into contiguous (S, rows) arrays,
    with no reduction over a last axis of length n.  That gives the bits of
    the row-major form below exactly, not within a tolerance: each sum over
    features then has at most two terms, and a sum of two floats is the
    same in either order.  (The quadratic term can differ in the sign of a
    zero, which the absolute value removes.)  From three terms on, the
    order of numpy's reductions depends on the shape, so n >= 3 keeps the
    row-major form.  Xs @ W and Xs @ b stay BLAS products either way, since
    BLAS may fuse their multiply-adds.

    The temporaries are (S, rows, n), so callers pass a block of at most
    PREDICT_BLOCK_ROWS rows.  The bits of a dense Xs @ W can depend on the
    row count when BLAS picks another kernel for a short block; the
    einsum and the Xs @ b products do not.
    """
    n = Xs.shape[1]
    if 0 < n <= 2:
        XW = Xs @ W if W.ndim == 3 else None
        # Column j of XW as an (S, rows) array: x_j w_jj when W is diagonal.
        cols = [XW[..., j] if W.ndim == 3 else W[:, j, None] * Xs[:, j] for j in range(n)]
        vals = cols[0] * Xs[:, 0]
        norms = np.add(cols[0], b[:, :1])
        norms *= norms
        if n == 2:
            term = cols[1] * Xs[:, 1]
            vals += term
            grad = np.add(cols[1], b[:, 1:], out=term)
            grad *= grad
            norms += grad
    else:
        XW = Xs @ W if W.ndim == 3 else Xs * W[:, None, :]
        vals = np.einsum("sij,ij->si", XW, Xs)
        # These arrays are as large as the block, so they are reused in
        # place; the gradient norm is summed as np.linalg.norm sums it.
        grads = np.add(XW, b[:, None, :], out=XW)
        norms = np.add.reduce(np.square(grads, out=grads), axis=2)
    vals *= 0.5
    vals += (Xs @ b[..., None])[..., 0]
    vals += c[:, None]
    np.sqrt(norms, out=norms)
    np.maximum(norms, GRADIENT_NORM_FLOOR, out=norms)
    return np.divide(np.abs(vals, out=vals), norms, out=vals)


# Rows that label_stack scales, checks and labels at a time, so that
# _distances' (surfaces, rows, n) temporaries stay near 4096 * n * 8 bytes
# per surface (2.6 MB at n = 80) whatever the batch size.  A CV fold's
# held-out rows are far fewer, so each is one block.  With OpenBLAS, blocks
# of 2048 rows or fewer changed the last bits of Xs @ W at n = 20 against
# the whole batch; 4096 did not.
PREDICT_BLOCK_ROWS = 4096


def label_stack(scaler: NormalizationParams, pos, neg, X: np.ndarray) -> np.ndarray:
    """Labels of the raw rows X under G surface pairs, shape (G, rows).

    pos and neg are the (W, b, c) of the positive and the negative surfaces
    as unpack_weights gives them for a stack of lifted weight vectors: W
    (G, n, n), or its diagonals (G, n) under reduced lifting.  A row is +1
    if it is at least as close (in normalized distance) to the positive
    surface of a pair as to its negative one.  The rows are labelled in
    blocks of PREDICT_BLOCK_ROWS; a row with a NaN or infinite feature, or
    one whose scaling or distance to a surface overflows, raises
    InvalidInputError naming its index in X.
    """
    labels = np.empty((len(pos[2]), len(X)), dtype=int)
    for start in range(0, len(X), PREDICT_BLOCK_ROWS):
        block = X[start : start + PREDICT_BLOCK_ROWS]
        Xs = apply_scaler(scaler, block)
        # A NaN distance compares false, so such a row would be labelled -1.
        if not np.isfinite(Xs).all():
            row = int(np.argmin(np.isfinite(Xs).all(axis=1)))
            what = ("a NaN or infinite feature" if not np.isfinite(block[row]).all()
                    else "a feature too far outside the scaler's range to scale")
            raise InvalidInputError(f"row {start + row} has {what}")
        with np.errstate(over="ignore", invalid="ignore"):
            d_pos, d_neg = _distances(Xs, *pos), _distances(Xs, *neg)
            # Not finite if any distance is not: one test clears the block.
            total = d_pos.sum() + d_neg.sum()
        if not np.isfinite(total):
            finite = np.isfinite(d_pos).all(axis=0) & np.isfinite(d_neg).all(axis=0)
            if not finite.all():
                raise InvalidInputError(f"row {start + int(np.argmin(finite))} is too far "
                                        "outside the scaler's range for a finite distance")
        labels[:, start : start + len(block)] = np.where(d_pos <= d_neg, 1, -1)
    return labels


def predict_many(m: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Labels of the rows of a raw feature matrix (one row may be given as
    a vector): label_stack under the model's one surface pair."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2:
        raise InvalidInputError(f"expected a matrix of feature rows, got shape {X.shape}")
    if X.shape[1] != m.n:
        raise InvalidInputError(f"expected {m.n} features, got {X.shape[1]}")
    return label_stack(m.scaler, *(unpack_weights(w[None], m.n, m.mode)
                                   for w in (m.w_pos, m.w_neg)), X)[0]


def _surface_doc(w: np.ndarray, n: int) -> dict:
    return {"w_head": w[: -n - 1].tolist(), "b": w[-n - 1 : -1].tolist(), "c": float(w[-1])}


def save_model(m: TrainedModel, path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "mode": m.mode.value,
        "n": m.n,
        "scaler": {
            "min": m.scaler.minimum.tolist(),
            "max": m.scaler.maximum.tolist(),
        },
        "surface_pos": _surface_doc(m.w_pos, m.n),
        "surface_neg": _surface_doc(m.w_neg, m.n),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _numbers(value, field: str) -> np.ndarray:
    """A JSON list of numbers as a float array.  Strings such as "1.5" and
    booleans are not numbers here, though numpy would convert them."""
    if type(value) is not list or not all(type(v) in (int, float) for v in value):
        raise TypeError(f"{field} must be a list of numbers, got {value!r}")
    return np.array(value, dtype=float)


def _surface_from_doc(doc: dict, side: str, n: int) -> np.ndarray:
    """The lifted weight vector of one surface of a model file."""
    surface = doc[side]
    c = surface["c"]
    if type(c) not in (int, float):
        raise TypeError(f"{side}.c must be a number, got {c!r}")
    b = _numbers(surface["b"], f"{side}.b")
    if b.size != n:
        raise InvalidInputError(f"{side}.b has {b.size} entries, expected n={n}")
    return np.concatenate([_numbers(surface["w_head"], f"{side}.w_head"), b, [c]])


def load_model(path) -> TrainedModel:
    """Read a model file.  A file that cannot be read, parsed or trusted
    raises a ModelFileError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelFileError(f"cannot read model file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedModelFileError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedModelFileError(f"{path}: expected a key/value document")

    def integer(key):  # a JSON integer: not true, 1.0, 2.7, "2" or 1e400 (read as inf)
        if type(doc[key]) is not int:
            raise MalformedModelFileError(f"{path}: {key!r} must be an integer, got {doc[key]!r}")
        return doc[key]

    try:
        version = integer("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ModelVersionError(
                f"{path}: unsupported model format version {version!r} "
                f"(supported: {MODEL_FORMAT_VERSION})"
            )
        mode = LiftingMode(doc["mode"])
        n = integer("n")
        scaler_doc = doc["scaler"]
        scaler = NormalizationParams(
            minimum=_numbers(scaler_doc["min"], "scaler.min"),
            maximum=_numbers(scaler_doc["max"], "scaler.max"),
        )
        if scaler.minimum.shape != scaler.maximum.shape or scaler.minimum.size != n:
            raise ModelInconsistencyError(
                f"{path}: scaler dimension {scaler.minimum.size} != n={n}"
            )
        return TrainedModel(w_pos=_surface_from_doc(doc, "surface_pos", n),
                            w_neg=_surface_from_doc(doc, "surface_neg", n),
                            mode=mode, scaler=scaler)
    except KeyError as exc:
        raise MalformedModelFileError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise MalformedModelFileError(f"{path}: {exc}") from exc
    except InvalidInputError as exc:
        raise ModelInconsistencyError(f"{path}: {exc}") from exc
