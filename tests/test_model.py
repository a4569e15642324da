"""Decision rule, surface evaluation, and model persistence."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from qtsvm.data import NormalizationParams, apply_scaler
from qtsvm.errors import (
    InvalidInputError,
    MalformedModelFileError,
    ModelInconsistencyError,
    ModelVersionError,
)
from qtsvm.lifting import LiftingMode, lift_matrix, lifted_dim, unpack_weights
from qtsvm.model import (
    GRADIENT_NORM_FLOOR,
    PREDICT_BLOCK_ROWS,
    TrainedModel,
    _distances,
    label_stack,
    load_model,
    predict_many,
    save_model,
)

from oracles import distances_row_major, dvec_gather, hvec_gather, scaled_row_major

IDENTITY_SCALER = NormalizationParams(minimum=[-1.0, -1.0], maximum=[1.0, 1.0])


def surface(W, b, c, mode=LiftingMode.FULL):
    """The lifted weight vector of the surface 1/2 x'Wx + b'x + c, W
    symmetric (full) or diagonal (reduced)."""
    gather = hvec_gather if mode is LiftingMode.FULL else dvec_gather
    return np.concatenate([gather(np.asarray(W, dtype=float)), np.asarray(b, dtype=float), [c]])


def make_model(sp, sn):
    return TrainedModel(w_pos=sp, w_neg=sn, mode=LiftingMode.FULL, scaler=IDENTITY_SCALER)


def normalized_distance(w, x, mode=LiftingMode.FULL):
    """Distance of one point to one surface, through the stacked rule."""
    x = np.atleast_2d(x)
    return float(_distances(x, *unpack_weights(w[None], x.shape[1], mode))[0, 0])


def test_surface_value():
    x = np.array([1.0, 2.0])
    for mode in LiftingMode:
        s = surface([[2.0, 0.0], [0.0, 4.0]], [1.0, -1.0], 3.0, mode)
        # 1/2 (2 + 16) + (1 - 2) + 3, as the lifted weights dotted with the lifted point.
        assert s @ lift_matrix(x[None], mode)[0] == pytest.approx(11.0)
        # The distance's numerator: |value| over the gradient norm |(3, 7)|.
        assert normalized_distance(s, x, mode) == pytest.approx(11.0 / np.sqrt(58.0))


def test_normalized_distance():
    s = surface(np.zeros((2, 2)), [3.0, 4.0], 1.0)
    x = np.array([1.0, 1.0])
    assert normalized_distance(s, x) == pytest.approx(8.0 / 5.0)


def test_normalized_distance_scale_invariant():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3))
    s = surface(A + A.T, rng.standard_normal(3), 0.3)
    for t in (0.01, 7.0, 1234.5):
        st = t * s
        for _ in range(10):
            x = rng.standard_normal(3)
            assert normalized_distance(st, x) == pytest.approx(
                normalized_distance(s, x), rel=1e-10
            )


def test_gradient_norm_floor():
    # Zero gradient everywhere: distance stays finite via the floor.
    s = surface(np.zeros((2, 2)), np.zeros(2), 1.0)
    d = normalized_distance(s, np.array([0.5, -0.5]))
    assert np.isfinite(d)
    assert d == pytest.approx(1.0 / 1e-12)


def test_predict_prefers_closer_surface():
    near = surface(np.zeros((2, 2)), [0.0, 1.0], 0.0)
    far = surface(np.zeros((2, 2)), [0.0, 1.0], -5.0)
    m = make_model(near, far)
    assert predict_many(m, np.array([0.2, 0.1]))[0] == 1
    assert predict_many(make_model(far, near), np.array([0.2, 0.1]))[0] == -1


def test_predict_tie_goes_to_positive():
    s = surface(np.zeros((2, 2)), [1.0, 0.0], 0.5)
    m = make_model(s, s)
    assert predict_many(m, np.array([0.3, -0.4]))[0] == 1


def test_predict_many_matches_row_by_row():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((2, 2))
    sp = surface(A + A.T, rng.standard_normal(2), 0.1)
    B = rng.standard_normal((2, 2))
    sn = surface(B + B.T, rng.standard_normal(2), -0.2)
    m = make_model(sp, sn)
    X = rng.standard_normal((40, 2))
    batch = predict_many(m, X)
    assert set(np.unique(batch)) <= {-1, 1}
    for i, x in enumerate(X):
        assert batch[i] == predict_many(m, x)[0]


def test_predict_applies_scaler():
    # Same raw point, shifted scaler: different normalized location.
    s_pos = surface(np.zeros((1, 1)), [1.0], 0.0)
    s_neg = surface(np.zeros((1, 1)), [1.0], -2.0)
    scaler = NormalizationParams(minimum=[0.0], maximum=[10.0])
    m = TrainedModel(w_pos=s_pos, w_neg=s_neg, mode=LiftingMode.FULL, scaler=scaler)
    # x=0 maps to -1: |−1| vs |−3| → positive.
    assert predict_many(m, np.array([0.0]))[0] == 1


def test_predict_rejects_wrong_dimension():
    m = make_model(
        surface(np.zeros((2, 2)), np.zeros(2), 1.0),
        surface(np.zeros((2, 2)), np.zeros(2), 2.0),
    )
    with pytest.raises(InvalidInputError):
        predict_many(m, np.zeros(3))
    with pytest.raises(InvalidInputError):
        predict_many(m, np.zeros((4, 3)))
    # This once passed the feature-count check and failed inside einsum.
    with pytest.raises(InvalidInputError, match="matrix of feature rows"):
        predict_many(m, np.zeros((2, 2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308, -1e308])
def test_predict_rejects_nonfinite_rows(bad):
    # A non-finite row, or one whose scaling overflows, once came back
    # labelled -1 with only a RuntimeWarning.
    m = make_model(
        surface(np.zeros((2, 2)), [1.0, 0.0], 0.0),
        surface(np.zeros((2, 2)), [1.0, 0.0], -1.0),
    )
    X = np.zeros((5, 2))
    X[3, 1] = bad
    X[4, 0] = bad
    with pytest.raises(InvalidInputError, match="row 3 "):
        predict_many(m, X)
    with pytest.raises(InvalidInputError, match="row 0 "):
        predict_many(m, X[3])
    assert predict_many(m, X[:3]).tolist() == [1, 1, 1]
    # A constant feature scales any finite value to 0, but not a NaN or an
    # infinity.
    scaler = NormalizationParams(minimum=[-1.0, 0.0], maximum=[1.0, 0.0])
    constant = TrainedModel(m.w_pos, m.w_neg, m.mode, scaler)
    with pytest.raises(InvalidInputError, match="row 4 " if np.isfinite(bad) else "row 3 "):
        predict_many(constant, X)


def random_model(n, mode, rng):
    """A model of two random surfaces (diagonal W under reduced lifting)
    behind a scaler that is not the identity."""
    def random_surface():
        A = rng.standard_normal((n, n))
        W = A + A.T if mode is LiftingMode.FULL else np.diag(rng.standard_normal(n))
        return surface(W, rng.standard_normal(n), float(rng.standard_normal()), mode)

    scaler = NormalizationParams(minimum=-1.0 - rng.random(n), maximum=1.0 + rng.random(n))
    return TrainedModel(random_surface(), random_surface(), mode, scaler)


@pytest.mark.parametrize("mode", list(LiftingMode))
def test_blocked_labels_match_row_by_row_predict(mode):
    B = PREDICT_BLOCK_ROWS
    rng = np.random.default_rng(5)
    m = random_model(3, mode, rng)
    X = rng.standard_normal((2 * B + 3, 3))
    reference = np.array([predict_many(m, x)[0] for x in X])
    # Both labels occur, so a block labelled wholesale would show.
    assert set(reference) == {-1, 1}
    for rows in (0, 1, B - 1, B, B + 1, 2 * B + 3):
        labels = predict_many(m, X[:rows])
        assert labels.shape == (rows,)
        np.testing.assert_array_equal(labels, reference[:rows])


def dense(diagonals):
    """The stack of diagonal matrices (S, n, n) with the given diagonals (S, n)."""
    S, n = diagonals.shape
    W = np.zeros((S, n, n))
    W[:, np.arange(n), np.arange(n)] = diagonals
    return W


def test_diagonal_path_is_bitwise_the_dense_product():
    # Under reduced lifting unpack_weights gives each W as its diagonal:
    # Xs * diag(W) must give the distances of the dense Xs @ W bit for bit,
    # zero diagonal entries too.
    rng = np.random.default_rng(6)
    S, n = 3, 7
    w = rng.standard_normal((S, lifted_dim(n, LiftingMode.REDUCED)))
    w[1, 2] = 0.0
    diagonals, b, c = unpack_weights(w, n, LiftingMode.REDUCED)
    assert diagonals.shape == (S, n) and diagonals[1, 2] == 0.0
    Xs = rng.uniform(-1.0, 1.0, (PREDICT_BLOCK_ROWS, n))
    assert _distances(Xs, diagonals, b, c).tobytes() == _distances(Xs, dense(diagonals), b,
                                                                   c).tobytes()


def random_stack(rng, S, n, diagonal):
    """A stack of S lifted weight vectors, shape (S, lifted_dim), and its
    lifting mode: full, or reduced (a diagonal W) when ``diagonal``.  The
    linear terms range from 1e-12 to 1e2; with S > 1 the last surface has
    W = 0 and b = 0, so its gradient norm is GRADIENT_NORM_FLOOR."""
    mode = LiftingMode.REDUCED if diagonal else LiftingMode.FULL
    head = rng.standard_normal((S, lifted_dim(n, mode) - n - 1))
    b = rng.standard_normal((S, n)) * 10.0 ** rng.uniform(-12, 2, (S, 1))
    if S > 1:
        head[-1], b[-1] = 0.0, 0.0
    return np.hstack([head, b, rng.standard_normal((S, 1))]), mode


def random_rows(rng, rows, n, constant):
    """Raw rows and a scaler wider than them; with ``constant`` the last
    feature has span 0 and the rows take other values there too."""
    low, high = -3.0 - rng.random(n), 3.0 + rng.random(n)
    X = rng.uniform(low, high, (rows, n))
    if constant:
        low[-1] = high[-1] = 0.25
        X[::2, -1] = 0.25
    return NormalizationParams(minimum=low, maximum=high), X


@pytest.mark.parametrize("constant", [False, True], ids=["spans", "constant-feature"])
@pytest.mark.parametrize("diagonal", [False, True], ids=["dense", "diagonal"])
@pytest.mark.parametrize("rows", [1, 80, 904, PREDICT_BLOCK_ROWS])
@pytest.mark.parametrize("surfaces", [1, 121])
@pytest.mark.parametrize("n", [1, 2])
def test_low_dimensional_path_is_bitwise_the_row_major_form(n, surfaces, rows, diagonal,
                                                            constant):
    # At n <= 2 scaling and distances run a feature column at a time; every
    # sum over features has at most two terms, so the bits must be those of
    # the row-major formulas exactly.
    rng = np.random.default_rng([n, surfaces, rows, diagonal, constant])
    scaler, X = random_rows(rng, rows, n, constant)
    Xs = apply_scaler(scaler, X)
    assert Xs.flags.c_contiguous
    assert Xs.tobytes() == scaled_row_major(scaler, X).tobytes()
    w, mode = random_stack(rng, surfaces, n, diagonal)
    W, b, c = unpack_weights(w, n, mode)
    for stack in (W, dense(W)) if diagonal else (W,):
        distances = _distances(Xs, stack, b, c)
        assert distances.tobytes() == distances_row_major(Xs, stack, b, c).tobytes()
    if surfaces > 1:
        np.testing.assert_array_equal(distances[-1], abs(c[-1]) / GRADIENT_NORM_FLOOR)


@pytest.mark.parametrize("diagonal", [False, True], ids=["dense", "diagonal"])
@pytest.mark.parametrize("n", range(1, 13))
def test_predict_stack_labels_match_the_row_major_form(n, diagonal):
    rng = np.random.default_rng([n, diagonal, 1])
    scaler, X = random_rows(rng, 904, n, constant=False)
    (pos, mode), (neg, _) = (random_stack(rng, 121, n, diagonal) for _ in range(2))
    Xs = scaled_row_major(scaler, X)
    d_pos, d_neg = (distances_row_major(Xs, *unpack_weights(w, n, mode)) for w in (pos, neg))
    reference = np.where(d_pos <= d_neg, 1, -1)
    assert set(reference.ravel()) == {-1, 1}
    labels = label_stack(scaler, *(unpack_weights(w, n, mode) for w in (pos, neg)), X)
    np.testing.assert_array_equal(labels, reference)


def test_reduced_label_stack_forms_no_dense_w():
    # A reduced CV stack at n = 100 over the default flat grid: one dense
    # (605, 100, 100) W takes 48 MB, its diagonals 0.5 MB.
    rng = np.random.default_rng(9)
    n, lanes = 100, 605
    pos, neg = rng.standard_normal((2, lanes, lifted_dim(n, LiftingMode.REDUCED)))
    scaler, X = random_rows(rng, 10, n, constant=False)

    def label(pos, neg):
        return label_stack(scaler, *(unpack_weights(w, n, LiftingMode.REDUCED)
                                     for w in (pos, neg)), X)

    label(pos[:1], neg[:1])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        labels = label(pos, neg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert labels.shape == (lanes, 10)
    assert peak < 12e6, peak


def test_label_stack_names_the_first_row_whose_distance_overflows():
    # Every row scales to a finite value, but x'Wx overflows at 1e200 under
    # either pair and at 1e150 only under the second pair's W = 1e10 I.  Such
    # a row once came back labelled -1 from a NaN distance, with four
    # RuntimeWarnings.
    W, b, c = np.array([np.eye(2), 1e10 * np.eye(2)]), np.zeros((2, 2)), np.zeros(2)
    X = np.array([[0.1, 0.5], [1e150, 0.5], [1e200, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="row 1 .* finite distance"):
            label_stack(IDENTITY_SCALER, (W, b, c), (W, b, c - 1.0), X)
        first = (W[:1], b[:1], c[:1])
        with pytest.raises(InvalidInputError, match="row 2 "):
            label_stack(IDENTITY_SCALER, first, first, X)
        assert label_stack(IDENTITY_SCALER, first, first, X[:2]).tolist() == [[1, 1]]
        # Finite distances of 1e308 and 1e307 (a constant surface at the
        # gradient floor) whose sum overflows are labelled.
        W0, b0 = np.zeros((1, 2, 2)), np.zeros((1, 2))
        far = label_stack(IDENTITY_SCALER, (W0, b0, np.array([1e296])),
                          (W0, b0, np.array([1e295])), X[:2])
        assert far.tolist() == [[-1, -1]]


def test_nonfinite_row_in_a_later_block_is_named_by_its_index():
    B = PREDICT_BLOCK_ROWS
    rng = np.random.default_rng(7)
    m = random_model(2, LiftingMode.FULL, rng)
    X = rng.standard_normal((2 * B + 3, 2))
    X[B + 5, 1] = np.nan
    X[2 * B + 1, 0] = np.inf
    with pytest.raises(InvalidInputError, match=f"row {B + 5} "):
        predict_many(m, X)
    X[B + 5, 1] = 0.0
    with pytest.raises(InvalidInputError, match=f"row {2 * B + 1} "):
        predict_many(m, X)


def test_predict_many_peak_memory_is_a_few_blocks():
    # The whole 20k x 80 batch at once peaked 26 MB above its input; one
    # block's (rows, n) temporaries are 4096 * 80 * 8 bytes = 2.6 MB each,
    # and the blocked path peaks near 5.5 MB.
    rng = np.random.default_rng(8)
    m = random_model(80, LiftingMode.FULL, rng)
    X = rng.standard_normal((20_000, 80))
    predict_many(m, X[:10])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        predict_many(m, X)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_model_rejects_misshapen_or_nonfinite_weights():
    w = surface(np.zeros((2, 2)), np.zeros(2), 0.0)
    bad = w.copy()
    bad[3] = np.nan
    with pytest.raises(InvalidInputError, match="w_pos has non-finite entries"):
        make_model(bad, w)
    with pytest.raises(InvalidInputError, match=r"w_neg has shape \(5,\), expected \(6,\)"):
        make_model(w, w[1:])
    with pytest.raises(InvalidInputError, match=r"w_pos has shape \(1, 6\)"):
        make_model(w[None], w)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    A = rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2))
    m = make_model(surface(A + A.T, rng.standard_normal(2), 0.25),
                   surface(B + B.T, rng.standard_normal(2), -1.5))
    path = tmp_path / "model.json"
    save_model(m, path)
    m2 = load_model(path)
    assert m2.mode is m.mode and m2.n == m.n
    np.testing.assert_array_equal(m2.w_pos, m.w_pos)
    np.testing.assert_array_equal(m2.w_neg, m.w_neg)
    np.testing.assert_allclose(m2.scaler.minimum, m.scaler.minimum)
    X = rng.standard_normal((30, 2))
    np.testing.assert_array_equal(predict_many(m, X), predict_many(m2, X))


def test_save_load_roundtrip_reduced(tmp_path):
    rng = np.random.default_rng(3)
    m = TrainedModel(
        w_pos=surface(np.diag(rng.standard_normal(2)), rng.standard_normal(2), 0.1,
                      LiftingMode.REDUCED),
        w_neg=surface(np.diag(rng.standard_normal(2)), rng.standard_normal(2), 0.2,
                      LiftingMode.REDUCED),
        mode=LiftingMode.REDUCED, scaler=IDENTITY_SCALER,
    )
    path = tmp_path / "model.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    assert len(doc["surface_pos"]["w_head"]) == len(doc["surface_neg"]["w_head"]) == 2
    m2 = load_model(path)
    np.testing.assert_array_equal(m2.w_pos, m.w_pos)
    np.testing.assert_array_equal(m2.w_neg, m.w_neg)
    assert m2.mode is LiftingMode.REDUCED


def _valid_doc(tmp_path):
    m = make_model(surface(np.eye(2), np.zeros(2), 0.0), surface(np.eye(2), np.ones(2), 1.0))
    path = tmp_path / "model.json"
    save_model(m, path)
    return path, json.loads(path.read_text())


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MalformedModelFileError):
        load_model(path)


def test_load_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(MalformedModelFileError):
        load_model(path)


def test_load_rejects_missing_field(tmp_path):
    path, doc = _valid_doc(tmp_path)
    del doc["surface_neg"]
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedModelFileError):
        load_model(path)


def test_load_rejects_unknown_version(tmp_path):
    path, doc = _valid_doc(tmp_path)
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelVersionError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: unsupported model format version 99 (supported: 1)"


@pytest.mark.parametrize("section, key, value, field", [
    ("surface_pos", "c", "1.5", "surface_pos.c must be a number"),
    ("surface_neg", "c", True, "surface_neg.c must be a number"),
    ("surface_pos", "b", [True, False], "surface_pos.b must be a list of numbers"),
    ("surface_neg", "w_head", ["1", 0.0, 0.0], "surface_neg.w_head must be a list of numbers"),
    ("scaler", "min", ["-1", "-1"], "scaler.min must be a list of numbers"),
    ("scaler", "max", [True, 1.0], "scaler.max must be a list of numbers"),
])
def test_load_rejects_a_number_that_is_not_a_json_number(tmp_path, section, key, value, field):
    # Each once loaded: numpy reads "1.5" as 1.5 and true as 1.0.
    path, doc = _valid_doc(tmp_path)
    doc[section][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedModelFileError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: {field}, got {value!r}"


@pytest.mark.parametrize("key, text", [("n", "1e400"), ("n", "2.7"), ("n", '"2"'),
                                       ("format_version", "true"), ("format_version", "1.0")])
def test_load_rejects_a_field_that_is_not_an_integer(tmp_path, key, text):
    # Each once loaded (or, for 1e400, ended in an OverflowError).
    path, doc = _valid_doc(tmp_path)
    doc[key] = "@"
    path.write_text(json.dumps(doc).replace('"@"', text))
    with pytest.raises(MalformedModelFileError, match=f"'{key}' must be an integer"):
        load_model(path)


def test_load_rejects_dimension_mismatch(tmp_path):
    path, doc = _valid_doc(tmp_path)
    doc["surface_pos"]["b"] = [0.0, 0.0, 0.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelInconsistencyError):
        load_model(path)


def test_load_rejects_a_split_that_only_adds_up(tmp_path):
    # A head one entry short and a b one entry long still make a vector of
    # the right length; b must have n entries.
    path, doc = _valid_doc(tmp_path)
    neg = doc["surface_neg"]
    neg["w_head"], neg["b"] = neg["w_head"][:-1], neg["w_head"][-1:] + neg["b"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelInconsistencyError, match="surface_neg.b has 3 entries, expected n=2"):
        load_model(path)


def test_load_rejects_scaler_mismatch(tmp_path):
    path, doc = _valid_doc(tmp_path)
    doc["scaler"]["min"] = [0.0]
    doc["scaler"]["max"] = [1.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelInconsistencyError):
        load_model(path)
