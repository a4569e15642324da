"""Synthetic generators, normalization, label-noise injection, CSV loading."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsvm.data import (
    Dataset,
    NormalizationParams,
    apply_scaler,
    fit_scaler,
    gen_example1,
    gen_example2,
    gen_example3,
    inject_label_noise,
    load_csv,
    scale_dataset,
)
from qtsvm.errors import DataFormatError, InvalidInputError


def test_dataset_basic_properties():
    d = Dataset(X_pos=[[1.0, 2.0], [3.0, 4.0]], X_neg=[[0.0, 0.0]])
    assert (d.n, d.m_pos, d.m_neg, d.m) == (2, 2, 1, 3)
    X, y = d.stacked()
    assert X.shape == (3, 2)
    np.testing.assert_array_equal(y, [1, 1, -1])


def test_dataset_rejects_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        Dataset(X_pos=[[1.0, 2.0]], X_neg=[[1.0, 2.0, 3.0]])


def test_dataset_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        Dataset(X_pos=[[np.nan, 1.0]], X_neg=[[0.0, 0.0]])


@pytest.mark.parametrize("gen", [gen_example1, gen_example2, gen_example3])
def test_generators_shapes_and_determinism(gen):
    d1 = gen(50, seed=7)
    d2 = gen(50, seed=7)
    d3 = gen(50, seed=8)
    assert d1.m_pos == d1.m_neg == 50 and d1.n == 2
    np.testing.assert_array_equal(d1.X_pos, d2.X_pos)
    np.testing.assert_array_equal(d1.X_neg, d2.X_neg)
    assert not np.array_equal(d1.X_pos, d3.X_pos)


@pytest.mark.parametrize("gen", [gen_example1, gen_example2, gen_example3])
def test_generators_reject_empty(gen):
    with pytest.raises(InvalidInputError):
        gen(0, seed=0)


def test_example1_curve_and_noise_scale():
    d = gen_example1(20000, seed=0)
    resid = d.X_pos[:, 1] - (0.2222 * d.X_pos[:, 0] ** 2 + 0.5)
    assert abs(resid.mean()) < 0.01
    assert resid.std() == pytest.approx(0.1, rel=0.05)
    resid_n = d.X_neg[:, 1] - (-0.2222 * d.X_neg[:, 0] ** 2 + 1.5)
    assert resid_n.std() == pytest.approx(0.1, rel=0.05)
    assert d.X_pos[:, 0].min() >= -3.0 and d.X_pos[:, 0].max() <= 3.0


def test_example2_half_circles():
    d = gen_example2(20000, seed=1)
    # Class +1 on the upper half circle, class -1 on the lower.
    assert np.all(np.abs(d.X_pos[:, 0]) <= 3.0)
    assert d.X_pos[:, 1].min() > -1.5 and d.X_neg[:, 1].max() < 1.5
    radius = np.hypot(d.X_pos[:, 0], d.X_pos[:, 1])
    assert radius.mean() == pytest.approx(3.0, abs=0.05)
    resid = d.X_pos[:, 1] - np.sqrt(np.maximum(9.0 - d.X_pos[:, 0] ** 2, 0.0))
    assert resid.std() == pytest.approx(0.2, rel=0.1)


def test_example3_curves_and_supports():
    d = gen_example3(20000, seed=2)
    assert d.X_pos[:, 0].min() >= -3.0 and d.X_pos[:, 0].max() <= 1.0
    assert d.X_neg[:, 0].min() >= -1.0 and d.X_neg[:, 0].max() <= 3.0
    resid = d.X_pos[:, 1] - (0.75 * d.X_pos[:, 0] ** 2 + 1.5 * d.X_pos[:, 0] + 0.75)
    assert resid.std() == pytest.approx(0.1, rel=0.05)


def test_noise_std_override():
    quiet = gen_example1(5000, seed=3, noise_std=0.01)
    resid = quiet.X_pos[:, 1] - (0.2222 * quiet.X_pos[:, 0] ** 2 + 0.5)
    assert resid.std() == pytest.approx(0.01, rel=0.1)


def test_scaler_maps_to_unit_box():
    rng = np.random.default_rng(0)
    d = Dataset(X_pos=rng.uniform(-5, 9, (30, 3)), X_neg=rng.uniform(-5, 9, (20, 3)))
    params = fit_scaler(d)
    scaled = scale_dataset(d, params)
    X = np.vstack([scaled.X_pos, scaled.X_neg])
    assert X.min() >= -1.0 - 1e-12 and X.max() <= 1.0 + 1e-12
    np.testing.assert_allclose(X.min(axis=0), -1.0)
    np.testing.assert_allclose(X.max(axis=0), 1.0)


def test_scaler_constant_feature_maps_to_zero():
    d = Dataset(X_pos=[[2.0, 1.0], [2.0, 3.0]], X_neg=[[2.0, 5.0]])
    params = fit_scaler(d)
    scaled = scale_dataset(d, params)
    np.testing.assert_array_equal(scaled.X_pos[:, 0], 0.0)


def test_scaler_applies_to_unseen_points():
    params = fit_scaler(Dataset(X_pos=[[0.0], [10.0]], X_neg=[[5.0]]))
    np.testing.assert_allclose(apply_scaler(params, np.array([[20.0]])), [[3.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scaler_rejects_non_finite_bounds(bad):
    # A model file's null bound reads as NaN, which no min > max check sees.
    with pytest.raises(InvalidInputError, match="finite"):
        NormalizationParams(minimum=[0.0, bad], maximum=[1.0, 1.0])
    with pytest.raises(InvalidInputError, match="finite"):
        NormalizationParams(minimum=[0.0, 0.0], maximum=[1.0, bad])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 40))
def test_scaler_range_property(seed, m):
    rng = np.random.default_rng(seed)
    d = Dataset(X_pos=rng.normal(size=(m, 2)), X_neg=rng.normal(size=(m, 2)))
    scaled = scale_dataset(d, fit_scaler(d))
    X = np.vstack([scaled.X_pos, scaled.X_neg])
    assert X.min() >= -1.0 - 1e-9 and X.max() <= 1.0 + 1e-9


def _flip_count(original: Dataset, noisy: Dataset) -> int:
    """Samples whose class membership changed, by row identity."""
    orig_pos = {tuple(r) for r in original.X_pos}
    return sum(1 for r in noisy.X_neg if tuple(r) in orig_pos) + sum(
        1 for r in noisy.X_pos if tuple(r) not in orig_pos
    )


def test_label_noise_flip_count():
    d = gen_example1(100, seed=4)
    for ratio in (0.05, 0.1, 0.3):
        noisy = inject_label_noise(d, ratio, seed=11)
        assert noisy.m == d.m and noisy.n == d.n
        assert _flip_count(d, noisy) == int(ratio * d.m)


def test_label_noise_zero_ratio_is_copy():
    d = gen_example2(30, seed=5)
    noisy = inject_label_noise(d, 0.0, seed=11)
    np.testing.assert_array_equal(noisy.X_pos, d.X_pos)
    np.testing.assert_array_equal(noisy.X_neg, d.X_neg)
    assert noisy.X_pos is not d.X_pos


def test_label_noise_deterministic():
    d = gen_example3(60, seed=6)
    a = inject_label_noise(d, 0.2, seed=9)
    b = inject_label_noise(d, 0.2, seed=9)
    np.testing.assert_array_equal(a.X_pos, b.X_pos)
    c = inject_label_noise(d, 0.2, seed=10)
    assert not np.array_equal(a.X_pos, c.X_pos)


def test_label_noise_rejects_bad_ratio():
    d = gen_example1(10, seed=0)
    for ratio in (-0.1, 1.0, 1.5):
        with pytest.raises(InvalidInputError):
            inject_label_noise(d, ratio, seed=0)


def test_load_csv_plain(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,1\n3.0,4.0,-1\n5.0,6.0,1\n")
    d = load_csv(p)
    assert d.m_pos == 2 and d.m_neg == 1 and d.n == 2
    np.testing.assert_array_equal(d.X_neg, [[3.0, 4.0]])


def test_load_csv_with_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x1,x2,label\n1.0,2.0,1\n3.0,4.0,-1\n")
    d = load_csv(p)
    assert d.m_pos == 1 and d.m_neg == 1


def test_load_csv_label_column_by_name(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("cls,a,b\n1,1.0,2.0\n0,3.0,4.0\n")
    d = load_csv(p, label_column="cls", positive_label="1")
    assert d.m_pos == 1 and d.m_neg == 1
    np.testing.assert_array_equal(d.X_pos, [[1.0, 2.0]])


def test_load_csv_missing_named_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataFormatError):
        load_csv(p, label_column="label")


def test_load_csv_custom_positive_label(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,spam\n2.0,ham\n3.0,spam\n")
    d = load_csv(p, positive_label="spam")
    assert d.m_pos == 2 and d.m_neg == 1


def test_load_csv_rejects_third_label(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,1\n2.0,-1\n3.0,2\n")
    with pytest.raises(DataFormatError):
        load_csv(p)


def test_load_csv_rejects_ragged_rows(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,1\n3.0,-1\n")
    with pytest.raises(DataFormatError):
        load_csv(p)


def test_load_csv_rejects_non_numeric_feature(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,1\noops,4.0,-1\n")
    with pytest.raises(DataFormatError):
        load_csv(p)


def test_load_csv_rejects_missing_and_empty(tmp_path):
    with pytest.raises(DataFormatError):
        load_csv(tmp_path / "nope.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataFormatError):
        load_csv(empty)
