"""Self-tests of the benchmark's own checkers and tracer.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import math

import numpy as np
import pytest

import checks


def _surface(w_head, b, c):
    return {"w_head": w_head, "b": b, "c": c}


@pytest.fixture
def parabola_and_line(tmp_path):
    """Positive surface x1^2 - x2 = 0 (W = diag(2, 0) packed row-major as
    [W11, W12, W22]), negative surface x2 + 1 = 0; identity scaling."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "format_version": 1, "mode": "full", "n": 2,
        "scaler": {"min": [-1.0, -1.0], "max": [1.0, 1.0]},
        "surface_pos": _surface([2.0, 0.0, 0.0], [0.0, -1.0], 0.0),
        "surface_neg": _surface([0.0, 0.0, 0.0], [0.0, 1.0], 1.0),
    }))
    return checks.read_model(path)


def test_surface_evaluator_reproduces_hand_labels(parabola_and_line):
    X = np.array([[0.0, 0.0], [0.0, -1.0], [1.0, 0.9], [0.5, -0.8]])
    # (1, 0.9): 0.1/sqrt(5) to the parabola, 1.9 to the line.
    # (0.5, -0.8): 1.05/sqrt(2) to the parabola, 0.2 to the line.
    hand = np.array([1, -1, 1, -1])
    d = checks.surface_distances(parabola_and_line, X)
    assert d[2, 0] == pytest.approx(0.1 / math.sqrt(5))
    assert d[3, 0] == pytest.approx(1.05 / math.sqrt(2))
    assert checks.label_mismatches(parabola_and_line, X, hand) == 0
    assert checks.label_mismatches(parabola_and_line, X, -hand) == 4


def test_reduced_model_and_scaling(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "format_version": 1, "mode": "reduced", "n": 2,
        "scaler": {"min": [0.0, 5.0], "max": [2.0, 5.0]},
        "surface_pos": _surface([2.0, 4.0], [1.0, 1.0], 0.5),
        "surface_neg": _surface([0.0, 0.0], [1.0, 0.0], -1.0),
    }))
    m = checks.read_model(path)
    np.testing.assert_array_equal(m["pos"]["W"], np.diag([2.0, 4.0]))
    # x1 = 2 maps to 1; the constant feature maps to 0.
    np.testing.assert_array_equal(checks.scale(m, np.array([[2.0, 5.0]])), [[1.0, 0.0]])


def test_lift_contracts_with_packed_weights():
    rng = np.random.default_rng(0)
    n = 4
    A = rng.standard_normal((n, n))
    W = A + A.T
    b, c = rng.standard_normal(n), 0.3
    w = np.concatenate([W[np.triu_indices(n)], b, [c]])
    X = rng.standard_normal((5, n))
    want = 0.5 * np.einsum("ij,jk,ik->i", X, W, X) + X @ b + c
    np.testing.assert_allclose(w @ checks.lift(X, full=True), want, rtol=1e-12)


def test_descent_check_flags_a_rise():
    assert not checks.descends([3.0, 2.0, 2.5])
    assert not checks.descends([1.0, 1.0 + 1e-6])
    assert checks.descends([3.0, 2.0, 2.0 + 1e-12])
    assert checks.descends([1.0])


def test_normal_equation_backward_error():
    rng = np.random.default_rng(1)
    Zo, Zt = rng.standard_normal((6, 20)), rng.standard_normal((6, 15))
    q, u = rng.uniform(0.1, 10, 20), rng.uniform(0.1, 10, 15)
    B = Zo @ np.diag(q) @ Zo.T + 0.01 * np.eye(6) + 0.5 * Zt @ np.diag(u) @ Zt.T
    w = np.linalg.solve(B, -0.5 * Zt @ u)
    assert checks.normal_eq_backward_error(w, Zo, Zt, q, u, 0.01, 0.5, -1.0) < 1e-14
    assert checks.normal_eq_backward_error(1.01 * w, Zo, Zt, q, u, 0.01, 0.5, -1.0) > 1e-4


def test_statistical_checks():
    assert checks.stratified_fold_sizes(203, 197, 5) == [81, 81, 80, 79, 79]
    assert sum(checks.stratified_fold_sizes(7, 9, 5)) == 16
    # Example 1 at data seeds 20-24: the mean misses 82.75 +- 3 but the
    # paper's figure is inside the sampling error of five seeds.
    ok, mean, _ = checks.accuracy_band_ok([74.0, 80.0, 85.5, 78.2, 77.5], 82.75)
    assert ok and mean < 79.75
    assert not checks.accuracy_band_ok([60.1, 59.3, 61.0, 58.8, 60.4], 82.75)[0]
    assert checks.gap_ok([89.2, 89.0, 89.4, 89.1, 89.3], [80.0, 81.5, 79.0, 82.0, 80.5])[0]
    assert not checks.gap_ok([80.0, 81.0, 79.5, 80.2, 80.1], [79.9, 80.8, 79.7, 80.0, 80.3])[0]


def test_nemenyi_cd():
    assert checks.nemenyi_cd(8, 16, 3.0310) == pytest.approx(2.6249, abs=1e-4)
    assert checks.q_alpha_two_methods() == pytest.approx(1.959964, abs=1e-6)


def test_tracer_wraps_every_binding_and_restores():
    import qtsvm.cli
    import qtsvm.data
    import qtsvm.evaluation
    import qtsvm.solver_cl1
    from tracing import Tracer

    fit, gen3 = qtsvm.solver_cl1.fit, qtsvm.data.GENERATORS[3]
    tracer = Tracer()
    tracer.install()
    try:
        assert qtsvm.evaluation.fit is qtsvm.solver_cl1.fit is qtsvm.cli.fit
        assert qtsvm.solver_cl1.fit.__wrapped__ is fit
        assert qtsvm.data.GENERATORS[3].__wrapped__ is gen3
        d = qtsvm.data.GENERATORS[3](20, 0)
        qtsvm.solver_cl1.fit(d, qtsvm.solver_cl1.SolverConfig(c1=0.01, c2=0.01))
    finally:
        tracer.uninstall()
    assert qtsvm.evaluation.fit is fit and qtsvm.data.GENERATORS[3] is gen3
    metrics, absent = tracer.metrics(rounds=1)
    assert metrics["solver_cl1.solve_calls"]["value"] == metrics["solver_cl1.irls_iters"]["value"] > 0
    assert metrics["lifting.rows"]["value"] == 40
    assert metrics["solver_cl1.direct_subproblems"]["value"] == 2
    assert metrics["solver_cl1.gflop"]["value"] > 0
    assert absent == []


def test_tracer_reports_missing_functions_as_absent(monkeypatch):
    import qtsvm.solver_lsq
    from tracing import Tracer

    monkeypatch.delattr(qtsvm.solver_lsq, "fit_lsq")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, absent = tracer.metrics(rounds=1)
    assert "solver_lsq.fits" in absent and "solver_lsq.fits" not in metrics
    assert "solver_cl1.solve_calls" in metrics
