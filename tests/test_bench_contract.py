"""What the benchmark harness under bench/ reads from the package.

bench/tracing.py computes its per-layer metrics from the calls of named
public functions and the fields of a fit's report; bench/workloads.py
checks a fit's final reweighting state and objective trace.  A name that
goes missing makes a traced run report its metrics as absent, and the run
still exits 0; these tests fail instead.
"""

from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_tracer_finds_every_function_its_metrics_need(tracing):
    import qtsvm.cli  # noqa: F401  (imports every layer the tracer wraps)

    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.metrics(1)[1] == []


def test_fit_report_keeps_the_final_weights_of_each_side():
    from qtsvm.data import Dataset, gen_example1
    from qtsvm.solver_cl1 import SolverConfig, fit

    d = gen_example1(7, seed=0)
    _, report = fit(Dataset(X_pos=d.X_pos, X_neg=d.X_neg[:5]), SolverConfig(c1=0.01, c2=0.01))
    assert report.pos.final_state.q.shape == (7,)
    assert report.pos.final_state.u.shape == (5,)
    assert report.neg.final_state.q.shape == (5,)
    assert report.neg.final_state.u.shape == (7,)
    assert np.isfinite(report.pos.final_state.q).all()
    # The descent check and the per-layer counts read these on both sides;
    # seven own samples against five other put one side on each branch.
    for sub in (report.pos, report.neg):
        assert isinstance(sub.objective_trace, np.ndarray)
        assert sub.objective_trace.dtype == float and sub.objective_trace.ndim == 1
        assert type(sub.iterations_used) is int and sub.iterations_used >= 1
        assert len(sub.objective_trace) == sub.iterations_used
        assert type(sub.converged) is bool
    assert {report.pos.branch_used, report.neg.branch_used} == {"smw", "direct"}


def test_tracer_sees_every_solve_of_a_fit(tracing):
    # The solve, weight and objective metrics come from wrappers on the step
    # functions that the IRLS loop calls by their module-level names.
    # fit is looked up after install, so that its own wrapper runs too.
    from qtsvm import solver_cl1
    from qtsvm.data import gen_example3

    tracer = tracing.Tracer()
    tracer.install()
    try:
        solver_cl1.fit(gen_example3(20, 0), solver_cl1.SolverConfig(c1=0.01, c2=0.01))
    finally:
        tracer.uninstall()
    metrics, _ = tracer.metrics(1)

    def value(name):
        return metrics[f"solver_cl1.{name}"]["value"]

    assert value("solve_calls") == value("irls_iters") > 0
    for name in ("gflop", "weights_s", "objective_s"):
        assert value(name) > 0, name


def test_tracer_counts_the_layers_of_one_cross_validation(tracing):
    # The grid_cv workload reads its CV and solve counts from one
    # cross_validate per cell, which hands its cell to sweep_results.
    from qtsvm import evaluation
    from qtsvm.data import gen_example1

    spec = evaluation.CvSpec(folds=3, repeats=1, seed=0, selection="flat",
                             grid=({"c1": 0.01, "c2": 0.01}, {"c1": 1.0, "c2": 0.01}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        evaluation.cross_validate(gen_example1(12, seed=0), evaluation.CL1Trainer(), spec)
    finally:
        tracer.uninstall()
    metrics, _ = tracer.metrics(1)
    assert metrics["evaluation.cv_calls"]["value"] == 1
    assert metrics["solver_cl1.solve_calls"]["value"] > 0
