"""Metrics, cross-validation machinery, robustness sweeps, Nemenyi test."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qtsvm
from qtsvm.data import gen_example1, gen_example3
from qtsvm.errors import InvalidInputError
from qtsvm.lifting import LiftingMode
from qtsvm.evaluation import (
    CL1Trainer,
    ConfusionCounts,
    CvSpec,
    LSQTrainer,
    _stratified_folds,
    accuracy,
    counts_from_predictions,
    counts_stack,
    cross_validate,
    default_grid,
    f1,
    mean_ranks,
    nemenyi_cd,
    nemenyi_test,
    robustness_sweep,
    sweep_results,
)

FAST_GRID = ({"c1": 0.01, "c2": 0.01}, {"c1": 1.0, "c2": 0.01})
LSQ_GRID = ({"C": 0.001}, {"C": 0.01})


def test_counts_from_predictions():
    y = np.array([1, 1, -1, -1, 1])
    p = np.array([1, -1, -1, 1, 1])
    c = counts_from_predictions(y, p)
    assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 1, 1)
    assert c.total == 5


def test_counts_stack_matches_row_by_row():
    rng = np.random.default_rng(0)
    for G, rows in ((1, 1), (3, 17), (121, 80)):
        y = rng.choice([-1.0, 1.0], rows)
        labels = rng.choice([-1, 1], (G, rows))
        expected = []
        for row in labels:
            pairs = list(zip(y.tolist(), row.tolist()))
            expected.append(ConfusionCounts(*(pairs.count(pair) for pair in
                                              ((1, 1), (-1, -1), (-1, 1), (1, -1)))))
        assert counts_stack(y, labels) == expected


def test_accuracy_and_f1():
    c = ConfusionCounts(tp=8, tn=5, fp=2, fn=1)
    assert accuracy(c) == pytest.approx(13 / 16)
    assert f1(c) == pytest.approx(16 / 19)


def test_f1_nan_when_no_positives():
    c = ConfusionCounts(tp=0, tn=7, fp=0, fn=0)
    assert math.isnan(f1(c))


def test_metrics_reject_empty():
    c = ConfusionCounts(tp=0, tn=0, fp=0, fn=0)
    with pytest.raises(InvalidInputError):
        accuracy(c)
    with pytest.raises(InvalidInputError):
        f1(c)


def test_default_grid_sizes():
    assert len(default_grid("cl1qtsvm")) == 121
    assert len(default_grid("lsqtsvm")) == 11
    powers = {p["C"] for p in default_grid("lsqtsvm")}
    assert min(powers) == pytest.approx(1e-5)
    assert max(powers) == pytest.approx(1e5)
    with pytest.raises(InvalidInputError):
        default_grid("svm")


def test_cvspec_validation():
    with pytest.raises(InvalidInputError):
        CvSpec(folds=1, grid=FAST_GRID)
    with pytest.raises(InvalidInputError):
        CvSpec(grid=())
    with pytest.raises(InvalidInputError):
        CvSpec(grid=FAST_GRID, selection="greedy")
    with pytest.raises(InvalidInputError):
        CvSpec(grid=FAST_GRID, normalize="zscore")


def test_stratified_folds_balanced_and_deterministic():
    assign = _stratified_folds(50, 40, 5, [0, 1])
    assert assign.shape == (90,)
    for fold in range(5):
        assert np.sum(assign[:50] == fold) == 10
        assert np.sum(assign[50:] == fold) == 8
    again = _stratified_folds(50, 40, 5, [0, 1])
    np.testing.assert_array_equal(assign, again)
    other = _stratified_folds(50, 40, 5, [0, 2])
    assert not np.array_equal(assign, other)


def test_cross_validate_deterministic_and_accurate():
    d = gen_example1(60, seed=0)
    spec = CvSpec(folds=3, repeats=1, seed=0, grid=FAST_GRID, selection="flat")
    r1 = cross_validate(d, CL1Trainer(), spec)
    r2 = cross_validate(d, CL1Trainer(), spec)
    assert r1.acc_mean == r2.acc_mean
    assert r1.acc_mean > 0.9
    assert len(r1.folds) == 3
    assert r1.best_params in [dict(p) for p in FAST_GRID]
    assert 0.0 <= r1.acc_std <= 0.5


def test_cross_validate_nested_selection():
    d = gen_example1(60, seed=1)
    spec = CvSpec(folds=3, repeats=1, seed=0, grid=FAST_GRID,
                  selection="nested", inner_folds=3)
    r = cross_validate(d, CL1Trainer(), spec)
    assert r.acc_mean > 0.8
    assert all(rec.params in [dict(p) for p in FAST_GRID] for rec in r.folds)


def test_cross_validate_lsq_trainer():
    d = gen_example3(60, seed=2)
    spec = CvSpec(folds=3, repeats=1, seed=0, grid=LSQ_GRID, selection="flat")
    r = cross_validate(d, LSQTrainer(), spec)
    assert r.acc_mean > 0.9


def test_cross_validate_repeats_add_folds():
    d = gen_example1(30, seed=3)
    spec = CvSpec(folds=3, repeats=2, seed=0, grid=FAST_GRID, selection="flat")
    r = cross_validate(d, CL1Trainer(), spec)
    assert len(r.folds) == 6
    assert {rec.repeat for rec in r.folds} == {0, 1}


def test_cross_validate_per_fold_normalization():
    d = gen_example1(30, seed=4)
    spec = CvSpec(folds=3, repeats=1, seed=0, grid=FAST_GRID, selection="flat",
                  normalize="per-fold")
    r = cross_validate(d, CL1Trainer(), spec)
    assert r.acc_mean > 0.8


def test_cross_validate_rejects_tiny_dataset():
    d = gen_example1(3, seed=5)
    with pytest.raises(InvalidInputError):
        cross_validate(d, CL1Trainer(), CvSpec(folds=5, grid=FAST_GRID))


# Nested selection whose per-fold choices tie 2-2 between C = 1e-5 and
# C = 0.01.
TIED_CV = """
import json
from collections import Counter
from qtsvm.data import gen_example3, inject_label_noise
from qtsvm.evaluation import CvSpec, LSQTrainer, cross_validate, default_grid
d = inject_label_noise(gen_example3(30, 3), 0.1, seed=4)
r = cross_validate(d, LSQTrainer(), CvSpec(folds=4, repeats=1, seed=3,
                                           grid=tuple(default_grid("lsqtsvm"))))
chosen = Counter(json.dumps(rec.params) for rec in r.folds).most_common()
print(json.dumps([r.best_params, chosen]))
"""


def test_best_params_tie_independent_of_hash_seed():
    src = str(Path(qtsvm.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("0", "2"):
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", TIED_CV], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outs.append(json.loads(proc.stdout))
    (best_a, chosen), (best_b, _) = outs
    assert len(chosen) >= 2 and chosen[0][1] == chosen[1][1]  # a real tie
    # Counter lists ties in first-seen order: the first in record order wins.
    assert best_a == best_b == json.loads(chosen[0][0])


def test_trainers_evaluate_grid_point_by_point():
    # A grid evaluated at once gives each point's counts as alone.
    train, test = gen_example1(30, seed=7), gen_example1(30, seed=8)
    for trainer, grid in ((CL1Trainer(), FAST_GRID), (LSQTrainer(), LSQ_GRID)):
        together = trainer.evaluate(train, test, grid, LiftingMode.FULL, None)
        alone = [trainer.evaluate(train, test, (p,), LiftingMode.FULL, None)[0]
                 for p in grid]
        assert together == alone


def test_robustness_sweep_layout():
    datasets = {"a": gen_example1(30, seed=6)}
    spec = CvSpec(folds=3, repeats=1, seed=0, grid=FAST_GRID, selection="flat")
    rows = robustness_sweep(datasets, [CL1Trainer(), LSQTrainer()], [0.0, 0.1],
                            spec, grids={"lsqtsvm": LSQ_GRID})
    # 1 dataset x 2 ratios x 2 methods x 3 folds.
    assert len(rows) == 12
    assert {r["method"] for r in rows} == {"cl1qtsvm", "lsqtsvm"}
    assert {r["noise_ratio"] for r in rows} == {0.0, 0.1}
    for r in rows:
        assert 0.0 <= r["acc"] <= 1.0
        assert r["seconds"] >= 0.0


def test_sweep_caps_processes_at_cell_count(monkeypatch):
    # A stand-in pool that records its size and runs in this process, so a
    # large jobs value starts nothing.
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    datasets = {"b": gen_example1(12, seed=6), "a": gen_example1(12, seed=7)}
    spec = CvSpec(folds=3, repeats=1, seed=0, grid=FAST_GRID, selection="flat")
    serial = sweep_results(datasets, [CL1Trainer(), LSQTrainer()], [0.0, 0.1], spec,
                           grids={"lsqtsvm": LSQ_GRID})
    pooled = sweep_results(datasets, [CL1Trainer(), LSQTrainer()], [0.0, 0.1], spec,
                           grids={"lsqtsvm": LSQ_GRID}, jobs=1000)
    assert sizes == [8]
    keys = [key for key, _ in serial]
    assert keys == [(ds, ratio, method) for ds in "ab" for ratio in (0.0, 0.1)
                    for method in ("cl1qtsvm", "lsqtsvm")]
    assert keys == [key for key, _ in pooled]
    for (_, a), (_, b) in zip(serial, pooled):
        assert (a.acc_mean, a.f1_mean, a.best_params) == (b.acc_mean, b.f1_mean, b.best_params)


def test_nemenyi_cd_reference_value():
    # k=8 methods, N=16 datasets, critical value 3.0310.
    assert nemenyi_cd(8, 16, q_alpha=3.0310) == pytest.approx(2.6249, abs=1e-3)


def test_nemenyi_cd_tabulated_default():
    assert nemenyi_cd(2, 10) == pytest.approx(1.959964 * np.sqrt(6 / 60.0))
    with pytest.raises(InvalidInputError):
        nemenyi_cd(11, 10)
    with pytest.raises(InvalidInputError):
        nemenyi_cd(1, 10)
    with pytest.raises(InvalidInputError):
        nemenyi_cd(3, 0)


def test_mean_ranks():
    scores = np.array([[0.9, 0.8, 0.7],
                       [0.6, 0.8, 0.7]])
    # Row 1 ranks: 1, 2, 3; row 2: 3, 1, 2.
    np.testing.assert_allclose(mean_ranks(scores), [2.0, 1.5, 2.5])


def test_mean_ranks_ties_get_midranks():
    np.testing.assert_allclose(mean_ranks(np.array([[0.5, 0.5, 0.1]])),
                               [1.5, 1.5, 3.0])


def test_nemenyi_test_significance():
    # One method dominates everywhere over many datasets: significant.
    scores = np.tile([0.95, 0.70, 0.69], (20, 1))
    ranks, cd, sig = nemenyi_test(scores)
    assert ranks[0] == 1.0
    assert sig[0, 2] and sig[2, 0]
    assert not sig[0, 0]
    # Two datasets only: nothing can clear the critical difference.
    _, _, sig_small = nemenyi_test(scores[:2])
    assert not sig_small.any()
