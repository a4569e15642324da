"""Acceptance suite: the eight release criteria.

Each test prints exactly one [PASS]/[FAIL] line (run with -s or check the
assertion message).  The accuracy-reproduction protocol is: per seed in
0..4, 5-fold stratified CV over the full 10^{-5..5} hyperparameter grid
with flat selection on 200 samples per class; cell score is the mean over
seeds, in percent.
"""

import json
import time

import numpy as np
import pytest

from qtsvm.cli import main as cli_main
from qtsvm.data import (
    GENERATORS,
    fit_scaler,
    inject_label_noise,
    scale_dataset,
)
from qtsvm.evaluation import (
    CL1Trainer,
    CvSpec,
    LSQTrainer,
    cross_validate,
    default_grid,
    nemenyi_cd,
)
from qtsvm.lifting import LiftingMode, lift_matrix, lifted_dim, unpack_weights
from qtsvm.solver_cl1 import ReweightState, SolverConfig, fit

from oracles import solve_one, stationarity_residual_plus


def report(criterion: str, passed: bool, detail: str):
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert passed, line


# --- Criterion 1: operator contraction identities --------------------------


def test_criterion_1_operator_identities():
    # The lifted sample dotted with a weight vector w is the surface that
    # unpack_weights reads from w: lift_matrix(x) @ w = 1/2 x'Wx + b'x + c.
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for mode in LiftingMode:
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            w = rng.standard_normal(lifted_dim(n, mode))
            x = rng.standard_normal(n)
            W, b, c = unpack_weights(w, n, mode)
            Wx = W @ x if mode is LiftingMode.FULL else W * x
            value = 0.5 * x @ Wx + b @ x + c
            worst = max(worst, abs(lift_matrix(x, mode)[0] @ w - value) / (1 + abs(value)))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (operator identities)",
        worst <= 1e-12 and elapsed < 1.0,
        f"1000 full+reduced pairs each, worst rel err {worst:.2e} (<=1e-12), "
        f"{elapsed:.2f}s (<1s)",
    )


# --- Criterion 2: one-step solver oracle and branch equivalence ------------


def test_criterion_2_solver_oracle_equivalence():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst_oracle = worst_branch = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        Zp = lift_matrix(rng.standard_normal((int(rng.integers(3, 9)), n))).T
        Zm = lift_matrix(rng.standard_normal((int(rng.integers(3, 9)), n))).T
        c1 = 10.0 ** rng.integers(-2, 3)
        c2 = 10.0 ** rng.integers(-2, 3)
        q = rng.uniform(0.1, 10.0, Zp.shape[1])
        u = rng.uniform(0.1, 10.0, Zm.shape[1])
        state = ReweightState(q=q, u=u)
        # Independent dense solve of the weighted normal equations.
        B = Zp @ np.diag(q) @ Zp.T + c2 * Zm @ np.diag(u) @ Zm.T
        B += c1 * np.eye(Zp.shape[0])
        ref = np.linalg.solve(B, -c2 * Zm @ u)
        w_direct = solve_one(Zp, Zm, state,
                             SolverConfig(c1=c1, c2=c2, branch="direct"))
        w_smw = solve_one(Zp, Zm, state,
                          SolverConfig(c1=c1, c2=c2, branch="smw"))
        scale = 1 + np.linalg.norm(ref)
        worst_oracle = max(worst_oracle, np.linalg.norm(w_direct - ref) / scale)
        worst_branch = max(worst_branch, np.linalg.norm(w_smw - w_direct) / scale)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 2 (solver oracle equivalence)",
        worst_oracle <= 1e-8 and worst_branch <= 1e-8 and elapsed < 5.0,
        f"50 instances: oracle rel err {worst_oracle:.2e}, "
        f"branch rel diff {worst_branch:.2e} (<=1e-8), {elapsed:.2f}s (<5s)",
    )


# --- Criterion 3: monotone descent and convergence on Examples 1-3 ---------


def test_criterion_3_monotone_descent():
    worst_increase = -np.inf
    all_converged = True
    max_iters = 0
    for example in (1, 2, 3):
        d = GENERATORS[example](200, seed=0)
        _, rep = fit(d, SolverConfig(c1=0.01, c2=0.01))
        for sub in (rep.pos, rep.neg):
            trace = sub.objective_trace
            if trace.size > 1:
                rel = np.max(np.diff(trace) / (1.0 + np.abs(trace[:-1])))
                worst_increase = max(worst_increase, rel)
            all_converged = all_converged and sub.converged
            max_iters = max(max_iters, sub.iterations_used)
    report(
        "criterion 3 (monotone descent)",
        worst_increase <= 1e-9 and all_converged and max_iters <= 30,
        f"examples 1-3: worst rel objective increase {worst_increase:.2e} "
        f"(<=1e-9), converged within {max_iters} iterations (<=30)",
    )


# --- Criterion 4: fixed-point stationarity ---------------------------------


def test_criterion_4_stationarity():
    cases = []
    for example, ratio in ((1, 0.0), (1, 0.1), (3, 0.1)):
        for seed in range(3):
            d = GENERATORS[example](200, seed=seed)
            if ratio:
                d = inject_label_noise(d, ratio, seed=seed)
            cases.append(d)
    worst = 0.0
    checked = 0
    for d in cases:
        scaled = scale_dataset(d, fit_scaler(d))
        Zp = lift_matrix(scaled.X_pos).T
        Zm = lift_matrix(scaled.X_neg).T
        for c2 in (1e-4, 1e-2):
            for c1 in (1e-4, 1e-2, 1.0, 1e2, 1e4):
                cfg = SolverConfig(c1=c1, c2=c2)
                model, rep = fit(d, cfg)
                if not rep.converged:
                    continue
                wp, wm = model.w_pos, model.w_neg
                rp = stationarity_residual_plus(wp, Zp, Zm, rep.pos.final_state, cfg)
                # The negative surface is the positive one at -w, classes swapped.
                rm = stationarity_residual_plus(-wm, Zm, Zp, rep.neg.final_state, cfg)
                worst = max(worst,
                            rp / (1.0 + np.linalg.norm(wp)),
                            rm / (1.0 + np.linalg.norm(wm)))
                checked += 1
    report(
        "criterion 4 (fixed-point stationarity)",
        checked >= 50 and worst <= 1e-5,
        f"{checked} converged fits over the (c1, c2) battery: worst scaled "
        f"residual {worst:.2e} (<=1e-5)",
    )


# --- Criteria 5 & 6: synthetic accuracy reproduction and robustness gap ----

ACCURACY_TARGETS = [
    ("example 1 clean", 1, 0.0, "cl1qtsvm", 94.03),
    ("example 1 @10% noise", 1, 0.1, "cl1qtsvm", 82.75),
    ("example 2 clean", 2, 0.0, "cl1qtsvm", 98.17),
    ("example 3 clean", 3, 0.0, "cl1qtsvm", 98.83),
    ("example 3 @10% noise", 3, 0.1, "cl1qtsvm", 88.00),
    ("example 3 clean", 3, 0.0, "lsqtsvm", 98.95),
    ("example 1 @10% noise", 1, 0.1, "lsqtsvm", 64.20),
    ("example 3 @10% noise", 3, 0.1, "lsqtsvm", None),  # gap cell only
]


@pytest.fixture(scope="module")
def synthetic_results():
    t0 = time.perf_counter()
    results = {}
    for _, example, ratio, method, _ in ACCURACY_TARGETS:
        trainer = CL1Trainer() if method == "cl1qtsvm" else LSQTrainer()
        grid = tuple(default_grid(method))
        accs = []
        for seed in range(5):
            d = GENERATORS[example](200, seed=seed)
            if ratio:
                d = inject_label_noise(d, ratio, seed=seed)
            spec = CvSpec(folds=5, repeats=1, seed=seed, grid=grid,
                          selection="flat")
            accs.append(cross_validate(d, trainer, spec).acc_mean)
        results[(example, ratio, method)] = 100.0 * float(np.mean(accs))
    results["elapsed"] = time.perf_counter() - t0
    return results


def test_criterion_5_accuracy_reproduction(synthetic_results):
    lines = []
    ok = True
    for label, example, ratio, method, target in ACCURACY_TARGETS:
        if target is None:
            continue
        got = synthetic_results[(example, ratio, method)]
        ok = ok and abs(got - target) <= 3.0
        lines.append(f"{method} {label} {got:.2f} (target {target}±3)")
    elapsed = synthetic_results["elapsed"]
    ok = ok and elapsed <= 600.0
    report(
        "criterion 5 (accuracy reproduction)",
        ok,
        "; ".join(lines) + f"; total {elapsed:.0f}s (<=600s)",
    )


def test_criterion_6_robustness_gap(synthetic_results):
    gap1 = (synthetic_results[(1, 0.1, "cl1qtsvm")]
            - synthetic_results[(1, 0.1, "lsqtsvm")])
    gap3 = (synthetic_results[(3, 0.1, "cl1qtsvm")]
            - synthetic_results[(3, 0.1, "lsqtsvm")])
    report(
        "criterion 6 (robustness ordering)",
        gap1 >= 8.0 and gap3 >= 8.0,
        f"capped-L1 minus least-squares accuracy at 10% label noise: "
        f"example 1 gap {gap1:.2f}, example 3 gap {gap3:.2f} (>=8)",
    )


# --- Criterion 7: Nemenyi critical difference ------------------------------


def test_criterion_7_nemenyi_cd():
    cd = nemenyi_cd(8, 16, q_alpha=3.0310)
    report(
        "criterion 7 (Nemenyi critical difference)",
        abs(cd - 2.6249) <= 1e-3,
        f"k=8, N=16, q=3.0310 -> CD {cd:.4f} (2.6249±1e-3)",
    )


# --- Criterion 8: byte-identical replay ------------------------------------


def test_criterion_8_replay_determinism(tmp_path):
    data = tmp_path / "d.csv"
    assert cli_main(["generate", "--example", "3", "--m", "40", "--seed", "3",
                     "--out", str(data)]) == 0
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "seed": 3, "folds": 3, "repeats": 1, "selection": "flat",
        "methods": ["cl1qtsvm", "lsqtsvm"],
        "datasets": [{"name": "curves", "example": 3, "m_per_class": 40}],
        "noise_ratios": [0.0, 0.1],
        "grid": {
            "cl1qtsvm": [{"c1": 0.01, "c2": 0.01}, {"c1": 1.0, "c2": 0.01}],
            "lsqtsvm": [{"C": 0.001}, {"C": 0.01}],
        },
    }))
    out = tmp_path / "results.csv"
    assert cli_main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0

    artifacts = [data, out, tmp_path / "results.csv.summary.csv"]
    before = {p: p.read_bytes() for p in artifacts}
    data.unlink()
    assert cli_main(["replay", str(tmp_path / "d.csv.manifest.json")]) == 0
    assert cli_main(["replay", str(tmp_path / "results.csv.manifest.json")]) == 0
    identical = all(p.read_bytes() == blob for p, blob in before.items())
    report(
        "criterion 8 (replay determinism)",
        identical,
        f"{len(artifacts)} artifacts byte-identical after manifest replay",
    )
