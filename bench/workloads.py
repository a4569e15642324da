"""The benchmark's workloads, run in one process against qtsvm.

run.py starts this file in a fresh interpreter with the BLAS thread count
pinned.  It builds the workload's inputs from --seed, warms up, then runs
whole rounds of the workload until --seconds of round time have passed,
checks every round's outputs, and prints one JSON object as its last line.
With --trace 1 it alternates untraced and traced rounds, so the tracing
overhead is measured on the same inputs in the same process.
With --setup-only it stops after the warm-up (run.py times that).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import qtsvm
import qtsvm.cli
import qtsvm.data
import qtsvm.evaluation
import qtsvm.model
import qtsvm.solver_cl1
import qtsvm.solver_lsq
from qtsvm.lifting import LiftingMode
from tracing import Tracer


@dataclass
class Round:
    fits: int = 0
    fit_s: float = 0.0
    rows: int = 0
    predict_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    extra: dict = field(default_factory=dict)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


# --- grid_cv ----------------------------------------------------------------


class GridCV:
    """Criterion-5/6 noisy cells: flat 5-fold CV over the full cl1qtsvm and
    lsqtsvm grids on examples 1 and 3 at 10% label noise, 200 samples per
    class, five data seeds; then the chosen point of each method is fitted
    once and predicts a held-out batch."""

    EXAMPLES = ((1, 82.75), (3, 88.00))
    M_PER_CLASS = 200
    NOISE = 0.1
    FOLDS = 5
    HELD_OUT_PER_CLASS = 50_000

    def __init__(self, seed, out_dir):
        ev = qtsvm.evaluation
        self.data_seeds = [5 * seed + i for i in range(5)]
        self.cl1_grid = tuple(ev.default_grid("cl1qtsvm"))
        self.lsq_grid = tuple(ev.default_grid("lsqtsvm"))
        self.cells = []
        for example, _ in self.EXAMPLES:
            gen = qtsvm.data.GENERATORS[example]
            for ds in self.data_seeds:
                d = qtsvm.data.inject_label_noise(gen(self.M_PER_CLASS, ds), self.NOISE, ds)
                self.cells.append((example, ds, d))
        self.held_out = {
            example: qtsvm.data.GENERATORS[example](self.HELD_OUT_PER_CLASS, 10**6 + seed)
            .stacked()[0]
            for example, _ in self.EXAMPLES
        }

    def warm_up(self):
        ev = qtsvm.evaluation
        _, _, d = self.cells[0]
        spec = ev.CvSpec(folds=self.FOLDS, repeats=1, seed=0, grid=self.cl1_grid[:1],
                         selection="flat")
        ev.cross_validate(d, ev.CL1Trainer(), spec)
        model = qtsvm.solver_lsq.fit_lsq(d, C=1.0)
        qtsvm.model.predict_many(model, self.held_out[1][:1000])

    def run_round(self) -> Round:
        ev = qtsvm.evaluation
        r = Round()
        results = []
        for example, ds, d in self.cells:
            t0 = time.perf_counter()
            cl1 = ev.cross_validate(d, ev.CL1Trainer(), ev.CvSpec(
                folds=self.FOLDS, repeats=1, seed=ds, grid=self.cl1_grid, selection="flat"))
            lsq = ev.cross_validate(d, ev.LSQTrainer(), ev.CvSpec(
                folds=self.FOLDS, repeats=1, seed=ds, grid=self.lsq_grid, selection="flat"))
            cfg = qtsvm.solver_cl1.SolverConfig(**cl1.best_params)
            model_cl1, _ = qtsvm.solver_cl1.fit(d, cfg)
            model_lsq = qtsvm.solver_lsq.fit_lsq(d, C=lsq.best_params["C"])
            r.fit_s += time.perf_counter() - t0
            r.fits += self.FOLDS * (len(self.cl1_grid) + len(self.lsq_grid)) + 2
            X = self.held_out[example]
            for model in (model_cl1, model_lsq):
                labels, dt = _timed(qtsvm.model.predict_many, model, X)
                r.predict_s += dt
                r.rows += X.shape[0]
                r.attempted += 1
                if labels.shape != (X.shape[0],) or not np.isin(labels, (-1, 1)).all():
                    r.extra.setdefault("bad_labels", []).append((example, ds))
            results.append((example, ds, d, cl1, lsq))
        r.attempted += r.fits
        r.extra["results"] = results
        return r

    def check(self, r: Round) -> list[str]:
        problems = [f"predict_many returned labels outside {{-1, 1}} on cell {c}"
                    for c in r.extra.get("bad_labels", [])]
        r.failed += len(problems)
        acc = {}
        for example, ds, d, cl1, lsq in r.extra["results"]:
            sizes = checks.stratified_fold_sizes(d.m_pos, d.m_neg, self.FOLDS)
            for name, res, grid in (("cl1qtsvm", cl1, self.cl1_grid),
                                    ("lsqtsvm", lsq, self.lsq_grid)):
                found = len(problems)
                folds = sorted(rec.fold for rec in res.folds)
                if folds != list(range(self.FOLDS)):
                    problems.append(f"{name} ex{example} seed {ds}: folds {folds}")
                for rec in res.folds:
                    if rec.counts.total != sizes[rec.fold]:
                        problems.append(
                            f"{name} ex{example} seed {ds} fold {rec.fold}: confusion "
                            f"counts sum to {rec.counts.total}, fold has {sizes[rec.fold]}")
                if len(problems) > found:
                    # The cell's CV for this method failed: all its fits.
                    r.failed += self.FOLDS * len(grid)
                acc.setdefault((example, name), []).append(100.0 * res.acc_mean)
        for example, target in self.EXAMPLES:
            cl1_pct, lsq_pct = acc[(example, "cl1qtsvm")], acc[(example, "lsqtsvm")]
            ok, mean, limit = checks.accuracy_band_ok(cl1_pct, target)
            if not ok:
                problems.append(f"ex{example} cl1qtsvm accuracy {mean:.2f} not within "
                                f"{limit:.2f} of the paper's {target}")
            ok, gap = checks.gap_ok(cl1_pct, lsq_pct)
            if not ok:
                problems.append(f"ex{example} capped-L1 minus least-squares gap {gap:.2f} "
                                f"is not consistent with >= 8 points")
            r.extra[f"ex{example}"] = (statistics.fmean(cl1_pct), statistics.fmean(lsq_pct))
        del r.extra["results"]
        return problems


# --- highdim_fit ------------------------------------------------------------


def gaussian_classes(n, m_per_class, seed):
    """Two Gaussian classes in n dimensions: the positive one isotropic
    around +mu, the negative one with per-axis scales 0.5..2 around -mu."""
    rng = np.random.default_rng(seed)
    mu = np.full(n, 0.5 / np.sqrt(n))
    scales = np.linspace(0.5, 2.0, n)
    X_pos = rng.standard_normal((m_per_class, n)) + mu
    X_neg = rng.standard_normal((m_per_class, n)) * scales - mu
    return qtsvm.data.Dataset(X_pos=X_pos, X_neg=X_neg)


class HighDimFit:
    """Single cl1qtsvm fits, c1 = c2 = 0.01, each followed by predict_many on
    a held-out batch.  The full-lifting fits fail the descent check (the
    lifted dimension exceeds the own-class count, so the weights blow up):
    on data seeds 0-39 all 120 of them rise, by 9e-5 or more relative.  A
    failure the benchmark keeps must not depend on --seed, since runs with
    other seeds must fail the same share of operations, so their training
    data is fixed.  The reduced fit and all held-out batches use --seed."""

    CASES = ((20, 150, LiftingMode.FULL), (30, 300, LiftingMode.FULL),
             (80, 50, LiftingMode.FULL), (100, 300, LiftingMode.REDUCED))
    FIXED_SEED = 0
    HELD_OUT_ROWS = 20_000

    def __init__(self, seed, out_dir):
        self.out_dir = out_dir
        self.cfg = qtsvm.solver_cl1.SolverConfig(c1=0.01, c2=0.01)
        self.cases = []
        for i, (n, m, mode) in enumerate(self.CASES):
            data_seed = self.FIXED_SEED if mode is LiftingMode.FULL else seed
            d = gaussian_classes(n, m, data_seed)
            rng = np.random.default_rng([seed, i])
            held = gaussian_classes(n, self.HELD_OUT_ROWS // 2, rng.integers(2**32))
            self.cases.append((n, mode, d, held.stacked()[0]))

    def warm_up(self):
        d = gaussian_classes(4, 20, 0)
        model, _ = qtsvm.solver_cl1.fit(d, self.cfg)
        qtsvm.model.predict_many(model, d.stacked()[0])

    def run_round(self) -> Round:
        r = Round()
        fitted = []
        for n, mode, d, X in self.cases:
            (model, report), dt = _timed(qtsvm.solver_cl1.fit, d, self.cfg, mode=mode)
            r.fit_s += dt
            r.fits += 1
            labels, dt = _timed(qtsvm.model.predict_many, model, X)
            r.predict_s += dt
            r.rows += X.shape[0]
            fitted.append((model, report, labels))
        r.attempted = 2 * len(self.cases)
        r.extra["fitted"] = fitted
        return r

    def check(self, r: Round) -> list[str]:
        problems = []
        for (n, mode, d, X), (model, report, labels) in zip(self.cases, r.extra.pop("fitted")):
            tag = f"n={n} {mode.value}"
            path = self.out_dir / f"highdim_n{n}.json"
            qtsvm.model.save_model(model, path)
            m = checks.read_model(path)
            bad = checks.label_mismatches(m, X, labels)
            if bad:
                problems.append(f"{tag}: {bad} predict_many labels differ from the surfaces")
                r.failed += 1
            fit_ok = True
            Zp = checks.lift(checks.scale(m, d.X_pos), m["full"])
            Zm = checks.lift(checks.scale(m, d.X_neg), m["full"])
            for side, sub, Z_own, Z_other, sign in (("pos", report.pos, Zp, Zm, -1.0),
                                                    ("neg", report.neg, Zm, Zp, 1.0)):
                err = checks.normal_eq_backward_error(
                    m[side]["w"], Z_own, Z_other, sub.final_state.q, sub.final_state.u,
                    self.cfg.c1, self.cfg.c2, sign)
                if not err <= checks.NORMAL_EQ_TOL:
                    problems.append(f"{tag} {side}: normal-equation backward error {err:.2e}")
                    fit_ok = False
            if not (checks.descends(report.pos.objective_trace)
                    and checks.descends(report.neg.objective_trace)):
                # The named fault (see the class docstring) fails every
                # full-lifting fit and leaves the run correct; a reduced
                # fit that rises is a new fault.
                if mode is not LiftingMode.FULL:
                    problems.append(f"{tag}: objective trace rises")
                fit_ok = False
            r.failed += not fit_ok
        return problems


# --- cli_sweep --------------------------------------------------------------


class CliSweep:
    """Everything through qtsvm.cli.main: generate a training CSV and a large
    labelled CSV, a nested-selection benchmark sweep with two jobs, nemenyi
    on its results, then train and predict through files."""

    DATASETS = (("halfcircles", 2), ("curves", 3))
    NOISE = (0.0, 0.1)
    METHODS = ("cl1qtsvm", "lsqtsvm")
    M_PER_CLASS = 100
    FOLDS = 5
    INNER_FOLDS = 5
    CL1_GRID = [{"c1": 0.0001, "c2": 0.1}, {"c1": 0.01, "c2": 0.01}, {"c1": 0.01, "c2": 1.0},
                {"c1": 1.0, "c2": 0.01}, {"c1": 1.0, "c2": 1.0}, {"c1": 100.0, "c2": 0.01}]
    LSQ_GRID = [{"C": 0.001}, {"C": 0.01}, {"C": 0.1}, {"C": 1.0}, {"C": 10.0}]
    BIG_PER_CLASS = 50_000

    def __init__(self, seed, out_dir):
        self.p = {k: str(out_dir / v) for k, v in (
            ("config", "sweep.json"), ("results", "results.csv"), ("train", "train.csv"),
            ("big", "big.csv"), ("model", "model.json"), ("pred", "pred.csv"))}
        with open(self.p["config"], "w") as fh:
            json.dump({
                "seed": seed, "folds": self.FOLDS, "repeats": 1, "selection": "nested",
                "methods": list(self.METHODS),
                "datasets": [{"name": name, "example": ex, "m_per_class": self.M_PER_CLASS}
                             for name, ex in self.DATASETS],
                "noise_ratios": list(self.NOISE),
                "grid": {"cl1qtsvm": self.CL1_GRID, "lsqtsvm": self.LSQ_GRID},
            }, fh)
        p = self.p
        self.commands = [
            ("generate", ["generate", "--example", "3", "--m", "200", "--seed", str(seed),
                          "--noise-ratio", "0.1", "--out", p["train"]], [p["train"]]),
            ("generate", ["generate", "--example", "3", "--m", str(self.BIG_PER_CLASS),
                          "--seed", str(seed + 1), "--out", p["big"]], [p["big"]]),
            ("benchmark", ["benchmark", "--config", p["config"], "--out", p["results"],
                           "--jobs", "2"], [p["results"], p["results"] + ".summary.csv"]),
            ("nemenyi", ["nemenyi", "--results", p["results"]], []),
            ("train", ["train", "--data", p["train"], "--method", "cl1qtsvm", "--c1", "0.01",
                       "--c2", "0.01", "--model-out", p["model"]],
             [p["model"], p["model"] + ".report.json"]),
            ("predict", ["predict", "--model", p["model"], "--data", p["big"],
                         "--out", p["pred"]], [p["pred"]]),
        ]
        # Fits the sweep's protocol requires: per (dataset, noise, method),
        # each outer fold runs inner CV over the grid and one outer fit.
        self.sweep_fits = len(self.DATASETS) * len(self.NOISE) * self.FOLDS * sum(
            len(g) * self.INNER_FOLDS + 1 for g in (self.CL1_GRID, self.LSQ_GRID))

    def warm_up(self):
        self._run(["generate", "--example", "3", "--m", "20", "--seed", "0",
                   "--out", self.p["train"]])
        self._run(["train", "--data", self.p["train"], "--method", "cl1qtsvm",
                   "--model-out", self.p["model"]])

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qtsvm.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run_round(self) -> Round:
        r = Round()
        outputs = []
        written = 0
        for name, argv, files in self.commands:
            cpu0, t0 = os.times(), time.perf_counter()
            code, out, err = self._run(argv)
            wall = time.perf_counter() - t0
            cpu1 = os.times()
            outputs.append((name, code, out, err))
            r.attempted += 1
            if files and code == 0:
                written += sum(os.path.getsize(f)
                               for f in files + [files[0] + ".manifest.json"])
            if name == "benchmark":
                r.fits, r.fit_s = self.sweep_fits, wall
                cpu = sum(cpu1[:4]) - sum(cpu0[:4])
                r.extra["cpu_per_wall"] = cpu / wall
            elif name == "predict":
                r.rows, r.predict_s = 2 * self.BIG_PER_CLASS, wall
        r.extra["outputs"] = outputs
        r.extra["bytes_written"] = written
        return r

    def check(self, r: Round) -> list[str]:
        problems = []
        printed = {}
        for name, code, out, err in r.extra.pop("outputs"):
            if code != 0:
                problems.append(f"qtsvm {name} exited {code}: {err.strip()}")
                r.failed += 1
            printed[name] = out
        if problems:
            return problems
        # One failed operation per command whose outputs are wrong.
        for found in (self._check_results(), self._check_nemenyi(printed["nemenyi"]),
                      self._check_predict(printed["predict"])):
            problems += found
            r.failed += bool(found)
        return problems

    def _check_results(self):
        problems = []
        with open(self.p["results"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = {(ds, float(noise), method, fold, 0)
                    for ds, _ in self.DATASETS for noise in self.NOISE
                    for method in self.METHODS for fold in range(self.FOLDS)}
        keys = [(row["dataset"], float(row["noise_ratio"]), row["method"],
                 int(row["fold"]), int(row["repeat"])) for row in rows]
        if len(keys) != len(set(keys)) or set(keys) != expected:
            problems.append(f"results.csv has {len(keys)} rows, not one per "
                            f"(dataset, noise, method, fold, repeat) = {len(expected)}")
        for row in rows:
            if not (0.0 <= float(row["acc"]) <= 1.0 and 0.0 <= float(row["f1"]) <= 1.0):
                problems.append(f"results.csv acc/f1 outside [0, 1]: {row}")
        return problems

    def _check_nemenyi(self, out):
        k, N = len(self.METHODS), len(self.DATASETS) * len(self.NOISE)
        expected = checks.nemenyi_cd(k, N, checks.q_alpha_two_methods())
        head = out.splitlines()[0] if out else ""
        want = f"k={k} N={N} CD="
        if not head.startswith(want) or abs(float(head[len(want):]) - expected) > 1e-4:
            return [f"nemenyi printed {head!r}, expected {want}{expected:.4f}"]
        return []

    def _check_predict(self, out):
        problems = []
        big = np.loadtxt(self.p["big"], delimiter=",", skiprows=1, ndmin=2)
        pred = np.loadtxt(self.p["pred"], delimiter=",", skiprows=1, ndmin=2)
        # predict writes positives first, each class in file order.
        order = np.argsort(-big[:, -1], kind="stable")
        X, y = big[order, :-1], big[order, -1]
        if pred.shape != big.shape or not np.array_equal(pred[:, :-1], X):
            return [f"predict wrote {pred.shape} rows/columns that do not match the input"]
        labels = pred[:, -1]
        bad = checks.label_mismatches(checks.read_model(self.p["model"]), X, labels)
        if bad:
            problems.append(f"{bad} predicted labels differ from the surfaces")
        acc = f"{np.mean(labels == y):.4f}"
        if not out.startswith(f"accuracy {acc} "):
            problems.append(f"predict printed {out.strip()!r}, own count gives {acc}")
        return problems


WORKLOADS = {"grid_cv": GridCV, "highdim_fit": HighDimFit, "cli_sweep": CliSweep}


def _blas() -> str:
    """BLAS builds numpy and scipy link against, as name and version."""
    import scipy

    return "; ".join(
        f"{lib.__name__} {b['name']} {b['version']}"
        for lib in (np, scipy)
        for b in [lib.show_config(mode="dicts")["Build Dependencies"]["blas"]])


def run(workload, seconds: float, trace: bool):
    tracer = Tracer() if trace else None
    rounds, traced, plain, problems = [], [], [], []
    timed = 0.0
    while True:
        in_trace = trace and len(rounds) % 2 == 1
        if in_trace:
            tracer.install()
        try:
            r, wall = _timed(workload.run_round)
        finally:
            if in_trace:
                tracer.uninstall()
        r.wall_s = wall
        problems += workload.check(r)
        rounds.append(r)
        (traced if in_trace else plain).append(r)
        timed += r.wall_s
        if timed >= seconds and (not trace or traced):
            break
    return rounds, plain, traced, tracer, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    workload.warm_up()
    if args.setup_only:
        return 0

    rounds, plain, traced, tracer, problems = run(workload, args.seconds, bool(args.trace))
    if args.trace:
        metrics, absent = tracer.metrics(len(traced))
        n = len(traced)
        metrics["cli.cpu_per_wall"] = {"value": statistics.median(
            r.extra.get("cpu_per_wall", 0.0) for r in traced), "unit": "ratio"}
        metrics["cli.bytes_written"] = {"value": sum(
            r.extra.get("bytes_written", 0) for r in traced) / n, "unit": "bytes/round"}
        t_traced = statistics.median(r.wall_s for r in traced)
        t_plain = statistics.median(r.wall_s for r in plain)
        metrics["trace.overhead_s"] = {"value": t_traced - t_plain, "unit": "s/round"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (t_traced / t_plain - 1.0),
                                         "unit": "%"}
    else:
        absent = []
        metrics = {
            "fits_per_s": {"value": statistics.median(r.fits / r.fit_s for r in rounds),
                           "unit": "fits/s"},
            "predict_rows_per_s": {
                "value": statistics.median(r.rows / r.predict_s for r in rounds),
                "unit": "rows/s"},
        }
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
        "rounds": len(rounds),
        "absent": absent,
        "problems": problems[:20],
        "notes": {"nproc": len(os.sched_getaffinity(0)), "blas": _blas(),
                  **{k: v for k, v in rounds[0].extra.items() if k.startswith("ex")}},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
