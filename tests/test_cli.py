"""Command-line interface: exit codes, artifact round-trips, replay."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qtsvm
from qtsvm.cli import main
from qtsvm.data import load_csv

BENCH_CONFIG = {
    "seed": 3,
    "folds": 3,
    "repeats": 1,
    "selection": "flat",
    "methods": ["cl1qtsvm", "lsqtsvm"],
    "datasets": [{"name": "curves", "example": 3, "m_per_class": 30}],
    "noise_ratios": [0.0, 0.1],
    "grid": {
        "cl1qtsvm": [{"c1": 0.01, "c2": 0.01}, {"c1": 1.0, "c2": 0.01}],
        "lsqtsvm": [{"C": 0.001}, {"C": 0.01}],
    },
}


def run(argv):
    return main([str(a) for a in argv])


def test_generate_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["generate", "--example", 1, "--m", 20, "--seed", 5,
                "--out", out]) == 0
    d = load_csv(out)
    assert d.m_pos == 20 and d.m_neg == 20 and d.n == 2
    manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["flags"]["seed"] == 5


def test_generate_with_label_noise(tmp_path):
    out = tmp_path / "noisy.csv"
    assert run(["generate", "--example", 1, "--m", 50, "--noise-ratio", 0.2,
                "--seed", 0, "--out", out]) == 0
    d = load_csv(out)
    assert d.m == 100


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["generate", "--example", 2, "--m", 15, "--seed", 1, "--out", a])
    run(["generate", "--example", 2, "--m", 15, "--seed", 1, "--out", b])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("method", ["cl1qtsvm", "lsqtsvm"])
def test_train_and_predict_roundtrip(tmp_path, method, capsys):
    data = tmp_path / "d.csv"
    run(["generate", "--example", 1, "--m", 60, "--seed", 2, "--out", data])
    model = tmp_path / "model.json"
    args = ["train", "--data", data, "--method", method, "--model-out", model]
    if method == "cl1qtsvm":
        args += ["--c1", 0.01, "--c2", 0.01]
    else:
        args += ["--c2", 0.001]
    assert run(args) == 0
    report = json.loads((tmp_path / "model.json.report.json").read_text())
    assert report["train_accuracy"] > 0.9
    if method == "cl1qtsvm":
        for sub in report["subproblems"].values():
            trace = sub["objective_trace"]
            assert all(b <= a + 1e-9 * (1 + abs(a))
                       for a, b in zip(trace, trace[1:]))
            assert sub["lstsq_fallbacks"] == 0
            assert 1.0 <= sub["peak_weight"] <= 1e12

    preds = tmp_path / "preds.csv"
    assert run(["predict", "--model", model, "--data", data, "--out", preds]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    rows = preds.read_text().strip().splitlines()
    assert rows[0] == "x1,x2,prediction"
    assert len(rows) == 121


def test_predict_unlabeled_matrix(tmp_path):
    data = tmp_path / "d.csv"
    run(["generate", "--example", 1, "--m", 30, "--seed", 3, "--out", data])
    model = tmp_path / "model.json"
    run(["train", "--data", data, "--method", "cl1qtsvm",
         "--c1", 0.01, "--c2", 0.01, "--model-out", model])
    bare = tmp_path / "bare.csv"
    labeled = np.loadtxt(data, delimiter=",", skiprows=1)
    np.savetxt(bare, labeled[:, :2], delimiter=",")
    preds = tmp_path / "p.csv"
    assert run(["predict", "--model", model, "--data", bare, "--out", preds]) == 0
    assert len(preds.read_text().strip().splitlines()) == 61


def test_train_reduced_mode(tmp_path):
    data = tmp_path / "d.csv"
    run(["generate", "--example", 1, "--m", 40, "--seed", 4, "--out", data])
    model = tmp_path / "m.json"
    assert run(["train", "--data", data, "--method", "cl1qtsvm",
                "--c1", 0.01, "--c2", 0.01, "--mode", "reduced",
                "--model-out", model]) == 0
    assert json.loads(model.read_text())["mode"] == "reduced"


def test_benchmark_and_nemenyi(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(BENCH_CONFIG))
    out = tmp_path / "results.csv"
    assert run(["benchmark", "--config", cfg, "--out", out]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "dataset,method,noise_ratio,fold,repeat,c1,c2,acc,f1"
    summary = (tmp_path / "results.csv.summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 4  # header + 1 dataset x 2 ratios x 2 methods
    capsys.readouterr()
    assert run(["nemenyi", "--results", out]) == 0
    printed = capsys.readouterr().out
    assert "CD=" in printed and "cl1qtsvm" in printed and "lsqtsvm" in printed


def test_benchmark_parallel_matches_serial(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(BENCH_CONFIG))
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert run(["benchmark", "--config", cfg, "--out", serial]) == 0
    assert run(["benchmark", "--config", cfg, "--out", parallel,
                "--jobs", 4]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    summary = Path(f"{serial}.summary.csv").read_bytes()
    assert summary == Path(f"{parallel}.summary.csv").read_bytes()


def test_nemenyi_raw_matrix(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("a,b,c\n0.9,0.8,0.7\n0.95,0.85,0.75\n0.9,0.7,0.6\n")
    assert run(["nemenyi", "--results", scores]) == 0
    assert "CD=" in capsys.readouterr().out


def test_nemenyi_rejects_other_alpha_without_override(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("0.9,0.8\n0.7,0.6\n")
    assert run(["nemenyi", "--results", scores, "--alpha", 0.01]) == 2
    assert run(["nemenyi", "--results", scores, "--alpha", 0.01,
                "--q-alpha", 2.5]) == 0


def test_replay_generate_byte_identical(tmp_path):
    out = tmp_path / "d.csv"
    run(["generate", "--example", 3, "--m", 25, "--seed", 7, "--out", out])
    first = out.read_bytes()
    out.unlink()
    assert run(["replay", tmp_path / "d.csv.manifest.json"]) == 0
    assert out.read_bytes() == first


def test_replay_benchmark_byte_identical(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(BENCH_CONFIG))
    out = tmp_path / "results.csv"
    run(["benchmark", "--config", cfg, "--out", out])
    first = out.read_bytes()
    first_summary = (tmp_path / "results.csv.summary.csv").read_bytes()
    assert run(["replay", tmp_path / "results.csv.manifest.json"]) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "results.csv.summary.csv").read_bytes() == first_summary


def test_exit_code_usage_errors(tmp_path):
    # Missing input file -> data-format error -> exit 2.
    assert run(["train", "--data", tmp_path / "missing.csv",
                "--method", "cl1qtsvm", "--model-out", tmp_path / "m.json"]) == 2
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{}")
    assert run(["benchmark", "--config", bad_cfg, "--out", tmp_path / "o.csv"]) == 2
    scores = tmp_path / "empty.csv"
    scores.write_text("")
    assert run(["nemenyi", "--results", scores]) == 2


def test_exit_code_model_file_errors(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    data = tmp_path / "d.csv"
    run(["generate", "--example", 1, "--m", 10, "--seed", 0, "--out", data])
    # A corrupt model file is a runtime failure, not a usage error.
    assert run(["predict", "--model", broken, "--data", data,
                "--out", tmp_path / "p.csv"]) == 1


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats is most of a cold import; only the Nemenyi ranks need it.
    src = str(Path(qtsvm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, qtsvm.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


def _predict_with_model(mutate):
    """argv of a predict whose model file is the trained one changed by mutate."""
    def argv(tmp_path, model):
        doc = json.loads(model.read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        return ["predict", "--model", bad, "--data", tmp_path / "d.csv",
                "--out", tmp_path / "p.csv"]
    return argv


def _unlabeled(head):
    def argv(tmp_path, model):
        X = np.loadtxt(tmp_path / "d.csv", delimiter=",", skiprows=1)[:, :2]
        bare = tmp_path / "bare.csv"
        bare.write_text(head + "".join(f"{a},{b}\n" for a, b in X.tolist()))
        return ["predict", "--model", model, "--data", bare, "--out", tmp_path / "p.csv"]
    return argv


def _bench(*flags, **changes):
    """argv of a benchmark whose config is BENCH_CONFIG updated by changes."""
    def argv(tmp_path, model):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({**BENCH_CONFIG, **changes}))
        return ["benchmark", "--config", cfg, "--out", tmp_path / "r.csv", *flags]
    return argv


def _curves(m_per_class):
    return [{"name": "curves", "example": 3, "m_per_class": m_per_class}]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_failures")
    run(["generate", "--example", 1, "--m", 20, "--seed", 0, "--out", tmp / "d.csv"])
    run(["train", "--data", tmp / "d.csv", "--method", "lsqtsvm",
         "--model-out", tmp / "model.json"])
    return tmp


@pytest.mark.parametrize("argv, code", [
    (_unlabeled("x1,x2\n"), 0),
    (_unlabeled("\nx1,x2\n"), 0),
    (lambda tmp, model: ["predict", "--model", tmp / "missing.json",
                         "--data", tmp / "d.csv", "--out", tmp / "p.csv"], 1),
    (_predict_with_model(lambda doc: doc.update(mode="diag")), 1),
    (_predict_with_model(lambda doc: doc["surface_pos"].update(b=3.0)), 1),
    (_predict_with_model(lambda doc: doc["scaler"].update(
        min=[v + 10.0 for v in doc["scaler"]["max"]])), 1),
    (_bench(mode="diag"), 2),
    (_bench(folds="abc"), 2),
    (_bench(seed="x"), 2),
    (_bench(noise_ratios="ab"), 2),
    (_bench(datasets=_curves("x")), 2),
    (_bench(grid={**BENCH_CONFIG["grid"], "lsqtsvm": [{"D": 1.0}]}), 2),
    (_bench(datasets=["a"]), 2),
    (_bench(methods="lsqtsvm"), 2),
    (_bench("--jobs", 0), 2),
    (_bench("--jobs", -3), 2),
    # Two samples per class pass the 2-fold size check, so the inner-CV
    # error is raised inside a worker.
    (_bench("--jobs", 2, datasets=_curves(2), folds=2, selection="nested"), 2),
], ids=["unlabeled-header", "unlabeled-blank-first-line", "missing-model", "model-mode", "model-b", "model-scaler",
        "config-mode", "config-folds", "config-seed", "config-noise-ratios", "config-m-per-class",
        "config-grid-key", "config-dataset-entry", "config-methods-string", "jobs-zero",
        "jobs-negative", "jobs-2-cell-error"])
def test_cli_failures_are_clean(trained, argv, code):
    # Each input once ended in a traceback or the wrong exit code.
    src = str(Path(qtsvm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    args = [str(a) for a in argv(trained, trained / "model.json")]
    proc = subprocess.run([sys.executable, "-m", "qtsvm.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert proc.returncode == code, proc.stderr
    assert len(errors) == (1 if code else 0), proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert len((trained / "p.csv").read_text().splitlines()) == 41
