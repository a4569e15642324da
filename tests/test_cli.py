"""Command-line interface: exit codes, artifact round-trips, replay."""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import qtsvm
from qtsvm.cli import _benchmark_config, build_parser, main
from qtsvm.data import gen_example1, inject_label_noise, load_csv
from qtsvm.evaluation import CL1Trainer, CvSpec, cross_validate
from qtsvm.solver_cl1 import SolverConfig

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


def test_predict_reads_every_row_after_a_byte_order_mark(tmp_path):
    data = tmp_path / "d.csv"
    run(["generate", "--example", 1, "--m", 30, "--seed", 3, "--out", data])
    model = tmp_path / "model.json"
    run(["train", "--data", data, "--method", "cl1qtsvm",
         "--c1", 0.01, "--c2", 0.01, "--model-out", model])
    bare = tmp_path / "bare.csv"
    rows = np.loadtxt(data, delimiter=",", skiprows=1)[:, :2]
    bare.write_bytes(b"\xef\xbb\xbf" + "".join(f"{a!r},{b!r}\n" for a, b in rows.tolist()).encode())
    preds = tmp_path / "p.csv"
    assert run(["predict", "--model", model, "--data", bare, "--out", preds]) == 0
    # A header line, then one prediction per input row.
    assert len(preds.read_text().strip().splitlines()) == 1 + len(rows) == 61


def test_predict_keeps_file_order_of_labelled_rows(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(["generate", "--example", 1, "--m", 30, "--seed", 3, "--out", data])
    model = tmp_path / "model.json"
    run(["train", "--data", data, "--method", "cl1qtsvm",
         "--c1", 0.01, "--c2", 0.01, "--model-out", model])
    # Labels -1, 1, -1, 1, ...: the generated file holds its positives first.
    header, *rows = data.read_text().splitlines()
    mixed = [row for pair in zip(rows[30:], rows[:30]) for row in pair]
    labelled, bare = tmp_path / "mixed.csv", tmp_path / "bare.csv"
    labelled.write_text("\n".join([header, *mixed]) + "\n")
    bare.write_text("".join(row.rsplit(",", 1)[0] + "\n" for row in mixed))
    accuracies = []
    for path in (data, labelled, bare):
        capsys.readouterr()
        assert run(["predict", "--model", model, "--data", path,
                    "--out", tmp_path / f"{path.stem}.pred.csv"]) == 0
        accuracies.append(capsys.readouterr().out)
    assert accuracies[0] == accuracies[1] and accuracies[0].startswith("accuracy")
    # Labelled and unlabelled input come back in file order, row for row.
    preds = (tmp_path / "mixed.pred.csv").read_text()
    assert preds == (tmp_path / "bare.pred.csv").read_text()
    np.testing.assert_array_equal(np.loadtxt(labelled, delimiter=",", skiprows=1)[:, :2],
                                  np.loadtxt(preds.splitlines()[1:], delimiter=",")[:, :2])


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


def test_benchmark_lists_cells_by_dataset_name_and_noises_with_the_next_seed(tmp_path):
    # Datasets come in name order, then noise ratios and methods in config
    # order; a cell cross-validates its dataset with labels noised under
    # seed + 1.
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({**BENCH_CONFIG, "methods": ["lsqtsvm", "cl1qtsvm"],
                               "noise_ratios": [0.1, 0.0], "datasets": [
                                   {"name": "b", "example": 3, "m_per_class": 30},
                                   {"name": "a", "example": 1, "m_per_class": 30}]}))
    out = tmp_path / "r.csv"
    assert run(["benchmark", "--config", cfg, "--out", out]) == 0
    with open(f"{out}.summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["dataset"], r["noise_ratio"], r["method"]) for r in rows] == [
        (name, ratio, method) for name in "ab" for ratio in ("0.1", "0.0")
        for method in ("lsqtsvm", "cl1qtsvm")]
    spec = CvSpec(folds=3, repeats=1, seed=3, selection="flat",
                  grid=tuple(BENCH_CONFIG["grid"]["cl1qtsvm"]))
    expected = cross_validate(inject_label_noise(gen_example1(30, 3), 0.1, seed=4),
                              CL1Trainer(), spec)
    assert float(rows[1]["acc_mean"]) == expected.acc_mean
    assert float(rows[1]["f1_mean"]) == expected.f1_mean


@pytest.mark.parametrize("normalize", ["full", "per-fold"])
@pytest.mark.parametrize("selection", ["flat", "nested"])
def test_benchmark_parallel_matches_serial(tmp_path, selection, normalize):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({**BENCH_CONFIG, "selection": selection, "normalize": normalize}))
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert run(["benchmark", "--config", cfg, "--out", serial]) == 0
    assert run(["benchmark", "--config", cfg, "--out", parallel,
                "--jobs", 4]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    summary = Path(f"{serial}.summary.csv").read_bytes()
    assert summary == Path(f"{parallel}.summary.csv").read_bytes()


@pytest.mark.parametrize("header, names", [(True, False), (True, True), (False, False),
                                           (False, True)],
                         ids=["header", "header-names", "plain", "names"])
def test_nemenyi_raw_matrix(tmp_path, capsys, header, names):
    # Optional header of method names, optional leading dataset-name column.
    lines = [["dataset"] * names + ["a", "b", "c"]] * header + [
        [f"d{i}"] * names + row for i, row in enumerate(
            [["0.9", "0.8", "0.7"], ["0.95", "0.85", "0.75"], ["0.9", "0.7", "0.6"]])]
    scores = tmp_path / "scores.csv"
    scores.write_text("".join(",".join(line) + "\n" for line in lines))
    assert run(["nemenyi", "--results", scores]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("k=3 N=3 CD=")
    methods = ["a", "b", "c"] if header else ["method1", "method2", "method3"]
    assert [line.split(":")[0].strip() for line in printed[1:4]] == methods


def test_nemenyi_method_names_leave_out_a_byte_order_mark(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_bytes(b"\xef\xbb\xbfa,b,c\n0.9,0.8,0.7\n0.95,0.85,0.75\n0.9,0.7,0.6\n")
    assert run(["nemenyi", "--results", scores]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0].strip() for line in printed[1:4]] == ["a", "b", "c"]


@pytest.mark.parametrize("text, message", [
    ("a,b\n0.9,nan\n0.7,0.6\n", "row 2, column 2: non-finite cell 'nan'"),
    ("d1,0.9,0.8\nd2,0.7,?\n", "row 2, column 3: non-numeric cell '?'"),
    ("dataset,method,acc\nd,a,0.9\nd,b,zz\n", "row 3, column 3: non-numeric cell 'zz'"),
], ids=["raw-nan", "raw-names-text", "results-text"])
def test_nemenyi_names_the_faulty_cell(tmp_path, capsys, text, message):
    scores = tmp_path / "scores.csv"
    scores.write_text(text)
    assert run(["nemenyi", "--results", scores]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_nemenyi_takes_a_critical_value_of_its_own(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("0.9,0.8\n0.7,0.6\n")
    assert run(["nemenyi", "--results", scores, "--q-alpha", 2.5]) == 0


@pytest.mark.parametrize("changes, key", [
    ({"noise_ratio": [0.1]}, "'noise_ratio'"),
    ({"grids": {}}, "'grids'"),
    ({"inner_folds": 2}, "'inner_folds'"),
    ({"datasets": [{"name": "curves", "example": 3, "m_per_clas": 30}]},
     "'m_per_clas' in dataset 'curves'"),
    # A grid for a method that 'methods' does not list.
    ({"methods": ["cl1qtsvm"], "grid": {**BENCH_CONFIG["grid"], "lsqtsvm": [{"C": -5}]}},
     "'lsqtsvm' in 'grid'"),
], ids=["noise_ratio", "grids", "inner_folds", "m_per_clas", "grid-of-unlisted-method"])
def test_benchmark_config_names_an_unknown_key(tmp_path, capsys, changes, key):
    # Each key was once ignored, and the sweep ran on the defaults.
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({**BENCH_CONFIG, **changes}))
    assert run(["benchmark", "--config", cfg, "--out", tmp_path / "r.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: benchmark config: unknown key {key} (allowed: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("key, allowed", [
    ("selection", "'nested' or 'flat'"),
    ("normalize", "'full' or 'per-fold'"),
], ids=["selection", "normalize"])
def test_benchmark_config_names_the_allowed_values(tmp_path, capsys, key, allowed):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({**BENCH_CONFIG, key: "x"}))
    assert run(["benchmark", "--config", cfg, "--out", tmp_path / "r.csv"]) == 2
    assert capsys.readouterr().err == (
        f"error: benchmark config: {key!r} must be {allowed}, got 'x'\n")


def test_benchmark_refuses_a_split_too_small_for_inner_cv(tmp_path, capsys):
    # 2 positives and 10 negatives: each training split of 2-fold CV keeps
    # one positive, too few for nested selection's inner CV.
    d = gen_example1(10, seed=2)
    rows = [(*x, 1) for x in d.X_pos[:2].tolist()] + [(*x, -1) for x in d.X_neg.tolist()]
    data = tmp_path / "few.csv"
    data.write_text("x1,x2,label\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({**BENCH_CONFIG, "folds": 2, "selection": "nested",
                               "methods": ["cl1qtsvm"], "datasets": [{"name": "few",
                                                                      "path": str(data)}],
                               "grid": {"cl1qtsvm": BENCH_CONFIG["grid"]["cl1qtsvm"]}}))
    assert run(["benchmark", "--config", cfg, "--out", tmp_path / "r.csv"]) == 2
    assert capsys.readouterr().err == ("error: training split too small for inner model "
                                       "selection; use fewer folds or flat selection\n")
    assert not (tmp_path / "r.csv").exists()


def _refuse(*args, **kwargs):
    raise AssertionError("called before the input was refused")


@pytest.mark.parametrize("key, value", [
    ("folds", 1), ("repeats", 0), ("seed", -1), ("mode", "x"), ("folds", True),
], ids=["folds", "repeats", "seed", "mode", "folds-bool"])
def test_benchmark_config_cv_settings_are_checked_by_cvspec(tmp_path, capsys, monkeypatch,
                                                            key, value):
    monkeypatch.setattr("qtsvm.cli._benchmark_dataset", _refuse)
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({**BENCH_CONFIG, key: value}))
    assert run(["benchmark", "--config", cfg, "--out", tmp_path / "r.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: benchmark config: ") and key in err, err
    assert err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("key, value, error", [
    ("methods", ["lsqtsvm", "lsqtsvm"],
     "'methods' must be a nonempty list of distinct method names from ['cl1qtsvm', 'lsqtsvm']"),
    ("noise_ratios", [0.1, 0.0, 0.1],
     "'noise_ratios' must be a nonempty list of distinct numbers in [0, 1)"),
    ("noise_ratios", [0, 0.0],
     "'noise_ratios' must be a nonempty list of distinct numbers in [0, 1)"),
    ("grid", {"lsqtsvm": [{"C": 0.1}, {"C": 1}, {"C": 0.1}]},
     "'lsqtsvm' must be a nonempty grid of distinct objects with exactly the keys ['C'], "
     "each a positive number"),
    ("datasets", [BENCH_CONFIG["datasets"][0]] * 2,
     "'datasets' must be a nonempty list of distinct objects"),
], ids=["methods", "noise_ratios", "noise_ratios-int-and-float", "grid", "datasets"])
def test_benchmark_config_refuses_a_repeated_entry(tmp_path, capsys, monkeypatch, key, value,
                                                   error):
    # A repeated entry once ran every cell or grid lane it is in twice.
    monkeypatch.setattr("qtsvm.cli._benchmark_dataset", _refuse)
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({**BENCH_CONFIG, "methods": ["lsqtsvm"],
                               "grid": {"lsqtsvm": BENCH_CONFIG["grid"]["lsqtsvm"]}, key: value}))
    assert run(["benchmark", "--config", cfg, "--out", tmp_path / "r.csv"]) == 2
    got = value["lsqtsvm"] if key == "grid" else value
    assert capsys.readouterr().err == f"error: benchmark config: {error}, got {got!r}\n"
    assert not (tmp_path / "r.csv").exists()


def test_benchmark_config_takes_cv_defaults_from_cvspec(tmp_path):
    cv_keys = [f.name for f in fields(CvSpec) if f.name != "grid"]
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({k: v for k, v in BENCH_CONFIG.items() if k not in cv_keys}))
    specs = _benchmark_config(cfg)[2]
    assert list(specs) == BENCH_CONFIG["methods"]
    for method, spec in specs.items():
        expected = CvSpec(grid=tuple(BENCH_CONFIG["grid"][method]))
        for f in fields(CvSpec):
            assert getattr(spec, f.name) == getattr(expected, f.name), (method, f.name)


@pytest.mark.parametrize("work, argv", [
    ("fit", lambda tmp: ["train", "--data", tmp / "d.csv", "--method", "cl1qtsvm",
                         "--model-out", tmp / "missing" / "t.json"]),
    ("predict_many", lambda tmp: ["predict", "--model", tmp / "m.json", "--data", tmp / "d.csv",
                                  "--out", tmp / "missing" / "p.csv"]),
    ("predict_many", lambda tmp: ["predict", "--model", tmp / "m.json", "--data", tmp / "d.csv",
                                  "--out", tmp]),
    ("sweep_results", lambda tmp: ["benchmark", "--config", tmp / "bench.json",
                                   "--out", tmp / "missing" / "r.csv"]),
    ("load_csv", lambda tmp: _replay_unwritable(tmp, tmp / "m.json")),
], ids=["train", "predict", "predict-to-directory", "benchmark", "replay-train"])
def test_unwritable_output_is_refused_before_the_work(tmp_path, capsys, monkeypatch, work, argv):
    run(["generate", "--example", 1, "--m", 20, "--seed", 0, "--out", tmp_path / "d.csv"])
    run(["train", "--data", tmp_path / "d.csv", "--method", "lsqtsvm",
         "--model-out", tmp_path / "m.json"])
    (tmp_path / "bench.json").write_text(json.dumps(BENCH_CONFIG))
    capsys.readouterr()
    monkeypatch.setattr(f"qtsvm.cli.{work}", _refuse)
    assert run(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err


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


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture
def predicted(tmp_path):
    """A trained model, its data and the manifest of a predict over them."""
    data, model = tmp_path / "d.csv", tmp_path / "model.json"
    run(["generate", "--example", 1, "--m", 20, "--seed", 0, "--out", data])
    run(["train", "--data", data, "--method", "lsqtsvm", "--model-out", model])
    assert run(["predict", "--model", model, "--data", data,
                "--out", tmp_path / "p.csv"]) == 0
    return tmp_path


def test_manifests_record_input_hashes(predicted):
    data, model = str(predicted / "d.csv"), str(predicted / "model.json")
    inputs = {name: json.loads((predicted / f"{name}.manifest.json").read_text())["inputs"]
              for name in ("d.csv", "model.json", "p.csv")}
    assert inputs["d.csv"] == {}
    assert inputs["model.json"] == {data: _sha256(data)}
    assert inputs["p.csv"] == {model: _sha256(model), data: _sha256(data)}


def test_benchmark_manifest_hashes_config_and_dataset_files(predicted):
    cfg = predicted / "bench.json"
    data = str(predicted / "d.csv")
    cfg.write_text(json.dumps({**BENCH_CONFIG, "datasets": [{"name": "d", "path": data}]}))
    out = predicted / "results.csv"
    assert run(["benchmark", "--config", cfg, "--out", out]) == 0
    manifest = json.loads((predicted / "results.csv.manifest.json").read_text())
    assert manifest["inputs"] == {str(cfg): _sha256(cfg), data: _sha256(data)}
    first = out.read_bytes()
    assert run(["replay", predicted / "results.csv.manifest.json"]) == 0
    assert out.read_bytes() == first
    with open(data, "a") as fh:
        fh.write("0.5,0.5,1\n")
    assert run(["replay", predicted / "results.csv.manifest.json"]) == 2


def _dests(command):
    """The dests of every flag of a subcommand's parser."""
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


def test_manifest_flags_are_the_parsed_command_line(predicted):
    # A flag left out of the manifest would be replayed at its default.
    cfg = predicted / "bench.json"
    cfg.write_text(json.dumps(BENCH_CONFIG))
    assert run(["benchmark", "--config", cfg, "--out", predicted / "results.csv"]) == 0
    for command, out in (("generate", "d.csv"), ("train", "model.json"),
                         ("predict", "p.csv"), ("benchmark", "results.csv")):
        manifest = json.loads((predicted / f"{out}.manifest.json").read_text())
        assert manifest["command"] == command
        assert set(manifest["flags"]) == _dests(command)


def test_train_defaults_are_the_solver_defaults():
    # The flags once restated the defaults as literals.
    args = build_parser().parse_args(["train", "--data", "d.csv", "--method", "cl1qtsvm",
                                      "--model-out", "m.json"])
    defaults = SolverConfig()
    assert (args.c1, args.c2, args.eps, args.max_iter) == (
        defaults.c1, defaults.c2, defaults.cap_eps, defaults.max_iter)


@pytest.mark.parametrize("out", ["model.json", "p.csv"])
def test_replay_reads_a_manifest_with_a_null_seed_flag(predicted, out):
    # Manifests of train and predict once recorded a "seed": null flag.
    manifest = predicted / f"{out}.manifest.json"
    doc = json.loads(manifest.read_text())
    doc["flags"]["seed"] = None
    manifest.write_text(json.dumps(doc))
    first = (predicted / out).read_bytes()
    (predicted / out).unlink()
    assert run(["replay", manifest]) == 0
    assert (predicted / out).read_bytes() == first


def test_replay_predict_byte_identical(predicted):
    first = (predicted / "p.csv").read_bytes()
    (predicted / "p.csv").unlink()
    assert run(["replay", predicted / "p.csv.manifest.json"]) == 0
    assert (predicted / "p.csv").read_bytes() == first


@pytest.mark.parametrize("changed", ["d.csv", "model.json"])
def test_replay_refuses_a_changed_input(predicted, changed, capsys):
    target = predicted / changed
    target.write_bytes(target.read_bytes().replace(b"1", b"2", 1))
    first = (predicted / "p.csv").read_bytes()
    capsys.readouterr()
    assert run(["replay", predicted / "p.csv.manifest.json"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: input {target} changed")
    assert (predicted / "p.csv").read_bytes() == first


@pytest.mark.parametrize("doc", [[], {"command": "generate", "flags": []},
                                 {"command": "generate", "flags": {}, "inputs": ["d.csv"]}])
def test_replay_rejects_a_document_that_is_not_a_manifest(tmp_path, doc, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    assert run(["replay", manifest]) == 2
    assert capsys.readouterr().err == f"error: {manifest} is not a qtsvm manifest\n"


def test_exit_code_usage_errors(tmp_path, capsys):
    # Missing input file -> data-format error -> exit 2.
    assert run(["train", "--data", tmp_path / "missing.csv",
                "--method", "cl1qtsvm", "--model-out", tmp_path / "m.json"]) == 2
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{}")
    assert run(["benchmark", "--config", bad_cfg, "--out", tmp_path / "o.csv"]) == 2
    scores = tmp_path / "empty.csv"
    scores.write_text("")
    assert run(["nemenyi", "--results", scores]) == 2
    # A negative seed is one error: line, not numpy's traceback.
    for noise in ("0.0", "0.2"):
        capsys.readouterr()
        assert run(["generate", "--example", 1, "--seed", -1, "--noise-ratio", noise,
                    "--out", tmp_path / "g.csv"]) == 2
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not (tmp_path / "g.csv").exists()


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


def _fresh_python(code, cwd=None):
    """stdout of code run in a fresh interpreter that imports this qtsvm."""
    src = str(Path(qtsvm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120, check=True).stdout


# The names of the scipy modules a process has loaded.
_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_leaves_out_scipy():
    # scipy is most of a cold import, and only large systems need it.
    assert _fresh_python(f"import sys, qtsvm.cli; print({_SCIPY_LOADED})").strip() == "[]"


def test_package_import_loads_nothing_else():
    # Every name is imported from its submodule, so the package alone loads
    # neither numpy nor any of its modules.
    code = ("import sys, qtsvm\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'"
            " or m.startswith('qtsvm.')))")
    assert _fresh_python(code).strip() == "[]"


def test_commands_on_small_systems_leave_out_scipy(tmp_path):
    # Every command below solves only 2-D systems (l = 6 full, 5 reduced),
    # which numpy's stacked solve takes, so none of them loads scipy.  Nor
    # does a small stack whose stacked Cholesky fails: the singular SMW lane
    # of test_singular_smw_lane_falls_back_alone falls back on both surfaces.
    for selection in ("flat", "nested"):
        (tmp_path / f"{selection}.json").write_text(
            json.dumps(dict(BENCH_CONFIG, selection=selection)))
    commands = [
        ["generate", "--example", "1", "--m", "40", "--seed", "4", "--out", "d.csv"],
        ["train", "--data", "d.csv", "--method", "cl1qtsvm", "--c1", "0.01", "--c2", "0.01",
         "--model-out", "m.json"],
        ["train", "--data", "d.csv", "--method", "lsqtsvm", "--mode", "reduced",
         "--model-out", "lsq.json"],
        ["predict", "--model", "m.json", "--data", "d.csv", "--out", "p.csv"],
        ["benchmark", "--config", "flat.json", "--out", "flat.csv"],
        ["benchmark", "--config", "nested.json", "--out", "nested.csv"],
        ["nemenyi", "--results", "flat.csv"],
    ]
    code = (f"import sys\nfrom qtsvm.cli import main\n"
            f"codes = [main(argv) for argv in {commands!r}]\n"
            "import numpy as np\n"
            "from qtsvm.data import Dataset\n"
            "from qtsvm.solver_cl1 import SolverConfig, fit_grid\n"
            "rng = np.random.default_rng(1)\n"
            "d = Dataset(X_pos=rng.standard_normal((5, 2)), X_neg=rng.standard_normal((5, 2)))\n"
            "grid = fit_grid(d, [SolverConfig(c1=c1, c2=2.0, max_iter=1, branch='smw')\n"
            "                    for c1 in (1e-300, 1.0)])\n"
            "fell = [(r.pos.lstsq_fallbacks, r.neg.lstsq_fallbacks) for r in grid.reports]\n"
            f"print(codes, fell, {_SCIPY_LOADED})")
    last = _fresh_python(code, cwd=tmp_path).splitlines()[-1]
    assert last == f"{[0] * len(commands)} [(1, 1), (0, 0)] []"


def test_nemenyi_ties_print_exact_midranks(tmp_path, capsys):
    # Ties, 0.0 against -0.0 among them, take midranks as scipy's rankdata.
    scores = tmp_path / "scores.csv"
    scores.write_text("a,b,c\n0.9,0.9,0.5\n0.8,0.8,0.8\n0.7,0.6,0.6\n0.0,-0.0,-0.5\n"
                      "0.9,0.9,0.1\n0.95,0.9,0.9\n0.6,0.6,0.2\n0.8,0.7,0.3\n")
    assert run(["nemenyi", "--results", scores]) == 0
    assert capsys.readouterr().out == (
        "k=3 N=8 CD=1.1719\n"
        "  a: mean rank 1.3750\n"
        "  b: mean rank 1.8750\n"
        "  c: mean rank 2.7500\n"
        "significantly different pairs:\n"
        "  a vs c\n")


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


def _written(name, content, command):
    """argv of command run on a file written with content."""
    def argv(tmp_path, model):
        (tmp_path / name).write_bytes(content)
        return [*command, tmp_path / name]
    return argv


def _nemenyi(content):
    return _written("scores.csv", content, ["nemenyi", "--results"])


def _replay(content):
    return _written("r.json", content, ["replay"])


def _train(method, *flags):
    return lambda tmp, model: ["train", "--data", tmp / "d.csv", "--method", method,
                               *flags, "--model-out", tmp / "t.json"]


def _bench_text(content, *flags):
    """argv of a benchmark whose config file holds content."""
    def argv(tmp_path, model):
        cfg = tmp_path / "bench.json"
        cfg.write_bytes(content)
        return ["benchmark", "--config", cfg, "--out", tmp_path / "r.csv", *flags]
    return argv


def _bench(*flags, **changes):
    """argv of a benchmark whose config is BENCH_CONFIG updated by changes."""
    return _bench_text(json.dumps({**BENCH_CONFIG, **changes}).encode(), *flags)


def _generate(*flags):
    return lambda tmp, model: ["generate", "--example", 1, "--m", 20, "--seed", 0, *flags,
                               "--out", tmp / "g.csv"]


def _bench_csv(**entry):
    """argv of a benchmark on the fixture's d.csv, its dataset entry
    updated by entry."""
    def argv(tmp_path, model):
        dataset = {"name": "d", "path": str(tmp_path / "d.csv"), **entry}
        return _bench(datasets=[dataset])(tmp_path, model)
    return argv


def _predict_on(content):
    """argv of a predict with the trained model on a file holding content."""
    def argv(tmp_path, model):
        (tmp_path / "x.csv").write_bytes(content)
        return ["predict", "--model", model, "--data", tmp_path / "x.csv",
                "--out", tmp_path / "p.csv"]
    return argv


def _replay_without_input(tmp_path, model):
    """argv of a replay of a train manifest whose data file is gone."""
    data = tmp_path / "gone.csv"
    data.write_bytes((tmp_path / "d.csv").read_bytes())
    assert run(["train", "--data", data, "--method", "lsqtsvm",
                "--model-out", tmp_path / "gone.json"]) == 0
    data.unlink()
    return ["replay", tmp_path / "gone.json.manifest.json"]


def _replay_unwritable(tmp_path, model):
    """argv of a replay of a train manifest whose model_out names a directory
    that does not exist and whose fit would fail with exit 1 (c2 = 1e300):
    exit 2 shows that the output was refused before the fit."""
    doc = json.loads(Path(f"{model}.manifest.json").read_text())
    doc["flags"].update(method="cl1qtsvm", c1=1.0, c2=1e300,
                        model_out=str(tmp_path / "missing" / "t.json"))
    (tmp_path / "moved.manifest.json").write_text(json.dumps(doc))
    return ["replay", tmp_path / "moved.manifest.json"]


def _unwritable(make):
    """argv of make with its output path moved into a directory that does
    not exist."""
    def argv(tmp_path, model):
        args = make(tmp_path, model)
        i = max(i for i, a in enumerate(args) if a in ("--out", "--model-out")) + 1
        args[i] = tmp_path / "missing" / Path(args[i]).name
        return args
    return argv


def _curves(m_per_class):
    return [{"name": "curves", "example": 3, "m_per_class": m_per_class}]


def _train_wide(method):
    """argv of a train on 20 rows whose feature x2 holds finite values of
    +-(0.75-1.5)e308, alternating in sign: twice its span overflows."""
    def argv(tmp_path, model):
        rows = [f"{0.1 * i},{(0.75 + 0.75 * i / 19) * 1e308 * (-1) ** i!r},{(-1) ** (i // 10)}\n"
                for i in range(20)]
        (tmp_path / "wide.csv").write_text("x1,x2,label\n" + "".join(rows))
        return ["train", "--data", tmp_path / "wide.csv", "--method", method,
                "--model-out", tmp_path / "t.json"]
    return argv


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
    (_predict_with_model(lambda doc: doc.update(n=float("inf"))), 1),
    (_predict_with_model(lambda doc: doc["surface_pos"].update(c="1.5")), 1),
    (_predict_with_model(lambda doc: doc["surface_neg"].update(
        b=[True] * len(doc["surface_neg"]["b"]))), 1),
    (_predict_with_model(lambda doc: doc["scaler"].update(
        min=[str(v) for v in doc["scaler"]["min"]])), 1),
    (_predict_with_model(lambda doc: doc["scaler"].update(
        max=[True] * len(doc["scaler"]["max"]))), 1),
    (_predict_with_model(lambda doc: doc.update(format_version=2)), 1),
    (_bench(mode="diag"), 2),
    (_bench(folds="abc"), 2),
    (_bench(seed="x"), 2),
    (_bench(noise_ratios="ab"), 2),
    (_bench(datasets=_curves("x")), 2),
    (_bench(grid={**BENCH_CONFIG["grid"], "lsqtsvm": [{"D": 1.0}]}), 2),
    (_bench(datasets=["a"]), 2),
    (_bench(methods="lsqtsvm"), 2),
    (_bench(noise_ratio=[0.1]), 2),
    (_bench(datasets=[{"name": "curves", "example": 3, "m_per_clas": 30}]), 2),
    (_bench(datasets=[{"name": "curves", "path": "d.csv", "m_per_class": 30}]), 2),
    (_bench(datasets=[{"name": "curves", "example": 3, "path": "d.csv"}]), 2),
    (_bench(datasets=[{"name": "curves", "path": "d.csv", "positive_label": None}]), 2),
    (_bench(selection="x"), 2),
    (_bench(normalize="x"), 2),
    (_bench("--jobs", 0), 2),
    (_bench("--jobs", -3), 2),
    # Two samples per class pass the 2-fold size check, so the inner-CV
    # error is raised inside a worker.
    (_bench("--jobs", 2, datasets=_curves(2), folds=2, selection="nested"), 2),
    (_unlabeled("x1,x2\n0.5,nan\n"), 2),
    (_unlabeled("x1,x2\n-inf,0.5\n"), 2),
    (_nemenyi(b"a,b,c\n0.9,x,0.7\n0.95,0.85,0.75\n"), 2),
    (_nemenyi(b"dataset,method,noise_ratio,acc\nd,a,0.0,0.9\nd,b,0.0,zz\n"), 2),
    (_nemenyi(b"a,b,c\n0.9,0.8\n0.95,0.85,0.75\n"), 2),
    (_nemenyi(b"dataset,method,noise_ratio,acc\nd,a,0.0,0.9\nd,b,0.0\n"), 2),
    (_nemenyi(b"a,b\n0.9,\xff0.8\n0.7,0.6\n"), 2),
    (lambda tmp, model: ["nemenyi", "--results", tmp / "missing.csv"], 2),
    (lambda tmp, model: ["nemenyi", "--results", tmp], 2),
    (_nemenyi(b"a,b\n0.9,nan\n0.7,0.6\n"), 2),
    (_replay(b'{"command": "generate", "flags": {"out": "\xff"}}'), 2),
    (_replay(b'{"command": 5}'), 2),
    (_replay(b'{"command": "generate", "flags": {"example": 1, "m": 5, "out": ["a"]}}'), 2),
    (_train("cl1qtsvm", "--c1", "nan"), 2),
    (_train("cl1qtsvm", "--eps", "nan"), 2),
    (_train("cl1qtsvm", "--c2", "inf"), 2),
    (_train("lsqtsvm", "--c2", "nan"), 2),
    (_train("cl1qtsvm", "--eps", "inf"), 2),
    (_written("scores.csv", b"a,b\n0.9,0.8\n0.7,0.6\n", ["nemenyi", "--q-alpha", "nan", "--results"]), 2),
    (_written("scores.csv", b"a,b\n0.9,0.8\n0.7,0.6\n", ["nemenyi", "--q-alpha", "-1", "--results"]), 2),
    (_generate("--noise-ratio", "nan"), 2),
    (_generate("--noise-ratio", "-0.5"), 2),
    (_bench_csv(label_column=5), 2),
    (_predict_on(b"1,2,3,4\n5,6,7,8\n"), 2),
    (_bench_text(b"{not json"), 2),
    (_bench_text(b"[1, 2]"), 2),
    (_bench(datasets=[{"name": "curves"}]), 2),
    (_bench(datasets=_curves(2), folds=2, selection="nested"), 2),
    (_nemenyi(b"dataset,method,noise_ratio,acc\n"), 2),
    (_replay_without_input, 2),
    (_train_wide("cl1qtsvm"), 2),
    (_train_wide("lsqtsvm"), 2),
    (_predict_with_model(lambda doc: doc["scaler"].update(min=[-1e308, 0.0], max=[1e308, 1.0])),
     1),
    (_predict_on(b"x1,x2\n1e308,0.5\n0.1,0.5\n"), 2),
    (_predict_on(b"x1,x2\n1e200,0.5\n1e150,0.5\n0.1,0.5\n"), 2),
    (_unwritable(_generate()), 2),
    (_unwritable(_train("lsqtsvm")), 2),
    (_unwritable(_predict_on(b"x1,x2\n0.1,0.5\n")), 2),
    (_unwritable(_bench()), 2),
    (_train("cl1qtsvm", "--c1", "1", "--c2", "1e300"), 1),
    (_bench(grid={**BENCH_CONFIG["grid"], "cl1qtsvm": [{"c1": 1, "c2": 1e300}]}), 1),
    (_bench(methods=["lsqtsvm", "lsqtsvm"], grid={"lsqtsvm": BENCH_CONFIG["grid"]["lsqtsvm"]}),
     2),
    (_bench(noise_ratios=[0.1, 0.1]), 2),
    (_replay_unwritable, 2),
], ids=["unlabeled-header", "unlabeled-blank-first-line", "missing-model", "model-mode", "model-b", "model-scaler",
        "model-n-inf", "model-c-string", "model-b-bool", "model-min-string", "model-max-bool",
        "model-version",
        "config-mode", "config-folds", "config-seed", "config-noise-ratios", "config-m-per-class",
        "config-grid-key", "config-dataset-entry", "config-methods-string", "config-unknown-key",
        "config-unknown-example-key", "config-unknown-path-key", "config-example-and-path",
        "config-positive-label-null", "config-selection", "config-normalize", "jobs-zero",
        "jobs-negative", "jobs-2-cell-error", "unlabeled-nan", "unlabeled-inf",
        "nemenyi-raw-text", "nemenyi-results-text", "nemenyi-ragged", "nemenyi-results-no-acc",
        "nemenyi-not-utf8", "nemenyi-missing", "nemenyi-directory", "nemenyi-nan",
        "replay-not-utf8", "replay-command-number", "replay-flag-list", "train-c1-nan",
        "train-eps-nan", "train-c2-inf", "lsq-c2-nan", "train-eps-inf", "nemenyi-q-alpha-nan",
        "nemenyi-q-alpha-negative", "generate-noise-nan", "generate-noise-negative",
        "config-label-column-out-of-range", "predict-width", "config-not-json",
        "config-array", "config-dataset-no-source", "nested-split-too-small",
        "nemenyi-results-no-rows", "replay-input-gone", "train-cl1-span-overflows",
        "train-lsq-span-overflows", "model-scaler-span-overflows", "predict-scaling-overflows",
         "predict-distance-overflows", "generate-out-unwritable", "train-out-unwritable",
        "predict-out-unwritable", "benchmark-out-unwritable", "train-c2-overflows",
        "config-c2-overflows", "config-methods-repeated", "config-noise-ratios-repeated",
        "replay-out-unwritable"])
def test_cli_failures_are_clean(trained, argv, code):
    # Each input exits with its code, and on failure with one error: line
    # and nothing else on stderr, such as a traceback or a RuntimeWarning.
    # Most of them once ended otherwise.
    src = str(Path(qtsvm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    args = [str(a) for a in argv(trained, trained / "model.json")]
    # Every path is absolute; the working directory catches a file written
    # under a relative name.
    proc = subprocess.run([sys.executable, "-m", "qtsvm.cli", *args], env=env, cwd=trained,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == (1 if code else 0), proc.stderr
    assert all(line.startswith("error:") for line in lines), proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert len((trained / "p.csv").read_text().splitlines()) == 41



# Runs qtsvm.cli with argv[2:] under an address-space limit of argv[1]
# bytes, echoes its stderr and prints its exit code and peak RSS in KiB.
# The peak is taken in this fresh, small interpreter: a child's ru_maxrss
# starts from the RSS of the process it was forked from, which under pytest
# is larger than anything the CLI itself allocates here.
_BOUNDED_CLI = """
import resource, subprocess, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
proc = subprocess.run([sys.executable, "-m", "qtsvm.cli", *sys.argv[2:]],
                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
sys.stderr.write(proc.stderr)
print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""

# Room for Python, numpy and one OpenBLAS thread, far less than the
# 3.35 GiB index array of np.triu_indices(30000) that a full-mode length
# check once built, so a check that allocates O(n^2) fails at once instead
# of paging.
FORGED_MODEL_ADDRESS_SPACE = 2 * 2**30


def _forged_model(path, mode, n, head):
    """A model file of n features whose surfaces are all zeros, with head
    entries in each w_head; compact JSON, a few bytes per number."""
    zeros = [0.0] * n
    side = {"w_head": [0.0] * head, "b": zeros, "c": 0.0}
    path.write_text(json.dumps({"format_version": 1, "mode": mode, "n": n,
                                "scaler": {"min": zeros, "max": zeros},
                                "surface_pos": side, "surface_neg": side}))


@pytest.mark.parametrize("mode, n, head, code, message, bound_mb", [
    # 0.6 MB: n(n+1)/2 head entries are due, 5 are given.  This once peaked
    # at 895 MB and ended in numpy's allocation traceback.  Measured at
    # 36 MB, where a bare import of qtsvm.cli takes 30 MB.
    ("full", 30_000, 5, 1, "w_pos has shape (30006,), expected (450045001,)", 60),
    # 3 MB, and consistent: each diagonal is kept as its n numbers, where W
    # was once formed as 74.5 GiB of (n, n).  Measured at 61 MB.
    ("reduced", 100_000, 100_000, 2, "has 3 columns; model expects n=100000", 100),
])
def test_forged_model_costs_its_file_size(tmp_path, mode, n, head, code, message, bound_mb):
    _forged_model(tmp_path / "model.json", mode, n, head)
    (tmp_path / "d.csv").write_text("x1,x2,label\n0.5,0.5,1\n")
    src = str(Path(qtsvm.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["predict", "--model", tmp_path / "model.json", "--data", tmp_path / "d.csv",
            "--out", tmp_path / "p.csv"]
    proc = subprocess.run([sys.executable, "-c", _BOUNDED_CLI, str(FORGED_MODEL_ADDRESS_SPACE),
                           *map(str, argv)], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    exit_code, peak_kib = map(int, proc.stdout.split())
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert exit_code == code, proc.stderr
    assert len(errors) == 1 and message in errors[0], proc.stderr
    assert "Traceback" not in proc.stderr
    assert peak_kib / 1024 < bound_mb, peak_kib
