"""Command-line interface: dataset generation, training, prediction,
benchmark sweeps, and the Nemenyi test.

Every command that writes artifacts also writes a ``<output>.manifest.json``
recording the command and all flags; ``qtsvm replay <manifest>`` reruns it
and reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import __version__
from .data import (
    GENERATORS,
    Dataset,
    _read_rows,
    inject_label_noise,
    load_csv,
    load_features,
)
from .errors import DataFormatError, InvalidInputError, QtsvmError
from .evaluation import (
    CL1Trainer,
    CvSpec,
    LSQTrainer,
    accuracy,
    counts_from_predictions,
    default_grid,
    f1,
    nemenyi_test,
    sweep_results,
    sweep_rows,
)
from .lifting import LiftingMode
from .model import load_model, predict_many, save_model
from .solver_cl1 import SolverConfig, fit
from .solver_lsq import fit_lsq

USAGE_EXIT = 2
RUNTIME_EXIT = 1


def _fmt(value) -> str:
    """Deterministic cell formatting: shortest round-trip floats."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(out_path, command, flags, outputs):
    doc = {
        "command": command,
        "flags": flags,
        "seed": flags.get("seed"),
        "version": __version__,
        "wall_clock": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "outputs": outputs,
    }
    path = f"{out_path}.manifest.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def _dataset_rows(d: Dataset):
    X, y = d.stacked()
    for row, label in zip(X, y):
        yield list(row) + [int(label)]


def cmd_generate(args) -> int:
    d = GENERATORS[args.example](args.m, args.seed)
    if args.noise_ratio > 0:
        d = inject_label_noise(d, args.noise_ratio, seed=args.seed + 1)
    header = [f"x{i + 1}" for i in range(d.n)] + ["label"]
    _write_csv(args.out, header, _dataset_rows(d))
    _write_manifest(
        args.out,
        "generate",
        {"example": args.example, "m": args.m, "noise_ratio": args.noise_ratio,
         "seed": args.seed, "out": args.out},
        [args.out],
    )
    print(f"wrote {d.m} samples ({d.m_pos} positive, {d.m_neg} negative) to {args.out}")
    return 0


def _load_labeled(path):
    return load_csv(path, label_column=-1, positive_label="1")


def cmd_train(args) -> int:
    dataset = _load_labeled(args.data)
    mode = LiftingMode(args.mode)
    report: dict = {"method": args.method, "mode": mode.value}
    if args.method == "cl1qtsvm":
        cfg = SolverConfig(c1=args.c1, c2=args.c2, cap_eps=args.eps,
                           max_iter=args.max_iter)
        model, fit_report = fit(dataset, cfg, mode=mode)
        report["subproblems"] = {
            name: {
                "iterations": rep.iterations_used,
                "converged": rep.converged,
                "branch": rep.branch_used,
                "lstsq_fallbacks": rep.lstsq_fallbacks,
                "peak_weight": rep.peak_weight,
                "objective_trace": list(rep.objective_trace),
            }
            for name, rep in (("pos", fit_report.pos), ("neg", fit_report.neg))
        }
    else:
        model = fit_lsq(dataset, C=args.c2, mode=mode)
        report["C"] = args.c2
    save_model(model, args.model_out)

    X, y = dataset.stacked()
    counts = counts_from_predictions(y, predict_many(model, X))
    report["train_accuracy"] = accuracy(counts)
    report_path = f"{args.model_out}.report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    _write_manifest(
        args.model_out,
        "train",
        {"data": args.data, "method": args.method, "c1": args.c1, "c2": args.c2,
         "eps": args.eps, "max_iter": args.max_iter, "mode": args.mode,
         "model_out": args.model_out, "seed": None},
        [args.model_out, report_path],
    )
    print(f"trained {args.method}; training accuracy {report['train_accuracy']:.4f}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    width = len(_read_rows(args.data)[0])
    if width == model.n:
        X = load_features(args.data)
        y = None
    elif width == model.n + 1:
        dataset = _load_labeled(args.data)
        X, y = dataset.stacked()
    else:
        raise InvalidInputError(
            f"{args.data} has {width} columns; model expects n={model.n} "
            f"features (plus an optional label column)"
        )
    preds = predict_many(model, X)
    rows = ([list(x) + [int(p)] for x, p in zip(X, preds)])
    header = [f"x{i + 1}" for i in range(model.n)] + ["prediction"]
    _write_csv(args.out, header, rows)
    _write_manifest(
        args.out,
        "predict",
        {"model": args.model, "data": args.data, "out": args.out, "seed": None},
        [args.out],
    )
    if y is not None:
        counts = counts_from_predictions(y, preds)
        print(f"accuracy {accuracy(counts):.4f} f1 {f1(counts):.4f}")
    else:
        print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


_TRAINERS = {"cl1qtsvm": CL1Trainer, "lsqtsvm": LSQTrainer}
_GRID_KEYS = {"cl1qtsvm": {"c1", "c2"}, "lsqtsvm": {"C"}}


def _config_error(msg: str):
    raise DataFormatError(f"benchmark config: {msg}")


def _number(v) -> bool:
    """A JSON number that converts to a finite float."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= 1e308


def _int_from(low):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low


def _list_of(ok):
    return lambda v: isinstance(v, list) and bool(v) and all(ok(x) for x in v)


def _grid_of(keys):
    return _list_of(lambda p: isinstance(p, dict) and set(p) == keys
                    and all(_number(x) and x > 0 for x in p.values()))


def _get(doc, key, default, ok, what):
    value = doc.get(key, default)
    if not ok(value):
        _config_error(f"{key!r} must be {what}, got {value!r}")
    return value


def _benchmark_config(path):
    """Read and check a benchmark config before any work starts; returns
    (dataset entries by name, trainers, noise ratios, CvSpec, grids)."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"cannot read benchmark config: {exc}") from exc
    if not isinstance(cfg, dict):
        _config_error("expected a JSON object")
    methods = _get(cfg, "methods", [], _list_of(lambda m: m in list(_TRAINERS)),
                   f"a nonempty list of method names from {sorted(_TRAINERS)}")
    entries = {}
    for entry in _get(cfg, "datasets", [], _list_of(lambda e: isinstance(e, dict)),
                      "a nonempty list of objects"):
        name = _get(entry, "name", None, lambda v: isinstance(v, str) and v and v not in entries,
                    "a nonempty string used once")
        if "example" in entry:
            _get(entry, "example", None, lambda v: _int_from(1)(v) and v in GENERATORS,
                 f"one of {sorted(GENERATORS)}")
            _get(entry, "m_per_class", 200, _int_from(1), "an integer >= 1")
        elif "path" in entry:
            _get(entry, "path", None, lambda v: isinstance(v, str), "a string")
            _get(entry, "label_column", -1,
                 lambda v: isinstance(v, (int, str)) and not isinstance(v, bool),
                 "a column index or name")
        else:
            _config_error(f"dataset {name!r} needs 'example' or 'path'")
        entries[name] = entry
    ratios = _get(cfg, "noise_ratios", [0.0], _list_of(lambda r: _number(r) and 0 <= r < 1),
                  "a nonempty list of numbers in [0, 1)")
    grid_cfg = _get(cfg, "grid", {}, lambda v: isinstance(v, dict) and set(v) <= set(_TRAINERS),
                    f"an object keyed by methods {sorted(_TRAINERS)}")
    grids = {m: tuple(_get(grid_cfg, m, default_grid(m), _grid_of(_GRID_KEYS[m]),
                           f"a nonempty grid of objects with exactly the keys "
                           f"{sorted(_GRID_KEYS[m])}, each a positive number"))
             for m in methods}
    spec = CvSpec(folds=_get(cfg, "folds", 5, _int_from(2), "an integer >= 2"),
                  repeats=_get(cfg, "repeats", 2, _int_from(1), "an integer >= 1"),
                  seed=_get(cfg, "seed", 0, _int_from(0), "an integer >= 0"),
                  grid=grids[methods[0]],
                  mode=LiftingMode(_get(cfg, "mode", "full",
                                        lambda v: v in [m.value for m in LiftingMode],
                                        "'full' or 'reduced'")),
                  selection=cfg.get("selection", "nested"),
                  normalize=cfg.get("normalize", "full"))
    return entries, [_TRAINERS[m]() for m in methods], ratios, spec, grids


def _benchmark_dataset(entry, seed):
    if "example" in entry:
        return GENERATORS[entry["example"]](entry.get("m_per_class", 200), seed)
    return load_csv(entry["path"], label_column=entry.get("label_column", -1),
                    positive_label=str(entry.get("positive_label", "1")))


def cmd_benchmark(args) -> int:
    if args.jobs < 1:
        raise InvalidInputError(f"--jobs must be >= 1, got {args.jobs}")
    entries, trainers, ratios, spec, grids = _benchmark_config(args.config)
    datasets = {name: _benchmark_dataset(entry, spec.seed) for name, entry in entries.items()}
    results = sweep_results(datasets, trainers, ratios, spec, grids, jobs=args.jobs)

    header = ["dataset", "method", "noise_ratio", "fold", "repeat", "c1", "c2", "acc", "f1"]
    long_rows = [[row[key] for key in header] for row in sweep_rows(results)]
    _write_csv(args.out, header, long_rows)
    summary_path = f"{args.out}.summary.csv"
    _write_csv(summary_path, ["dataset", "method", "noise_ratio", "acc_mean", "acc_std",
                              "f1_mean", "f1_std", "best_params"],
               ([ds_name, method, ratio, result.acc_mean, result.acc_std, result.f1_mean,
                 result.f1_std, json.dumps(result.best_params, sort_keys=True)]
                for (ds_name, ratio, method), result in results))
    _write_manifest(args.out, "benchmark", {"config": args.config, "out": args.out,
                                            "jobs": args.jobs}, [args.out, summary_path])
    print(f"wrote {len(long_rows)} result rows to {args.out}")
    return 0


def _pivot_long_results(path):
    """Mean accuracy per (dataset, noise ratio) x method from a benchmark
    results table; returns (matrix rows, method names) or None when the
    file is not in that long format."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        if not {"dataset", "method", "acc"} <= set(fields):
            return None
        cells = {}
        for rec in reader:
            key = (rec["dataset"], rec.get("noise_ratio", ""))
            cells.setdefault(key, {}).setdefault(rec["method"], []).append(
                float(rec["acc"])
            )
    names = sorted({m for per in cells.values() for m in per})
    rows = []
    for key in sorted(cells):
        per = cells[key]
        if set(per) != set(names):
            raise DataFormatError(
                f"dataset {key[0]!r} at noise {key[1]!r} lacks results "
                f"for some methods"
            )
        rows.append([float(np.mean(per[m])) for m in names])
    return rows, names


def cmd_nemenyi(args) -> int:
    pivoted = _pivot_long_results(args.results)
    if pivoted is not None:
        rows, names = pivoted
    else:
        rows = []
        names = None
        with open(args.results, newline="") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                try:
                    rows.append([float(c) for c in row])
                except ValueError:
                    if names is None and not rows:
                        names = [c.strip() for c in row]
                    else:
                        # Leading non-numeric cell: dataset label column.
                        rows.append([float(c) for c in row[1:]])
    if not rows:
        raise DataFormatError(f"{args.results}: no numeric score rows")
    if args.q_alpha is None and args.alpha != 0.05:
        raise InvalidInputError(
            "only alpha=0.05 is tabulated; pass --q-alpha for other levels"
        )
    scores = np.array(rows)
    if names is not None and len(names) == scores.shape[1] + 1:
        names = names[1:]
    if names is None or len(names) != scores.shape[1]:
        names = [f"method{i + 1}" for i in range(scores.shape[1])]
    ranks, cd, sig = nemenyi_test(scores, q_alpha=args.q_alpha)
    print(f"k={scores.shape[1]} N={scores.shape[0]} CD={cd:.4f}")
    for name, rank in sorted(zip(names, ranks), key=lambda p: p[1]):
        print(f"  {name}: mean rank {rank:.4f}")
    pairs = [
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
        if sig[i, j]
    ]
    if pairs:
        print("significantly different pairs:")
        for a, b in pairs:
            print(f"  {a} vs {b}")
    else:
        print("no significantly different pairs")
    return 0


def cmd_replay(args) -> int:
    try:
        with open(args.manifest) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot read manifest: {exc}") from exc
    command, flags = doc.get("command"), doc.get("flags", {})
    argv = [command]
    for key, value in flags.items():
        if value is None:
            continue
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtsvm",
        description="Kernel-free quadratic-surface twin SVM toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset CSV")
    p.add_argument("--example", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--m", type=int, default=200, help="samples per class")
    p.add_argument("--noise-ratio", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model on a labeled CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=("cl1qtsvm", "lsqtsvm"), required=True)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=1.0,
                   help="penalty (cl1qtsvm) or C (lsqtsvm)")
    p.add_argument("--eps", type=float, default=SolverConfig().cap_eps)
    p.add_argument("--max-iter", type=int, default=30)
    p.add_argument("--mode", choices=("full", "reduced"), default="full")
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict labels with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("benchmark", help="run a declarative benchmark config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("nemenyi", help="critical-difference test on a score matrix")
    p.add_argument("--results", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--q-alpha", type=float, default=None,
                   help="override the tabulated critical value")
    p.set_defaults(func=cmd_nemenyi)

    p = sub.add_parser("replay", help="rerun a command from its manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except QtsvmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
