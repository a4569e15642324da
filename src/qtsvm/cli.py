"""Command-line interface: dataset generation, training, prediction,
benchmark sweeps, and the Nemenyi test.

Every command that writes artifacts also writes a ``<output>.manifest.json``
recording the command and all flags; ``qtsvm replay <manifest>`` reruns it
and reproduces the outputs byte for byte at the same BLAS thread count.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import fields

from . import __version__
from .data import (
    CSV_BLOCK_CELLS,
    GENERATORS,
    first_row_width,
    inject_label_noise,
    load_csv,
    load_features,
    load_labelled,
    load_scores,
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


def _write_csv(path, rows):
    """Write dicts of Python scalars under a header of the first one's keys;
    the csv module writes a float as its shortest round-trip ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _write_labelled_matrix(path, X, labels, label_name):
    """Write a float matrix as columns x1..xn and integer labels as a last
    column, as ``_write_csv`` would.  Numbers never need quoting, so each
    column of a block of rows is formatted at once and the rows are joined
    without csv."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"x{i + 1}" for i in range(X.shape[1])] + [label_name]) + "\n")
        rows = max(1, CSV_BLOCK_CELLS // (X.shape[1] + 1))
        for start in range(0, len(X), rows):
            block = slice(start, start + rows)
            cols = [map(repr, col) for col in X[block].T.tolist()]
            cols.append(map(str, labels[block].astype(int).tolist()))
            fh.writelines(",".join(row) + "\n" for row in zip(*cols))


def _sha256(path) -> str:
    import hashlib

    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()


def _write_manifest(args, out_path, outputs, inputs=()):
    """Record the command, every parsed flag, its outputs and the sha256 of
    each input file, so that ``replay`` can refuse inputs that changed."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    doc = {
        "command": args.command,
        "flags": flags,
        "seed": flags.get("seed"),
        "version": __version__,
        "wall_clock": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "outputs": outputs,
        "inputs": {str(path): _sha256(path) for path in inputs},
    }
    with open(f"{out_path}.manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cmd_generate(args) -> int:
    d = GENERATORS[args.example](args.m, args.seed)
    # A ratio of 0 returns the same samples; a bad one is rejected.
    d = inject_label_noise(d, args.noise_ratio, seed=args.seed + 1)
    _write_labelled_matrix(args.out, *d.stacked(), "label")
    _write_manifest(args, args.out, [args.out])
    print(f"wrote {d.m} samples ({d.m_pos} positive, {d.m_neg} negative) to {args.out}")
    return 0


def cmd_train(args) -> int:
    dataset = load_csv(args.data)
    report: dict = {"method": args.method, "mode": args.mode}
    if args.method == "cl1qtsvm":
        cfg = SolverConfig(c1=args.c1, c2=args.c2, cap_eps=args.eps,
                           max_iter=args.max_iter)
        model, fit_report = fit(dataset, cfg, mode=args.mode)
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
        model = fit_lsq(dataset, C=args.c2, mode=args.mode)
        report["C"] = args.c2
    save_model(model, args.model_out)

    X, y = dataset.stacked()
    counts = counts_from_predictions(y, predict_many(model, X))
    report["train_accuracy"] = accuracy(counts)
    report_path = f"{args.model_out}.report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    _write_manifest(args, args.model_out, [args.model_out, report_path], [args.data])
    print(f"trained {args.method}; training accuracy {report['train_accuracy']:.4f}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    width = first_row_width(args.data)
    if width == model.n:
        X = load_features(args.data)
        y = None
    elif width == model.n + 1:
        X, y = load_labelled(args.data)
    else:
        raise InvalidInputError(
            f"{args.data} has {width} columns; model expects n={model.n} "
            f"features (plus an optional label column)"
        )
    preds = predict_many(model, X)
    _write_labelled_matrix(args.out, X, preds, "prediction")
    _write_manifest(args, args.out, [args.out], [args.model, args.data])
    if y is not None:
        counts = counts_from_predictions(y, preds)
        print(f"accuracy {accuracy(counts):.4f} f1 {f1(counts):.4f}")
    else:
        print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


_TRAINERS = {trainer.name: trainer for trainer in (CL1Trainer, LSQTrainer)}
_GRID_KEYS = {method: set(default_grid(method)[0]) for method in _TRAINERS}
_MODES = [mode.value for mode in LiftingMode]
_CV_KEYS = [f.name for f in fields(CvSpec) if f.name != "grid"]
_CONFIG_KEYS = {*_CV_KEYS, "methods", "datasets", "noise_ratios", "grid"}
_DATASET_KEYS = {"example": {"name", "example", "m_per_class"},
                 "path": {"name", "path", "label_column", "positive_label"}}


def _config_error(msg: str):
    raise DataFormatError(f"benchmark config: {msg}")


def _number(v) -> bool:
    """A JSON number that converts to a finite float."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= 1e308


def _int_from(low):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low


def _list_of(ok):
    # A repeated entry would run again every cell or lane it is in; compared
    # by equality, so 0 and 0.0 are one noise ratio.
    return lambda v: (isinstance(v, list) and bool(v) and all(ok(x) for x in v)
                      and all(v.index(x) == i for i, x in enumerate(v)))


def _grid_of(keys):
    return _list_of(lambda p: isinstance(p, dict) and set(p) == keys
                    and all(_number(x) and x > 0 for x in p.values()))


def _known_keys(doc, allowed, where):
    # A misspelt key would otherwise be ignored and its default used.
    unknown = sorted(set(doc) - allowed)
    if unknown:
        _config_error(f"unknown key {unknown[0]!r}{where} (allowed: {sorted(allowed)})")


def _get(doc, key, default, ok, what):
    value = doc.setdefault(key, default)
    if not ok(value):
        _config_error(f"{key!r} must be {what}, got {value!r}")
    return value


def _benchmark_config(path):
    """Read and check a benchmark config before any work starts; returns (dataset
    entries by name with defaults filled in, noise ratios, CvSpec by method)."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"cannot read benchmark config: {exc}") from exc
    if not isinstance(cfg, dict):
        _config_error("expected a JSON object")
    _known_keys(cfg, _CONFIG_KEYS, "")
    methods = _get(cfg, "methods", [], _list_of(lambda m: m in list(_TRAINERS)),
                   f"a nonempty list of distinct method names from {sorted(_TRAINERS)}")
    entries = {}
    for entry in _get(cfg, "datasets", [], _list_of(lambda e: isinstance(e, dict)),
                      "a nonempty list of distinct objects"):
        name = _get(entry, "name", None, lambda v: isinstance(v, str) and v and v not in entries,
                    "a nonempty string used once")
        # An entry with both 'example' and 'path' fails here on 'path'.
        _known_keys(entry, _DATASET_KEYS["example" if "example" in entry else "path"],
                    f" in dataset {name!r}")
        if "example" in entry:
            _get(entry, "example", None, lambda v: _int_from(1)(v) and v in GENERATORS,
                 f"one of {sorted(GENERATORS)}")
            _get(entry, "m_per_class", 200, _int_from(1), "an integer >= 1")
        elif "path" in entry:
            _get(entry, "path", None, lambda v: isinstance(v, str), "a string")
            _get(entry, "label_column", -1,
                 lambda v: isinstance(v, (int, str)) and not isinstance(v, bool),
                 "a column index or name")
            _get(entry, "positive_label", "1",
                 lambda v: isinstance(v, (int, float, str)) and not isinstance(v, bool),
                 "a label string or number")
        else:
            _config_error(f"dataset {name!r} needs 'example' or 'path'")
        entries[name] = entry
    ratios = _get(cfg, "noise_ratios", [0.0], _list_of(lambda r: _number(r) and 0 <= r < 1),
                  "a nonempty list of distinct numbers in [0, 1)")
    grid_cfg = _get(cfg, "grid", {}, lambda v: isinstance(v, dict), "an object keyed by method")
    # The grid of a method not in 'methods' would otherwise go unused.
    _known_keys(grid_cfg, set(methods), " in 'grid'")
    grids = {m: tuple(_get(grid_cfg, m, default_grid(m), _grid_of(_GRID_KEYS[m]),
                           f"a nonempty grid of distinct objects with exactly the keys "
                           f"{sorted(_GRID_KEYS[m])}, each a positive number"))
             for m in methods}
    try:
        specs = {m: CvSpec(grid=grid, **{k: cfg[k] for k in _CV_KEYS if k in cfg})
                 for m, grid in grids.items()}
    except InvalidInputError as exc:
        _config_error(exc)
    return entries, ratios, specs


def _benchmark_dataset(entry, seed):
    if "example" in entry:
        return GENERATORS[entry["example"]](entry["m_per_class"], seed)
    return load_csv(entry["path"], label_column=entry["label_column"],
                    positive_label=str(entry["positive_label"]))


def cmd_benchmark(args) -> int:
    if args.jobs < 1:
        raise InvalidInputError(f"--jobs must be >= 1, got {args.jobs}")
    entries, ratios, specs = _benchmark_config(args.config)
    seed = next(iter(specs.values())).seed  # the config's, in every spec
    datasets = {name: _benchmark_dataset(entry, seed) for name, entry in entries.items()}
    keys = [(name, ratio, m) for name in sorted(datasets) for ratio in ratios for m in specs]
    results = list(zip(keys, sweep_results(
        [(inject_label_noise(datasets[name], ratio, seed=seed + 1), _TRAINERS[m](), specs[m])
         for name, ratio, m in keys], jobs=args.jobs)))

    long_rows = sweep_rows(results)
    _write_csv(args.out, long_rows)
    summary_path = f"{args.out}.summary.csv"
    _write_csv(summary_path, [
        dict(dataset=ds_name, method=method, noise_ratio=ratio, acc_mean=result.acc_mean,
             acc_std=result.acc_std, f1_mean=result.f1_mean, f1_std=result.f1_std,
             best_params=json.dumps(result.best_params, sort_keys=True))
        for (ds_name, ratio, method), result in results])
    _write_manifest(args, args.out, [args.out, summary_path],
                    [args.config] + [e["path"] for e in entries.values() if "path" in e])
    print(f"wrote {len(long_rows)} result rows to {args.out}")
    return 0


def cmd_nemenyi(args) -> int:
    scores, names = load_scores(args.results)
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


class _ReplayParser(argparse.ArgumentParser):
    """Parses a command line read from a manifest, which names every flag in
    full; a bad one is a malformed input file, not a reason to exit."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise DataFormatError(f"replayed command line: {message}")


def cmd_replay(args) -> int:
    try:
        with open(args.manifest) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"cannot read manifest: {exc}") from exc
    flags = doc.get("flags", {}) if isinstance(doc, dict) else None
    if not (isinstance(flags, dict) and isinstance(doc.get("command"), str)
            and isinstance(doc.get("inputs", {}), dict)
            and all(v is None or isinstance(v, (str, int, float)) for v in flags.values())):
        raise DataFormatError(f"{args.manifest} is not a qtsvm manifest")
    argv = [doc["command"]]
    for key, value in flags.items():
        if value is None:
            continue
        argv += [f"--{key.replace('_', '-')}", str(value)]
    replayed = build_parser(_ReplayParser).parse_args(argv)
    _check_outputs(replayed)
    for path, recorded in doc.get("inputs", {}).items():
        if _sha256(path) != recorded:
            raise DataFormatError(f"input {path} changed since {args.manifest} was written")
    return replayed.func(replayed)


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = parser_class(
        prog="qtsvm",
        description="Kernel-free quadratic-surface twin SVM toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset CSV")
    p.add_argument("--example", type=int, choices=tuple(GENERATORS), required=True)
    p.add_argument("--m", type=int, default=200, help="samples per class")
    p.add_argument("--noise-ratio", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model on a labeled CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=tuple(_TRAINERS), required=True)
    defaults = SolverConfig()
    p.add_argument("--c1", type=float, default=defaults.c1)
    p.add_argument("--c2", type=float, default=defaults.c2,
                   help="penalty (cl1qtsvm) or C (lsqtsvm)")
    p.add_argument("--eps", type=float, default=defaults.cap_eps)
    p.add_argument("--max-iter", type=int, default=defaults.max_iter)
    p.add_argument("--mode", choices=_MODES, default="full")
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
    p.add_argument("--q-alpha", type=float, default=None,
                   help="override the tabulated critical value")
    p.set_defaults(func=cmd_nemenyi)

    p = sub.add_parser("replay", help="rerun a command from its manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_replay)

    return parser


def _check_outputs(args):
    # An output that cannot be written is refused before any work.
    for path in filter(None, (getattr(args, "out", None), getattr(args, "model_out", None))):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise OSError(f"{path}: not a file path in an existing directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except QtsvmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        usage = isinstance(exc, (DataFormatError, InvalidInputError))
        return USAGE_EXIT if usage else RUNTIME_EXIT
    except OSError as exc:
        # Every input is read under a QtsvmError, so this is an output path.
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
