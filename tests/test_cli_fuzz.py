"""Property tests: malformed benchmark configs, model files, CSVs, score
tables and manifests end in exit code 1 or 2 with exactly one ``error:``
line, never in a traceback.

Every mutation draws from non-numeric JSON values (strings that do not parse
as numbers, null, lists and objects of those), so no mutated config can turn
into a valid, and possibly long, sweep.
"""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qtsvm.cli import main


def _numeric(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6).filter(
    lambda t: not _numeric(t))
LEAF = st.none() | TEXT
# A CSV cell that is not a finite number: text, or what float() reads as NaN or inf.
CELL = TEXT | st.sampled_from(["nan", "inf", "-inf"])
# The kind of value is drawn first and evenly, so null and flat lists come up
# as often as nested ones.
JUNK = st.sampled_from([
    st.none(), TEXT, st.lists(LEAF, max_size=3), st.dictionaries(TEXT, LEAF, max_size=2),
    st.lists(st.lists(LEAF, max_size=2) | st.dictionaries(TEXT, LEAF, max_size=2), max_size=2),
]).flatmap(lambda kind: kind)
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.too_slow])


def _paths(doc, skip=()):
    """Every key or index path into a JSON document, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if key in skip:
            continue
        yield (key,)
        if isinstance(value, (dict, list)):
            yield from ((key, *rest) for rest in _paths(value, skip))


_DELETE = object()


def _replaced(doc, path, value):
    """A copy of doc with the value at path replaced, or deleted."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is _DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


def _fail(argv):
    """Run argv, which must fail cleanly; return its exit code and error line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (1, 2), err.getvalue()
    assert len(errors) == 1, err.getvalue()
    return code, errors[0]


def _run(argv):
    return _fail(argv)[0]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    assert main(["generate", "--example", "1", "--m", "20", "--seed", "0",
                 "--out", str(tmp / "d.csv")]) == 0
    assert main(["train", "--data", str(tmp / "d.csv"), "--method", "lsqtsvm",
                 "--model-out", str(tmp / "model.json")]) == 0
    # A predict manifest that no other property overwrites.
    assert main(["predict", "--model", str(tmp / "model.json"), "--data", str(tmp / "d.csv"),
                 "--out", str(tmp / "replayed.csv")]) == 0
    (tmp / "bench.json").write_text(json.dumps(CONFIG))
    assert main(["benchmark", "--config", str(tmp / "bench.json"),
                 "--out", str(tmp / "results.csv")]) == 0
    return tmp


# Any nonempty string is a valid dataset name, and an object in place of the
# whole grid selects the default grids, so neither is mutated.
CONFIG = {
    "seed": 3, "folds": 3, "repeats": 1, "selection": "flat", "mode": "full",
    "normalize": "full", "methods": ["cl1qtsvm", "lsqtsvm"],
    "datasets": [{"name": "curves", "example": 3, "m_per_class": 30}],
    "noise_ratios": [0.0, 0.1],
    "grid": {"cl1qtsvm": [{"c1": 0.01, "c2": 0.01}], "lsqtsvm": [{"C": 0.001}]},
}
CONFIG_PATHS = [p for p in _paths(CONFIG, skip=("name",)) if p != ("grid",)]


@FUZZ
@given(path=st.sampled_from(CONFIG_PATHS), value=JUNK)
def test_mutated_config_fails_cleanly(files, path, value):
    cfg = files / "bench.json"
    cfg.write_text(json.dumps(_replaced(CONFIG, path, value)))
    assert _run(["benchmark", "--config", cfg, "--out", files / "r.csv", "--jobs", 1]) == 2


@FUZZ
@given(path=st.sampled_from([(), ("datasets", 0)]), key=TEXT, value=JUNK)
def test_config_with_an_unknown_key_fails_cleanly(files, path, key, value):
    # Inserted at the top level or into the dataset entry, a key the config
    # does not know is named in the error, whatever its value.  (A dataset
    # entry with both 'example' and 'path' fails with its own message.)
    doc = json.loads(json.dumps(CONFIG))
    target = doc if not path else doc[path[0]][path[1]]
    assume(key not in target and key not in ("example", "path"))
    target[key] = value
    cfg = files / "bench.json"
    cfg.write_text(json.dumps(doc))
    code, error = _fail(["benchmark", "--config", cfg, "--out", files / "r.csv", "--jobs", 1])
    assert code == 2
    assert f"unknown key {key!r}" in error


@FUZZ
@given(data=st.data())
def test_mutated_model_fails_cleanly(files, data):
    doc = json.loads((files / "model.json").read_text())
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(st.just(_DELETE) | JUNK)
    bad = files / "bad.json"
    bad.write_text(json.dumps(_replaced(doc, path, value)))
    assert _run(["predict", "--model", bad, "--data", files / "d.csv",
                 "--out", files / "p.csv"]) == 1


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _with_cell(data, rows, cols, path):
    """Write rows to path with one cell below the first row, in one of cols,
    replaced by a CELL."""
    row = data.draw(st.integers(1, len(rows) - 1))
    rows[row][data.draw(st.sampled_from(cols))] = data.draw(CELL)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path


def _with_stray_byte(data, source, path):
    # A byte that never starts a UTF-8 sequence, anywhere in the file.
    raw = source.read_bytes()
    at = data.draw(st.integers(0, len(raw)))
    byte = data.draw(st.sampled_from([b"\x80", b"\xbf", b"\xff"]))
    path.write_bytes(raw[:at] + byte + raw[at:])
    return path


@FUZZ
@given(data=st.data(), command=st.sampled_from(["train", "predict", "predict-bare"]))
def test_mutated_csv_fails_cleanly(files, data, command):
    rows = _rows(files / "d.csv")
    if command == "predict-bare":
        rows = [row[:-1] for row in rows]
    bad = _with_cell(data, rows, range(len(rows[0])), files / "bad.csv")
    argv = (["train", "--data", bad, "--method", "lsqtsvm", "--model-out", files / "m2.json"]
            if command == "train" else
            ["predict", "--model", files / "model.json", "--data", bad, "--out", files / "p.csv"])
    assert _run(argv) == 2


@FUZZ
@given(data=st.data())
def test_csv_with_a_stray_byte_fails_cleanly(files, data):
    bad = _with_stray_byte(data, files / "d.csv", files / "bad.csv")
    assert _run(["train", "--data", bad, "--method", "lsqtsvm",
                 "--model-out", files / "m2.json"]) == 2


RAW_SCORES = [["dataset", "a", "b", "c"], ["d1", "0.9", "0.8", "0.7"],
              ["d2", "0.95", "0.85", "0.75"], ["d3", "0.9", "0.7", "0.6"]]


@FUZZ
@given(data=st.data(), source=st.sampled_from(["results", "raw", "stray-byte"]))
def test_mutated_scores_fail_cleanly(files, data, source):
    # Every (dataset, noise ratio) of the results table has both methods, so
    # a changed key, method name or accuracy is a fault; the other columns
    # are not read.  The raw matrix keeps its header and dataset names.
    bad = files / "scores.csv"
    if source == "results":
        rows = _rows(files / "results.csv")
        cols = [rows[0].index(name) for name in ("dataset", "method", "noise_ratio", "acc")]
        _with_cell(data, rows, cols, bad)
    elif source == "raw":
        _with_cell(data, [list(row) for row in RAW_SCORES], [1, 2, 3], bad)
    else:
        _with_stray_byte(data, files / "results.csv", bad)
    assert _run(["nemenyi", "--results", bad]) == 2


@FUZZ
@given(data=st.data())
def test_mutated_manifest_fails_cleanly(files, data):
    # replay reads only the command, the flags and the input hashes.  Any
    # output path and an absent seed flag are valid, and so is an empty
    # input table, so none of those is mutated.
    doc = json.loads((files / "replayed.csv.manifest.json").read_text())
    paths = [p for p in _paths(doc, skip=("out", "seed", "version", "wall_clock", "outputs"))
             if p != ("inputs",)]
    bad = files / "bad.manifest.json"
    bad.write_text(json.dumps(_replaced(doc, data.draw(st.sampled_from(paths)), data.draw(JUNK))))
    _run(["replay", bad])
