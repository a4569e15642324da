"""Property tests: malformed benchmark configs, model files and CSVs end in
exit code 1 or 2 with exactly one ``error:`` line, never in a traceback.

Every mutation draws from non-numeric JSON values (strings that do not parse
as numbers, null, lists and objects of those), so no mutated config can turn
into a valid, and possibly long, sweep.
"""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
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


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (1, 2), err.getvalue()
    assert len(errors) == 1, err.getvalue()
    return code


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    assert main(["generate", "--example", "1", "--m", "20", "--seed", "0",
                 "--out", str(tmp / "d.csv")]) == 0
    assert main(["train", "--data", str(tmp / "d.csv"), "--method", "lsqtsvm",
                 "--model-out", str(tmp / "model.json")]) == 0
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
@given(data=st.data())
def test_mutated_model_fails_cleanly(files, data):
    doc = json.loads((files / "model.json").read_text())
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(st.just(_DELETE) | JUNK)
    bad = files / "bad.json"
    bad.write_text(json.dumps(_replaced(doc, path, value)))
    assert _run(["predict", "--model", bad, "--data", files / "d.csv",
                 "--out", files / "p.csv"]) == 1


@FUZZ
@given(data=st.data(), train=st.booleans())
def test_mutated_csv_fails_cleanly(files, data, train):
    with open(files / "d.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    row = data.draw(st.integers(1, len(rows) - 1))
    col = data.draw(st.integers(0, len(rows[0]) - 1))
    rows[row][col] = data.draw(TEXT)
    bad = files / "bad.csv"
    with open(bad, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    argv = (["train", "--data", bad, "--method", "lsqtsvm", "--model-out", files / "m2.json"]
            if train else
            ["predict", "--model", files / "model.json", "--data", bad, "--out", files / "p.csv"])
    assert _run(argv) == 2


@FUZZ
@given(data=st.data())
def test_csv_with_a_stray_byte_fails_cleanly(files, data):
    # A byte that never starts a UTF-8 sequence, anywhere in the file.
    raw = (files / "d.csv").read_bytes()
    at = data.draw(st.integers(0, len(raw)))
    byte = data.draw(st.sampled_from([b"\x80", b"\xbf", b"\xff"]))
    bad = files / "bad.csv"
    bad.write_bytes(raw[:at] + byte + raw[at:])
    assert _run(["train", "--data", bad, "--method", "lsqtsvm",
                 "--model-out", files / "m2.json"]) == 2
