"""Cold-start wall time and peak RSS of qtsvm commands, one fresh process each.

    python3 scripts/cold_start.py --tree parent=../old --tree change=. --pairs 10

Each --tree names the root of a qtsvm source tree; its src/ directory is
put on PYTHONPATH, with nothing installed.  The inputs are built once, with the
first tree: a 400-row training CSV (example 3, 200 per class, seed 0), a
capped-L1 model trained on it, and a 15 x 4 score matrix with ties.  Then,
for each pair, every command runs once per tree in a fresh interpreter with
BLAS pinned to one thread, the trees alternating which goes first (odd
pairs the first tree).  A run's wall time includes interpreter start and
imports; its peak RSS is that process's own (``wait4``).  Prints one JSON
object: every run, and each tree's median per command.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = {
    "import": ["-c", "import qtsvm.cli"],
    "predict": ["-m", "qtsvm.cli", "predict", "--model", "{dir}/model.json",
                "--data", "{dir}/train.csv", "--out", "{dir}/pred.csv"],
    "nemenyi": ["-m", "qtsvm.cli", "nemenyi", "--results", "{dir}/scores.csv"],
}


def env_for(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")


def timed_run(argv, env) -> tuple[float, float]:
    """Wall seconds and peak RSS (MB) of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    if proc.returncode != 0:
        raise SystemExit(f"error: {argv} exited {proc.returncode}\n{err}")
    return wall, usage.ru_maxrss / 1024.0


def build_inputs(tree: Path, d: str):
    env = env_for(tree)
    for argv in (["generate", "--example", "3", "--m", "200", "--seed", "0",
                  "--out", f"{d}/train.csv"],
                 ["train", "--data", f"{d}/train.csv", "--method", "cl1qtsvm", "--c1", "0.01",
                  "--c2", "0.01", "--model-out", f"{d}/model.json"]):
        subprocess.run([sys.executable, "-m", "qtsvm.cli", *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL)
    # Four methods on 15 datasets, scores from a small set so that rows tie.
    levels = (0.7, 0.8, 0.8, 0.9)
    rows = [[levels[(i * j + i) % 4] for j in range(4)] for i in range(15)]
    Path(d, "scores.csv").write_text("a,b,c,d\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in rows))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tree", action="append", required=True, metavar="NAME=PATH")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    trees = {name: Path(path).resolve()
             for name, path in (t.split("=", 1) for t in args.tree)}
    runs = []
    with tempfile.TemporaryDirectory() as d:
        build_inputs(next(iter(trees.values())), d)
        for pair in range(1, args.pairs + 1):
            order = list(trees) if pair % 2 else list(trees)[::-1]
            for command, template in COMMANDS.items():
                for name in order:
                    wall, rss = timed_run([a.format(dir=d) for a in template],
                                          env_for(trees[name]))
                    runs.append({"pair": pair, "tree": name, "command": command,
                                 "wall_s": wall, "peak_rss_mb": rss})
    medians = {name: {command: {key: statistics.median(r[key] for r in runs
                                                       if r["tree"] == name
                                                       and r["command"] == command)
                                for key in ("wall_s", "peak_rss_mb")}
                      for command in COMMANDS}
               for name in trees}
    print(json.dumps({"runs": runs, "medians": medians}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
