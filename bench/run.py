"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload grid_cv --seed 0 --seconds 20 --trace 0

Run from the root of a qtsvm source tree; the package is imported from its
src/ directory, with nothing installed.  This launcher uses only the
standard library.  It pins BLAS to one thread, times the workload's set-up
(--trace 0) or the import of qtsvm.cli (--trace 1) in fresh interpreters,
then runs bench/workloads.py once in one more fresh interpreter, which is
the only process doing work while it is measured.
Outputs go to .bench_out/<workload>/ under the root.  The last line printed
is {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid_cv", "highdim_fit", "cli_sweep")

# One BLAS thread: with OpenBLAS's default of one per core, a full-lifting
# fit at n = 20 took 2.6-3.3 s instead of 0.25-0.28 s on a 2-core machine,
# and its time swung with whatever else the machine ran.
ENV_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# The median of five set-ups: the first in a fresh checkout also compiles
# bytecode and fills the file cache, and single set-ups swing by a quarter
# with the machine.
SETUP_REPEATS = 5


def run_budget_s(seconds: float) -> float:
    """Wall time the whole run may take before its child is killed and the
    run fails: 175 s at the default 20 s, so a run ends within 180 s, and
    room for four times --seconds plus set-up when that is longer."""
    return max(175.0, 4.0 * seconds + 60.0)


def child_env() -> dict:
    env = dict(os.environ, **ENV_PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def python(args, env, timeout):
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          check=True)


def fresh_import_s(module, env, timeout) -> float:
    code = ("import time; t = time.perf_counter(); import {0}; "
            "print(time.perf_counter() - t)").format(module)
    return float(python(["-c", code], env, timeout).stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qtsvm" / "__init__.py").is_file():
        print(f"error: no qtsvm source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = child_env()
    worker = [str(HERE / "workloads.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--out-dir", str(out_dir)]
    deadline = time.perf_counter() + run_budget_s(args.seconds)

    def left():
        return max(1.0, deadline - time.perf_counter())

    # The traced run reports no setup_s, so it spends no time on it.
    try:
        setups, import_s = [], []
        for _ in range(SETUP_REPEATS):
            if args.trace:
                import_s.append(fresh_import_s("qtsvm.cli", env, left()))
                continue
            t0 = time.perf_counter()
            python(worker + ["--setup-only"], env, left())
            setups.append(time.perf_counter() - t0)
        proc = python(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                      env, left())
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.cmd[1:3]} exited {exc.returncode}\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc.cmd[1:3]} ran past {exc.timeout} s", file=sys.stderr)
        return 1

    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    if import_s:
        metrics["cli.import_s"] = {"value": statistics.median(import_s), "unit": "s"}
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if result["absent"]:
        print("absent (no such function at this commit): " + ", ".join(result["absent"]))
    print(f"rounds={result['rounds']} notes={json.dumps(result['notes'])}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted if m["name"] in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
