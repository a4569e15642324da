"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function defined in a ``qtsvm``
module and rebinds the wrapper under every module-level name (and every
module-level dict value) bound to the original, so calls made through
``from .x import f`` are seen too.  ``uninstall`` restores the originals.
Each wrapper times its call and charges the time not covered by nested
wrapped calls to its own layer (the module it is defined in).  A function
that does not exist at this commit is simply never wrapped; the metrics
that depend only on such functions are reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

from checks import descends


def _smw_flops(l, a, b):
    """Dominant flops of one SMW solve: l lifted rows, a own and b other
    samples (Gram, two Cholesky factors, Y Z_other, K)."""
    return 2 * a * a * l + a**3 / 3 + 4 * l * a * b + 2 * a * a * b + 2 * b * b * l + b**3 / 3


def _direct_flops(l, a, b):
    """Dominant flops of one direct solve: both weighted Gram products of
    the l x l system and its Cholesky factor."""
    return 2 * l * l * (a + b) + l**3 / 3


def _covered(intervals, t0, t1) -> float:
    """Length of the union of intervals, clipped to [t0, t1]."""
    total, reach = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, t1)
        if b > a:
            total += b - a
            reach = b
    return total


class _ThreadState:
    """What one thread has recorded; merged when metrics are read."""

    def __init__(self):
        self.main = threading.current_thread() is threading.main_thread()
        self.frames: list[list] = []  # child intervals of each open span
        self.fits: list[list] = []  # solve shapes of each open fit
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)  # by layer
        self.counts = defaultdict(float)
        self.peak_weight = 0.0


class Tracer:
    def __init__(self):
        self.present: set[str] = set()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        # Root spans of worker threads (the CLI's --jobs pool).  While the
        # main thread waits on them, that wait is not its layer's self time.
        self._foreign: list = []
        self._patched: list = []

    # -- wrapping -----------------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "qtsvm" or name.startswith("qtsvm."))}
        wrappers = {}
        for name, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == name):
                    layer = name.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{attr}"))
                    self.present.add(f"{layer}.{attr}")
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod.__dict__, attr, obj))
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        hit = wrappers.get(id(val))
                        if hit is not None and hit[0] is val:
                            obj[key] = hit[1]
                            self._patched.append((obj, key, val))

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            target[key] = original
        self._patched.clear()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, fn, layer, qualname):
        hook = getattr(self, "_after_" + qualname.replace(".", "_"), None)
        tracer = self
        is_fit = qualname == "solver_cl1.fit"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            if is_fit:
                st.fits.append([])
            st.frames.append([])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if is_fit:
                    st.fits.pop()
                raise
            finally:
                t1 = time.perf_counter()
                kids = st.frames.pop()
                if st.frames:
                    st.frames[-1].append((t0, t1))
                elif not st.main:
                    tracer._foreign.append((t0, t1))
                if st.main and tracer._foreign:
                    covered = _covered(kids + tracer._foreign, t0, t1)
                    if not st.frames:
                        tracer._foreign.clear()
                else:
                    covered = sum(b - a for a, b in kids)
                st.calls[qualname] += 1
                st.total_s[qualname] += t1 - t0
                st.self_s[layer] += t1 - t0 - covered
            if hook is not None:
                hook(st, args, result)
            return result

        return wrapper

    # -- hooks: counts taken at the layer boundary --------------------------

    @staticmethod
    def _after_lifting_lift_matrix(st, args, result):
        st.counts["lifting.rows"] += result.shape[0]

    @staticmethod
    def _after_lifting_lift(st, args, result):
        st.counts["lifting.rows"] += 1

    @staticmethod
    def _after_data_load_csv(st, args, result):
        st.counts["data.csv_rows"] += result.m

    @staticmethod
    def _record_solve(st, side, args):
        if st.fits:
            Z_own, Z_other = (args[0], args[1]) if side == "pos" else (args[1], args[0])
            st.fits[-1].append((side, Z_own.shape[0], Z_own.shape[1], Z_other.shape[1]))

    def _after_solver_cl1_update_w_plus(self, st, args, result):
        self._record_solve(st, "pos", args)

    def _after_solver_cl1_update_w_minus(self, st, args, result):
        self._record_solve(st, "neg", args)

    @staticmethod
    def _after_solver_cl1_fit(st, args, result):
        solves = st.fits.pop()
        report = result[1]
        subs = {"pos": report.pos, "neg": report.neg}
        flops = 0.0
        for side, l, a, b in solves:
            smw = subs[side].branch_used == "smw"
            flops += _smw_flops(l, a, b) if smw else _direct_flops(l, a, b)
        peak = max(float(max(s.final_state.q.max(initial=0.0),
                             s.final_state.u.max(initial=0.0))) for s in subs.values())
        st.counts["solver_cl1.flop"] += flops
        st.peak_weight = max(st.peak_weight, peak)
        for s in subs.values():
            st.counts["solver_cl1.irls_iters"] += s.iterations_used
            st.counts["solver_cl1.unconverged"] += not s.converged
            st.counts[f"solver_cl1.{s.branch_used}_subproblems"] += 1
            st.counts["solver_cl1.objective_rises"] += not descends(s.objective_trace)

    # -- metrics ------------------------------------------------------------

    def metrics(self, rounds: int) -> tuple[dict, list]:
        """Per-layer metrics per traced round, and the names of metrics whose
        functions do not exist at this commit."""
        m = _ThreadState()
        for st in self._states:
            for table in ("calls", "total_s", "self_s", "counts"):
                for key, val in getattr(st, table).items():
                    getattr(m, table)[key] += val
            m.peak_weight = max(m.peak_weight, st.peak_weight)

        def total(names, table=m.total_s):
            return sum(table[n] for n in names)

        solve = ("solver_cl1.update_w_plus", "solver_cl1.update_w_minus")
        weights = ("solver_cl1.compute_weights_pos", "solver_cl1.compute_weights_neg")
        objective = ("solver_cl1.objective_plus", "solver_cl1.objective_neg")
        fit = ("solver_cl1.fit",)
        predict = ("model.predict_many", "model.predict")
        io = ("model.save_model", "model.load_model")
        solve_calls, solve_s = total(solve, m.calls), total(solve)
        csv_s = m.total_s["data.load_csv"]
        per = 1.0 / rounds
        layer_present = {q.split(".", 1)[0] for q in self.present}
        spec = [
            ("solver_cl1.solve_calls", "calls/round", solve, solve_calls * per),
            ("solver_cl1.solve_s", "s/round", solve, solve_s * per),
            ("solver_cl1.solve_us_per_call", "us", solve,
             1e6 * solve_s / solve_calls if solve_calls else 0.0),
            ("solver_cl1.weights_s", "s/round", weights, total(weights) * per),
            ("solver_cl1.objective_s", "s/round", objective, total(objective) * per),
            ("solver_cl1.self_s", "s/round", "solver_cl1", m.self_s["solver_cl1"] * per),
            ("solver_cl1.irls_iters", "iters/round", fit,
             m.counts["solver_cl1.irls_iters"] * per),
            ("solver_cl1.unconverged", "count/round", fit,
             m.counts["solver_cl1.unconverged"] * per),
            ("solver_cl1.gflop", "GFLOP/round", solve, 1e-9 * m.counts["solver_cl1.flop"] * per),
            ("solver_cl1.smw_subproblems", "count/round", fit,
             m.counts["solver_cl1.smw_subproblems"] * per),
            ("solver_cl1.direct_subproblems", "count/round", fit,
             m.counts["solver_cl1.direct_subproblems"] * per),
            ("solver_cl1.peak_weight", "weight", fit, m.peak_weight),
            ("solver_cl1.objective_rises", "count/round", fit,
             m.counts["solver_cl1.objective_rises"] * per),
            ("lifting.self_s", "s/round", "lifting", m.self_s["lifting"] * per),
            ("lifting.rows", "rows/round", ("lifting.lift_matrix", "lifting.lift"),
             m.counts["lifting.rows"] * per),
            ("solver_lsq.fits", "fits/round", ("solver_lsq.fit_lsq",),
             m.calls["solver_lsq.fit_lsq"] * per),
            ("solver_lsq.self_s", "s/round", "solver_lsq", m.self_s["solver_lsq"] * per),
            ("model.predict_s", "s/round", predict, total(predict) * per),
            ("model.predict_calls", "calls/round", predict, total(predict, m.calls) * per),
            ("model.io_s", "s/round", io, total(io) * per),
            ("data.csv_rows_per_s", "rows/s", ("data.load_csv",),
             m.counts["data.csv_rows"] / csv_s if csv_s else 0.0),
            ("data.self_s", "s/round", "data", m.self_s["data"] * per),
            ("evaluation.self_s", "s/round", "evaluation", m.self_s["evaluation"] * per),
            ("evaluation.cv_calls", "calls/round", ("evaluation.cross_validate",),
             m.calls["evaluation.cross_validate"] * per),
            ("cli.self_s", "s/round", "cli", m.self_s["cli"] * per),
        ]
        out, absent = {}, []
        for name, unit, needs, value in spec:
            exists = (needs in layer_present if isinstance(needs, str)
                      else any(q in self.present for q in needs))
            if exists:
                out[name] = {"value": value, "unit": unit}
            else:
                absent.append(name)
        return out, absent
