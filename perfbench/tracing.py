"""Timing probes installed from outside the library.

Two instruments wrap public functions by replacing the module attribute
(``setattr(module, name, wrapper)``) and put the original back afterwards;
the library itself is never edited.

``CellProbe`` is always on.  It wraps only the per-cell entry points
(``dynamics.run``, ``dynamics.estimate_rate``, ``spectral.spectral_report``)
and records each cell's start and end times plus the per-cell outputs the
correctness gate compares: stop status and step count of every trajectory,
every fitted rate, and both transition radii of every spectral report.  It
costs a few microseconds per cell.

``Tracer`` is on only in traced repetitions.  It wraps every public function
the per-layer metrics name, keeps a stack of open calls, and records one
span (id, name, start, end, parent id, cell id) per call in memory.  A
call's self time is its duration minus the time covered by its child calls.
Gradient oracles run once or twice per step, so they are aggregated into
counters instead of spans, and only the outermost oracle call is counted
(``stochastic_grad`` calls ``grad`` internally).  A name that the library no
longer has is reported as missing instead of raising.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from minimax_gda import cli, dynamics, harness, linalg, problems, spectral, verify

_clock = time.perf_counter


class _Patch:
    """Module attributes replaced by wrappers, restored in reverse order."""

    def __init__(self):
        self._saved = []
        self.missing = set()

    def wrap(self, module, name, make_wrapper):
        fn = getattr(module, name, None)
        if fn is None:
            self.missing.add(f"{module.__name__.rsplit('.', 1)[-1]}.{name}")
            return
        self._saved.append((module, name, fn))
        setattr(module, name, make_wrapper(fn))

    def restore(self):
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)


def _steps_of(traj):
    step = traj.status.step
    return int(step) if step is not None else int(traj.config.max_iters)


class CellProbe:
    """Per-cell latencies and outputs, collected for one repetition."""

    def __init__(self):
        self._patch = _Patch()
        self.reset()

    def reset(self):
        self.run_spans = []  # (start, end) clock times per trajectory
        self.report_spans = []  # (start, end) per spectral report
        self.runs = []  # [status, step or None] per trajectory, in call order
        self.rates = []  # fitted rate per estimate_rate call (None if it raised)
        self.rhos = []  # [rho1, rho2] per spectral report

    def install(self):
        probe = self

        def wrap_run(fn):
            def run(*args, **kwargs):
                t0 = _clock()
                traj = fn(*args, **kwargs)
                probe.run_spans.append((t0, _clock()))
                probe.runs.append([traj.status.kind.value, traj.status.step])
                return traj
            return run

        def wrap_rate(fn):
            def estimate_rate(*args, **kwargs):
                try:
                    rate = fn(*args, **kwargs)
                except Exception:
                    probe.rates.append(None)
                    raise
                probe.rates.append(rate)
                return rate
            return estimate_rate

        def wrap_report(fn):
            def spectral_report(*args, **kwargs):
                t0 = _clock()
                rep = fn(*args, **kwargs)
                probe.report_spans.append((t0, _clock()))
                probe.rhos.append([rep.rho1, rep.rho2])
                return rep
            return spectral_report

        self._patch.wrap(dynamics, "run", wrap_run)
        self._patch.wrap(dynamics, "estimate_rate", wrap_rate)
        self._patch.wrap(spectral, "spectral_report", wrap_report)
        return self._patch.missing

    def restore(self):
        self._patch.restore()


# --- per-layer tracing --------------------------------------------------------

LINALG_FNS = ("general_eig", "sym_eig", "spectral_norm", "solve_spd", "cond_2")
ORACLE_FNS = ("grad", "stochastic_grad", "nonquad_grad")
PATHS = ("lti_gda", "lti_gda_gaps", "lti_eg", "lti_eg_gaps", "oracle_sgda")
HARNESS_FNS = ("ratio_sweep", "sgda_floor_sweep", "divergence_certificate")
VERIFY_FNS = ("check_rate_matches_prediction", "check_sgda_floor",
              "check_spectral_bound", "check_eigensolver_oracle",
              "check_ratio_threshold", "check_rate_lower_bound",
              "corpus_instances")
CLI_IO = ("problems.load_instance", "harness.write_sweep_csv", "json.dumps")


def _flops(name, args):
    """Textbook operation counts (Golub & Van Loan) at the call's dimension.
    These are computed, not measured."""
    n = int(np.shape(args[0])[0]) if args else 0
    if name == "general_eig":  # Hessenberg QR with eigenvectors
        return 25.0 * n ** 3
    if name == "sym_eig":  # tridiagonal QR with eigenvectors
        return 9.0 * n ** 3
    if name == "spectral_norm":  # singular values only
        return 8.0 / 3.0 * n ** 3
    if name == "solve_spd":  # Cholesky plus two triangular solves per column
        rhs = np.shape(args[1]) if len(args) > 1 else (n,)
        k = rhs[1] if len(rhs) > 1 else 1
        return n ** 3 / 3.0 + 2.0 * n ** 2 * k
    if name == "cond_2":  # complex singular values: 4 real flops per complex
        return 4.0 * 8.0 / 3.0 * n ** 3
    return 0.0


def _path_of(problem, config, traj):
    if isinstance(problem, problems.NonQuadraticProblem):
        return "other"
    alg = config.algorithm.value
    if alg == "sgda":
        return "oracle_sgda"
    exact = config.noise is None or config.noise.sigma == 0.0
    if not exact:
        return "other"
    return f"lti_{alg}" + ("_gaps" if traj.primal_gaps is not None else "")


class Tracer:
    """Spans and counters for the traced repetitions of one workload."""

    def __init__(self, clock=_clock):
        self._clock = clock
        self._patch = _Patch()
        self._stack = []  # [span id, cell id, child seconds, is oracle]
        self._next_id = 0
        self.reps = 0
        self.spans = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.count = defaultdict(float)
        self._in_cli = 0
        self._held = {}  # id -> instance, kept alive so ids stay distinct
        self._derived_ids = set()
        self._report_keys = set()

    # -- wrappers --------------------------------------------------------------

    def _call(self, name, fn, args, kwargs, cell=False, after=None):
        stack = self._stack
        parent = stack[-1] if stack else None
        sid = self._next_id
        self._next_id += 1
        cell_id = parent[1] if parent else None
        if cell and cell_id is None:
            cell_id = sid
        frame = [sid, cell_id, 0.0, False]
        stack.append(frame)
        t0 = self._clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = self._clock()
            stack.pop()
            dur = t1 - t0
            st = self.stats[name]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[2]
            if parent is not None:
                parent[2] += dur
            self.spans.append((sid, name, t0, t1, parent[0] if parent else None, cell_id))
        if after is not None:
            after(args, kwargs, result, dur)
        return result

    def _plain(self, name, cell=False, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                return self._call(name, fn, args, kwargs, cell, after)
            return wrapper
        return make

    def _oracle(self, fn):
        stack = self._stack
        stats = self.stats["problems.oracle"]
        clock = self._clock

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[3]:
                return fn(*args, **kwargs)  # nested oracle call: counted outside
            frame = [None, parent[1] if parent else None, 0.0, True]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
        return wrapper

    def _linalg(self, name):
        key = f"linalg.{name}"

        def make(fn):
            def wrapper(*args, **kwargs):
                self.count["linalg.flops_computed"] += _flops(name, args)
                return self._call(key, fn, args, kwargs)
            return wrapper
        return make

    def _cli_main(self, fn):
        def main(*args, **kwargs):
            self._in_cli += 1
            try:
                return self._call("cli.main", fn, args, kwargs)
            finally:
                self._in_cli -= 1
        return main

    def _json_dumps(self, fn):
        # json.dumps is shared with the whole process; only calls made while
        # cli.main is open count as CLI output
        def dumps(*args, **kwargs):
            if not self._in_cli:
                return fn(*args, **kwargs)
            return self._call("json.dumps", fn, args, kwargs)
        return dumps

    # -- counters fed from call results ----------------------------------------

    def _hold(self, problem):
        self._held.setdefault(id(problem), problem)
        return id(problem)

    def _after_run(self, args, kwargs, traj, dur):
        problem = args[0]
        config = args[1] if len(args) > 1 else kwargs["config"]
        path = _path_of(problem, config, traj)
        steps = _steps_of(traj)
        c = self.count
        c["dynamics.steps"] += steps
        c[f"steps.{path}"] += steps
        c[f"run_s.{path}"] += dur
        c[f"stop.{traj.status.kind.value}"] += 1
        c["dynamics.recorded_points"] += len(traj.iters)
        if traj.primal_gaps is not None:
            c["dynamics.gap_runs"] += 1

    def _after_derive(self, args, kwargs, result, dur):
        self._derived_ids.add(self._hold(args[0]))

    def _after_report(self, args, kwargs, rep, dur):
        self._report_keys.add((self._hold(args[0]), float(rep.r),
                               float(rep.eta_x), rep.rate_constant))

    def _after_sweep(self, args, kwargs, result, dur):
        self.count["harness.cells"] += len(result.cells)
        self.count["harness.error_cells"] += sum(
            1 for c in result.cells if c.status.startswith("error"))

    def _after_certificate(self, args, kwargs, result, dur):
        self.count["harness.cells"] += len(result.cells) + len(result.controls)

    def _after_floor(self, args, kwargs, result, dur):
        batches = kwargs.get("batch_list", args[3] if len(args) > 3 else ())
        seeds = kwargs.get("seeds", args[4] if len(args) > 4 else ())
        self.count["harness.cells"] += len(batches) * len(seeds)

    def _after_check(self, args, kwargs, check, dur):
        if not check.passed and not check.inconclusive:
            self.count["verify.checks_failed"] += 1

    # -- install / restore -----------------------------------------------------

    def install(self):
        p = self._patch
        for name in LINALG_FNS:
            p.wrap(linalg, name, self._linalg(name))
        p.wrap(problems, "sample_instance", self._plain("problems.sample_instance"))
        p.wrap(problems, "derive_constants",
               self._plain("problems.derive_constants", after=self._after_derive))
        for name in ORACLE_FNS:
            p.wrap(problems, name, self._oracle)
        p.wrap(problems, "load_instance", self._plain("problems.load_instance"))
        p.wrap(dynamics, "run", self._plain("dynamics.run", cell=True,
                                             after=self._after_run))
        p.wrap(dynamics, "estimate_rate", self._plain("dynamics.estimate_rate"))
        p.wrap(spectral, "spectral_report",
               self._plain("spectral.spectral_report", cell=True,
                           after=self._after_report))
        p.wrap(harness, "ratio_sweep",
               self._plain("harness.ratio_sweep", after=self._after_sweep))
        p.wrap(harness, "sgda_floor_sweep",
               self._plain("harness.sgda_floor_sweep", after=self._after_floor))
        p.wrap(harness, "divergence_certificate",
               self._plain("harness.divergence_certificate",
                           after=self._after_certificate))
        p.wrap(harness, "write_sweep_csv", self._plain("harness.write_sweep_csv"))
        for name in VERIFY_FNS:
            after = None if name == "corpus_instances" else self._after_check
            p.wrap(verify, name, self._plain(f"verify.{name}", after=after))
        p.wrap(cli, "main", self._cli_main)
        p.wrap(json, "dumps", self._json_dumps)
        return p.missing

    def restore(self):
        self._patch.restore()

    # -- results ---------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics, averaged over the traced repetitions."""
        reps = max(self.reps, 1)
        st = self.stats
        c = self.count
        out = {}

        def put(name, value, unit):
            out[name] = (float(value), unit)

        for fn in LINALG_FNS:
            s = st[f"linalg.{fn}"]
            put(f"linalg.{fn}.calls", s[0] / reps, "count")
            put(f"linalg.{fn}.self_s", s[2] / reps, "s")
        put("linalg.flops_computed", c["linalg.flops_computed"] / reps, "flop")

        s = st["problems.sample_instance"]
        put("problems.sample_instance.calls", s[0] / reps, "count")
        put("problems.sample_instance.self_s", s[2] / reps, "s")
        s = st["problems.derive_constants"]
        put("problems.derive_constants.calls", s[0] / reps, "count")
        put("problems.derive_constants.reuse",
            s[0] / max(len(self._derived_ids), 1), "ratio")
        s = st["problems.oracle"]
        put("problems.oracle.calls", s[0] / reps, "count")
        put("problems.oracle.self_s", s[2] / reps, "s")
        put("problems.oracle.us_per_call", 1e6 * s[1] / s[0] if s[0] else 0.0, "us")

        s = st["dynamics.run"]
        put("dynamics.run.calls", s[0] / reps, "count")
        put("dynamics.run.self_s", s[2] / reps, "s")
        put("dynamics.steps", c["dynamics.steps"] / reps, "count")
        for path in PATHS:
            steps = c[f"steps.{path}"]
            put(f"dynamics.steps.{path}", steps / reps, "count")
            put(f"dynamics.us_per_step.{path}",
                1e6 * c[f"run_s.{path}"] / steps if steps else 0.0, "us")
        for kind in ("converged", "diverged", "budget_exhausted"):
            put(f"dynamics.stop.{kind}", c[f"stop.{kind}"] / reps, "count")
        put("dynamics.recorded_points", c["dynamics.recorded_points"] / reps, "count")
        put("dynamics.gap_runs", c["dynamics.gap_runs"] / reps, "count")
        s = st["dynamics.estimate_rate"]
        put("dynamics.estimate_rate.calls", s[0] / reps, "count")
        put("dynamics.estimate_rate.self_s", s[2] / reps, "s")

        s = st["spectral.spectral_report"]
        put("spectral.spectral_report.calls", s[0] / reps, "count")
        put("spectral.spectral_report.self_s", s[2] / reps, "s")
        put("spectral.spectral_report.reuse",
            s[0] / max(len(self._report_keys), 1), "ratio")

        for fn in HARNESS_FNS:
            put(f"harness.{fn}.self_s", st[f"harness.{fn}"][2] / reps, "s")
        put("harness.cells", c["harness.cells"] / reps, "count")
        put("harness.error_cells", c["harness.error_cells"] / reps, "count")

        for fn in VERIFY_FNS:
            put(f"verify.{fn}.s", st[f"verify.{fn}"][1] / reps, "s")
        put("verify.checks_failed", c["verify.checks_failed"] / reps, "count")

        put("cli.main.s", st["cli.main"][1] / reps, "s")
        put("cli.io_s", sum(st[k][1] for k in CLI_IO) / reps, "s")
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,cell\n")
            for sid, name, t0, t1, parent, cell in self.spans:
                fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},"
                         f"{'' if parent is None else parent},"
                         f"{'' if cell is None else cell}\n")
