"""The four benchmark workloads and their correctness gate.

Every workload is a closed loop: one caller makes one library call at a
time, in one process, with no threads and the library's default ``jobs``.
Workloads reach the library only through the names its acceptance tests and
README use (``verify.check_*``, ``verify.corpus_instances``,
``problems.sample_instance`` / ``save_instance`` / ``derive_constants`` and
``cli.main`` with documented flags), so refactors behind those names can be
measured without editing the benchmark.

The run's ``--seed`` picks one of ``VARIANTS`` input variants
(``variant = seed % VARIANTS``).  Reference outputs for every variant were
recorded at the commit that introduced the benchmark (``run.py --record``)
and live in ``reference/<workload>.json``; each repetition's outputs are
compared with them.  Verdicts, trajectory stop statuses and step counts
must match exactly; measured floating-point outputs must match within the
tolerances in ``TOLERANCES``, so an engine that changes only rounding still
passes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from minimax_gda import cli, problems, verify

VARIANTS = 16
SEED_STRIDE = 1000  # instance seeds of different variants never overlap

# certify-rates: corpus size; each instance gives 3 ratios x {GDA, EG} cells
RATES_INSTANCES = 8
RATES_STEPS = 40_000
# certify-sgda-floor: the acceptance batch sizes, one noise seed per batch
FLOOR_BATCHES = (16, 64, 256, 1024)
FLOOR_SEEDS = 1
# certify-spectral: (n = m, instances); dims above 4 use primal-convex
# instances because the 4x4-style corpus filter finds none there
SPECTRAL_DIMS = ((4, 120), (16, 60), (32, 30))
SPECTRAL_SCHUR_MARGIN = 1.0  # mu_x = 1: keeps M nonsingular for the det check
# cli-stop: kappa = 10 instances; the convex one has mu_x = 0.5 (kappa_x = 20)
CLI_L, CLI_MU = 10.0, 1.0
CLI_SCHUR_MARGIN = 0.5
CLI_INDEFINITE_BELOW = -0.25 * CLI_L  # primal Hessian clearly indefinite
CLI_MAX_ITERS = 400_000
CLI_BUDGET = 0.1  # verify lower-bounds at a 10 000-step certificate budget


@dataclass
class Outcome:
    """Public outputs of one repetition of a workload body."""

    checks: list  # [{"name", "passed", "fields"}], one per check or command
    cells: int
    error_cells: int = 0
    bytes_written: int = 0


def flatten(obj, prefix=""):
    """Nested dicts/lists to ``{"a.0.b": leaf}`` with plain Python leaves."""
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.update(flatten(v, f"{prefix}{i}."))
    else:
        if isinstance(obj, np.generic):
            obj = obj.item()
        out[prefix[:-1]] = obj
    return out


def _check_unit(check, suffix=""):
    return {"name": check.name + suffix,
            "passed": bool(check.passed and not check.inconclusive),
            "fields": flatten(check.details)}


def corpus_setup(variant, workdir):
    return {"start_seed": SEED_STRIDE * variant}


# --- certify-rates ---------------------------------------------------------

def rates_body(inp):
    corpus = verify.corpus_instances(RATES_INSTANCES, start_seed=inp["start_seed"])
    check = verify.check_rate_matches_prediction(corpus, max_iters=RATES_STEPS)
    return Outcome(checks=[_check_unit(check)], cells=int(check.details["cells"]))


# --- certify-sgda-floor ----------------------------------------------------

def floor_setup(variant, workdir):
    # check seeds 0..16 all select the first corpus instance with
    # 10 < mu_x < 60 at or after them, which is the acceptance criterion-6
    # instance; the variant then only changes the noise streams
    return {"seed": variant}


def floor_body(inp):
    check = verify.check_sgda_floor(seed=inp["seed"], batches=FLOOR_BATCHES,
                                    n_seeds=FLOOR_SEEDS)
    return Outcome(checks=[_check_unit(check)],
                   cells=len(check.details["points"]) * FLOOR_SEEDS)


# --- certify-spectral ------------------------------------------------------

def spectral_body(inp):
    checks = []
    cells = 0
    s0 = inp["start_seed"]
    for dim, count in SPECTRAL_DIMS:
        if dim == 4:
            corpus = verify.corpus_instances(count, start_seed=s0)
        else:
            corpus = [
                (s, problems.sample_instance(
                    dim, dim, 100.0, 1.0, s, primal_convex=True,
                    schur_margin=SPECTRAL_SCHUR_MARGIN))
                for s in range(s0, s0 + count)
            ]
        checks.append({
            "name": f"instances_{dim}", "passed": True,
            "fields": flatten({
                "seeds": [s for s, _ in corpus],
                "mu_x": [problems.derive_constants(p).mu_x for _, p in corpus],
            }),
        })
        bound = verify.check_spectral_bound(corpus)
        oracle = verify.check_eigensolver_oracle(corpus, np.random.default_rng(s0 + dim))
        checks.append(_check_unit(bound, suffix=f"_{dim}"))
        checks.append(_check_unit(oracle, suffix=f"_{dim}"))
        cells += int(bound.details["cells"])
    return Outcome(checks=checks, cells=cells)


# --- cli-stop --------------------------------------------------------------

def cli_setup(variant, workdir):
    os.makedirs(workdir, exist_ok=True)
    seed = SEED_STRIDE * variant
    convex = problems.sample_instance(4, 4, CLI_L, CLI_MU, seed, primal_convex=True,
                                      schur_margin=CLI_SCHUR_MARGIN)
    s = seed + 1
    while True:
        indefinite = problems.sample_instance(4, 4, CLI_L, CLI_MU, s)
        if problems.derive_constants(indefinite).schur_min <= CLI_INDEFINITE_BELOW:
            break
        s += 1
    paths = {name: os.path.join(workdir, name) for name in (
        "convex.json", "indefinite.json", "convex.csv", "indefinite.csv",
        "lower-bounds.json")}
    problems.save_instance(convex, paths["convex.json"])
    problems.save_instance(indefinite, paths["indefinite.json"])
    return paths


def _parse_num(text, kind=float):
    return None if text == "" else kind(text)


def _sweep_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [{
        "ratio": _parse_num(r["ratio"]),
        "seed": _parse_num(r["seed"], int),
        "algorithm": r["algorithm"],
        "status": r["status"],
        "measured_rate": _parse_num(r["measured_rate"]),
        "rho1": _parse_num(r["rho1"]),
        "iters_to_eps": _parse_num(r["iters_to_eps"], int),
        "final_distance": _parse_num(r["final_distance"]),
        "final_gap": _parse_num(r["final_gap"]),
    } for r in rows]


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def cli_body(inp):
    for key in ("convex.csv", "indefinite.csv", "lower-bounds.json"):
        if os.path.exists(inp[key]):
            os.unlink(inp[key])
    checks = []
    cells = error_cells = 0
    for name in ("convex", "indefinite"):
        out = inp[f"{name}.csv"]
        rc = _cli(["sweep", inp[f"{name}.json"], "--algorithms", "gda", "eg",
                   "-T", str(CLI_MAX_ITERS), "-o", out])
        rows = _sweep_rows(out) if rc == 0 else []
        cells += len(rows)
        error_cells += sum(1 for r in rows if r["status"].startswith("error"))
        checks.append({"name": f"sweep_{name}", "passed": rc == 0,
                       "fields": flatten({"exit": rc, "rows": rows})})
    out = inp["lower-bounds.json"]
    rc = _cli(["verify", "lower-bounds", "--budget", str(CLI_BUDGET), "-o", out])
    payload = {"suites": []}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
    for suite in payload["suites"]:
        for check in suite["checks"]:
            checks.append({"name": check["name"],
                           "passed": bool(rc == 0 and check["passed"]),
                           "fields": flatten(check["details"])})
            for per_kappa in check["details"].get("per_kappa", ()):
                cells += per_kappa["cells"] + 1  # certificate cells + control
    nbytes = sum(os.path.getsize(inp[k]) for k in
                 ("convex.csv", "indefinite.csv", "lower-bounds.json")
                 if os.path.exists(inp[k]))
    return Outcome(checks=checks, cells=cells, error_cells=error_cells,
                   bytes_written=nbytes)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    body: object
    latency_of: str  # "run": cell = trajectory; "report": cell = spectral report
    # tail percentile of the cell latencies: the highest of 50/75/90/98 with
    # at least 10 cells beyond it at the seed commit (48, 4, 630 and 129
    # timed cells per repetition)
    tail_pct: float
    gauge_mix: str = "steps"  # kind of work of the speed gauge's quanta


WORKLOADS = {w.name: w for w in (
    Workload("certify-rates", corpus_setup, rates_body, "run", 75.0),
    Workload("certify-sgda-floor", floor_setup, floor_body, "run", 50.0),
    Workload("certify-spectral", corpus_setup, spectral_body, "report", 98.0,
             "linalg"),
    Workload("cli-stop", cli_setup, cli_body, "run", 90.0),
)}


# --- correctness gate ------------------------------------------------------

# (absolute, relative) tolerance by leaf field name; other floats use DEFAULT
TOLERANCES = {
    "worst_match_error": (1e-8, 0.0),  # |fitted rate - rho|
    "worst_envelope_log_excess": (1e-6, 0.0),
    "slope": (1e-6, 0.0),
    "floor_ms": (0.0, 1e-6),
    "bound": (0.0, 1e-9),
    "mu_x": (1e-12, 1e-9),
    "worst_radius_margin": (1e-10, 0.0),
    # rounding-level residuals: they must stay inside the check's own gates
    "worst_residual_rel": (1e-8, 0.0),
    "worst_trace_rel": (1e-8, 0.0),
    "worst_det_rel": (1e-8, 0.0),
    "worst_2x2_abs": (1e-12, 0.0),
    "s1": (1e-12, 0.0),
    "max_step_deviation": (1e-10, 0.0),
    "total_decay_rel_error": (1e-9, 0.0),
    "measured_rate": (1e-8, 0.0),
    "rho1": (1e-10, 0.0),
    "final_distance": (0.0, 1e-6),
    "final_gap": (1e-18, 1e-6),
}
DEFAULT_TOLERANCE = (0.0, 1e-9)
RATE_TOLERANCE = 1e-8  # absolute, per fitted rate
RHO_TOLERANCE = 1e-10  # absolute, per transition radius


def _leaf(key):
    parts = [p for p in key.split(".") if not p.isdigit()]
    return parts[-1] if parts else key


def _close(a, b, abs_tol, rel_tol):
    if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, (int, float)) and isinstance(b, (int, float))):
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= abs_tol + rel_tol * abs(b)


def compare_fields(observed, reference):
    """Names of fields that differ beyond their tolerance."""
    bad = []
    for key in sorted(set(observed) | set(reference)):
        if key not in observed or key not in reference:
            bad.append(key)
            continue
        a, b = observed[key], reference[key]
        if isinstance(b, float) or isinstance(a, float):
            abs_tol, rel_tol = TOLERANCES.get(_leaf(key), DEFAULT_TOLERANCE)
            if a is None or b is None or not _close(float(a), float(b), abs_tol, rel_tol):
                bad.append(key)
        elif a != b:
            bad.append(key)
    return bad


def summarize(outcome, probe):
    """The record compared against (and stored as) the reference."""
    return {
        "checks": outcome.checks,
        "cells": outcome.cells,
        "runs": [list(r) for r in probe.runs],
        "rates": list(probe.rates),
        "rhos": [list(r) for r in probe.rhos],
    }


def _cell_mismatches(observed, reference, key, same):
    obs, ref = observed[key], reference[key]
    if not obs and ref:
        return 0, f"{key}: not observed (entry point no longer called per cell)"
    bad = abs(len(obs) - len(ref)) + sum(
        1 for a, b in zip(obs, ref) if not same(a, b))
    return bad, (f"{key}: {bad} of {len(ref)} differ" if bad else None)


def _same_rate(a, b):
    if a is None or b is None:
        return a is b
    return _close(a, b, RATE_TOLERANCE, 0.0)


def _same_rhos(a, b):
    return all(_close(x, y, RHO_TOLERANCE, 0.0) for x, y in zip(a, b))


def check_against(summary, reference):
    """Compare one repetition with the reference.

    Returns ``(checks, checks_ok, failed_cells, notes)``: a check is ok when
    it passed and every field matches; a cell fails when its trajectory
    status/step, fitted rate or radii differ (counted once per mismatch).
    """
    notes = []
    ref_checks = {c["name"]: c for c in reference["checks"]}
    ok = 0
    for c in summary["checks"]:
        ref = ref_checks.get(c["name"])
        if ref is None:
            notes.append(f"{c['name']}: no reference")
            continue
        bad = compare_fields(c["fields"], ref["fields"])
        if c["passed"] and ref["passed"] and not bad:
            ok += 1
        else:
            notes.append(f"{c['name']}: passed={c['passed']} "
                         f"mismatched={bad[:5]}{'...' if len(bad) > 5 else ''}")
    missing = set(ref_checks) - {c["name"] for c in summary["checks"]}
    notes.extend(f"{name}: missing" for name in sorted(missing))
    n_checks = len(summary["checks"]) + len(missing)

    failed_cells = 0
    if summary["cells"] != reference["cells"]:
        notes.append(f"cells: {summary['cells']} vs reference {reference['cells']}")
        failed_cells += abs(summary["cells"] - reference["cells"])
    for key, same in (("runs", lambda a, b: list(a) == list(b)),
                      ("rates", _same_rate), ("rhos", _same_rhos)):
        bad, note = _cell_mismatches(summary, reference, key, same)
        failed_cells += bad
        if note:
            notes.append(note)
    return n_checks, ok, min(failed_cells, max(summary["cells"], 1)), notes


def reference_path(name):
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference", f"{name}.json")


def load_reference(name, variant):
    try:
        with open(reference_path(name), encoding="utf-8") as fh:
            return json.load(fh).get(str(variant))
    except FileNotFoundError:
        return None


def store_reference(name, variant, summary):
    path = reference_path(name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data[str(variant)] = summary
    keys = sorted(data, key=int)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join(
            f"{json.dumps(k)}: {json.dumps(data[k], separators=(',', ':'))}"
            for k in keys))
        fh.write("\n}\n")
