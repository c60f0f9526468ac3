"""Command-line front end.

Subcommands: ``generate`` (random or adversarial instances), ``inspect``
(spectral report for an instance at a ratio), ``run`` (one trajectory to
CSV), ``sweep`` (ratio sweeps to CSV), ``verify`` (certification suites to
JSON).

Exit codes: 0 completed (an expected divergence still exits 0), 1 usage,
validation or file error, 2 verification failure, 3 numerical failure.  Output
files are written atomically (temp file + rename); relative output paths
resolve against ``$MINIMAX_GDA_OUTDIR`` when it is set.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import dynamics as dyn
from . import harness
from . import problems as prob
from . import spectral as spec
from . import verify as verify_mod
from .errors import (
    GenerationFailureError,
    InsufficientDataError,
    InvalidInputError,
    MinimaxGdaError,
    NumericalFailureError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2
EXIT_NUMERICAL = 3

OUTDIR_ENV = "MINIMAX_GDA_OUTDIR"


class _CliExit(Exception):
    """An argparse usage error, already printed."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _CliExit


def _resolve_out(path):
    if path is None or os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), path)


def _write_atomic(path, writer):
    path = _resolve_out(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        # mkstemp creates the file 0600 and os.replace keeps that mode; give
        # it the mode a plain open() would under the current umask
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it as it is."""
    parser = _Parser(
        prog="minimax-gda",
        description="Two-time-scale GDA/SGDA/EG on quadratic minimax "
                    "instances, with spectral certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random instance")
    g.add_argument("-n", type=int, required=True, help="min-player dimension")
    g.add_argument("-m", type=int, required=True, help="max-player dimension")
    g.add_argument("-L", type=float, required=True, help="smoothness bound")
    g.add_argument("--mu", type=float, required=True, help="strong concavity")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--beta", type=float, default=0.5, help="|B|_2 = beta*L")
    g.add_argument("--gamma", type=float, default=0.5, help="|C|_2 = gamma*L")
    g.add_argument("--primal-convex", action="store_true",
                   help="shift C so the Schur complement is PSD")
    g.add_argument("--schur-margin", type=float, default=0.0,
                   help="minimum Schur eigenvalue with --primal-convex")
    g.add_argument("--mu-x-zero", action="store_true",
                   help="construct an instance with mu_x exactly 0")
    g.add_argument("-o", "--out", required=True, help="instance JSON path")

    i = sub.add_parser("inspect", help="spectral report for an instance")
    i.add_argument("instance")
    i.add_argument("-r", "--ratio", type=float, required=True)
    i.add_argument("--scheme", choices=[s.value for s in dyn.Scheme],
                   default="quarter")
    i.add_argument("--eta-x", type=float, default=None,
                   help="override the scheme stepsize")
    i.add_argument("-o", "--out", default=None, help="also write JSON here")

    r = sub.add_parser("run", help="run one trajectory, write CSV")
    r.add_argument("instance")
    r.add_argument("--algorithm", choices=[a.value for a in dyn.Algorithm],
                   default="gda")
    r.add_argument("-r", "--ratio", type=float, required=True)
    r.add_argument("--scheme", choices=[s.value for s in dyn.Scheme],
                   default="quarter")
    r.add_argument("-T", "--max-iters", type=int, default=100_000)
    r.add_argument("--eps", type=float, default=1e-6)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--sigma", type=float, default=None)
    r.add_argument("--batch", type=int, default=None)
    r.add_argument("-o", "--out", required=True, help="trajectory CSV path")

    w = sub.add_parser("sweep", help="ratio sweep, write CSV")
    w.add_argument("instance")
    w.add_argument("--ratios", type=float, nargs="+", default=None,
                   help="default: kappa/2, 2k, 8k, 2k^2")
    w.add_argument("--algorithms", nargs="+",
                   choices=[a.value for a in dyn.Algorithm], default=["gda"])
    w.add_argument("--scheme", choices=[s.value for s in dyn.Scheme],
                   default="quarter")
    w.add_argument("-T", "--max-iters", type=int, default=100_000)
    w.add_argument("--eps", type=float, default=1e-6)
    w.add_argument("--seeds", type=int, default=1, help="seeds 0..N-1 per cell")
    w.add_argument("--sigma", type=float, default=None)
    w.add_argument("--batch", type=int, default=None)
    w.add_argument("-o", "--out", required=True, help="sweep CSV path")

    v = sub.add_parser("verify", help="run certification suites")
    v.add_argument("suite", choices=list(verify_mod.SUITE_NAMES))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--budget", type=float, default=1.0,
                   help="1.0 = full acceptance-scale workloads")
    v.add_argument("-o", "--out", default=None, help="also write JSON here")

    return parser


def cmd_generate(args):
    problem = prob.sample_instance(
        args.n, args.m, args.L, args.mu, args.seed,
        beta=args.beta, gamma=args.gamma,
        primal_convex=args.primal_convex,
        schur_margin=args.schur_margin,
        mu_x_zero=args.mu_x_zero,
    )
    path = _write_atomic(args.out, lambda fh: prob.write_instance(problem, fh))
    dc = prob.derive_constants(problem)
    print(f"wrote {path}")
    print(f"mu_x={dc.mu_x:.6g} kappa={dc.kappa:.6g} kappa_x={dc.kappa_x:.6g}")
    return EXIT_OK


def _sanitize(obj):
    """Strict-JSON form: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def cmd_inspect(args):
    problem = prob.load_instance(args.instance)
    failed = prob.validate(problem)
    if failed:
        raise InvalidInputError(
            "instance fails validation clauses: " + ", ".join(failed))
    eta_x = args.eta_x
    if eta_x is None:
        eta_x, _ = dyn.default_stepsizes(problem.L, args.ratio, args.scheme)
    report = spec.spectral_report(problem, args.ratio, eta_x, args.scheme)
    verdict = spec.classify_ratio(args.ratio, report.kappa)
    payload = spec.report_to_json_dict(report)
    payload["ratio_class"] = verdict.value
    text = json.dumps(_sanitize(payload), indent=1)
    print(text)
    if args.out:
        _write_atomic(args.out, lambda fh: (fh.write(text), fh.write("\n")))
    return EXIT_OK


def _noise(args):
    """``--sigma`` with ``--batch`` (default 1) as a noise model, or None."""
    if args.sigma is None:
        if args.batch is not None:
            raise InvalidInputError("--batch applies only with --sigma")
        return None
    return prob.NoiseModel(args.sigma, 1 if args.batch is None else args.batch)


def cmd_run(args):
    problem = prob.load_instance(args.instance)
    eta_x, eta_y = dyn.default_stepsizes(problem.L, args.ratio, args.scheme)
    config = dyn.SolverConfig(
        algorithm=args.algorithm, eta_x=eta_x, eta_y=eta_y,
        max_iters=args.max_iters, target_eps=args.eps,
        noise=_noise(args), seed=args.seed, record_primal_gaps=True,
    )
    traj = dyn.run(problem, config)
    _write_atomic(args.out, lambda fh: dyn.write_trajectory_csv(traj, fh))
    try:
        rate = dyn.estimate_rate(traj)
        rate_text = f"{rate:.12g}"
    except InsufficientDataError:
        rate_text = "nan"
    iters = traj.status.step if traj.status.step is not None else args.max_iters
    print(f"{traj.status.kind.value} {iters} {traj.final_distance():.12g} {rate_text}")
    return EXIT_OK


def cmd_sweep(args):
    problem = prob.load_instance(args.instance)
    ratios = args.ratios
    if ratios is None:
        kappa = prob.derive_constants(problem).kappa
        ratios = harness.default_ratio_set(kappa)
    result = harness.ratio_sweep(
        problem, ratios, args.max_iters, args.eps, algorithms=args.algorithms,
        scheme=args.scheme, seeds=range(args.seeds), noise=_noise(args),
    )
    path = _write_atomic(args.out, lambda fh: harness.write_sweep_csv(result, fh))
    print(f"wrote {path} ({len(result.cells)} cells)")
    return EXIT_OK


def cmd_verify(args):
    results = verify_mod.verify_suite(args.suite, seed=args.seed, budget=args.budget)
    payload = {
        "suites": [r.to_json_dict() for r in results],
        "passed": all(r.passed for r in results),
        "inconclusive": any(r.inconclusive for r in results),
    }
    text = json.dumps(_sanitize(payload), indent=1)
    print(text)
    if args.out:
        _write_atomic(args.out, lambda fh: (fh.write(text), fh.write("\n")))
    return EXIT_OK if payload["passed"] else EXIT_VERIFY_FAIL


_COMMANDS = {
    "generate": cmd_generate,
    "inspect": cmd_inspect,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _CliExit:
        return EXIT_USAGE
    except (InvalidInputError, OSError) as exc:
        # OSError: an unreadable instance or an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalFailureError, GenerationFailureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MinimaxGdaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
