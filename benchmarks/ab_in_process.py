"""Time two source trees of the library against each other in one process.

Usage, from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python benchmarks/ab_in_process.py PARENT_SRC CHANGE_SRC \
        [--bench FILE ...] [-k SUBSTRING]

``PARENT_SRC`` and ``CHANGE_SRC`` are directories that each hold a
``minimax_gda`` package (the ``src/`` of two checkouts).  Both are loaded
into this process, as the packages ``ab_parent`` and ``ab_change``, and
each benchmark file (``--bench``, by default ``test_bench_dynamics.py``
beside this script) is loaded once against each, so the two sides run the
same cases, built by the same code; ``-k`` keeps only the cases whose id
holds the substring (``--bench benchmarks/test_bench_kernels.py -k
corpus_instances`` takes the corpus scans).  Every case is first called on
both sides and its outputs compared by their bytes (a run's iterations,
distances, gaps, final point and status; wall times left out).  An engine
build's output, the arrays and keywords internal to each tree, is compared
through the run cases, each of which builds an engine.  A mismatch is
printed and the script exits with status 1 before timing anything.

Then, over ``--rounds`` rounds, each case is timed on both sides in turn,
the side that goes first alternating from round to round: one timing is as
many calls as take about ``--seconds`` on the parent.  The host's speed
drifts by 2x within minutes, which separate processes run minutes apart
would read as a difference between the trees; timings taken side by side,
interleaved, share the drift.  Prints one JSON object: per case, each
side's median microseconds per call over the rounds, the change's median
over the parent's, the rounds in which the change was faster, and each
side's median minor page faults per call over the rounds (the memory a
call maps afresh; a gain from faulting fewer pages shows there).
"""

import argparse
import dataclasses
import enum
import functools
import importlib.util
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent / "test_bench_dynamics.py"
SKIP_FIELDS = frozenset({"wall_time"})


def load_package(name, src):
    """The ``minimax_gda`` package under ``src``, imported as ``name``."""
    root = Path(src) / "minimax_gda"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("dynamics", "harness", "problems", "verify"):
        importlib.import_module(f"{name}.{sub}")
    return pkg


def load_bench(pkg, path):
    """The benchmark file ``path``, with its ``minimax_gda`` imports bound to
    ``pkg``."""
    saved = sys.modules.get("minimax_gda")
    sys.modules["minimax_gda"] = pkg
    try:
        spec = importlib.util.spec_from_file_location(
            f"{pkg.__name__}_{Path(path).stem}", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
    finally:
        if saved is None:
            del sys.modules["minimax_gda"]
        else:
            sys.modules["minimax_gda"] = saved
    return bench


class _Capture:
    """Stands in for pytest-benchmark's fixture: keeps the call it is given
    instead of timing it."""

    def __init__(self):
        self.extra_info = {}
        self.call = None

    def __call__(self, fn, *args, **kwargs):
        self.call = functools.partial(fn, *args, **kwargs)


def collect_cases(bench, match=""):
    """``{case id: zero-argument call}`` of every benchmark in ``bench``
    whose id holds ``match``, one per parameter set, with pytest's ids
    (``test_exact_run[gda]``); only those cases' bodies run."""
    cases = {}
    for name in dir(bench):
        test = getattr(bench, name)
        if not (name.startswith("test_") and callable(test)):
            continue
        params = [{}]
        for mark in getattr(test, "pytestmark", []):
            if mark.name != "parametrize":
                continue
            argnames, values = mark.args[0], mark.args[1]
            if isinstance(argnames, str):
                argnames = [a.strip() for a in argnames.split(",")]
            params = [{**p, **dict(zip(argnames, v if len(argnames) > 1 else (v,)))}
                      for p in params for v in values]
        for kwargs in params:
            ids = "-".join(str(getattr(v, "value", v)) for v in kwargs.values())
            case = f"{name}[{ids}]" if ids else name
            if match in case:
                capture = _Capture()
                test(capture, **kwargs)
                cases[case] = capture.call
    return cases


def digest(obj):
    """A comparable form of a case's output, the same for equal outputs of
    the two packages (whose classes are distinct)."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, np.ascontiguousarray(obj).tobytes())
    if isinstance(obj, enum.Enum):
        return ("enum", type(obj).__name__, obj.value)
    if isinstance(obj, float):
        return ("float", obj.hex() if math.isfinite(obj) else repr(obj))
    if isinstance(obj, (bool, int, str, type(None))):
        return obj
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, tuple(
            (f.name, digest(getattr(obj, f.name)))
            for f in dataclasses.fields(obj) if f.name not in SKIP_FIELDS))
    if isinstance(obj, functools.partial):
        return ("partial", obj.func.__name__)
    if isinstance(obj, (tuple, list)):
        return tuple(digest(x) for x in obj)
    if isinstance(obj, dict):
        return ("dict", tuple((k, digest(v)) for k, v in obj.items()))
    raise TypeError(f"no digest for {type(obj).__name__}")


def per_call(fn, number):
    """Seconds and minor page faults per call, over ``number`` calls."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    for _ in range(number):
        fn()
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return seconds / number, faults / number


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_src")
    p.add_argument("change_src")
    p.add_argument("--bench", nargs="+", default=[str(BENCH)], metavar="FILE")
    p.add_argument("-k", default="", metavar="SUBSTRING")
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--seconds", type=float, default=0.05)
    args = p.parse_args(argv)

    sides = {}
    for name, src in (("parent", args.parent_src), ("change", args.change_src)):
        pkg = load_package(f"ab_{name}", src)
        sides[name] = {case: call for path in args.bench
                       for case, call in collect_cases(load_bench(pkg, path), args.k).items()}
    mismatched = [case for case in sides["parent"]
                  if digest(sides["parent"][case]()) != digest(sides["change"][case]())]
    if mismatched:
        print("outputs differ: " + ", ".join(mismatched), file=sys.stderr)
        return 1

    cases = list(sides["parent"])
    number = {case: max(1, round(args.seconds / per_call(sides["parent"][case], 1)[0]))
              for case in cases}
    times = {case: {"parent": [], "change": []} for case in cases}
    faults = {case: {"parent": [], "change": []} for case in cases}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for case in cases:
            for side in order:
                seconds, minflt = per_call(sides[side][case], number[case])
                times[case][side].append(seconds)
                faults[case][side].append(minflt)
    report = {"rounds": args.rounds, "identical_outputs": True, "cases": {}}
    for case in cases:
        parent, change = times[case]["parent"], times[case]["change"]
        report["cases"][case] = {
            "calls_per_timing": number[case],
            "parent_us": round(1e6 * statistics.median(parent), 3),
            "change_us": round(1e6 * statistics.median(change), 3),
            "change_over_parent": round(statistics.median(change) / statistics.median(parent), 3),
            "change_wins": sum(c < q for c, q in zip(change, parent)),
            "parent_minflt": round(statistics.median(faults[case]["parent"]), 1),
            "change_minflt": round(statistics.median(faults[case]["change"]), 1),
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
