"""Benchmark runner for the minimax-gda library.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload certify-rates --seed 0 --seconds 20 --trace 0

Imports the library from ``src/`` of the checkout (nothing is installed),
sets the workload up, runs its body once untimed to warm up, then repeats
the timed body until the next repetition would end past ``--seconds``.
Every repetition's outputs are checked against the reference recorded for
the seed's input variant.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  Every repetition runs the same cells in the same
order.  The host's speed drifts by 2x and more, for seconds to minutes at a
time, so every time below is rescaled by ``gauge.Gauge`` to a fixed
reference speed, from speed readings taken in step with the workload: it
reads "seconds at the speed at which one gauge quantum takes 0.7 ms".  The
raw times are printed on standard error for comparison.

- ``wall_s``: median over repetitions of the workload body's time;
- ``setup_s``: median time from starting a fresh interpreter to the library
  imported, plus median time to prepare the inputs (five of each; an
  import runs in another process, so it is rescaled by speed readings
  taken just before and after it);
- ``cells_per_s``: cells per repetition over ``wall_s``;
- ``cell_ms_p50`` / ``cell_ms_tail``: percentiles over cells of each cell's
  median latency across repetitions (the tail percentile is fixed per
  workload);
- ``peak_rss_mb``: peak resident memory of the process;
- ``verdict_ok``: share of checks, over all repetitions, that passed with
  outputs matching the reference.

With ``--trace 1``, untraced and traced repetitions alternate and the
per-layer metrics from the traced ones are printed instead, with the
ratio of the median traced to the median untraced body time as
``trace.overhead``.  The gauge runs in traced repetitions too, and spans are
timed on its reference clock, so per-layer times are seconds at the
reference speed as well, with gauge quanta left out.  Spans go to
``perfbench/out/``.

``--record`` runs one repetition and stores its outputs as the reference
for the seed's variant (used once, at the commit that defined the
benchmark).  Exits with status 2, printing no result, when the library
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import gauge as speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 5

# The workloads are single-caller loops over matrices of dimension <= 64;
# pinning BLAS to one thread keeps their timings independent of whatever else
# shares the machine's cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import minimax_gda.cli, minimax_gda.verify")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _percentile(values, pct):
    ordered = sorted(values)
    k = (len(ordered) - 1) * pct / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def _import_seconds(gauge):
    """Process start to library imported, in a fresh interpreter, rescaled by
    speed readings just before and after."""
    before = gauge.burst_speed()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    raw = time.perf_counter() - t0
    return raw * 0.5 * (before + gauge.burst_speed())


def _gauged(gauge, fn, *args):
    """``fn(*args)`` with the gauge on: (result, start time, end time)."""
    gauge.clear()
    gauge.start()
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        t1 = time.perf_counter()
        gauge.stop()
    return result, t0, t1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store one repetition's outputs as the variant's reference")
    return p.parse_args(argv)


def _setup(workload, variant, workdir, gauge, time_imports):
    """Prepare the inputs ``SETUP_REPS`` times; time imports in fresh
    interpreters as often.  Returns the inputs and the median set-up time."""
    prep_s = []
    for _ in range(SETUP_REPS):
        inputs, t0, t1 = _gauged(gauge, workload.setup, variant, workdir)
        prep_s.append(gauge.rescaled(t0, t1))
    if not time_imports:
        return inputs, None, []
    import_s = [_import_seconds(gauge) for _ in range(SETUP_REPS)]
    return inputs, statistics.median(import_s) + statistics.median(prep_s), import_s


def _record(wl, workload, variant, inputs, probe):
    outcome = workload.body(inputs)
    summary = wl.summarize(outcome, probe)
    bad = [c["name"] for c in summary["checks"] if not c["passed"]]
    if bad or outcome.error_cells:
        return _fail(f"refusing to record failing outputs: {bad}")
    wl.store_reference(workload.name, variant, summary)
    print(f"perfbench: recorded {workload.name} variant {variant}", file=sys.stderr)
    return 0


class _Tally:
    """Correctness over all repetitions of a run."""

    def __init__(self):
        self.checks = self.ok = self.attempted = self.failed = 0
        self.notes = set()

    def add(self, wl, outcome, probe, reference):
        checks, ok, failed_cells, notes = wl.check_against(
            wl.summarize(outcome, probe), reference)
        self.notes.update(notes)
        self.checks += checks
        self.ok += ok
        self.attempted += checks + outcome.cells
        self.failed += (checks - ok) + failed_cells + outcome.error_cells


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "minimax_gda", "__init__.py")):
        return _fail(f"library sources not found under {SRC}")
    os.environ.update(THREAD_ENV)
    os.environ.pop("MINIMAX_GDA_OUTDIR", None)
    sys.path.insert(0, SRC)
    import minimax_gda

    if not os.path.abspath(minimax_gda.__file__).startswith(SRC + os.sep):
        return _fail(f"imported minimax_gda from {minimax_gda.__file__}, not {SRC}")

    import tracing
    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(wl.WORKLOADS)}")
    variant = args.seed % wl.VARIANTS
    # set-up is interpreter work (imports, instance generation) whatever the
    # workload, so it is rescaled by step-loop quanta
    inputs, setup_s, import_s = _setup(workload, variant,
                                       os.path.join(OUT, "work", workload.name),
                                       speed.Gauge("steps"), time_imports=not args.record)
    gauge = speed.Gauge(workload.gauge_mix)
    probe = tracing.CellProbe()
    missing = set(probe.install())
    if args.record:
        return _record(wl, workload, variant, inputs, probe)
    reference = wl.load_reference(workload.name, variant)
    if reference is None:
        return _fail(f"no reference for {workload.name} variant {variant}")

    # untraced repetitions give the end-to-end metrics; with --trace 1 they
    # alternate with traced ones, which give the per-layer metrics
    tracer = tracing.Tracer(gauge.reference_clock) if args.trace else None
    tally = _Tally()
    # one untimed repetition first, within --seconds: lazy imports and
    # caches warm up
    t_start = time.perf_counter()
    probe.reset()
    tally.add(wl, workload.body(inputs), probe, reference)
    walls, raw_walls, traced_walls, latencies, quanta = [], [], [], [], []
    traced = False
    while True:
        probe.reset()
        if traced:
            missing.update(tracer.install())
            tracer.reps += 1
            try:
                outcome, t0, t1 = _gauged(gauge, workload.body, inputs)
            finally:
                tracer.restore()
            traced_walls.append(gauge.rescaled(t0, t1))
            tracer.count["cli.bytes_written"] += outcome.bytes_written
        else:
            outcome, t0, t1 = _gauged(gauge, workload.body, inputs)
            raw_walls.append(t1 - t0)
            walls.append(gauge.rescaled(t0, t1))
            quanta.append(gauge.mean_quantum())
            spans = (probe.run_spans if workload.latency_of == "run"
                     else probe.report_spans)
            # an engine that no longer runs cells one call at a time gets the
            # amortized cost per cell
            latencies.append([1e3 * gauge.rescaled(a, b) for a, b in spans]
                             or [1e3 * walls[-1] / max(outcome.cells, 1)])
        tally.add(wl, outcome, probe, reference)
        need_pair = tracer is not None and not traced_walls
        if (t1 - t_start) + (t1 - t0) > args.seconds and not need_pair:
            break
        traced = tracer is not None and not traced
    probe.restore()

    for note in sorted(tally.notes):
        print(f"perfbench: {note}", file=sys.stderr)
    for name in sorted(missing):
        print(f"perfbench: traced name missing: {name}", file=sys.stderr)

    wall = statistics.median(walls)
    if tracer is None:
        if len({len(lat) for lat in latencies}) == 1:
            cell_ms = [statistics.median(per_rep) for per_rep in zip(*latencies)]
            p50 = _percentile(cell_ms, 50.0)
            tail = _percentile(cell_ms, workload.tail_pct)
        else:  # cells differ between repetitions
            p50 = statistics.median(_percentile(x, 50.0) for x in latencies)
            tail = statistics.median(_percentile(x, workload.tail_pct)
                                     for x in latencies)
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (setup_s, "s"),
            "cells_per_s": (outcome.cells / wall, "1/s"),
            "cell_ms_p50": (p50, "ms"),
            "cell_ms_tail": (tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
            "verdict_ok": (tally.ok / max(tally.checks, 1), "share"),
        }
        print(f"perfbench: {workload.name} seed={args.seed} variant={variant} "
              f"reps={len(walls)} cells/rep={outcome.cells} "
              f"tail=p{workload.tail_pct:g} "
              f"walls={[round(w, 3) for w in walls]} "
              f"raw_walls={[round(w, 3) for w in raw_walls]} "
              f"quantum_ms={[round(1e3 * q, 3) for q in quanta]} "
              f"import_s={[round(t, 3) for t in import_s]} "
              f"failed_frac={tally.failed / max(tally.attempted, 1):.4g}",
              file=sys.stderr)
    else:
        metrics = tracer.metrics()
        metrics["cli.bytes_written"] = (
            tracer.count["cli.bytes_written"] / max(tracer.reps, 1), "B")
        metrics["trace.overhead"] = (
            statistics.median(traced_walls) / wall, "ratio")
        os.makedirs(OUT, exist_ok=True)
        span_file = os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.csv")
        tracer.write_spans(span_file)
        print(f"perfbench: {workload.name} seed={args.seed} traced reps="
              f"{tracer.reps} untraced={[round(w, 3) for w in walls]} "
              f"traced={[round(w, 3) for w in traced_walls]} spans -> {span_file}",
              file=sys.stderr)
        for name, (value, unit) in sorted(metrics.items()):
            if value:
                print(f"perfbench:   {name:48s} {value:14.6g} {unit}", file=sys.stderr)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
