"""Benchmark for sclflow: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload scl-words --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory and from nowhere else.  A run makes whole passes over
the workload's inputs, as many as come closest to `--seconds` but at
least the workload's `min_passes`.  Before every pass it sets up
SETUPS_PER_PASS times (drop `sclflow` from `sys.modules`, import it, make
the inputs), so a pass starts with empty memo caches; `setup_s` is the
median over all set-ups.  In a pass every input is one user-level call,
timed on its own, with the memo caches cleared before it (scl-sweep keeps
them across the pass).  Every time is wall time scaled to the reference
speed by `speed.Meter`.  An operation's time is its least over the
passes; `ops_per_s` is the number of inputs over the sum of those times,
and `op_p50_ms` their median.  The peak resident memory is read before
any checker imports numpy.  Then `checks.py` checks every output of the
first pass, apart from the program, and later passes must compute the
same values.

With `--trace 1` the calls into each layer are wrapped (see `spans.py`),
the per-layer metrics are printed instead of the end-to-end ones, and the
spans are written to `perfbench/out/`.  The last line of standard output
is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import speed
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS_PER_PASS = 5


def import_package():
    """Import sclflow afresh from the checkout's src/ directory."""
    for name in [k for k in sys.modules if k == "sclflow" or k.startswith("sclflow.")]:
        del sys.modules[name]
    pkg = importlib.import_module("sclflow")
    if Path(pkg.__file__).resolve().parent != SRC / "sclflow":
        raise ImportError(f"sclflow was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def clear_caches(pkg) -> None:
    """Empty the memo caches, through the package's own function once it
    has one."""
    if hasattr(pkg, "clear_caches"):
        pkg.clear_caches()
        return
    pkg.engine._SCL_LP_CACHE.clear()
    pkg.cones._DISC_CACHE.clear()
    pkg.cones._COLUMN_CACHE.clear()


def run_pass(pkg, wl, meter) -> tuple[list, list[float], int]:
    """One operation per input, each timed on its own and scaled to the
    reference speed."""
    outputs, op_times, failed = [], [], 0
    if not wl.clear_per_op:
        clear_caches(pkg)
    for item in wl.items:
        if wl.clear_per_op:
            clear_caches(pkg)

        def attempt():
            try:
                return wl.op(pkg, item)
            except Exception:  # a failed operation is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                return None

        out, seconds = meter.time(attempt)
        failed += out is None
        op_times.append(seconds)
        outputs.append(out)
    return outputs, op_times, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sclflow" / "__init__.py").is_file():
        print(f"no sclflow package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times: list[float] = []
    pass_times: list[list[float]] = []
    failed = 0
    correct = True
    first_plain = None
    tracer = Tracer() if args.trace else None
    to_plain = checks.TO_PLAIN[args.workload]
    meter = speed.Meter()
    passes = 1
    while len(pass_times) < passes:
        for _ in range(SETUPS_PER_PASS):
            pkg, seconds = meter.time(import_package)
            wl, more = meter.time(lambda: workloads.build(args.workload, args.seed, pkg))
            setup_times.append(seconds + more)
        if tracer is not None:
            tracer.install()
        gc.collect()
        t0 = perf_counter()
        outputs, times, f = run_pass(pkg, wl, meter)
        if not pass_times:
            passes = max(wl.min_passes, round(args.seconds / (perf_counter() - t0)))
        pass_times.append(times)
        failed += f
        plain = [to_plain(o) if o is not None else None for o in outputs]
        if first_plain is None:
            first_plain = plain
        elif plain != first_plain:
            print("check failed: a later pass computed other values", file=sys.stderr)
            correct = False
        del outputs, plain
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(len(t) for t in pass_times)
    # a burst of interference only ever adds time, so each operation is
    # timed by its best pass
    best = [min(ts) for ts in zip(*pass_times)]

    # the outputs of the first pass are checked apart from the program
    t_check = perf_counter()
    for inp, out in zip(wl.inputs, first_plain):
        if out is None:
            continue
        errs = checks.output_errors(args.workload, inp, out)
        for e in errs:
            print(f"check failed: {inp}: {e}", file=sys.stderr)
        correct = correct and not errs
    print(f"digest {args.workload} seed={args.seed}: {checks.digest(first_plain)}; "
          f"checks took {perf_counter() - t_check:.1f} s", file=sys.stderr)

    ops_per_s = len(best) / sum(best)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path)
        metrics = tracer.layer_metrics(passes)
        print(f"traced ops_per_s={ops_per_s:.6g} passes={passes}; spans in {path}",
              file=sys.stderr)
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(best) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"passes={passes} setups={len(setup_times)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
