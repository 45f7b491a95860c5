"""One workload in a fresh process: set up, then (unless --mode setup) run the
closed loop for --seconds and print one JSON line of raw results. It also
samples the host's speed (calibrate.py) after set-up, between ops and between
the steps of a long op, for run.py to scale the times by.

Modes:
  setup    set up and warm up only; report set-up time and peak RSS
  measure  set up, warm up, run the timed loop untraced
  trace    the same with every layer function wrapped by the tracer

Started by run.py; not meant to be run by hand.
"""

import time

T0 = time.perf_counter()  # set-up time runs from here, before importing polyens

import argparse
import json
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import polyens  # noqa: E402
import workloads  # noqa: E402
import tracing  # noqa: E402


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", help="where the trace mode writes its spans (.npz)")
    args = ap.parse_args()

    here = Path(polyens.__file__).resolve()
    if SRC.resolve() not in here.parents:
        raise SystemExit(f"polyens was imported from {here}, not from {SRC}")

    setup, op, check_op, run_checks = workloads.WORKLOADS[args.workload]
    size = (workloads.TINY if args.tiny else workloads.FULL)[args.workload]

    tracer = None
    if args.mode == "trace":
        workloads.warm_up(args.workload, args.seed)
        tracer = tracing.Tracer()
        tracer.install(polyens)
        traced_from = time.perf_counter()
    ctx = setup(args.seed, size)
    if args.mode != "trace":
        workloads.warm_up(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    speed = statistics.median(calibrate.sample() for _ in range(5))
    setup_scale = speed**workloads.SETUP_SENSITIVITY
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_scale": setup_scale, "peak_rss_mb": _peak_rss_mb()}))
        return

    values, failures = [], []
    clock = calibrate.Clock(workloads.SENSITIVITY[args.workload])
    ctx["lap"] = clock.lap
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        if tracer is not None:
            tracer.op = i
        clock.start()
        try:
            result = op(ctx, i)
        except polyens.PolyensError as exc:
            result, bad = None, f"{type(exc).__name__}: {exc}"
        clock.stop()
        if result is not None:
            bad = check_op(ctx, result)
        if bad:
            failures.append(f"op {i}: {bad}")
        else:
            values.append(result[1])
        i += 1
        if time.perf_counter() >= deadline:
            break
    clock.flush()
    peak = _peak_rss_mb()
    if tracer is not None:
        tracer.op = -2  # run-level checks
    checks = [(name, bool(ok), detail) for name, ok, detail in run_checks(ctx, values)]

    out = {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "peak_rss_mb": peak,
        "latencies": clock.raw,
        "scaled": clock.scaled,
        "speeds": clock.samples,
        "failures": failures,
        "checks": checks,
        "environment": _environment(),
    }
    if tracer is not None:
        wall = time.perf_counter() - traced_from - clock.sampling_s
        tracer.uninstall()
        metrics = tracer.metrics(wall)
        ens = ctx.get("ensemble")
        nbytes = 0 if ens is None else len(ens.measure) ** 2 * ens.kernel_matrix().itemsize
        metrics["ensemble.PolynomialEnsemble.kernel_matrix.bytes"] = (nbytes, "B")
        out["trace"] = {"metrics": metrics, "spans": len(tracer.span_start)}
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
