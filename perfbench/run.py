"""polyens benchmark: four closed-loop workloads over the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each is there):
  gue_mc        one HKPV replica of GUE, N=100 on 256 Hermite nodes
  tilted_schur  one Schur replica of a tilted (non-hermitian) Chebyshev
                ensemble, N=100 on 256 nodes, pad 4, tilt 0.01
  circle_large  one HKPV replica of the uniform circle, N=300 on 1200 atoms
  exact_tables  one full exact report of a GUE table (N=2000) and a banded
                q=2 table (N=500); set-up also runs the Stieltjes step

Each run is one client in one process that starts the next op only when the
last returns (closed loop). The workload runs in fresh child processes with
BLAS/OpenMP held at one thread and POLYENS_THREADS unset, so set-up time
(including `import polyens`) and peak RSS belong to that workload alone.

--trace 0 prints the end-to-end metrics:
  ops_per_s    ops completed per second of op time
  op_ms_p50    median op latency
  setup_s      import + building inputs + warm-up, median over nine processes
  peak_rss_mb  ru_maxrss of the measuring process
Every time is in seconds of the host at a fixed reference speed: the child
times a fixed calibration loop after set-up, between ops (every tenth of a
second of op time) and between the steps of a long op, and scales each
stretch by the host's speed then, to the power of the workload's
sensitivity (calibrate.py, workloads.SENSITIVITY). The shared host's speed
drifts by up to twice for minutes at a time, which no run length averages
away. The unscaled figures and the host speed are printed beside the
metrics. Two figures are printed but are not metrics: the 90th-percentile
op latency, with the count of ops beyond it, because on ops of a few
milliseconds it follows the host's jitter, which scaling by the host's
speed over a tenth of a second does not remove (its spread over five seeds
reached 0.19 of its median on gue_mc); and the error rate, because it is 0
(failed ops are in `attempted`/`failed`).
--trace 1 prints the per-layer metrics of a traced child instead: calls,
self time and share of every wrapped layer function (see tracing.py), and
trace.overhead, the traced over the untraced ops_per_s, each measured for
half of --seconds. Spans are written to perfbench/out/spans-<workload>.npz.

Every op is checked against a closed form (check_op in workloads.py); a
failed check or a PolyensError counts as a failed op. Run-level checks
(sample means and variances within 4 standard errors of exact values) make
the command exit 1 and name the check. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("gue_mc", "tilted_schur", "circle_large", "exact_tables")

SETUP_ONLY_RUNS = 8  # plus the measuring process: setup_s is a median of 9
TIME_LIMIT_S = 170.0  # the whole command, children included


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("POLYENS_THREADS", None)
    return env


def _run_child(args, mode, seconds, deadline, extra=()):
    cmd = [
        sys.executable, str(CHILD), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--mode", mode, *extra,
    ]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{mode} process for {args.workload} ran past the time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} process for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine():
    model = "?"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def _latency_metrics(run):
    lat = run["scaled"]
    done = len(lat) - len(run["failures"])
    q = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else [lat[0]] * 9
    return {"ops_per_s": (done / sum(lat), "1/s"), "op_ms_p50": (q[4] * 1e3, "ms")}, q[8] * 1e3


def _raw_note(run):
    lat = run["latencies"]
    done = len(lat) - len(run["failures"])
    return (
        f"unscaled: ops_per_s {done / sum(lat):.6g}, op_ms_p50 {statistics.median(lat) * 1e3:.6g}; "
        f"host speed (reference / calibration time) over {len(run['speeds'])} samples: median "
        f"{statistics.median(run['speeds']):.4g}, range {min(run['speeds']):.4g}..{max(run['speeds']):.4g}"
    )


def _report(args, metrics, runs, notes):
    checks = [c for r in runs for c in r["checks"]]
    failures = [f for r in runs for f in r["failures"]]
    attempted = sum(len(r["latencies"]) for r in runs)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<58} {value:>16.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    print(f"  error_rate {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops failed)")
    for f in failures[:5]:
        print(f"  failed {f}")
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    env = {**_machine(), **runs[0]["environment"]}
    print("environment " + json.dumps(env, sort_keys=True))
    correct = all(ok for _, ok, _ in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    if not correct:
        bad = ", ".join(name for name, ok, _ in checks if not ok)
        print(f"run-level check failed: {bad}", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "polyens" / "__init__.py").is_file():
        print(f"no polyens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    if args.trace:
        ref = _run_child(args, "measure", args.seconds / 2, deadline)
        (HERE / "out").mkdir(exist_ok=True)
        spans = HERE / "out" / f"spans-{args.workload}.npz"
        traced = _run_child(args, "trace", args.seconds / 2, deadline, ("--spans", str(spans)))
        metrics = {k: tuple(v) for k, v in traced["trace"]["metrics"].items()}
        ratio = _latency_metrics(traced)[0]["ops_per_s"][0] / _latency_metrics(ref)[0]["ops_per_s"][0]
        metrics["trace.overhead"] = (ratio, "ratio")
        notes = [
            f"{len(traced['latencies'])} traced ops, {len(ref['latencies'])} untraced ops, "
            f"{traced['trace']['spans']} spans written to {spans.relative_to(ROOT)}"
        ]
        return _report(args, metrics, [ref, traced], notes)

    setups = [_run_child(args, "setup", 0.0, deadline) for _ in range(SETUP_ONLY_RUNS)]
    run = _run_child(args, "measure", args.seconds, deadline)
    setups.append(run)
    metrics, p90 = _latency_metrics(run)
    metrics["setup_s"] = (statistics.median(r["setup_s"] * r["setup_scale"] for r in setups), "s")
    metrics["peak_rss_mb"] = (run["peak_rss_mb"], "MB")
    beyond = sum(t * 1e3 > p90 for t in run["scaled"])
    notes = [
        f"op_ms_p90 {p90:.6g} ms (printed only), {beyond} of {len(run['latencies'])} ops beyond it",
        _raw_note(run),
        "setup_s over {} processes, scaled (unscaled): ".format(len(setups)) + ", ".join(
            f"{r['setup_s'] * r['setup_scale']:.4f} ({r['setup_s']:.4f})" for r in setups
        ),
    ]
    return _report(args, metrics, [run], notes)


if __name__ == "__main__":
    sys.exit(main())
