"""Informational probe of polyens' working envelope.

    python3 perfbench/envelope.py [--seed N]

Runs each probe in its own process and prints one JSON object mapping the
probe name to {"status": "ok"} or {"status": "error", "type": ..., "detail":
...}. The probes sit just outside the sizes the benchmark workloads use,
where the library is known to break, so the defects stay visible instead of
being sized around. Nothing here feeds the benchmark's metrics, its failed
op count or its exit code; this command exits 0 whatever the probes report.

  gue_n300_256_nodes      one HKPV replica of GUE N=300 on the default 256 nodes
  schur_gue_n200_512      one Schur replica of GUE N=200 on 512 nodes, then the
                          prefix determinant check of its points
  threads2_lambda         sample_replicas with POLYENS_THREADS=2 (two worker
                          processes at most) and a lambda statistic
  stieltjes_gue_n400      table_from_measure on the scaled-Hermite measure,
                          N=400 on 1024 nodes, against the GUE closed form
                          a_k = sqrt((k+1)/N)
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PROBES = {
    "gue_n300_256_nodes": """
ens = polyens.config.build_ensemble({"classical": "gue", "N": 300})
polyens.sample(ens, rng=polyens.stream(SEED, 0))
""",
    "schur_gue_n200_512": """
ens = polyens.config.build_ensemble({"classical": "gue", "N": 200, "nodes": 512})
cfg = polyens.sample(ens, rng=polyens.stream(SEED, 0), mode="schur")
polyens.ConditionalState.from_prefix(ens, cfg.indices, mode="hkpv").base_times_height_check()
""",
    "threads2_lambda": """
os.environ["POLYENS_THREADS"] = "2"
ens = polyens.config.build_ensemble({"classical": "gue", "N": 10, "nodes": 64})
polyens.sample_replicas(ens, 8, seed=SEED, statistic=lambda pts: float(np.sum(pts)))
""",
    "stieltjes_gue_n400": """
t = polyens.table_from_measure(polyens.scaled_hermite_measure(400, nodes=1024), 400)
k = np.arange(len(t.a))
bad = np.nonzero(np.abs(t.a - np.sqrt((k + 1.0) / 400)) > 1e-9)[0]
if len(bad):
    raise AssertionError(f"a_k departs from sqrt((k+1)/N) from k={bad[0]} on")
""",
}

PRELUDE = """
import json, os, sys
sys.path.insert(0, {src!r})
import numpy as np
import polyens, polyens.config
SEED = {seed}
try:
{body}
except Exception as exc:
    print(json.dumps({{"status": "error", "type": type(exc).__name__, "detail": str(exc)[:200]}}))
else:
    print(json.dumps({{"status": "ok"}}))
"""


def probe(name, seed):
    body = "\n".join("    " + line for line in PROBES[name].strip().splitlines())
    code = PRELUDE.format(src=str(ROOT / "src"), seed=seed, body=body)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env.pop("POLYENS_THREADS", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=170
        )
    except subprocess.TimeoutExpired:
        return {"status": "error", "type": "TimeoutExpired", "detail": "probe ran over 170 s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"status": "error", "type": f"exit {proc.returncode}", "detail": proc.stderr[-200:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="Probe the known edges of polyens' working envelope.")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    print(json.dumps({name: probe(name, args.seed) for name in PROBES}, indent=1))


if __name__ == "__main__":
    main()
