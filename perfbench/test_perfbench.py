"""Tests of the benchmark's own code (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_emits_every_end_to_end_metric(workload):
    out = _run(workload, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_smoke_emits_every_per_layer_metric(workload):
    out = _run(workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want


def _tiny(name, seed=5):
    setup, op, check_op, run_checks = workloads.WORKLOADS[name]
    ctx = setup(seed, workloads.TINY[name])
    return ctx, op, check_op, run_checks


@pytest.mark.parametrize("name", ["tilted_schur", "circle_large"])
def test_corrupted_log_density_fails_its_check(name):
    ctx, op, check_op, _ = _tiny(name)
    cfg, stat = op(ctx, 0)
    assert check_op(ctx, (cfg, stat)) is None
    cfg.log_density += 1e-6 * max(1.0, abs(cfg.log_density))
    assert "log density" in check_op(ctx, (cfg, stat))


def test_repeated_index_fails_its_check():
    ctx, op, check_op, _ = _tiny("gue_mc")
    cfg, stat = op(ctx, 0)
    cfg.indices[1] = cfg.indices[0]
    assert "distinct" in check_op(ctx, (cfg, stat))


@pytest.mark.parametrize("part, key, slot", [
    ("gue", "mean_moment", 3),
    ("gue", "variance_power", 1),
    ("band", "mean_moment", 0),
    ("band", "variance_power", 0),
])
def test_wrong_exact_value_fails_its_check(part, key, slot):
    ctx, op, check_op, _ = _tiny("exact_tables")
    result = op(ctx, 0)
    assert check_op(ctx, result) is None
    result[0][part][key][slot] += 1e-9
    assert f"{key}(" in check_op(ctx, result)


def test_gap_above_bound_fails_its_check():
    ctx, op, check_op, _ = _tiny("exact_tables")
    result = op(ctx, 0)
    g = result[0]["gue"]["moment_gap"][2]
    g.gap = g.bound * 1.01 + 1e-9
    assert "exceeds its bound" in check_op(ctx, result)


def test_biased_sample_fails_the_run_level_check():
    ctx, op, _, run_checks = _tiny("circle_large")
    values = [op(ctx, i)[1] for i in range(200)]
    assert all(ok for _, ok, _ in run_checks(ctx, values))
    shifted = [v + 0.5 for v in values]
    assert not all(ok for _, ok, _ in run_checks(ctx, shifted))


def test_gue_variance_check_uses_the_exact_variance():
    ctx, op, _, run_checks = _tiny("gue_mc")
    values = np.array([op(ctx, i)[1] for i in range(400)])
    assert all(ok for _, ok, _ in run_checks(ctx, list(values)))
    mean = values.mean()
    spread = list(mean + 1.5 * (values - mean))  # variance x 2.25, mean unchanged
    checks = dict((name, ok) for name, ok, _ in run_checks(ctx, spread))
    assert checks["gue_mc.mean_sum_x2"] and not checks["gue_mc.var_sum_x2"]


def test_clock_scales_each_stretch_by_the_samples_around_it(monkeypatch):
    speeds = iter([1.0, 0.5, 0.25])
    monkeypatch.setattr(calibrate, "sample", lambda: next(speeds))
    now = [0.0]
    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: now[0])
    clock = calibrate.Clock(1.0, every=1.0)
    clock.start()
    now[0] += 0.5
    clock.lap()  # 0.5 s, not yet due
    now[0] += 0.5
    clock.lap()  # 1.0 s in all: sample 0.5, so this op so far runs at 0.75
    now[0] += 2.0
    assert clock.stop() == pytest.approx(3.0)  # sample 0.25: 2 s at 0.375
    assert clock.samples == [1.0, 0.5, 0.25]
    assert clock.scaled == [pytest.approx(1.0 * 0.75 + 2.0 * 0.375)]


def test_clock_applies_the_sensitivity_exponent(monkeypatch):
    monkeypatch.setattr(calibrate, "sample", lambda: 0.25)
    now = [0.0]
    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: now[0])
    clock = calibrate.Clock(0.5, every=0.1)
    clock.start()
    now[0] += 2.0
    clock.stop()
    assert clock.scaled == [pytest.approx(2.0 * 0.5)]


def test_calibration_loop_runs_at_a_plausible_speed():
    assert 0.01 < calibrate.sample() < 100.0
    assert set(workloads.SENSITIVITY) == set(workloads.WORKLOADS)


def test_exact_report_laps_between_queries():
    ctx, op, check_op, _ = _tiny("exact_tables")
    laps = []
    ctx["lap"] = lambda: laps.append(1)
    result = op(ctx, 0)
    assert check_op(ctx, result) is None
    # per table: zeros, 8 + 4 + 1 moments and variances, and 8 or 6 gaps
    assert len(laps) == (1 + 8 + 4 + 1 + 8) + (1 + 6 + 4 + 1 + 6)


def test_bare_checkout_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gue_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
