"""Import footprint: the package and the command-line tool load on numpy
alone, and so does building and sampling every kind of ensemble, GUE and
its Gauss-Hermite rule included, a measure config's Stieltjes table, and
acceptance criterion 1's Gauss rule. None of them loads numpy.ma either,
which np.unique imports on its first call. The zero set's moments load no
scipy.linalg; reading the zero locations does."""

import os
import subprocess
import sys
from pathlib import Path

import polyens

SCRIPT = """
import sys

import numpy as np

import polyens
import polyens.cli

base = polyens.PolynomialEnsemble.from_table(
    polyens.classical_table("chebyshev", 6, pad=4), polyens.equilibrium_measure(-1, 1, 40), N=6
)
tilt = np.zeros((6, 2))
tilt[4, 0] = tilt[5, 1] = 0.05
ensembles = [
    base,
    polyens.PolynomialEnsemble.from_table(
        polyens.classical_table("circle", 6, pad=2), polyens.uniform_circle_measure(30), N=6
    ),
    # four row blocks of the kernel and four of the Gram check
    polyens.PolynomialEnsemble.from_table(
        polyens.classical_table("circle", 200, pad=2), polyens.uniform_circle_measure(400), N=200
    ),
    base.tilt_nonorthogonal(tilt, validate=True, rng=polyens.stream(3)),
]
for N, nodes in ((10, 64), (100, 256)):
    table = polyens.classical_table("gue", N, pad=2)
    ensembles.append(polyens.PolynomialEnsemble.from_table(table, polyens.scaled_hermite_measure(N, nodes), N=N))
for i, ens in enumerate(ensembles):
    cfg = polyens.sample(ens, rng=polyens.stream(5, i))
    sign, _ = ens.log_joint_density(cfg.indices)
    assert sign > 0, (ens, sign)
print(" ".join(sorted(m for m in ("scipy.linalg", "scipy.special", "numpy.ma") if m in sys.modules)))
"""


def _printed_by(script):
    src = str(Path(polyens.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_and_sampling_load_no_scipy_submodule():
    loaded = _printed_by(SCRIPT)
    assert loaded == "", f"loaded: {loaded}"


MEASURE_SCRIPT = """
import sys

import polyens
import polyens.config

cfg = {"measure": {"kind": "named", "name": "chebyshev-arcsine", "nodes": 64}, "N": 10}
ens = polyens.config.build_ensemble(cfg)
polyens.sample(ens, rng=polyens.stream(5))
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "numpy.ma")))
"""


def test_measure_config_loads_no_scipy_module():
    loaded = _printed_by(MEASURE_SCRIPT)
    assert loaded == "", f"loaded: {loaded}"


VERIFY_SCRIPT = """
import sys

from polyens import verify

(result,) = verify.run_all(only=[1])
assert result.passed, result.detail
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy.linalg") or m == "numpy.ma")))
"""


def test_path_sum_criterion_loads_no_scipy_linalg():
    loaded = _printed_by(VERIFY_SCRIPT)
    assert loaded == "", f"loaded: {loaded}"


ZEROS_SCRIPT = """
import sys

import polyens

table = polyens.classical_table("gue", 2000, pad=16)
zs = polyens.zeros(table, lmax=8)
gaps = [polyens.moment_gap(table, ell, zero_set=zs) for ell in range(1, 9)]
assert all(g.gap <= g.bound for g in gaps)
polyens.limit_report(table, polyens.gue_profile(), 8)
before = "scipy.linalg" in sys.modules
assert len(zs.zeros) == 2000
print(before, "scipy.linalg" in sys.modules)
"""


def test_zero_set_moments_load_no_scipy_linalg_until_the_zeros_are_read():
    assert _printed_by(ZEROS_SCRIPT) == "False True"
