"""Acceptance harness: one check per shipped guarantee.

Each criterion is a self-contained function returning a CriterionResult.
run_all() executes them in order with a shared Monte Carlo cache so the
expensive GUE replica set is drawn once.  quick=True shrinks replica
counts for smoke runs; the full run is what the package promises.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .errors import _integer
from .rng import DEFAULT_SEED, stream
from .measure import atoms_measure, equilibrium_measure
from .recurrence import classical_table, eval_polynomials, hessenberg_matrix, mean_moment, op_table, path_sum_moment
from .ensemble import PolynomialEnsemble
from .config import build_ensemble
from .sampler import conditional_density, sample, sample_replicas, spectral_from_ensemble, thin_contraction
from .charpoly import log_potential, mean_measure, moment_gap, zeros
from .variance import (
    cumulants,
    empirical_Q_moment,
    limiting_Q_moment,
    limiting_variance,
    lipschitz_variance_bound,
    variance_power,
)
from .asymptotics import arcsine_moment, catalan_moment

# draws of a quick run of criteria 5 and 11, held to the full run's TV
# tolerance of 0.02. At 2000 draws an exact sampler failed 10 (criterion 5)
# and 5 (criterion 11) of seeds 0-29 by chance; at this count none did,
# worst TV 0.0117 and 0.0091
QUICK_LAW_DRAWS = 20_000


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.number:2d} {self.name}: {self.detail} ({self.seconds:.1f}s)"


def _enumerate_paths(table, ell, k, m):
    """Literal sum over all admissible lattice paths k -> m in ell steps.

    Deliberately naive: iterates over every step sequence and multiplies
    coefficients one at a time. Exponential in ell; only for checking.
    """
    q = table.q
    total = 0.0 * table.coeff(0, 0)
    for steps in itertools.product(range(-1, q + 1), repeat=ell):
        h = k
        w = 1.0
        ok = True
        for s in steps:
            nxt = h - s  # s = -1 is the step up
            if nxt < 0:
                ok = False
                break
            w = w * table.coeff(h, nxt)
            h = nxt
        if ok and h == m:
            total = total + w
    return total


def _gauss_from_table(table):
    """Discrete measure whose orthonormal polynomials have the table's
    coefficients (Golub & Welsch 1969): the eigenvalues and first-component
    squares of its Jacobi section, hessenberg_matrix through index top."""
    vals, vecs = np.linalg.eigh(hessenberg_matrix(table, table.top + 1))
    return atoms_measure(vals, vecs[0] ** 2, name="gauss-nodes")


# -- criteria ----------------------------------------------------------------


def check_path_sum(ctx):
    """1: banded moment formula == literal path enumeration == quadrature."""
    rng = stream(ctx["seed"] + 1000)
    tables = 12 if ctx["quick"] else 50
    worst = 0.0
    for _ in range(tables):
        N = int(rng.integers(1, 9))
        pad = 5
        top = N + pad
        a = rng.uniform(0.3, 1.5, size=top + 1)
        b = rng.uniform(-0.5, 0.5, size=top + 1)
        table = op_table(a, b, N)
        gauss = _gauss_from_table(table)
        P = eval_polynomials(table, gauss.points, top)
        for _ in range(6):
            ell = int(rng.integers(0, 5))
            k = int(rng.integers(0, N))
            m = int(rng.integers(0, N))
            got = path_sum_moment(table, ell, k, m)
            lit = _enumerate_paths(table, ell, k, m)
            quad = float(np.sum(gauss.points**ell * P[k] * P[m] * gauss.weights))
            scale = max(1.0, abs(lit))
            err = max(abs(got - lit), abs(got - quad)) / scale
            worst = max(worst, err)
    return worst <= 1e-9, f"{tables} random tables, worst rel. err {worst:.2e} (tol 1e-9)"


def check_semicircle(ctx):
    """2: GUE mean moments -> Catalan numbers, gap shrinking under N-doubling."""
    gaps = {}
    for N in (100, 200, 400):
        table = classical_table("gue", N, pad=4)
        gaps[N] = [abs(mean_moment(table, ell) - catalan_moment(ell)) for ell in range(1, 7)]
    close = max(gaps[200])
    if close > 0.05:
        return False, f"N=200 moment error {close:.3g} > 0.05"
    worst_ratio = 0.0
    for i in range(6):
        for N in (100, 200):
            g, g2 = gaps[N][i], gaps[2 * N][i]
            if g <= 1e-12:
                continue  # identity holds exactly at finite N; nothing to shrink
            if g2 > 0.6 * g:
                return False, f"ell={i + 1} gap {g:.2e} -> {g2:.2e} shrank < 40% at N={N}->{2 * N}"
            worst_ratio = max(worst_ratio, g2 / g)
    return True, f"N=200 max error {close:.2e}, worst doubling ratio {worst_ratio:.2f} (need <= 0.60)"


def check_arcsine(ctx):
    """3: Chebyshev-ensemble mean moments -> arcsine moments."""
    table = classical_table("chebyshev", 200, pad=5)
    errs = [abs(mean_moment(table, ell) - arcsine_moment(ell)) for ell in range(1, 9)]
    worst = max(errs)
    return worst <= 0.02, f"N=200, ell<=8, max |moment - arcsine| = {worst:.2e} (tol 0.02)"


def check_gap_bound(ctx):
    """4: mean-vs-zero moment gap obeys the bound and decays like 1/N."""
    rates = []
    for name in ("gue", "chebyshev"):
        gap = {}
        for N in (50, 100, 200):
            table = classical_table(name, N, pad=5)
            zs = zeros(table, lmax=4)
            gap[N] = []
            for ell in range(1, 5):
                r = moment_gap(table, ell, zero_set=zs)
                if r.gap > r.bound + 1e-12:
                    return False, f"{name} N={N} ell={ell}: gap {r.gap:.3e} exceeds bound {r.bound:.3e}"
                gap[N].append(r.gap)
        for i in range(4):
            if min(gap[50][i], gap[100][i], gap[200][i]) <= 1e-12:
                continue
            for N in (50, 100):
                rates.append(gap[N][i] / gap[2 * N][i])
    if not rates:
        return False, "no nonzero gaps to rate-test"
    lo, hi = min(rates), max(rates)
    ok = 1.6 <= lo and hi <= 2.4
    return ok, f"all gaps <= bound; doubling ratios in [{lo:.2f}, {hi:.2f}] (need [1.6, 2.4])"


def check_sampler(ctx):
    """5: chain-rule sampler reproduces the exhaustive pair law and the minor-ratio conditionals."""
    measure = equilibrium_measure(-1.0, 1.0, 4)
    base = PolynomialEnsemble.from_table(classical_table("chebyshev", 2, pad=1), measure, N=2)
    tilted = base.tilt_nonorthogonal(
        np.array([[0.05, 0.0], [0.0, 0.05]]), validate=True, rng=stream(ctx["seed"] + 5001)
    )
    R = QUICK_LAW_DRAWS if ctx["quick"] else 100_000
    details = []
    for tag, ens in (("op", base), ("tilted", tilted)):
        exact = {}
        for i, j in itertools.combinations(range(4), 2):
            exact[(i, j)] = ens.joint_density([i, j]) * measure.weights[i] * measure.weights[j]
        if abs(sum(exact.values()) - 1.0) > 1e-10:
            return False, f"{tag}: exhaustive pair law sums to {sum(exact.values()):.6f}"
        rng = stream(ctx["seed"] + 5002)
        counts = {}
        for _ in range(R):
            cfg = sample(ens, rng=rng, check_normalization=True)
            key = tuple(sorted(cfg.indices))
            counts[key] = counts.get(key, 0) + 1
        tv = 0.5 * sum(abs(counts.get(k, 0) / R - p) for k, p in exact.items())
        if tv > 0.02:
            return False, f"{tag}: TV(empirical, exact) = {tv:.4f} > 0.02 at {R} draws"
        details.append(f"{tag} TV {tv:.4f}")
    worst = 0.0
    for ens in (base, tilted):
        for prefix in ([], [0], [1], [2], [3], [0, 3]):
            if len(prefix) >= ens.N:
                continue
            # direct route: det K[prefix + x] / det K[prefix], minor by minor
            minors = np.array([ens.joint_density(prefix + [x]) for x in range(len(measure))])
            direct = minors / ens.joint_density(prefix) / (ens.N - len(prefix))
            worst = max(worst, float(np.max(np.abs(conditional_density(ens, prefix) - direct))))
    if worst > 1e-10:
        return False, f"chain-rule and minor-ratio conditionals differ by {worst:.2e} > 1e-10"
    return True, f"{R} draws each: " + ", ".join(details) + f"; |chain - minor ratio| {worst:.1e}"


def check_variance(ctx):
    """6: Var[sum x_i] = 1 for every GUE size, exactly and by Monte Carlo."""
    for N in (2, 5, 50, 200):
        table = classical_table("gue", N, pad=2)
        v = variance_power(table, 1)
        if abs(v - 1.0) > 1e-12:
            return False, f"N={N}: exact variance {v!r} != 1"
        bound = lipschitz_variance_bound(table, 1.0)
        if v > bound + 1e-12:
            return False, f"N={N}: variance {v} above Lipschitz bound {bound}"
    R = 500 if ctx["quick"] else 10_000
    ens = build_ensemble({"classical": "gue", "N": 50, "nodes": 256, "pad": 2})
    vals, _ = sample_replicas(ens, R, seed=ctx["seed"] + 6000, statistic=lambda pts: float(np.sum(pts)))
    rep = cumulants(vals)
    dev = abs(rep.variance - 1.0)
    ok = dev <= 3 * rep.se[2]
    return ok, f"exact 1 at N in 2..200; MC N=50 k2 = {rep.variance:.4f} +- {rep.se[2]:.4f} ({R} replicas)"


def check_pair_measure(ctx):
    """7: top-pair correlation moments approach the limit pair measure."""
    ens = build_ensemble({"classical": "chebyshev", "N": 200, "nodes": 512, "pad": 2})
    q00 = empirical_Q_moment(ens, 0, 0)
    q11 = empirical_Q_moment(ens, 1, 1)
    target = limiting_Q_moment(1, 1, a=0.5, b=0.0)
    if abs(target - (-0.25)) > 1e-9:
        return False, f"limit moment off: {target!r} vs -1/4"
    ok = abs(q00 - 1.0) <= 1e-8 and abs(q11 - target) <= 0.05
    return ok, f"(0,0) = {q00:.10f}, (1,1) = {q11:.6f} vs limit {target:.6f} (tol 0.05)"


def _shared_gue100(ctx):
    if "gue100_sumsq" not in ctx:
        R = 500 if ctx["quick"] else 10_000
        ens = build_ensemble({"classical": "gue", "N": 100, "nodes": 256, "pad": 2})
        vals, _ = sample_replicas(
            ens, R, seed=ctx["seed"] + 8000, statistic=lambda pts: float(np.sum(pts * pts))
        )
        ctx["gue100_sumsq"] = cumulants(vals)
        ctx["gue100_R"] = R
    return ctx["gue100_sumsq"], ctx["gue100_R"]


def check_limiting_variance(ctx):
    """8: limit variance functional vs exact identity and N=100 Monte Carlo."""
    lv1 = limiting_variance(lambda x: x, a=1.0, b=0.0)
    exact = variance_power(classical_table("gue", 64, pad=2), 1)
    if abs(lv1 - 1.0) > 1e-3 or abs(lv1 - exact) > 1e-3:
        return False, f"limiting variance of x: {lv1!r}, exact {exact!r}"
    lv2 = limiting_variance(lambda x: x * x, a=1.0, b=0.0)
    rep, R = _shared_gue100(ctx)
    dev = abs(rep.variance - lv2) / lv2
    ok = dev <= 0.10
    return ok, f"f=x: {lv1:.6f}; f=x^2: {lv2:.4f} vs MC k2 {rep.variance:.4f} ({R} replicas, rel dev {dev:.1%})"


def check_clt(ctx):
    """9: linear-statistic fluctuations are Gaussian (3rd/4th cumulants small)."""
    rep, R = _shared_gue100(ctx)
    tol_s, tol_k = (0.3, 0.6) if ctx["quick"] else (0.1, 0.2)
    ok = abs(rep.skewness) <= tol_s and abs(rep.excess_kurtosis) <= tol_k
    return ok, (
        f"sum x^2 at N=100, {R} replicas: skew {rep.skewness:+.4f} (tol {tol_s}), "
        f"excess kurtosis {rep.excess_kurtosis:+.4f} (tol {tol_k})"
    )


def check_potential(ctx):
    """10: log-potentials of mean measure and zero set agree off the support."""
    table = classical_table("chebyshev", 100, pad=2)
    zs = zeros(table, lmax=2)
    ens = build_ensemble({"classical": "chebyshev", "N": 100, "nodes": 256, "pad": 2})
    mm = mean_measure(ens)
    zpts = 5.0 * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)
    worst = max(abs(log_potential(mm, z) - log_potential(zs, z)) for z in zpts)
    if worst > 0.02:
        return False, f"potential mismatch {worst:.4f} > 0.02 on |z| = 5"
    circ = zeros(classical_table("circle", 16, pad=0), lmax=2)
    stray = float(np.max(np.abs(circ.zeros)))
    ok = stray == 0.0
    return ok, f"max potential gap {worst:.2e} on |z|=5; circle zeros all exactly 0 ({stray!r})"


def check_thinning(ctx):
    """11: Bernoulli-thinned contraction reproduces the 1-point intensity."""
    measure = equilibrium_measure(-1.0, 1.0, 4)
    ens = PolynomialEnsemble.from_table(classical_table("chebyshev", 2, pad=1), measure, N=2)
    sd = spectral_from_ensemble(ens, [0.7, 0.4])
    expected = sd.intensity() * measure.weights
    R = QUICK_LAW_DRAWS if ctx["quick"] else 100_000
    rng = stream(ctx["seed"] + 11000)
    counts = np.zeros(4)
    for _ in range(R):
        thin, _keep = thin_contraction(sd, rng)
        if thin.N:
            cfg = sample(thin, rng=rng)
            counts[cfg.indices] += 1
    tv = 0.5 * float(np.sum(np.abs(counts / R - expected)))
    return tv <= 0.02, f"{R} thin+sample draws: TV(intensity) = {tv:.4f} (tol 0.02)"


CRITERIA = (
    (1, "path-sum moment formula", check_path_sum),
    (2, "semicircle moment convergence", check_semicircle),
    (3, "arcsine moment convergence", check_arcsine),
    (4, "moment gap bound and rate", check_gap_bound),
    (5, "chain-rule sampler exactness", check_sampler),
    (6, "exact variance identity", check_variance),
    (7, "top-pair measure limit", check_pair_measure),
    (8, "limiting variance functional", check_limiting_variance),
    (9, "linear-statistic CLT", check_clt),
    (10, "log-potential agreement", check_potential),
    (11, "contraction thinning", check_thinning),
)


def run_all(quick=False, seed=DEFAULT_SEED, only=None, progress=None):
    """Run the acceptance criteria; returns a list of CriterionResult.

    only: optional iterable of criterion numbers. progress: optional
    callable invoked with each result as it finishes.
    """
    ctx = {"quick": bool(quick), "seed": _integer(seed, "seed", 0)}
    wanted = None if only is None else set(only)
    results = []
    for number, name, fn in CRITERIA:
        if wanted is not None and number not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(number, name, bool(passed), detail, time.perf_counter() - t0))
        if progress is not None:
            progress(results[-1])
    return results
