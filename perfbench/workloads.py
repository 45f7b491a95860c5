"""The four benchmark workloads, written against polyens' public API.

Each workload has four parts:

  setup(seed, size) -> ctx     build the inputs (ensemble or tables) once,
                               at the FULL or TINY size;
  op(ctx, i) -> (out, value)   one operation; replica i draws from
                               stream(seed, i); value is the number the
                               run-level checks average; a long op calls
                               ctx["lap"] between its steps, if set;
  check_op(ctx, (out, value))  None if the op passes its closed-form check,
                               else a one-line reason;
  run_checks(ctx, values)      run-level checks over the values of the ops
                               that passed, a list of (name, ok, detail).

Every check compares against a closed form (an exact moment, a kernel
diagonal, a log-determinant), never against stored digests, so a sampler
rewrite that changes the random bits stays measurable.

The library is always reached through attributes of the ``polyens`` package
at call time, so the traced run sees every call after it patches them.
"""

import math

import numpy as np

import polyens
import polyens.config

# replica indices of the streams that build inputs (the tilt validation, the
# banded coefficients); far above any op index
VALIDATE_REPLICA = 10**9

# statistical checks accept a deviation of this many standard errors
SE_TOL = 4.0

# power sums sum z^j, j = 1..CIRCLE_J, checked on the circle
CIRCLE_J = 8

# exact identities must hold to this (absolute, scaled by max(1, |value|))
EXACT_TOL = 1e-12

FULL = {
    "gue_mc": {"N": 100, "nodes": 256},
    "tilted_schur": {"N": 100, "nodes": 256, "pad": 4, "tilt": 0.01},
    "circle_large": {"N": 300, "nodes": 1200},
    "exact_tables": {
        "N_op": 2000, "pad_op": 16, "lmax_op": 8,
        "N_band": 500, "pad_band": 8, "lmax_band": 6,
        "N_stieltjes": 400, "nodes_stieltjes": 1024,
    },
}

# the same shapes at sizes small enough for a smoke test
TINY = {
    "gue_mc": {"N": 10, "nodes": 64},
    "tilted_schur": {"N": 10, "nodes": 64, "pad": 4, "tilt": 0.01},
    "circle_large": {"N": 20, "nodes": 80},
    "exact_tables": {
        "N_op": 60, "pad_op": 16, "lmax_op": 8,
        "N_band": 30, "pad_band": 8, "lmax_band": 6,
        "N_stieltjes": 40, "nodes_stieltjes": 128,
    },
}


def _close(got, want, tol=EXACT_TOL):
    return abs(got - want) <= tol * max(1.0, abs(want))


def _mean_within(name, values, want):
    """Run-level check: the sample mean is within SE_TOL standard errors."""
    v = np.asarray(values, dtype=float)
    if len(v) < 2:
        return name, False, f"needs >= 2 ops, got {len(v)}"
    mean = float(v.mean())
    se = float(v.std(ddof=1) / math.sqrt(len(v)))
    ok = abs(mean - want) <= SE_TOL * se
    return name, ok, f"mean {mean:.6g} vs {want:.6g}, se {se:.3g}, {len(v)} ops"


# -- sampling workloads -------------------------------------------------------


def _sample(ctx, i):
    return polyens.sample(ctx["ensemble"], rng=polyens.stream(ctx["seed"], i))


def _check_distinct(ctx, result):
    cfg = result[0]
    N = ctx["ensemble"].N
    if len(cfg.indices) != N or len(set(cfg.indices.tolist())) != N:
        return f"expected {N} distinct indices, got {len(set(cfg.indices.tolist()))}"
    if not math.isfinite(cfg.log_density):
        return f"log density {cfg.log_density!r} is not finite"
    return None


def _check_log_density(ctx, result):
    """The chain-rule log density equals log det K[points] - log N!."""
    bad = _check_distinct(ctx, result)
    if bad:
        return bad
    cfg = result[0]
    sign, want = ctx["ensemble"].log_joint_density(cfg.indices)
    if sign <= 0:
        return f"kernel minor at the drawn points has sign {sign!r}"
    if abs(cfg.log_density - want) > 1e-8 * max(1.0, abs(want)):
        return f"log density {cfg.log_density!r} != log det K - log N! = {want!r}"
    return None


def setup_gue_mc(seed, size):
    ens = polyens.config.build_ensemble(
        {"classical": "gue", "N": size["N"], "nodes": size["nodes"]}
    )
    ens.kernel_matrix()
    return {"seed": seed, "ensemble": ens}


def op_gue_mc(ctx, i):
    cfg = _sample(ctx, i)
    return cfg, float(np.sum(cfg.points**2))


def checks_gue_mc(ctx, values):
    ens = ctx["ensemble"]
    want_mean = ens.N * polyens.mean_moment(ens.table, 2)
    want_var = polyens.variance_power(ens.table, 2)
    out = [_mean_within("gue_mc.mean_sum_x2", values, want_mean)]
    if len(values) < 5:
        out.append(("gue_mc.var_sum_x2", False, f"needs >= 5 ops, got {len(values)}"))
        return out
    rep = polyens.cumulants(values)
    ok = abs(rep.variance - want_var) <= SE_TOL * rep.se[2]
    out.append((
        "gue_mc.var_sum_x2", ok,
        f"k2 {rep.variance:.6g} vs variance_power(2) {want_var:.6g}, se {rep.se[2]:.3g}",
    ))
    return out


def setup_tilted_schur(seed, size):
    N = size["N"]
    base = polyens.config.build_ensemble(
        {"classical": "chebyshev", "N": N, "nodes": size["nodes"], "pad": size["pad"]}
    )
    tilt = np.zeros((N, 2))
    tilt[N - 2, 0] = size["tilt"]  # Q_{N-2} = P_{N-2} + t P_N
    tilt[N - 1, 1] = size["tilt"]  # Q_{N-1} = P_{N-1} + t P_{N+1}
    ens = base.tilt_nonorthogonal(
        tilt, validate=True, rng=polyens.stream(seed, VALIDATE_REPLICA)
    )
    ens.kernel_matrix()
    m = ens.measure
    # E[sum x^2] = integral x^2 K(x, x) dmu, straight from the kernel diagonal
    want = ens.N * float(np.sum(m.points**2 * ens.mean_density() * m.weights))
    return {"seed": seed, "ensemble": ens, "want_mean": want}


def op_tilted_schur(ctx, i):
    cfg = _sample(ctx, i)
    return cfg, float(np.sum(cfg.points**2))


def checks_tilted_schur(ctx, values):
    return [_mean_within("tilted_schur.mean_sum_x2", values, ctx["want_mean"])]


def setup_circle_large(seed, size):
    ens = polyens.config.build_ensemble(
        {"classical": "uniform-circle", "N": size["N"], "nodes": size["nodes"]}
    )
    ens.kernel_matrix()
    return {"seed": seed, "ensemble": ens}


def op_circle_large(ctx, i):
    cfg = _sample(ctx, i)
    z = cfg.points
    # |sum z^j|^2 / j for j = 1..J: mean 1, variance 1, uncorrelated across j
    stat = np.mean([abs(np.sum(z**j)) ** 2 / j for j in range(1, CIRCLE_J + 1)])
    return cfg, float(stat)


def checks_circle_large(ctx, values):
    """E|sum z^j|^2 = j and E|sum z^j|^4 = 2 j^2 (Diaconis-Shahshahani; exact
    here because every exponent in the 4-point integrals stays below the
    number of atoms), so the per-op mean over j has mean 1 and variance
    1/J, and the check uses that exact standard error rather than the
    sample's, which is too small exactly when a skewed sample mean is low."""
    n = len(values)
    mean = float(np.mean(values))
    se = math.sqrt(1.0 / CIRCLE_J / n)
    ok = abs(mean - 1.0) <= SE_TOL * se
    return [("circle_large.mean_abs_power_sums", ok, f"mean {mean:.6g} vs 1, exact se {se:.3g}, {n} ops")]


# -- exact table algebra ------------------------------------------------------


def _banded_profile_table(seed, N, pad):
    """Real banded table, q = 2: up-step 1 and down-steps j = 0, 1, 2 that
    follow linear profiles c_j(s) with endpoints drawn in [0.05, 0.3]."""
    rng = polyens.stream(seed, VALIDATE_REPLICA + 1)
    ends = rng.uniform(0.05, 0.3, size=(3, 2))

    def shape(j):
        lo, hi = ends[j]
        return lambda s: np.clip(lo + (hi - lo) * np.asarray(s, dtype=float), 0.05, 0.3)

    K = N + pad
    s = np.arange(K + 1) / N
    c = np.empty((K + 1, 4))
    c[:, 0] = 1.0
    for j in range(3):
        c[:, j + 1] = shape(j)(s)
    table = polyens.banded_table(c, 2, N)
    profile = polyens.CoefficientProfile({-1: 1.0, 0: shape(0), 1: shape(1), 2: shape(2)})
    return table, profile


def setup_exact_tables(seed, size):
    gue = polyens.classical_table("gue", size["N_op"], pad=size["pad_op"])
    band, profile = _banded_profile_table(seed, size["N_band"], size["pad_band"])
    Ns = size["N_stieltjes"]
    measure = polyens.scaled_hermite_measure(Ns, nodes=size["nodes_stieltjes"])
    return {
        "seed": seed,
        "parts": (
            ("gue", gue, polyens.gue_profile(), size["lmax_op"]),
            ("band", band, profile, size["lmax_band"]),
        ),
        "measure": measure,
        "stieltjes": polyens.table_from_measure(measure, Ns),
    }


def exact_report(table, profile, lmax, lap=lambda: None):
    """Every exact query of one table: moments, (co)variances, zeros, gaps
    and the limit report. `lap` is called between queries."""

    def each(f, args):
        out = []
        for a in args:
            out.append(f(table, *a))
            lap()
        return out

    zs = polyens.zeros(table, lmax=lmax)
    lap()
    report = {
        "mean_moment": each(polyens.mean_moment, [(l,) for l in range(1, lmax + 1)]),
        "variance_power": each(polyens.variance_power, [(l,) for l in range(1, 5)]),
        "covariance_power_2_3": each(polyens.covariance_power, [(2, 3)])[0],
        "power_sums": zs.power_sums,
        "moment_gap": [],
    }
    for l in range(1, lmax + 1):
        report["moment_gap"].append(polyens.moment_gap(table, l, zero_set=zs))
        lap()
    report["limit_report"] = polyens.limit_report(table, profile, lmax)
    return report


def _flatten(report):
    """Every number of a report, in a fixed order, as a hashable tuple."""
    out = []
    for part in report.values():
        out += [complex(x) for x in part["mean_moment"] + part["variance_power"]]
        out.append(complex(part["covariance_power_2_3"]))
        out += [complex(x) for x in part["power_sums"]]
        out += [complex(g.gap) for g in part["moment_gap"]]
        out += [complex(r.limit_moment) for r in part["limit_report"]]
    return tuple(out)


def op_exact_tables(ctx, i):
    lap = ctx.get("lap", lambda: None)
    report = {name: exact_report(t, p, lmax, lap) for name, t, p, lmax in ctx["parts"]}
    return report, _flatten(report)


def check_exact_report(name, table, report):
    """Closed-form checks of one table's report; None or a reason."""
    mm, vp = report["mean_moment"], report["variance_power"]
    N = table.N
    if name == "gue":
        want = {
            "mean_moment(2)": (mm[1], 1.0),
            "mean_moment(4)": (mm[3], 2.0 + 1.0 / N**2),
            "variance_power(1)": (vp[0], 1.0),
            "variance_power(2)": (vp[1], 2.0),
        }
        for row in report["limit_report"]:
            want[f"limit_report({row.ell}).limit"] = (
                row.limit_moment, polyens.catalan_moment(row.ell)
            )
    else:
        c = table.c
        # one step out of and back into the diagonal, and the only escape:
        # up from N-1 to N, then down by one
        want = {
            "mean_moment(1)": (mm[0], float(np.mean(c[:N, 1]))),
            "variance_power(1)": (vp[0], float(c[N - 1, 0] * c[N, 2])),
        }
    for row in report["limit_report"]:
        want[f"limit_report({row.ell}).finite"] = (row.finite_moment, float(np.real(mm[row.ell - 1])))
    for label, (got, exact) in want.items():
        if not _close(got, exact):
            return f"{name}: {label} = {got!r}, closed form {exact!r}"
    for g in report["moment_gap"]:
        if not g.gap <= g.bound + EXACT_TOL:
            return f"{name}: moment_gap({g.ell}) = {g.gap!r} exceeds its bound {g.bound!r}"
    return None


def check_op_exact_tables(ctx, result):
    report, _ = result
    for name, table, _profile, _lmax in ctx["parts"]:
        bad = check_exact_report(name, table, report[name])
        if bad:
            return bad
    return None


def checks_exact_tables(ctx, values):
    m, st = ctx["measure"], ctx["stieltjes"]
    # the Stieltjes table's polynomials, evaluated by the forward recurrence,
    # are orthonormal on the measure it was built from
    P = polyens.eval_polynomials(st, m.points, st.top, p0=1.0 / math.sqrt(m.total_mass))
    drift = float(np.max(np.abs((P * m.weights) @ P.T - np.eye(len(P)))))
    same = len(set(values)) == 1
    return [
        ("exact_tables.stieltjes_orthonormal", drift <= 1e-9, f"max |G - I| {drift:.3e}"),
        ("exact_tables.deterministic", same, f"{len(set(values))} distinct reports over {len(values)} ops"),
    ]


# -- registry -----------------------------------------------------------------


WORKLOADS = {
    "gue_mc": (setup_gue_mc, op_gue_mc, _check_distinct, checks_gue_mc),
    "tilted_schur": (setup_tilted_schur, op_tilted_schur, _check_log_density, checks_tilted_schur),
    "circle_large": (setup_circle_large, op_circle_large, _check_log_density, checks_circle_large),
    "exact_tables": (setup_exact_tables, op_exact_tables, check_op_exact_tables, checks_exact_tables),
}


# how hard the host's slow periods hit each workload's op (calibrate.py):
# the samplers' steps are Python-level loops over small numpy calls; the
# large-atom sampler and the table algebra spend much of an op in large
# array and LAPACK calls. Set-up is mostly imports.
SENSITIVITY = {
    "gue_mc": 1.25,
    "tilted_schur": 1.0,
    "circle_large": 0.5,
    "exact_tables": 0.6,
}
SETUP_SENSITIVITY = 1.0


def warm_up(name, seed):
    """Run one op of the workload at its tiny size, so lazy imports and
    first-call costs are paid before timing without adding a full-size op
    to the set-up time."""
    setup, op, check_op, _ = WORKLOADS[name]
    ctx = setup(seed, TINY[name])
    result = op(ctx, 0)
    bad = check_op(ctx, result)
    if bad:
        raise RuntimeError(f"warm-up op of {name} failed its check: {bad}")
