import inspect
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from polyens import (
    CoefficientRangeError,
    EvaluationError,
    PolynomialEnsemble,
    banded_table,
    classical_table,
    covariance_power,
    cumulants,
    empirical_Q_moment,
    equilibrium_measure,
    limiting_Q_moment,
    limiting_variance,
    lipschitz_variance_bound,
    mean_moment,
    op_table,
    stream,
    uniform_circle_measure,
    variance_power,
    variance_upper_bound,
)
from polyens.config import build_ensemble
from polyens.variance import LIMIT_NODES

import oracles
from test_recurrence import complex_q1_table, random_banded_table, random_op_table


def test_gue_linear_variance_is_one():
    for N in (1, 2, 13, 100):
        t = classical_table("gue", N, pad=2)
        assert np.isclose(variance_power(t, 1), 1.0, rtol=1e-12)


def test_gue_quadratic_variance_is_two():
    for N in (2, 5, 40):
        t = classical_table("gue", N, pad=3)
        assert np.isclose(variance_power(t, 2), 2.0, rtol=1e-12)


def test_linear_variance_is_top_coefficient_squared():
    # only the single up-down loop at N-1 crosses the cut
    for seed in range(8):
        t = random_op_table(seed, pad=3)
        a_top = t.coeff(t.N - 1, t.N)
        assert np.isclose(variance_power(t, 1), a_top**2, rtol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_variance_matches_escape_enumeration_op(seed):
    t = random_op_table(500 + seed, N=2 + seed % 5, pad=5)
    for ell in (1, 2, 3):
        want = oracles.variance_by_escape(t, ell)
        assert np.isclose(variance_power(t, ell), want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("q", [0, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_variance_matches_escape_enumeration_banded(q, seed):
    # the section must be wide enough for loops that climb q/(q+1) of the way
    t = random_banded_table(700 + 10 * q + seed, q, N=2 + seed, pad=8)
    for ell in (1, 2, 3):
        want = oracles.variance_by_escape(t, ell)
        assert np.isclose(variance_power(t, ell), want, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("seed", range(6))
def test_covariance_matches_escape_enumeration(seed):
    t = random_op_table(900 + seed, N=3 + seed % 4, pad=6)
    for ell, m in [(1, 2), (2, 1), (1, 3), (2, 3)]:
        want = oracles.covariance_by_escape(t, ell, m)
        assert np.isclose(covariance_power(t, ell, m), want, rtol=1e-9, atol=1e-12)


def test_covariance_diagonal_and_symmetry():
    t = random_op_table(33, N=5, pad=6)
    assert np.isclose(covariance_power(t, 2, 2), variance_power(t, 2), rtol=1e-12)
    assert np.isclose(covariance_power(t, 1, 3), covariance_power(t, 3, 1), rtol=1e-10)


def test_complex_table_variances_keep_their_imaginary_part():
    # the only escape of Var[sum x] is up from N-1 and down from N
    t = complex_q1_table()
    N, c = t.N, t.c
    cases = [
        (variance_power(t, 1), c[N - 1, 0] * c[N, 2]),
        (variance_power(t, 1), oracles.variance_by_escape(t, 1)),
        (variance_power(t, 2), oracles.variance_by_escape(t, 2)),
        (covariance_power(t, 2, 3), oracles.covariance_by_escape(t, 2, 3)),
    ]
    for got, want in cases:
        assert isinstance(got, complex) and abs(want.imag) > 0.1
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_gue_closed_forms_at_large_N():
    # N = 1e5 is out of reach for a dense (N+pad)^2 section: this pins the
    # banded route down
    N = 100_000
    t = classical_table("gue", N, pad=16)
    assert np.isclose(mean_moment(t, 4), 2.0 + 1.0 / N**2, rtol=1e-12)
    assert np.isclose(variance_power(t, 2), 2.0, rtol=1e-12)
    assert np.isfinite(variance_upper_bound(t, 2))


def test_variance_needs_pad():
    t = classical_table("gue", 10, pad=1)
    with pytest.raises(CoefficientRangeError):
        variance_power(t, 4)


@pytest.mark.parametrize("ell", [1, 3, 9])
def test_variance_needs_the_pad_its_docstring_names_on_a_q1_table(ell):
    # q = 1: the walks read up to ordinate N + l - 1, so pad l - 1 serves
    assert np.isfinite(variance_power(classical_table("gue", 30, pad=ell - 1), ell))
    if ell > 1:
        with pytest.raises(CoefficientRangeError, match=re.escape(f"; rebuild with pad >= {ell - 1}")):
            variance_power(classical_table("gue", 30, pad=ell - 2), ell)


def test_variance_needs_the_pad_its_docstring_names_on_a_q2_table():
    # q = 2, l = 6: the walks read up to N - 1 + floor(2 * 2 * 6 / 3) = N + 7,
    # so the pad needed is 7, one more than l
    N, ell = 20, 6

    def band(pad):
        c = np.zeros((N + pad + 1, 4))
        c[:, 0], c[:, 1], c[:, 2], c[:, 3] = 1.0, 0.1, 0.5, 0.2
        return banded_table(c, 2, N)

    with pytest.raises(CoefficientRangeError, match=re.escape("; rebuild with pad >= 7")):
        variance_power(band(6), ell)
    assert np.isfinite(variance_power(band(7), ell))


def test_variance_upper_bound_holds():
    for seed in range(10):
        t = random_op_table(40 + seed, pad=4)
        for ell in (1, 2):
            assert variance_power(t, ell) <= variance_upper_bound(t, ell) + 1e-12


def test_variance_upper_bound_value():
    # (2l)^{2l} * max^{2l} with the max over the 2l-window around N
    t = classical_table("gue", 9, pad=3)
    wmax = t.window_max(9 - 1, 9 + 1)
    assert np.isclose(variance_upper_bound(t, 1), 4.0 * wmax**2, rtol=1e-12)


def test_lipschitz_bound_scalar_and_table():
    t = classical_table("gue", 25, pad=1)
    a_top = t.coeff(24, 25)
    assert np.isclose(lipschitz_variance_bound(t, 2.0), (2.0 * a_top) ** 2)
    assert np.isclose(lipschitz_variance_bound(0.5, 3.0), 2.25)
    assert lipschitz_variance_bound(np.array(0.5), 3.0) == lipschitz_variance_bound(np.float64(0.5), 3.0) == 2.25
    # for f(x) = x the bound is attained exactly
    assert np.isclose(variance_power(t, 1), lipschitz_variance_bound(t, 1.0), rtol=1e-12)


def test_empirical_Q_moment_needs_P_N_on_real_atoms():
    unpadded = PolynomialEnsemble.from_measure(equilibrium_measure(-1, 1, 32), 4, pad=-1)
    assert unpadded.table.symmetric and len(unpadded.basis) == 4
    want = "Q_N moments read basis row 4 but the basis holds rows up to 3 (N=4, pad=-1); rebuild with pad >= 0"
    with pytest.raises(CoefficientRangeError, match=f"^{re.escape(want)}$"):
        empirical_Q_moment(unpadded, 1, 1)
    padded = PolynomialEnsemble.from_measure(equilibrium_measure(-1, 1, 32), 4, pad=0)
    assert np.isfinite(empirical_Q_moment(padded, 1, 1))  # the pad named reads
    circle = PolynomialEnsemble(uniform_circle_measure(8), np.eye(3, 8), N=2, table=classical_table("gue", 2))
    with pytest.raises(ValueError, match="^Q_N moments are defined for real-supported measures$"):
        empirical_Q_moment(circle, 1, 1)


def test_lipschitz_bound_refuses_a_table_that_is_not_symmetric():
    # q = 2, up step 1, down steps 2.0 and 0.1: Var[sum x_i] is exactly 2.0,
    # while a_{N-1} = 1 would give a "bound" of 1.0
    N, pad = 6, 4
    c = np.zeros((N + pad + 1, 4))
    c[:, 0], c[:, 2], c[:, 3] = 1.0, 2.0, 0.1
    t = banded_table(c, 2, N)
    assert not t.symmetric and variance_power(t, 1) == 2.0
    with pytest.raises(EvaluationError, match="symmetric"):
        lipschitz_variance_bound(t, 1.0)


def test_gue_variance_against_matrix_model():
    # independent route: eigenvalues of actual random matrices
    rng = stream(123)
    spectra = oracles.gue_matrix_spectra(12, 4000, rng)
    stat = spectra.sum(axis=1)
    assert abs(stat.var(ddof=1) - 1.0) < 5 * np.sqrt(2.0 / 4000)
    stat2 = (spectra**2).sum(axis=1)
    t = classical_table("gue", 12, pad=3)
    assert abs(stat2.var(ddof=1) - variance_power(t, 2)) < 0.15


def chebyshev_pair_ensemble(N, nodes=128):
    table = classical_table("chebyshev", N, pad=2)
    return PolynomialEnsemble.from_table(table, equilibrium_measure(-1, 1, nodes), N=N)


def test_empirical_Q_moment_frozen_values():
    for N in (3, 8, 50):
        ens = chebyshev_pair_ensemble(N)
        assert np.isclose(empirical_Q_moment(ens, 0, 0), 1.0, atol=1e-12)
        assert np.isclose(empirical_Q_moment(ens, 1, 1), -0.25, atol=1e-12)
        assert np.isclose(empirical_Q_moment(ens, 2, 0), 0.5, atol=1e-12)
        assert np.isclose(
            empirical_Q_moment(ens, 1, 2), empirical_Q_moment(ens, 2, 1), atol=1e-12
        )


def test_empirical_Q_moment_needs_an_op_ensemble():
    # Q_N is read from P_{N-1} and P_N, which describe neither a tilted
    # kernel (its Var[sum x] is 0.261875, not the base's 0.25) nor a table
    # whose padded polynomials are not normal
    base = {"classical": "chebyshev", "N": 6, "nodes": 64, "pad": 4}
    tilt = np.zeros((6, 2))
    tilt[5, 0], tilt[5, 1] = 0.05, 0.05
    tilted = build_ensemble({"base": base, "tilt": tilt.tolist()})
    L, x = tilted.kernel_matrix(), tilted.measure.points
    var = np.sum(x**2 * np.diag(L)) - np.einsum("i,ij,j,ji->", x, L, x, L)
    assert abs(var - 0.261875) < 1e-12
    N, pad = 8, 4
    # the arcsine OP table with P_k doubled for k >= N: x P_{N-1} = (a/2) P_N
    # + ..., x P_N = ... + 2a P_{N-1}, so P_N.. stay orthogonal to P_0..P_{N-1}
    c = classical_table("chebyshev", N, pad=pad).c.copy()
    c[N - 1, 0] /= 2
    c[N, 2] *= 2
    doubled = PolynomialEnsemble.from_table(
        banded_table(c, 1, N), equilibrium_measure(-1, 1, 64), N=N
    )
    assert doubled.table is not None and not doubled.table.symmetric
    assert abs(np.sum(doubled.basis[N] ** 2) - 4) < 1e-12
    for ens in (tilted, doubled):
        with pytest.raises(EvaluationError, match="orthonormal"):
            empirical_Q_moment(ens, 1, 1)
    assert np.isclose(empirical_Q_moment(build_ensemble(base), 1, 1), -0.25, atol=1e-12)


def test_limiting_Q_moment_frozen_values():
    assert np.isclose(limiting_Q_moment(0, 0), 1.0, atol=1e-12)
    assert np.isclose(limiting_Q_moment(1, 1, a=0.5), -0.25, atol=1e-10)
    assert np.isclose(limiting_Q_moment(1, 1, a=1.0), -1.0, atol=1e-9)
    assert np.isclose(limiting_Q_moment(1, 0, a=0.5, b=2.0), 2.0, atol=1e-10)


def test_empirical_Q_converges_to_limit():
    ens = chebyshev_pair_ensemble(100, nodes=256)
    for m, n in [(1, 1), (2, 2), (2, 0)]:
        emp = empirical_Q_moment(ens, m, n)
        lim = limiting_Q_moment(m, n, a=0.5)
        assert abs(emp - lim) < 0.02


def test_limiting_variance_frozen_values():
    assert np.isclose(limiting_variance(lambda x: x, a=1.0), 1.0, atol=1e-10)
    assert np.isclose(limiting_variance(lambda x: x * x, a=1.0), 2.0, atol=1e-8)
    assert np.isclose(limiting_variance(lambda x: x, a=0.5), 0.25, atol=1e-10)
    # agrees with the exact finite-N identity for f(x) = x
    t = classical_table("chebyshev", 30, pad=2)
    assert np.isclose(limiting_variance(lambda x: x, a=0.5), variance_power(t, 1), atol=1e-10)


@pytest.mark.parametrize(
    "f",
    [lambda x: x, lambda x: x**2, lambda x: x**3, lambda x: x**4, np.exp, lambda x: np.sin(3 * x)],
    ids=["x", "x^2", "x^3", "x^4", "exp", "sin3x"],
)
def test_limiting_variance_matches_divided_difference_quadrature(f):
    for a, b in [(0.5, 0.3), (1.0, 0.0)]:
        want = oracles.limiting_variance_by_quadrature(f, a=a, b=b)
        assert abs(limiting_variance(f, a=a, b=b) - want) < 1e-9


def test_limiting_variance_of_a_kink_matches_quadrature():
    # |x| has Chebyshev coefficients of order k^-2: the truncated sums of
    # both routes agree to the size of their tails
    for a, b in [(0.5, 0.3), (1.0, 0.0)]:
        want = oracles.limiting_variance_by_quadrature(np.abs, a=a, b=b)
        assert abs(limiting_variance(np.abs, a=a, b=b) - want) < 1e-4


@pytest.mark.parametrize("k", range(1, 9))
def test_limiting_variance_of_chebyshev_polynomials(k):
    # Var[sum T_k(x_i / 2)] -> k / 4 on the semicircle band (Johansson 1998)
    T = np.polynomial.Chebyshev.basis(k)
    assert abs(limiting_variance(lambda x: T(x / 2), a=1.0, b=0.0) - k / 4) < 1e-12


def test_limiting_variance_is_the_large_N_exact_variance():
    # the exact Var[sum p(x_i)] is c^T C c with C the covariance_power matrix
    # of the powers; at GUE N = 1e4 it sits O(1/N^2) from the limit
    N, L = 10_000, 8
    t = classical_table("gue", N, pad=L)
    C = np.array([[covariance_power(t, i, j) for j in range(1, L + 1)] for i in range(1, L + 1)])
    for k in range(1, L + 1):
        T = np.polynomial.Chebyshev.basis(k)
        c = np.zeros(L + 1)
        c[: k + 1] = np.polynomial.chebyshev.cheb2poly(T.coef) / 2.0 ** np.arange(k + 1)
        exact = c[1:] @ C @ c[1:]
        assert abs(limiting_variance(lambda x: T(x / 2)) - exact) < 1e-5


def test_limiting_routes_take_no_tuning():
    assert list(inspect.signature(limiting_variance).parameters) == ["f", "a", "b"]
    assert list(inspect.signature(limiting_Q_moment).parameters) == ["m", "n", "a", "b"]
    with pytest.raises(ValueError):
        limiting_variance(lambda x: x, a=0.0)
    with pytest.raises(ValueError):
        limiting_Q_moment(1, LIMIT_NODES)


def test_limiting_variance_translation_invariant_for_linear_f():
    # shifting b moves the support but not the fluctuation of sum(x)
    assert np.isclose(
        limiting_variance(lambda x: x, a=0.7, b=3.0),
        limiting_variance(lambda x: x, a=0.7, b=0.0),
        rtol=1e-9,
    )


def test_cumulants_match_scipy_kstats():
    rng = stream(55)
    data = rng.gamma(2.0, size=300)
    rep = cumulants(data)
    for order in range(1, 5):
        assert np.isclose(rep.k[order], scipy.stats.kstat(data, order), rtol=1e-9)


def test_cumulant_jackknife_matches_bruteforce():
    rng = stream(66)
    data = rng.standard_normal(40)
    rep = cumulants(data)
    for order in (1, 2, 3, 4):
        want = oracles.jackknife_se(data, lambda d, o=order: scipy.stats.kstat(d, o))
        assert np.isclose(rep.se[order], want, rtol=1e-7)


def test_cumulant_report_shape_measures():
    rng = stream(77)
    data = rng.standard_normal(20_000)
    rep = cumulants(data)
    assert abs(rep.mean) < 0.05
    assert abs(rep.variance - 1.0) < 0.05
    assert abs(rep.skewness) < 0.1
    assert abs(rep.excess_kurtosis) < 0.2
    assert np.isclose(rep.skewness, rep.k[3] / rep.k[2] ** 1.5, rtol=1e-12)
    assert np.isclose(rep.excess_kurtosis, rep.k[4] / rep.k[2] ** 2, rtol=1e-12)


def test_cumulants_need_enough_samples():
    with pytest.raises(ValueError):
        cumulants(np.arange(4.0))


@given(st.integers(0, 10**5))
def test_variance_nonnegative(seed):
    t = random_op_table(seed, pad=3)
    assert variance_power(t, 1) >= 0
    assert variance_power(t, 2) >= -1e-12


@given(st.integers(0, 10**5), st.floats(0.1, 3.0), st.floats(0.0, 5.0))
def test_lipschitz_bound_respects_scaling(seed, a_top, lip):
    assert np.isclose(lipschitz_variance_bound(a_top, lip), (a_top * lip) ** 2, rtol=1e-12)


def test_variance_window_locality_bit_exact():
    # Var[sum x^l] reads only coefficients with index in [N-l, N+l-1]
    rng = stream(141)
    N, ell, rows = 10, 3, 18
    a = rng.uniform(0.4, 1.3, size=rows)
    b = rng.uniform(-0.5, 0.5, size=rows)
    base = variance_power(op_table(a, b, N), ell)
    outside = [j for j in range(rows) if j < N - ell or j > N + ell - 1]
    a2, b2 = a.copy(), b.copy()
    a2[outside] = rng.uniform(0.4, 1.3, size=len(outside))
    b2[outside] = rng.uniform(-0.5, 0.5, size=len(outside))
    assert variance_power(op_table(a2, b2, N), ell) == base


def test_variance_comparison_property_exact():
    # two tables agreeing on the window [N-l, N+l] give equal values
    rng = stream(142)
    N, ell, rows = 9, 2, 16
    a1 = rng.uniform(0.4, 1.3, size=rows)
    b1 = rng.uniform(-0.5, 0.5, size=rows)
    a2 = rng.uniform(0.4, 1.3, size=rows)
    b2 = rng.uniform(-0.5, 0.5, size=rows)
    win = slice(N - ell, N + ell + 1)
    a2[win], b2[win] = a1[win], b1[win]
    v1 = variance_power(op_table(a1, b1, N), ell)
    v2 = variance_power(op_table(a2, b2, N), ell)
    assert v1 == v2


def test_limiting_Q_moment_matrix_psd():
    # moment matrix of a probability measure on the square
    idx = [(i, j) for i in range(3) for j in range(3)]
    for a, b in [(1.0, 0.0), (0.7, 0.4)]:
        M = np.array(
            [
                [limiting_Q_moment(i + k, j + l, a=a, b=b) for (k, l) in idx]
                for (i, j) in idx
            ]
        )
        assert np.allclose(M, M.T, atol=1e-10)
        assert np.linalg.eigvalsh(M).min() >= -1e-8
