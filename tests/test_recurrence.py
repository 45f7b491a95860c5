import itertools
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyens import (
    CoefficientRangeError,
    PolynomialEnsemble,
    InvalidIntervalError,
    NumericalBreakdownError,
    RankError,
    atoms_measure,
    banded_limit_moment,
    banded_table,
    arcsine_moment,
    catalan_moment,
    classical_table,
    covariance_power,
    empirical_Q_moment,
    equilibrium_measure,
    eval_polynomials,
    gue_profile,
    hessenberg_matrix,
    limit_report,
    limiting_Q_moment,
    mean_moment,
    moment_gap,
    op_table,
    path_sum_moment,
    sample_replicas,
    scaled_hermite_measure,
    stream,
    table_from_measure,
    uniform_circle_measure,
    variance_power,
    variance_upper_bound,
    zeros,
)

import oracles
from conftest import traced_peak
from polyens.measure import gauss_hermite
from polyens.recurrence import RecurrenceTable, _walk_steps
from polyens.verify import run_all


def random_op_table(seed, N=None, pad=5):
    rng = stream(seed)
    N = N or int(rng.integers(1, 9))
    top = N + pad
    a = rng.uniform(0.3, 1.5, size=top + 1)
    b = rng.uniform(-0.7, 0.7, size=top + 1)
    return op_table(a, b, N)


def random_banded_table(seed, q, N=None, pad=6, imag=False):
    rng = stream(seed)
    N = N or int(rng.integers(1, 7))
    K = N + pad
    c = rng.uniform(-1.0, 1.0, size=(K + 1, q + 2))
    c[:, 0] = rng.uniform(0.4, 1.2, size=K + 1)  # keep the up step alive
    if imag:
        c = c + 1j * rng.uniform(-0.5, 0.5, size=c.shape)
    for k in range(K + 1):
        c[k, k + 2 :] = 0.0  # steps below ordinate 0 are not a thing
    return banded_table(c, q, N)


def complex_q1_table():
    """q = 1, N = 6, pad 6: up steps 1, a complex diagonal and complex down
    steps, so every loop weight has an imaginary part."""
    rng = np.random.default_rng(1)
    N, K = 6, 12
    c = np.zeros((K + 1, 3), dtype=complex)
    c[:, 0] = 1.0
    c[:, 1] = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
    c[:, 2] = rng.uniform(0.2, 0.5, size=K + 1) + 0.3j
    return banded_table(c, 1, N)


# every storage form the table algebra serves: op, real banded with q = 0, 2
# and 3, and complex banded
TABLE_KINDS = ("op", "q0", "q2", "q3", "complex-q2")


def random_table(kind, seed, **kw):
    if kind == "op":
        return random_op_table(seed, **kw)
    return random_banded_table(seed, int(kind[-1]), imag=kind.startswith("complex"), **kw)


def test_gue_coefficients():
    t = classical_table("gue", 4, pad=2)
    # a_k = sqrt((k+1)/N) under the convention a_k = <x P_k, P_{k+1}>
    for k in range(5):
        assert np.isclose(t.coeff(k, k + 1), np.sqrt((k + 1) / 4))
        assert t.coeff(k, k) == 0.0


def test_chebyshev_coefficients():
    t = classical_table("chebyshev", 5, pad=1, alpha=-1.0, beta=1.0)
    assert np.isclose(t.coeff(0, 1), 1 / np.sqrt(2))
    for k in range(1, 5):
        assert np.isclose(t.coeff(k, k + 1), 0.5)
    t = classical_table("chebyshev", 5, pad=1, alpha=1.0, beta=5.0)
    assert np.isclose(t.coeff(0, 0), 3.0)  # b_k = midpoint
    assert np.isclose(t.coeff(2, 3), 1.0)  # a_k = half-width / 2



@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, -2.0), (np.nan, 1.0), (-np.inf, 1.0)])
def test_chebyshev_table_refuses_a_bad_interval_as_its_measure_does(alpha, beta):
    # one interval, one error: the table raised a plain ValueError
    for build in (
        lambda: classical_table("chebyshev", 4, alpha=alpha, beta=beta),
        lambda: equilibrium_measure(alpha, beta, 8),
    ):
        with pytest.raises(InvalidIntervalError, match=r"need alpha < beta, got \["):
            build()


def test_circle_table_is_pure_shift():
    t = classical_table("circle", 6, pad=2)
    assert t.q == 0
    assert t.coeff(3, 4) == 1.0
    assert t.coeff(3, 3) == 0.0


def test_coeff_band_and_range():
    t = random_op_table(3, N=4, pad=2)
    assert t.coeff(1, 3) == 0.0  # above the band
    assert t.coeff(4, 1) == 0.0  # below it (q = 1)
    with pytest.raises(CoefficientRangeError):
        t.coeff(7, 8)  # beyond stored coefficients


def test_op_table_rejects_nonpositive_up_step():
    with pytest.raises(ValueError):
        op_table([0.5, 0.0, 0.5], [0.0, 0.0, 0.0, 0.0], 2)


def test_op_table_is_the_symmetric_q1_band():
    t = random_op_table(5, N=4, pad=3)
    assert t.q == 1 and t.symmetric
    assert np.array_equal(t.c, np.column_stack((t.a, t.b, np.concatenate(([0.0], t.a[:-1])))))
    with pytest.raises(ValueError):
        t.a[0] = 1.0  # a and b are read-only views of c
    with pytest.raises(ValueError):
        t.b[0] = 1.0
    # the same coefficients written as a banded table are the same table
    assert banded_table(t.c, 1, t.N).symmetric


def test_table_coefficients_are_read_only():
    # symmetric is read from c once; a write to c would leave it stale, and
    # zeros would then take the symmetric route on a table that is not
    t = classical_table("gue", 20, pad=4)
    with pytest.raises(ValueError):
        t.c[5, 2] = 0.9
    assert t.symmetric and t.c[5, 2] == t.a[4]


def test_a_table_build_holds_one_copy_of_its_coefficients():
    # the builders fill the table's one array in place: the GUE build traced
    # 65.0 MB for a 24.0 MB table at N = 10^6 while it also held a, b and a
    # copy of c; an outside caller's array stays the caller's
    for name in ("gue", "chebyshev"):
        t, peak = traced_peak(lambda: classical_table(name, 2 * 10**5))
        assert peak <= 1.5 * t.c.nbytes, name
    c = np.ones((6, 3))
    t = RecurrenceTable(4, c, 1)
    assert c.flags.writeable and c[0, 2] == 1.0  # not zeroed below the band or frozen
    assert not np.shares_memory(c, t.c) and t.c[0, 2] == 0.0


def test_symmetry_is_read_from_the_coefficients():
    t = random_op_table(6, N=4, pad=3)
    lopsided = t.c.copy()
    lopsided[3, 2] *= 1.5  # one down step no longer mirrors the up step below it
    monic = t.c.copy()
    monic[:, 0], monic[1:, 2] = 1.0, t.a[:-1] ** 2
    for c in (lopsided, monic, t.c.astype(complex)):
        assert not banded_table(c, 1, t.N).symmetric
    assert not classical_table("circle", 4).symmetric
    assert classical_table("gue", 4).symmetric and classical_table("chebyshev", 4).symmetric


def test_path_sum_zero_steps():
    t = random_op_table(11, N=5)
    assert path_sum_moment(t, 0, 3, 3) == 1.0
    assert path_sum_moment(t, 0, 3, 2) == 0.0


def test_path_sum_one_step_is_the_coefficient():
    t = random_op_table(12, N=5)
    for k, m in [(0, 1), (2, 2), (3, 2)]:
        assert np.isclose(path_sum_moment(t, 1, k, m), t.coeff(k, m), rtol=1e-15)


def test_path_sum_unreachable_is_zero():
    t = random_op_table(13, N=6)
    assert path_sum_moment(t, 2, 0, 3) == 0.0  # 2 steps climb at most 2
    assert path_sum_moment(t, 3, 5, 0) == 0.0  # q = 1 drops at most 3


@pytest.mark.parametrize("seed", range(20))
def test_path_sum_matches_enumeration_op(seed):
    t = random_op_table(100 + seed)
    rng = stream(200 + seed)
    for _ in range(6):
        ell = int(rng.integers(0, 5))
        k = int(rng.integers(0, t.N))
        m = int(rng.integers(0, t.N))
        want = oracles.moment_by_paths(t, ell, k, m)
        got = path_sum_moment(t, ell, k, m)
        assert np.isclose(got, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("q", [0, 2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_path_sum_matches_enumeration_banded(q, seed):
    t = random_banded_table(300 + 10 * q + seed, q)
    rng = stream(400 + seed)
    for _ in range(5):
        ell = int(rng.integers(0, 4))
        k = int(rng.integers(0, t.N))
        m = int(rng.integers(0, t.N))
        want = oracles.moment_by_paths(t, ell, k, m)
        got = path_sum_moment(t, ell, k, m)
        assert np.isclose(got, want, rtol=1e-12, atol=1e-14)


def test_path_sum_matches_quadrature():
    # the same number must fall out of integrating x^l P_k P_m against the
    # Gauss rule reconstructed from the coefficients
    t = random_op_table(77, N=6, pad=6)
    a = [t.coeff(k, k + 1) for k in range(t.top)]
    b = [t.coeff(k, k) for k in range(t.top + 1)]
    x, w = oracles.gauss_rule(a, b)
    P = eval_polynomials(t, x, t.N + 2)
    for ell, k, m in [(1, 0, 1), (2, 3, 5), (3, 2, 1), (4, 4, 4)]:
        quad = float(np.sum(x**ell * P[k] * P[m] * w))
        assert np.isclose(path_sum_moment(t, ell, k, m), quad, rtol=1e-10, atol=1e-12)


def test_window_outside_perturbation_is_invisible():
    # coefficients that no admissible path can touch must not change the
    # result in a single bit
    base = random_op_table(55, N=6, pad=6)
    ell, k, m = 2, 1, 1
    want = path_sum_moment(base, ell, k, m)
    a = np.array([base.coeff(j, j + 1) for j in range(base.top + 1)])
    b = np.array([base.coeff(j, j) for j in range(base.top + 1)])
    a[5:] += 17.0  # window for (2, 1, 1) tops out at ordinate 2
    b[5:] -= 3.0
    bumped = op_table(a, b, base.N)
    assert path_sum_moment(bumped, ell, k, m) == want


def test_mean_moment_gue_exact_values():
    for N in (1, 2, 7, 40, 200):
        t = classical_table("gue", N, pad=4)
        assert abs(mean_moment(t, 1)) < 1e-15
        assert np.isclose(mean_moment(t, 2), 1.0, rtol=1e-13)
        if N >= 2:
            # telescoping the path weights gives 2 + 1/N^2 at every N
            assert np.isclose(mean_moment(t, 4), 2.0 + 1.0 / N**2, rtol=1e-12)


def test_mean_moment_gue_small_n_by_enumeration():
    t = classical_table("gue", 3, pad=4)
    for ell in range(7):
        assert np.isclose(mean_moment(t, ell), oracles.mean_moment_by_paths(t, ell), rtol=1e-12)


@pytest.mark.parametrize("kind", TABLE_KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_mean_moment_matches_enumeration(kind, seed):
    t = random_table(kind, 1100 + seed)
    for ell in range(5):
        want = oracles.mean_moment_by_paths(t, ell)
        assert np.isclose(mean_moment(t, ell), want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("kind", TABLE_KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_window_max_matches_brute_force(kind, seed):
    t = random_table(kind, 1200 + seed)
    rng = stream(1300 + seed)
    for _ in range(6):
        hi = int(rng.integers(0, t.top + 1))
        lo = hi - int(rng.integers(0, 5))  # may start below ordinate 0
        want = max(
            abs(t.coeff(k, m))
            for k in range(max(lo, 0), hi + 1)
            for m in range(max(lo, 0), hi + 1)
        )
        assert np.isclose(t.window_max(lo, hi), want, rtol=1e-15, atol=0)


def test_mean_moment_needs_pad():
    # a loop of 2l steps from N-1 climbs to N-1+l; pad 1 stores through N+1
    t = classical_table("gue", 10, pad=1)
    assert np.isclose(mean_moment(t, 4), 2.0 + 1.0 / 100, rtol=1e-12)
    with pytest.raises(CoefficientRangeError):
        mean_moment(t, 6)


@pytest.mark.parametrize("kind", TABLE_KINDS + ("complex-q1",))
def test_walk_steps_are_the_gather_walk(kind):
    # every yield, bit for bit, is the gather walk's, which updates every
    # grid row: for each start layout the callers use (all of 0..N-1, one
    # start, an empty window, strided blocks, windows at and above N) and
    # at each ceiling they pass
    t = complex_q1_table() if kind == "complex-q1" else random_table(kind, 1600, N=9)
    N, q, lmax = t.N, t.q, 5
    layouts = (np.arange(N), [N // 2], np.arange(N, N), np.arange(1, t.top + 1, 3),
               np.arange(N - lmax, N), np.arange(N, t.top + 1))
    for ceiling in (N - 1, N - 1 + (q * lmax) // (q + 1), t.top):
        for starts, ell in itertools.product(layouts, (0, 2, lmax)):
            got = list(_walk_steps(t, ell, starts, ceiling))
            want = list(oracles.walk_steps_by_gather(t, ell, starts, ceiling))
            assert len(got) == len(want) == ell + 1
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(got, 2))


def test_walk_steps_refuse_a_bad_order_or_start_set():
    t = random_table("q2", 1601, N=9)
    with pytest.raises(ValueError, match="ell >= 0, got -1"):
        next(_walk_steps(t, -1, np.arange(t.N), t.N - 1))
    with pytest.raises(ValueError, match="arithmetic progression"):
        next(_walk_steps(t, 2, [0, 1, 3], t.N - 1))


def test_mean_moment_memory_is_bounded_at_large_n():
    # the loop sums walk blocks of starts, each over the band rows it
    # reaches, and add up each block as it is walked: at N = 1e5 the peak is
    # one block's grids, not grids and a band gather of N columns
    t = classical_table("gue", 100000)
    m8, peak = traced_peak(lambda: mean_moment(t, 8))
    assert np.isclose(m8, 14.0, rtol=1e-8)  # Catalan C_4 + O(1/N^2)
    assert peak < 16e6


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(0.0, np.inf), complex(0.0, -np.inf)]
)
def test_table_refuses_coefficients_that_are_not_finite(bad):
    # one check covers both parts of a complex table
    c = np.ones((6, 3), dtype=type(bad))
    c[4, 1] = bad
    with pytest.raises(ValueError, match="coefficients must be finite"):
        banded_table(c, 1, 4)


def test_mean_moment_chebyshev_second():
    for N in (2, 10, 100):
        t = classical_table("chebyshev", N, pad=3)
        assert np.isclose(mean_moment(t, 2), 0.5 + 0.25 / N, rtol=1e-13)


def test_table_from_measure_roundtrip():
    rng = stream(21)
    x = np.sort(rng.uniform(-2, 2, size=24))
    w = rng.uniform(0.1, 1.0, size=24)
    m = atoms_measure(x, w)
    t = table_from_measure(m, 6, pad=4)
    # rebuild the Gauss rule from the computed coefficients and check the
    # measure's moments are reproduced through degree 2*top+1
    a = [t.coeff(k, k + 1) for k in range(t.top)]
    b = [t.coeff(k, k) for k in range(t.top + 1)]
    gx, gw = oracles.gauss_rule(a, b)
    for ell in range(8):
        assert np.isclose(
            np.sum(gx**ell * gw) * m.total_mass,
            m.integrate(lambda v: v**ell),
            rtol=1e-9,
            atol=1e-11,
        )


def test_table_from_measure_orthonormality():
    m = equilibrium_measure(-1, 1, 40)
    t = table_from_measure(m, 5, pad=3)
    P = eval_polynomials(t, m.points, t.top, p0=1.0 / np.sqrt(m.total_mass))
    G = (P * m.weights) @ P.T
    assert np.max(np.abs(G - np.eye(len(G)))) < 1e-10
    # and it recovers the classical coefficients
    ref = classical_table("chebyshev", 5, pad=3)
    for k in range(5):
        assert np.isclose(t.coeff(k, k + 1), ref.coeff(k, k + 1), rtol=1e-9, atol=1e-12)
        assert np.isclose(t.coeff(k, k), 0.0, atol=1e-12)


def _clustered_measure():
    rng = stream(7)
    x = np.concatenate([rng.normal(0, 1e-3, 200), rng.normal(1, 1e-2, 200), rng.uniform(-1, 2, 200)])
    return atoms_measure(np.sort(x), rng.uniform(0.1, 1.0, 600))


@pytest.mark.parametrize(
    "measure, N",
    [
        # subnormal tail weights: a start vector sqrt(w / w.sum()) is off by 5.6e-6
        (lambda: scaled_hermite_measure(400, 1024), 400),
        (lambda: equilibrium_measure(-1, 1, 256), 240),
        # K + 2 = n: with no reorthogonalization the drift is 0.39
        (lambda: atoms_measure(np.linspace(-1, 1, 500), np.full(500, 1 / 500)), 490),
        (_clustered_measure, 300),
    ],
    ids=["hermite-400-1024", "arcsine-240-256", "uniform-490-500", "clustered-300-600"],
)
def test_table_from_measure_matches_two_pass_oracle(measure, N):
    m = measure()
    t = table_from_measure(m, N)
    a, b = oracles.stieltjes_by_two_passes(m, N)
    assert np.max(np.abs(t.a - a) / a) < 1e-10
    assert np.max(np.abs(t.b - b)) < 1e-12


def test_table_from_measure_needs_enough_atoms():
    m = atoms_measure(np.arange(5.0), np.ones(5))
    with pytest.raises(RankError):
        table_from_measure(m, 5, pad=2)


def test_hessenberg_layout_op():
    t = random_op_table(9, N=5, pad=1)
    H = hessenberg_matrix(t, 5)
    assert H.shape == (5, 5)
    for i in range(5):
        for j in range(5):
            assert H[i, j] == t.coeff(j, i)  # column j holds <x P_j, Q_i>
    assert np.allclose(H, H.T)


def test_hessenberg_layout_banded():
    t = random_banded_table(31, q=2, N=4, pad=3)
    H = hessenberg_matrix(t, 4)
    # upper Hessenberg: nothing below the first subdiagonal
    assert np.all(H[np.tril_indices(4, -2)] == 0)
    assert H[3, 2] == t.coeff(2, 3)


def test_eval_polynomials_chebyshev_closed_form():
    t = classical_table("chebyshev", 6, pad=2)
    theta = np.linspace(0.3, 2.8, 9)
    P = eval_polynomials(t, np.cos(theta), 6)
    assert np.allclose(P[0], 1.0)
    for k in range(1, 7):
        assert np.allclose(P[k], np.sqrt(2) * np.cos(k * theta), atol=1e-12)


def test_eval_polynomials_circle_powers():
    t = classical_table("circle", 5, pad=2)
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 7, endpoint=False))
    P = eval_polynomials(t, z, 5)
    for k in range(6):
        assert np.allclose(P[k], z**k)


@given(st.integers(0, 10**6))
def test_eval_polynomials_op_matches_three_term_oracle(seed):
    # the banded loop reproduces the three-term OP recurrence bit for bit
    t = random_op_table(seed)
    x = stream(seed, 1).uniform(-2.0, 2.0, size=7)
    P = eval_polynomials(t, x, t.top, p0=0.8)
    assert np.array_equal(P, oracles.op_polynomials_by_three_terms(t, x, t.top, p0=0.8))


def test_eval_polynomials_banded_matches_explicit_sum():
    # x P_k = sum_j c[k][j+1] P_{k-j}, solved for the up step
    t = random_banded_table(3, 2, N=6)
    x = np.linspace(-1.5, 1.5, 11)
    P = eval_polynomials(t, x, t.top)
    for k in range(t.top):
        rhs = sum(t.coeff(k, m) * P[m] for m in range(max(0, k - t.q), k + 2))
        assert np.allclose(x * P[k], rhs, rtol=1e-12, atol=1e-12)


def test_eval_polynomials_breaks_on_dead_up_step():
    c = np.ones((4, 2))
    c[1, 0] = 0.0
    t = banded_table(c, 0, 2)
    with pytest.raises(NumericalBreakdownError):
        eval_polynomials(t, np.array([0.5]), 3)


@given(st.integers(0, 10**6))
def test_mean_first_moment_is_average_diagonal(seed):
    # mean of sum(x) is the average of the b_k: the only 1-step loops
    t = random_op_table(seed)
    b = np.mean([t.coeff(k, k) for k in range(t.N)])
    assert np.isclose(mean_moment(t, 1), b, rtol=1e-12, atol=1e-14)


@given(st.integers(0, 10**6), st.integers(2, 4))
def test_moment_symmetry_op(seed, ell):
    # <x^l P_k, P_m> is symmetric in (k, m) for orthonormal families
    t = random_op_table(seed, N=6)
    rng = stream(seed + 1)
    k, m = rng.integers(0, 6, size=2)
    lhs = path_sum_moment(t, ell, int(k), int(m))
    rhs = path_sum_moment(t, ell, int(m), int(k))
    assert np.isclose(lhs, rhs, rtol=1e-11, atol=1e-13)


def test_constant_coefficient_closed_form():
    # bulk diagonal moments of a constant table count unconstrained loops:
    # choose which 2m steps move, then which m of those go up
    from math import comb

    aa, bb = 0.8, 0.3
    t = op_table(np.full(24, aa), np.full(24, bb), 20)
    k = 10
    for ell in range(9):
        want = sum(
            comb(ell, 2 * m) * comb(2 * m, m) * aa ** (2 * m) * bb ** (ell - 2 * m)
            for m in range(ell // 2 + 1)
        )
        assert np.isclose(path_sum_moment(t, ell, k, k), want, rtol=1e-12)


SYMMETRIC_TABLES = {
    "gue": lambda N: classical_table("gue", N),
    "chebyshev": lambda N: classical_table("chebyshev", N),
    "op-b": lambda N: random_op_table(1900, N=N, pad=8),  # b_k != 0: odd loops weigh
}


@pytest.mark.parametrize("N", (1, 3, 40, 2000))
@pytest.mark.parametrize("name", SYMMETRIC_TABLES)
def test_half_walks_are_the_full_walk_on_symmetric_tables(name, N):
    # a loop is a path out and the same path back: the moments, section
    # traces and gaps of ceil(l/2)-step walks meet the full l-step walk to
    # roundoff, and odd orders of a table with b = 0 are exactly 0 on both
    t = SYMMETRIC_TABLES[name](N)
    assert t.symmetric
    zs = zeros(t, 8)
    for ell in range(9):
        want = oracles.mean_moment_by_full_walk(t, ell)
        assert abs(mean_moment(t, ell) - want) <= 1e-14 * abs(want)
        want = np.sum(oracles.full_walk_loops(t, ell, np.arange(N), N - 1))
        assert abs(zs.power_sums[ell] - want) <= 1e-14 * abs(want)
        if ell:
            climb = ell // 2
            k = np.arange(max(N - climb, 0), N)
            out = oracles.full_walk_loops(t, ell, k, N - 1 + climb) - oracles.full_walk_loops(t, ell, k, N - 1)
            want = abs(np.sum(out)) / N
            assert abs(moment_gap(t, ell, zero_set=zs).gap - want) <= 1e-14 * want


def _gue_ensemble(t):
    return PolynomialEnsemble.from_table(t, scaled_hermite_measure(t.N, nodes=32))


# entry point-argument: (the least value it takes, the query); None takes
# every integer, as coeff reads 0 off the band and window_max clips lo at 0
ORDER_QUERIES = {
    "mean_moment-ell": (0, lambda t, n: mean_moment(t, n)),
    "path_sum_moment-ell": (0, lambda t, n: path_sum_moment(t, n, 1, 1)),
    "path_sum_moment-k": (0, lambda t, n: path_sum_moment(t, 2, n, 1)),
    "path_sum_moment-m": (0, lambda t, n: path_sum_moment(t, 2, 1, n)),
    "zeros-lmax": (0, lambda t, n: zeros(t, n).power_sums.tolist()),
    "moment_gap-ell": (1, lambda t, n: moment_gap(t, n)),
    "variance_power-ell": (1, lambda t, n: variance_power(t, n)),
    "covariance_power-ell": (1, lambda t, n: covariance_power(t, n, 3)),
    "covariance_power-m": (1, lambda t, n: covariance_power(t, 3, n)),
    "limit_report-lmax": (0, lambda t, n: limit_report(t, gue_profile(), n)),
    "banded_limit_moment-ell": (0, lambda t, n: banded_limit_moment(gue_profile(), n)),
    "coeff-k": (None, lambda t, n: t.coeff(n, 1)),
    "coeff-m": (None, lambda t, n: t.coeff(2, n)),
    "window_max-lo": (None, lambda t, n: t.window_max(n, 3)),
    "window_max-hi": (0, lambda t, n: t.window_max(0, n)),
    "RecurrenceTable-N": (1, lambda t, n: repr(RecurrenceTable(n, t.c, t.q))),
    "RecurrenceTable-q": (0, lambda t, n: repr(RecurrenceTable(3, np.ones((5, 4)), n))),
    "classical_table-N": (1, lambda t, n: classical_table("gue", n).c.tolist()),
    "classical_table-pad": (-1, lambda t, n: classical_table("gue", 3, pad=n).c.tolist()),
    "table_from_measure-N": (1, lambda t, n: table_from_measure(equilibrium_measure(-1, 1, 32), n).c.tolist()),
    "table_from_measure-pad": (-1, lambda t, n: table_from_measure(equilibrium_measure(-1, 1, 32), 3, n).c.tolist()),
    "hessenberg_matrix-size": (1, lambda t, n: hessenberg_matrix(t, n).tolist()),
    "eval_polynomials-upto": (0, lambda t, n: eval_polynomials(t, [0.3], n).tolist()),
    "variance_upper_bound-ell": (1, lambda t, n: variance_upper_bound(t, n)),
    "limiting_Q_moment-m": (0, lambda t, n: limiting_Q_moment(n, 2)),
    "limiting_Q_moment-n": (0, lambda t, n: limiting_Q_moment(2, n)),
    "empirical_Q_moment-m": (0, lambda t, n: empirical_Q_moment(_gue_ensemble(t), n, 1)),
    "empirical_Q_moment-n": (0, lambda t, n: empirical_Q_moment(_gue_ensemble(t), 1, n)),
    "catalan_moment-ell": (0, lambda t, n: catalan_moment(n)),
    "arcsine_moment-ell": (0, lambda t, n: arcsine_moment(n)),
    "PolynomialEnsemble-N": (0, lambda t, n: PolynomialEnsemble((e := _gue_ensemble(t)).measure, e.basis, N=n).N),
    "from_table-N": (1, lambda t, n: PolynomialEnsemble.from_table(t, scaled_hermite_measure(10, nodes=32), N=n).N),
    "eval_P-upto": (0, lambda t, n: _gue_ensemble(t).eval_P(0.3, n).tolist()),
    "validate_positivity-trials": (0, lambda t, n: _gue_ensemble(t).validate_positivity(rng=stream(5), trials=n)),
    "sample_replicas-n_replicas": (0, lambda t, n: sample_replicas(_gue_ensemble(t), n, seed=3)[0].tolist()),
    "gauss_hermite-n": (1, lambda t, n: gauss_hermite(n)[0].tolist()),
    "uniform_circle_measure-n": (1, lambda t, n: uniform_circle_measure(n).points.tolist()),
    "scaled_hermite_measure-nodes": (1, lambda t, n: scaled_hermite_measure(9, nodes=n).points.tolist()),
    "equilibrium_measure-nodes": (1, lambda t, n: equilibrium_measure(-1, 1, n).points.tolist()),
    "stream-seed": (0, lambda t, n: stream(n).random()),
    "stream-replica": (0, lambda t, n: stream(7, n).random()),
    "run_all-seed": (0, lambda t, n: [r.detail for r in run_all(seed=n, only=[1])]),
}


@pytest.mark.parametrize("query", ORDER_QUERIES)
def test_orders_and_indices_are_integers(query):
    # a numpy integer is the int it holds; a bool, a float or a string is no
    # order and is refused by name, never truncated or read as 0 or 1; and
    # a value below the least one taken is refused in the one message form
    t, name, (least, ask) = classical_table("gue", 10), query.split("-")[1], ORDER_QUERIES[query]
    assert ask(t, np.int64(2)) == ask(t, 2)
    for bad in (2.5, 2.0, np.float64(2.0), True, np.True_, "2"):
        shown = bad.item() if isinstance(bad, np.generic) else bad
        with pytest.raises(ValueError, match=re.escape(f"{name} {shown!r} is not an integer")):
            ask(t, bad)
    if least is not None:
        with pytest.raises(ValueError, match=re.escape(f"{name} must be >= {least}, got {least - 1}")):
            ask(t, least - 1)
