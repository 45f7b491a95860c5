import math
import re

import numpy as np
import pytest

from polyens import (
    CoefficientRangeError,
    NumericalBreakdownError,
    PolynomialEnsemble,
    banded_table,
    classical_table,
    covariance_power,
    equilibrium_measure,
    gue_profile,
    limit_report,
    log_potential,
    mean_measure,
    mean_moment,
    moment_gap,
    op_table,
    path_sum_moment,
    stream,
    variance_power,
    zeros,
)

import oracles
from polyens.measure import gauss_hermite
from polyens.recurrence import _walk_steps, _walks
from conftest import traced_peak
from test_recurrence import TABLE_KINDS, random_table


def test_chebyshev_zeros_closed_form():
    for N in (1, 2, 7, 40):
        zs = zeros(classical_table("chebyshev", N, pad=1))
        assert np.allclose(np.sort(zs.zeros.real), oracles.chebyshev_zeros(N), atol=1e-12)
        assert np.max(np.abs(zs.zeros.imag)) < 1e-12


def test_monic_chebyshev_zeros_by_symmetrizing_similarity():
    # monic Chebyshev: up 1, down 1/4, first down 1/2; a dense eigensolve of
    # this non-normal section misses cos((2k-1) pi / 2N) by O(0.1) at N=100
    for N in (100, 200):
        c = np.zeros((N + 2, 3))
        c[:, 0] = 1.0
        c[1:, 2] = 0.25
        c[1, 2] = 0.5
        zs = zeros(banded_table(c, 1, N))
        assert not np.iscomplexobj(zs.zeros)
        assert np.max(np.abs(zs.zeros - oracles.chebyshev_zeros(N))) < 1e-12


def _sine_zeros(N):
    # cos((2k-1) pi / 2N) written as a sine, so the reference is exact near 0
    k = np.arange(1, N + 1)
    return np.sort(np.sin((N - 2 * k + 1) * np.pi / (2 * N)))


@pytest.mark.parametrize("N", (1000, 1001))
def test_constant_diagonal_zeros_from_half_size_problem(N):
    zs = zeros(classical_table("chebyshev", N, pad=2)).zeros
    assert np.max(np.abs(zs - _sine_zeros(N))) < 5e-15
    shifted = zeros(classical_table("chebyshev", N, pad=2, alpha=0.0, beta=3.0)).zeros
    assert np.max(np.abs(shifted - (1.5 + 1.5 * _sine_zeros(N)))) < 5e-15
    if N % 2:  # the centre zero is the diagonal value itself
        assert zs[N // 2] == 0.0 and shifted[N // 2] == 1.5


def test_gue_zeros_are_scaled_hermite_nodes():
    N = 1024
    zs = zeros(classical_table("gue", N, pad=2)).zeros
    nodes, _ = gauss_hermite(N)
    assert np.max(np.abs(zs - nodes * np.sqrt(2.0 / N))) < 1e-13


def test_graded_off_diagonal_falls_back_to_dsterf():
    # C^T C of this section is numerically indefinite: dpteqr stops at info 20
    from scipy.linalg import eigvalsh_tridiagonal
    from scipy.linalg.lapack import dpteqr

    N = 40
    a = np.where(np.arange(N + 1) % 2 == 0, 1e-3, 1.0)
    off = a[: N - 1]
    d = off[0::2] ** 2
    d[:-1] += off[1::2] ** 2
    assert dpteqr(d, off[1::2] * off[2::2], np.zeros((1, 1)), compute_z=0)[3] == 20
    zs = zeros(op_table(a, np.zeros(N + 1), N))
    assert np.array_equal(zs.zeros, eigvalsh_tridiagonal(np.zeros(N), off))


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_one_walk_traces_are_the_per_power_walks(kind):
    t = random_table(kind, 1500)
    N, q, lmax = t.N, t.q, 7
    steps = list(_walk_steps(t, lmax, range(N), N - 1))
    assert len(steps) == lmax + 1
    for ell, v in enumerate(steps):
        assert np.sum(v[q * lmax]) == np.sum(_walks(t, ell, range(N), N - 1)[q * ell])


def test_constant_diagonal_sections_skip_dsterf(monkeypatch):
    # GUE, Chebyshev and the symmetrized monic Chebyshev table must keep the
    # half-size route, not fall back to the slower full tridiagonal solve
    import scipy.linalg

    def slow(*args, **kwargs):
        raise AssertionError("full tridiagonal eigensolve")

    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", slow)
    c = np.zeros((202, 3))
    c[:, 0], c[1:, 2], c[1, 2] = 1.0, 0.25, 0.5
    monic = banded_table(c, 1, 200)
    for t in (classical_table("gue", 200), classical_table("chebyshev", 201), monic):
        assert len(zeros(t).zeros) == t.N


def _band_q2(N):
    # a real q = 2 band: its section goes to the dense eigensolve
    c = np.empty((N + 9, 4))
    c[:, 0] = 1.0
    c[:, 1:] = np.linspace(0.05, 0.3, N + 9)[:, None] * [1.0, 0.6, 0.3]
    return banded_table(c, 2, N)


def test_zero_set_statistics_solve_no_zero(monkeypatch):
    import polyens.charpoly

    class Solved(Exception):
        pass

    def solve(*args, **kwargs):
        raise Solved

    monkeypatch.setattr(np.linalg, "eig", solve)
    monkeypatch.setattr(polyens.charpoly, "_tridiagonal_zeros", solve)
    for t in (classical_table("gue", 300, pad=8), _band_q2(200)):
        zs = zeros(t, lmax=6)
        assert len(zs) == t.N and zs.power_sums[0] == t.N
        assert zs.mean_power(2) == zs.power_sums[2] / t.N
        for ell in (1, 2, 6):
            assert moment_gap(t, ell).gap == moment_gap(t, ell, zero_set=zs).gap
        assert len(limit_report(t, gue_profile(), 6)) == 6
        with pytest.raises(Solved):
            zs.zeros


def test_zeros_are_solved_once_on_first_read(monkeypatch):
    import polyens.charpoly

    solves = []
    solve = polyens.charpoly._tridiagonal_zeros
    monkeypatch.setattr(polyens.charpoly, "_tridiagonal_zeros", lambda *a: solves.append(1) or solve(*a))
    zs = zeros(classical_table("gue", 50, pad=2))
    assert solves == []
    assert zs.zeros is zs.zeros and solves == [1]
    assert log_potential(zs, 3.0) == log_potential(zs.zeros, 3.0) and solves == [1]


def test_perturbed_eigensolve_fails_on_read(monkeypatch):
    eig = np.linalg.eig

    def perturbed(H):
        w, V = eig(H)
        return w + 1e-3, V

    monkeypatch.setattr(np.linalg, "eig", perturbed)
    zs = zeros(_band_q2(60), lmax=4)  # the traces need no eigensolve
    with pytest.raises(NumericalBreakdownError, match="disagrees with trace"):
        zs.zeros


def _external_source(N, a, pad=8):
    """GUE with an external source of eigenvalues +-a, N/2 each (Bleher and
    Kuijlaars): step-line row s = 2m is [1, a, s/N, 2am/N], and row 2m+1
    is [1, -a, s/N, -2am/N]. Its zeros are real."""
    s = np.arange(N + pad + 1)
    sign = np.where(s % 2, -1.0, 1.0)
    return banded_table(np.stack([np.ones(len(s)), sign * a, s / N, sign * a * (s // 2) * 2 / N], 1), 2, N)


def _ginibre_product(N, pad=8):
    """Squared singular values of a product of two Ginibre matrices: the
    rescaled step-line band [(k+1)^2, 3k^2+3k+1, 3k^2, k(k-1)] / N^2. Its
    zeros are real and positive."""
    k = np.arange(N + pad + 1.0)
    return banded_table(np.stack([(k + 1) ** 2, 3 * k**2 + 3 * k + 1, 3 * k**2, k * (k - 1)], 1) / N**2, 2, N)


@pytest.mark.parametrize("build, m1", ((lambda: _external_source(400, 0.5), 0.0), (lambda: _ginibre_product(400), 1.0)),
                         ids=("external-source", "ginibre-product"))
def test_ill_conditioned_dense_zeros_are_refused_on_read(build, m1):
    # dense eigvals returns |Im| up to 0.45 and 0.18 on these real-rooted
    # sections, within the trace check: the condition bound refuses them
    t = build()
    assert np.isclose(mean_moment(t, 1), m1, rtol=1e-12, atol=1e-15)
    zs = zeros(t, 4)
    with pytest.raises(NumericalBreakdownError, match="ill-conditioned: eps"):
        zs.zeros


def test_well_conditioned_dense_zeros_are_returned_real():
    # a = 1.3 separates the two clusters: the bound reads 4.4e-9, and every
    # zero comes back real
    t = _external_source(100, 1.3)
    assert np.isclose(mean_moment(t, 2), 1 + 1.3**2, rtol=1e-12)
    z = zeros(t).zeros
    assert not np.iscomplexobj(z) and len(z) == 100 and np.all(np.diff(z) > 0)


@pytest.mark.parametrize("a, refused", ((1.3, False), (0.5, True)), ids=("returned", "refused"))
def test_a_dense_section_is_eigensolved_once(monkeypatch, a, refused):
    # the one eig gives the zeros and the vectors of the condition bound,
    # whether the bound returns the zeros or refuses them
    calls = []
    for name in ("eig", "eigvals"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda H, name=name, solve=solve: calls.append(name) or solve(H))
    zs = zeros(_external_source(100, a), 4)
    if refused:
        with pytest.raises(NumericalBreakdownError, match="ill-conditioned: eps"):
            zs.zeros
    else:
        assert len(zs.zeros) == 100
    assert calls == ["eig"]


def test_gue_zeros_confined_and_symmetric():
    zs = zeros(classical_table("gue", 60, pad=1))
    z = np.sort(zs.zeros.real)
    assert z.min() > -2.1 and z.max() < 2.1
    assert np.allclose(z, -z[::-1], atol=1e-10)  # even coefficient symmetry


def test_circle_zeros_exactly_origin():
    zs = zeros(classical_table("circle", 24, pad=0))
    # the shift matrix is triangular: no eigenvalue scattering allowed
    assert np.max(np.abs(zs.zeros)) == 0.0


def test_power_sums_match_zero_powers():
    zs = zeros(classical_table("gue", 12, pad=1), lmax=6)
    for ell in range(1, 7):
        assert np.isclose(zs.power_sums[ell], np.sum(zs.zeros**ell).real, rtol=1e-9, atol=1e-9)
    assert zs.mean_power(2) == zs.power_sums[2] / 12


@pytest.mark.parametrize("kind", TABLE_KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_power_sums_match_dense_section_traces(kind, seed):
    # power_sums are the banded loop counts, and the zeros' power sums
    # match the dense trace too (reading the zeros checks them against
    # power_sums only at the looser POWER_SUM_TOL)
    t = random_table(kind, 1400 + seed)
    zs = zeros(t, lmax=5)
    assert len(zs.zeros) == t.N
    assert zs.power_sums.dtype == t.c.dtype  # real for a real table, whatever its zeros
    for ell in range(1, 6):
        want = oracles.section_power_trace(t, ell, t.N)
        assert np.isclose(zs.power_sums[ell], want, rtol=1e-9, atol=1e-10)
        assert np.isclose(np.sum(zs.zeros**ell), want, rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_table_queries_return_the_table_scalar(kind):
    # complex for a complex table, float otherwise: no query drops an
    # imaginary part, and a real table's zero moments stay floats although
    # a real q = 2 section has complex zeros
    t = random_table(kind, 1400)
    want = complex if t.is_complex else float
    zs = zeros(t, lmax=3)
    gaps = [moment_gap(t, ell, zero_set=zs) for ell in (1, 2, 3)]
    values = [t.coeff(1, 0), t.coeff(0, 3), path_sum_moment(t, 2, 0, 0), path_sum_moment(t, 0, 1, 1)]
    values += [mean_moment(t, 2), variance_power(t, 1), covariance_power(t, 1, 2)]
    values += [g.mean_moment for g in gaps] + [g.zero_moment for g in gaps]
    values += [r.finite_moment for r in limit_report(t, gue_profile(), 2)]
    assert all(isinstance(v, want) for v in values), [type(v) for v in values]
    if not t.is_complex:
        assert all(g.zero_moment == float(np.real(zs.mean_power(g.ell))) for g in gaps)


def test_table_algebra_needs_no_dense_powers(monkeypatch):
    import polyens.charpoly

    def dense(*args, **kwargs):
        raise AssertionError("dense table algebra")

    monkeypatch.setattr(np.linalg, "matrix_power", dense)
    monkeypatch.setattr(polyens.charpoly, "hessenberg_matrix", dense)
    t = op_table(np.linspace(0.5, 1.0, 48), np.linspace(-0.2, 0.2, 48), 40)
    zs = zeros(t, lmax=6)
    assert len(zs) == 40
    assert np.isfinite(mean_moment(t, 6))
    assert variance_power(t, 3) > 0
    assert np.isfinite(covariance_power(t, 2, 3))
    assert moment_gap(t, 4, zero_set=zs).gap <= moment_gap(t, 4).bound


def test_zeros_refuses_a_negative_order():
    with pytest.raises(ValueError, match="lmax must be >= 0, got -1"):
        zeros(classical_table("gue", 10), lmax=-1)


def test_moment_gap_refuses_an_order_its_zero_set_lacks():
    t = classical_table("gue", 10)
    with pytest.raises(ValueError, match="order 1 is not stored: this zero set has orders 0..0"):
        moment_gap(t, 1, zero_set=zeros(t, lmax=0))


def _walk_spy(monkeypatch):
    """Record the number of starts of every recurrence walk."""
    import polyens.recurrence

    walked = []
    walk = polyens.recurrence._walk_steps

    def spy(table, ell, starts, ceiling):
        walked.append(len(starts))
        return walk(table, ell, starts, ceiling)

    monkeypatch.setattr(polyens.recurrence, "_walk_steps", spy)
    return walked


GAP_TABLES = {
    **{
        f"{kind}-N{N}": lambda kind=kind, N=N: random_table(kind, 1800, N=N, pad=12)
        for kind in TABLE_KINDS + ("complex-q1",)
        for N in (40, 3)
    },
    "gue-N100": lambda: classical_table("gue", 100),
    "band-q2-N40": lambda: _band_q2(40),
}


@pytest.mark.parametrize("name", GAP_TABLES)
def test_moment_gap_reads_its_zero_set_bit_for_bit(name):
    # for orders below the zero set's and at it, the gap is bit for bit that
    # of a fresh zero set, and the mean moment, p_l / N plus the weight of
    # the loops that leave the section over N, is mean_moment's sum over
    # every start to roundoff; at N = 3 the longer loops of q >= 1 can leave
    # the section from every start
    table = GAP_TABLES[name]()
    L = 8
    zs = zeros(table, L)
    for ell in range(1, L + 1):
        want = mean_moment(table, ell)
        r = moment_gap(table, ell, zero_set=zs)
        assert r == moment_gap(table, ell)
        assert abs(r.mean_moment - want) <= 1e-14 * max(1.0, abs(want))
        assert r.zero_moment == table.value(zs.mean_power(ell))


def test_moment_gap_walks_only_the_starts_next_to_N(monkeypatch):
    t = classical_table("gue", 2000)
    zs = zeros(t, 8)
    walked = _walk_spy(monkeypatch)
    for ell in range(1, 9):
        moment_gap(t, ell, zero_set=zs)
        assert sum(walked) <= ell + 1
        walked.clear()


def test_moment_gap_checks_its_widest_read_before_any_walk(monkeypatch):
    # the walk climbs to N + l - 1 and the bound's window reaches N + l: the
    # window is checked first, so the one message names pad >= l, and no
    # zero set is solved and no path walked before it
    t = classical_table("gue", 10, pad=2)
    walked = _walk_spy(monkeypatch)
    with pytest.raises(CoefficientRangeError) as caught:
        moment_gap(t, 5)
    assert str(caught.value) == (
        "the window reaches index 15 but the table stores indices up to 12 (N=10, pad=2); rebuild with pad >= 5"
    )
    assert walked == [] and caught.traceback[-2].name == "moment_gap"
    moment_gap(classical_table("gue", 10, pad=5), 5)


def test_moment_gap_refuses_the_zero_set_of_another_table():
    t = classical_table("gue", 20)
    for other in (classical_table("chebyshev", 20), classical_table("gue", 21)):
        with pytest.raises(ValueError, match=rf"zero set of {re.escape(repr(other))}, whose N x N section differs"):
            moment_gap(t, 2, zero_set=zeros(other, 4))
    # the same section, rebuilt with another pad, is the same zero set
    assert moment_gap(t, 2, zero_set=zeros(classical_table("gue", 20, pad=3), 4)) == moment_gap(t, 2)


def test_moment_gap_gue_second_power_closed_form():
    # mean moment 1 exactly; zero moment 1 - 1/N exactly
    for N in (3, 10, 50, 200):
        r = moment_gap(classical_table("gue", N, pad=3), 2)
        assert np.isclose(r.gap, 1.0 / N, rtol=1e-10)
        assert r.gap <= r.bound
    # the gap is the escaping weight, not a difference of two O(N)-term sums
    assert moment_gap(classical_table("gue", 100, pad=3), 2).gap == 0.01
    assert moment_gap(classical_table("chebyshev", 60, pad=3), 1).gap == 0.0


def test_moment_gap_matches_escape_enumeration():
    for kind in TABLE_KINDS + ("complex-q1",):
        for N in (3, 9):
            t = random_table(kind, 1900 + N, N=N, pad=6)
            zs = zeros(t, lmax=5)
            for ell in range(1, 6):
                want = abs(oracles.gap_by_escape(t, ell)) / N
                assert abs(moment_gap(t, ell, zero_set=zs).gap - want) <= 1e-13 * want, (kind, N, ell)


@pytest.mark.parametrize("N", (3, 7, 20, 2000, 10**5))
def test_gue_gaps_are_exact(N):
    # the l = 2 and l = 4 loops that leave the GUE section weigh 1 and
    # (5N - 2)/N, and no odd loop exists; a difference of the two O(N)-term
    # sums missed 1/N by 508 ulps at N = 2000
    t = classical_table("gue", N)
    zs = zeros(t, lmax=5)
    gaps = [moment_gap(t, ell, zero_set=zs).gap for ell in range(1, 6)]
    for got, want in ((gaps[1], 1.0 / N), (gaps[3], (5.0 * N - 2.0) / N**2)):
        assert abs(got - want) <= 4 * np.spacing(want)
    assert gaps[0] == gaps[2] == gaps[4] == 0.0


BLOCK_TABLES = {
    **{f"gue-N{N}": lambda N=N: (classical_table("gue", N), 8) for N in (4097, 4099, 8193)},
    **{f"band-q2-N{N}": lambda N=N: (_band_q2(N), 6) for N in (4097, 4099, 8193)},
}


@pytest.mark.parametrize("name", BLOCK_TABLES)
def test_zero_set_across_a_block_boundary(name):
    # past 4096 starts the loop sums walk in blocks, and the 4 starts next
    # to N that both tables keep straddle a block's end: 3 or 1 of them lie
    # in the first block at N = 4097 and 4099, and 1 in the last at 8193
    t, L = BLOCK_TABLES[name]()
    N, q = t.N, t.q
    zs = zeros(t, L)
    for ell in range(1, L + 1):
        assert moment_gap(t, ell, zero_set=zs) == moment_gap(t, ell)
    for ell in range(L + 1):
        want = math.fsum(_walks(t, ell, range(N), N - 1)[q * ell])
        assert abs(zs.power_sums[ell] - want) <= 1e-15 * abs(want)


def test_table_queries_hold_no_array_per_start():
    # the loop sums keep one block's grids and a few starts' weights: the
    # traced peak is the same at N = 1e5 and 4e5, where an (lmax+1) x N
    # array of loop weights alone is 7.2 MB and 28.8 MB
    for N in (100000, 400000):
        t = classical_table("gue", N)
        for query in (lambda: zeros(t, 8), lambda: mean_moment(t, 8), lambda: limit_report(t, gue_profile(), 8)):
            assert traced_peak(query)[1] < 4e6, N


def test_moment_gap_bound_scales_like_inverse_N():
    r100 = moment_gap(classical_table("gue", 100, pad=5), 3)
    r200 = moment_gap(classical_table("gue", 200, pad=5), 3)
    assert 1.7 < r100.bound / r200.bound < 2.3


def test_gap_result_fields():
    r = moment_gap(classical_table("chebyshev", 10, pad=3), 2)
    assert r.ell == 2
    assert np.isclose(r.mean_moment - r.zero_moment, r.gap) or np.isclose(
        r.zero_moment - r.mean_moment, r.gap
    )
    assert np.isclose(r.gap, 0.25 / 10, rtol=1e-10)


def test_log_potential_arcsine_closed_form():
    m = equilibrium_measure(-1, 1, 2048)
    for z in (5.0, -3.0, 2.0 + 2.0j, 1j):
        assert np.isclose(log_potential(m, z), oracles.arcsine_potential(z), atol=1e-8)


def test_log_potential_of_zero_set_is_mean_log_distance():
    # Chebyshev N = 3: the zeros are 0 and +-sqrt(3)/2
    zs = zeros(classical_table("chebyshev", 3))
    z = 3.0
    want = -np.mean(np.log(np.abs(z - np.array([-np.sqrt(0.75), 0.0, np.sqrt(0.75)]))))
    assert np.isclose(log_potential(zs, z), want, rtol=1e-14)
    # at an atom the potential is +inf
    assert zs.zeros[1] == 0.0 and log_potential(zs, 0.0) == np.inf


def test_potentials_agree_outside_support():
    table = classical_table("chebyshev", 80, pad=2)
    ens = PolynomialEnsemble.from_table(table, equilibrium_measure(-1, 1, 256), N=80)
    mm = mean_measure(ens)
    zs = zeros(table)
    for z in (4.0, -2.5, 3.0 + 1.0j):
        assert abs(log_potential(mm, z) - log_potential(zs, z)) < 0.01


def test_mean_measure_total_mass_one():
    table = classical_table("chebyshev", 6, pad=2)
    ens = PolynomialEnsemble.from_table(table, equilibrium_measure(-1, 1, 64), N=6)
    mm = mean_measure(ens)
    assert np.isclose(mm.total_mass, 1.0, atol=1e-12)
    assert len(mm) == 64


def test_zeros_interlace_with_smaller_section():
    # classical strict interlacing for Jacobi matrices with a > 0
    rng = stream(19)
    tables = [
        classical_table("chebyshev", 9, pad=1),
        classical_table("gue", 8, pad=1),
        op_table(rng.uniform(0.3, 1.5, size=9), rng.uniform(-0.7, 0.7, size=9), 7),
    ]
    for t in tables:
        small = op_table(t.a, t.b, t.N - 1)
        z = np.sort(zeros(t).zeros.real)
        w = np.sort(zeros(small).zeros.real)
        assert np.all(z[:-1] < w)
        assert np.all(w < z[1:])
