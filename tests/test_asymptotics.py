import inspect
import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyens import (
    CoefficientProfile,
    arcsine_moment,
    banded_limit_moment,
    catalan_moment,
    classical_table,
    equilibrium_measure,
    gue_profile,
    limit_report,
    mean_moment,
    op_profile,
    stream,
    zeros,
)

import oracles
from polyens.asymptotics import _gl_grid
from test_recurrence import TABLE_KINDS, complex_q1_table, random_table


def test_catalan_values():
    assert [catalan_moment(ell) for ell in (0, 2, 4, 6, 8)] == [1, 1, 2, 5, 14]
    assert catalan_moment(3) == 0.0


def test_arcsine_standard_values():
    assert np.isclose(arcsine_moment(2), 0.5)
    assert np.isclose(arcsine_moment(4), 0.375)
    assert np.isclose(arcsine_moment(6), 5 / 16)
    assert arcsine_moment(5) == 0.0
    assert arcsine_moment(0) == 1.0


def test_arcsine_affine_matches_quadrature():
    m = equilibrium_measure(0.5, 3.5, 4096)
    for ell in range(1, 9):
        assert np.isclose(
            arcsine_moment(ell, 0.5, 3.5), oracles.integral(m, lambda x: x**ell), rtol=1e-12
        )


def test_gue_profile_moments_are_catalan():
    p = gue_profile()
    for ell in range(0, 9):
        assert np.isclose(banded_limit_moment(p, ell), catalan_moment(ell), atol=1e-10)


def test_constant_profile_is_affine_arcsine():
    rng = stream(14)
    for _ in range(10):
        a = float(rng.uniform(0.2, 2.0))
        b = float(rng.uniform(-1.0, 1.0))
        p = op_profile(a, b)
        for ell in range(0, 11):
            want = arcsine_moment(ell, b - 2 * a, b + 2 * a)
            assert np.isclose(banded_limit_moment(p, ell), want, rtol=1e-9, atol=1e-12)


def random_poly_profile(rng):
    c = rng.uniform(0.1, 1.0, size=3)
    d = rng.uniform(-0.5, 0.5, size=2)
    a = lambda s, c=c: c[0] + c[1] * s + c[2] * s * s
    b = lambda s, d=d: d[0] + d[1] * s
    return a, b


@pytest.mark.parametrize("seed", range(20))
def test_banded_limit_agrees_with_op_route(seed):
    # the loop count at q = 1 must reproduce the binomial closed form
    rng = stream(60 + seed)
    a, b = random_poly_profile(rng)
    p = op_profile(a, b)
    for ell in range(0, 9):
        lhs = banded_limit_moment(p, ell)
        rhs = oracles.mu_ab_by_binomials(p, ell)
        assert np.isclose(lhs, rhs, rtol=1e-8, atol=1e-12)


def random_band_profile(rng, q):
    """Every step j = -1..q follows a positive quadratic in s, so no
    composition cancels another and a relative tolerance is meaningful."""
    c = rng.uniform(0.1, 1.0, size=(q + 2, 3))
    return CoefficientProfile(
        {j: (lambda s, c=c[j + 1]: c[0] + c[1] * s + c[2] * s * s) for j in range(-1, q + 1)}
    )


@pytest.mark.parametrize("q", [0, 2, 3])
def test_banded_limit_matches_composition_sum(q):
    rng = stream(90 + q)
    for _ in range(3):
        p = random_band_profile(rng, q)
        for ell in range(0, 7):
            want = oracles.limit_moment_by_compositions(p, ell)
            assert abs(banded_limit_moment(p, ell) - want) <= 1e-13 * abs(want)


def test_gauss_legendre_grid_is_exact_through_degree_511():
    # 256 nodes integrate s^k on [0, 1] for every k < 512; numpy's leggauss
    # rule, the one used before, missed by up to 4.3e-13
    s, w = _gl_grid()
    assert len(s) == 256 and np.all(np.diff(s) > 0) and np.array_equal(s + s[::-1], np.ones(256))
    for k in range(512):
        assert abs(math.fsum(w * s**k) * (k + 1) - 1) <= 5e-14


def test_banded_limit_matches_composition_sum_wide_band():
    p = random_band_profile(stream(94), 4)
    want = oracles.limit_moment_by_compositions(p, 8)
    assert abs(banded_limit_moment(p, 8) - want) <= 1e-13 * abs(want)


def test_banded_limit_cost_is_polynomial_in_band_width():
    # enumerating step counts takes seconds here; the walk takes milliseconds
    p = random_band_profile(stream(95), 5)
    t0 = time.perf_counter()
    assert banded_limit_moment(p, 10) > 0
    assert time.perf_counter() - t0 < 1.0


def test_symmetric_banded_profile_has_vanishing_odd_moments():
    p = CoefficientProfile({-1: lambda s: 0.3 + s, 0: 0.0, 1: lambda s: 0.3 + s})
    for ell in (1, 3, 5, 7, 9):
        assert abs(banded_limit_moment(p, ell)) < 1e-12


def test_wider_band_profile_moments():
    # q = 2 with only the up and deepest-down steps: paths need balanced
    # counts, so only multiples of 3 survive
    p = CoefficientProfile({-1: 1.0, 0: 0.0, 1: 0.0, 2: 1.0})
    assert p.q == 2
    assert np.isclose(banded_limit_moment(p, 0), 1.0)
    assert abs(banded_limit_moment(p, 1)) < 1e-12
    assert abs(banded_limit_moment(p, 2)) < 1e-12
    # ell = 3: exactly the (+1, +1, -2) arrangements: 3 paths of weight 1
    assert np.isclose(banded_limit_moment(p, 3), 3.0, rtol=1e-10)


def test_mu_ab_sample_moments():
    p = gue_profile()
    rng = stream(2718)
    x = oracles.mu_ab_sample(p, rng, 1_000_000)
    for ell in (1, 2, 3, 4):
        want = banded_limit_moment(p, ell)
        se = np.std(x**ell) / np.sqrt(len(x))
        assert abs(np.mean(x**ell) - want) < 3 * se + 1e-12


def test_profile_validation():
    with pytest.raises(ValueError):
        CoefficientProfile({0: 1.0, 1: 1.0})  # missing the up step
    with pytest.raises(ValueError):
        CoefficientProfile({-1: 1.0, 1: 1.0})  # hole at j = 0


def test_limit_report_gue():
    table = classical_table("gue", 200, pad=5)
    rows = limit_report(table, gue_profile(), 6)
    by_ell = {r.ell: r for r in rows}
    assert sorted(by_ell) == [1, 2, 3, 4, 5, 6]
    assert by_ell[2].gap <= 0.02
    assert all(r.gap <= 0.05 for r in rows)
    assert np.isclose(by_ell[4].limit_moment, 2.0, atol=1e-9)


def test_limit_report_chebyshev_constant_profile():
    table = classical_table("chebyshev", 200, pad=5)
    rows = limit_report(table, op_profile(0.5, 0.0), 6)
    by_ell = {r.ell: r for r in rows}
    assert by_ell[4].gap <= 0.02
    assert np.isclose(by_ell[4].limit_moment, 0.375, atol=1e-10)


def test_limit_report_of_a_complex_table_keeps_the_finite_moments():
    table = complex_q1_table()
    rows = limit_report(table, gue_profile(), 4)
    for row in rows:
        assert row.finite_moment == mean_moment(table, row.ell)
        assert abs(row.finite_moment.imag) > 0.01
        assert row.gap == abs(row.finite_moment - row.limit_moment)


def test_limit_report_shrinks_when_N_doubles():
    p = gue_profile()
    g100 = {r.ell: r.gap for r in limit_report(classical_table("gue", 100, pad=5), p, 6)}
    g200 = {r.ell: r.gap for r in limit_report(classical_table("gue", 200, pad=5), p, 6)}
    for ell in (4, 6):
        assert g200[ell] < g100[ell]


BAND_PROFILE = CoefficientProfile(
    {-1: 1.0, 0: lambda s: 0.1 + 0.2 * s, 1: lambda s: 0.3 - 0.1 * s, 2: lambda s: 0.05 + 0.1 * s}
)


def _is_walk(got, want, exact):
    """got == want bit for bit, or, for loops walked half their length,
    within 1e-14 relative."""
    return got == want if exact else abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_limit_report_is_bit_identical_to_one_walk_per_order(kind):
    # each order of the report is, bit for bit, its own query, and that of a
    # full walk of its own, but for a symmetric table or profile, whose
    # loops walk half their length and meet the full walk to roundoff
    t = random_table(kind, 1700, N=40, pad=12)
    for profile in (gue_profile(), BAND_PROFILE):
        rows = limit_report(t, profile, 8)
        assert [r.ell for r in rows] == list(range(1, 9))
        for r in rows:
            assert r.finite_moment == mean_moment(t, r.ell)
            assert r.limit_moment == banded_limit_moment(profile, r.ell)
            want = t.value(oracles.mean_moment_by_full_walk(t, r.ell))
            assert _is_walk(r.finite_moment, want, exact=not t.symmetric)
            want = oracles.limit_by_full_walk(profile, r.ell, _gl_grid())
            assert _is_walk(r.limit_moment, want, exact=profile is BAND_PROFILE)


def test_symmetric_loops_walk_half_their_length(monkeypatch):
    # mean_moment, the section traces of zeros and limit_report walk
    # ceil(l/2) steps on a symmetric table or OP profile, l steps otherwise
    import polyens.recurrence

    steps, walk = [], polyens.recurrence._walk_steps
    monkeypatch.setattr(polyens.recurrence, "_walk_steps", lambda t, ell, *a: steps.append(ell) or walk(t, ell, *a))

    def walked(query, *args):
        steps.clear()
        query(*args)
        return steps

    op, band = random_table("op", 1950, N=40, pad=12), random_table("q2", 1950, N=40, pad=12)
    for ell in (1, 2, 5, 8):
        half = (ell + 1) // 2
        assert walked(mean_moment, op, ell) == walked(zeros, op, ell) == [half]
        assert walked(mean_moment, band, ell) == walked(zeros, band, ell) == [ell]
        assert walked(limit_report, op, gue_profile(), ell) == [half, half]
        assert walked(limit_report, op, op_profile(0.5, lambda s: s), ell) == [half, half]
        assert walked(limit_report, band, BAND_PROFILE, ell) == [ell, ell]
        assert walked(limit_report, op, CoefficientProfile({-1: 0.5, 0: 0.0, 1: 0.4}), ell) == [half, ell]


@given(st.integers(1, 8))
def test_odd_moment_vanish_gue(ell):
    if ell % 2:
        assert abs(banded_limit_moment(gue_profile(), ell)) < 1e-12


@given(st.floats(0.05, 2.0), st.integers(0, 10))
def test_mu_ab_even_moment_positive(a, ell):
    if ell % 2 == 0:
        assert banded_limit_moment(op_profile(float(a), 0.0), ell) > 0


def test_limit_moments_take_no_node_count():
    assert list(inspect.signature(banded_limit_moment).parameters) == ["profile", "ell"]
