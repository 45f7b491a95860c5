import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyens import (
    DegenerateDensityError,
    EvaluationError,
    InvalidIntervalError,
    NegativityError,
    PolyensError,
    ReferenceMeasure,
    atoms_measure,
    equilibrium_measure,
    grid_measure,
    named_measure,
    scaled_hermite_measure,
    stream,
    uniform_circle_measure,
)

import oracles


def test_equilibrium_basic():
    m = equilibrium_measure(-1.0, 1.0, 64)
    assert len(m) == 64
    assert np.isclose(m.total_mass, 1.0)
    assert np.all((m.points > -1) & (m.points < 1))
    # Gauss-Chebyshev nodes carry equal weight
    assert np.allclose(m.weights, 1 / 64)


def test_equilibrium_moments_exact():
    # discrete moments match the arcsine law exactly once the rule is exact
    m = equilibrium_measure(-1.0, 1.0, 8)
    assert abs(m.integrate(lambda x: x**2) - 0.5) < 1e-15
    assert abs(m.integrate(lambda x: x**4) - 0.375) < 1e-15
    assert abs(m.integrate(lambda x: x**3)) < 1e-15


def test_equilibrium_affine():
    m = equilibrium_measure(1.0, 5.0, 16)
    assert np.isclose(m.integrate(lambda x: x), 3.0)  # midpoint
    # half-width 2: second centered moment is 2^2/2
    assert np.isclose(m.integrate(lambda x: (x - 3.0) ** 2), 2.0)


def test_equilibrium_rejects_bad_interval():
    with pytest.raises(InvalidIntervalError):
        equilibrium_measure(1.0, 1.0, 8)
    with pytest.raises(InvalidIntervalError):
        equilibrium_measure(2.0, -2.0, 8)


def test_scaled_hermite_mass_and_moments():
    for N in (1, 4, 25):
        m = scaled_hermite_measure(N, 128)
        assert np.isclose(m.total_mass, np.sqrt(2 * np.pi / N), rtol=1e-12)
        assert abs(m.integrate(lambda x: x**2) / m.total_mass - 1.0 / N) < 1e-12


def test_scaled_hermite_drops_dead_atoms():
    # far tail weights underflow to 0.0 and must not survive as atoms
    m = scaled_hermite_measure(100, 256)
    assert np.all(m.weights > 0)
    assert len(m) <= 256


def test_uniform_circle():
    m = uniform_circle_measure(12)
    assert m.is_complex
    assert np.allclose(np.abs(m.points), 1.0)
    assert np.isclose(m.total_mass, 1.0)
    assert abs(m.integrate(lambda z: z)) < 1e-14
    # n-th power of the n roots sums back to one
    assert np.isclose(m.integrate(lambda z: z**12), 1.0)


def test_named_measure_dispatch():
    m = named_measure("chebyshev-arcsine", alpha=-2, beta=2, nodes=32)
    assert len(m) == 32
    m = named_measure("scaled-hermite", N=9, nodes=64)
    assert np.isclose(m.total_mass, np.sqrt(2 * np.pi / 9))
    m = named_measure("uniform-circle", n=8)
    assert len(m) == 8
    with pytest.raises(ValueError):
        named_measure("lebesgue")


def test_atoms_validation():
    with pytest.raises(ValueError):
        atoms_measure([0.0, 1.0], [0.5])
    with pytest.raises((NegativityError, ValueError)):
        atoms_measure([0.0, 1.0], [0.5, -0.5])
    with pytest.raises(ValueError):
        atoms_measure([0.0, np.nan], [0.5, 0.5])


def test_grid_measure_trapezoid():
    x = np.linspace(0.0, 1.0, 101)
    m = grid_measure(x, np.ones_like(x))
    assert np.isclose(m.total_mass, 1.0)
    assert np.isclose(m.integrate(lambda t: t), 0.5)
    with pytest.raises(DegenerateDensityError):
        grid_measure(x, np.zeros_like(x))


def test_values_reports_offending_atom():
    m = atoms_measure([0.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    with pytest.raises(EvaluationError, match="2.0"):
        m.values(lambda x: np.where(x == 2.0, np.nan, x))


def test_inner_product_conjugates_second_slot():
    m = uniform_circle_measure(16)
    f = m.points
    g = 1j * m.points
    # <f, i f> = -i <f, f>
    assert np.isclose(m.inner_product(f, g), -1j * m.inner_product(f, f))


def test_sample_categorical_exact_law():
    m = atoms_measure([0.0, 1.0, 2.0, 3.0], [0.25, 0.25, 0.25, 0.25])
    dens = np.array([1.0, 2.0, 3.0, 0.0])
    rng = stream(7)
    draws = m.sample_categorical(dens, rng, size=30_000)
    freq = np.bincount(draws, minlength=4) / 30_000
    assert freq[3] == 0.0
    assert np.allclose(freq[:3], [1 / 6, 2 / 6, 3 / 6], atol=0.02)


def test_sample_categorical_degenerate_and_negative():
    m = atoms_measure([0.0, 1.0], [0.5, 0.5])
    rng = stream(1)
    with pytest.raises(DegenerateDensityError):
        m.sample_categorical(np.zeros(2), rng)
    with pytest.raises(NegativityError):
        m.sample_categorical(np.array([1.0, -0.5]), rng)
    # a tiny negative from roundoff is clamped, not fatal
    idx = m.sample_categorical(np.array([1.0, -1e-15]), rng, size=100)
    assert np.all(idx == 0)


@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=12, unique=True),
    st.integers(1, 10**6),
)
def test_mass_is_weight_sum(points, wseed):
    w = stream(wseed).uniform(0.1, 2.0, size=len(points))
    m = atoms_measure(np.array(points), w)
    assert np.isclose(m.total_mass, w.sum())
    assert np.isclose(m.integrate(lambda x: np.ones_like(x)), w.sum())


def test_repr_mentions_name_and_size():
    m = equilibrium_measure(-1, 1, 10)
    assert "10" in repr(m)


def test_integrate_linear_and_inner_product_symmetric():
    m = equilibrium_measure(-1.0, 1.0, 32)
    f = lambda x: x**3 - 0.2 * x
    g = lambda x: np.cos(x)
    lhs = m.integrate(lambda x: 2.5 * f(x) + g(x))
    assert np.isclose(lhs, 2.5 * m.integrate(f) + m.integrate(g), rtol=1e-13)
    c = uniform_circle_measure(16)
    u = c.points**2 + 0.3j
    v = c.points**3 - 1.0j
    assert np.isclose(c.inner_product(u, v), np.conj(c.inner_product(v, u)))


def test_equilibrium_moments_affine_closed_form():
    # binomial expansion around the midpoint; arcsine central moments
    from math import comb

    alpha, beta = 0.5, 3.5
    mid, half = (alpha + beta) / 2, (beta - alpha) / 2
    m = equilibrium_measure(alpha, beta, 64)
    for ell in range(13):
        want = sum(
            comb(ell, 2 * j) * comb(2 * j, j) * (half / 2) ** (2 * j) * mid ** (ell - 2 * j)
            for j in range(ell // 2 + 1)
        )
        got = m.integrate(lambda x, e=ell: x**e)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_sample_categorical_chi_square():
    import scipy.stats

    rng0 = stream(31)
    pts = np.linspace(0.0, 1.0, 16)
    w = rng0.uniform(0.5, 1.5, size=16)
    m = atoms_measure(pts, w)
    dens = rng0.uniform(0.1, 2.0, size=16)
    p = dens * m.weights / np.sum(dens * m.weights)
    draws = m.sample_categorical(dens, stream(32), size=100_000)
    counts = np.bincount(draws, minlength=16)
    _, pval = scipy.stats.chisquare(counts, 100_000 * p)
    assert pval > 0.01


def test_sample_categorical_matches_choice_oracle():
    # the inverse-CDF draw is Generator.choice's arithmetic on the same
    # stream: equal indices, bit for bit, for single and batched draws
    for s in range(400):
        g = stream(99, s)
        n = int(g.integers(1, 200))
        m = atoms_measure(np.arange(n, dtype=float), g.uniform(0.01, 3.0, n))
        d = g.exponential(size=n) * 10.0 ** float(g.integers(-150, 150))
        top = int(np.argmax(d))
        d[g.random(n) < 0.3] = 0.0  # zero-mass atoms
        if s % 3 == 0:
            d[top + 1 :] = 0.0  # trailing zero atoms
        tiny = g.random(n) < 0.1
        tiny[top] = False
        d[tiny] = -1e-13 * d[top]  # roundoff negatives, clamped
        if d.max() <= 0:
            d[top] = 1.0
        size = None if s % 2 else int(g.integers(1, 6))
        got = m.sample_categorical(d, stream(5, s), size=size)
        want = oracles.draw_by_choice(m, d, stream(5, s), size=size)
        assert np.array_equal(got, want), s
        assert isinstance(got, int) == (size is None)


def test_sample_categorical_consumes_one_uniform_per_index():
    m = atoms_measure([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    for size in (None, 4):
        rng, ref = stream(3), stream(3)
        m.sample_categorical(np.array([1.0, 2.0, 3.0]), rng, size=size)
        ref.random(size)
        assert rng.random() == ref.random()


def _bad_masses():
    """(density and weights over the atoms 0, 2, 3, 5, error, match)."""
    ones = [1.0, 1.0, 1.0, 1.0]
    yield [1.0, np.nan, 2.0, 1.0], ones, EvaluationError, "2.0"
    yield [1.0, 1.0, np.inf, 1.0], ones, EvaluationError, "3.0"
    yield [1.0, 1.0, 2.0, -np.inf], ones, EvaluationError, "5.0"
    yield [1.0, 1e308, 1.0, 1.0], [1.0, 4.0, 1.0, 1.0], EvaluationError, "2.0"  # weight overflows
    yield [1e308, 1e308, 1e308, 1e308], ones, PolyensError, "mass"  # finite, sum overflows
    yield [1.0, -0.5, 2.0, 1.0], ones, NegativityError, "2.0"
    yield [0.0, 0.0, 0.0, 0.0], ones, DegenerateDensityError, "vanishes"
    yield [1.0, 1.0 + 0.5j, 2.0, 1.0], ones, NegativityError, "complex"


def test_sample_categorical_rejects_bad_masses():
    for dens, weights, err, match in _bad_masses():
        m = atoms_measure([0.0, 2.0, 3.0, 5.0], weights)
        for size in (None, 3):
            rng = stream(4)
            with pytest.raises(err, match=match):
                m.sample_categorical(np.array(dens), rng, size=size)
            assert rng.random() == stream(4).random()  # nothing was drawn
