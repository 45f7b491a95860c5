import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyens import measure
from polyens import (
    DegenerateDensityError,
    EvaluationError,
    InvalidIntervalError,
    NegativityError,
    NumericalBreakdownError,
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

from polyens.measure import gram_defect

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
    assert abs(oracles.integral(m, lambda x: x**2) - 0.5) < 1e-15
    assert abs(oracles.integral(m, lambda x: x**4) - 0.375) < 1e-15
    assert abs(oracles.integral(m, lambda x: x**3)) < 1e-15


def test_equilibrium_affine():
    m = equilibrium_measure(1.0, 5.0, 16)
    assert np.isclose(oracles.integral(m, lambda x: x), 3.0)  # midpoint
    # half-width 2: second centered moment is 2^2/2
    assert np.isclose(oracles.integral(m, lambda x: (x - 3.0) ** 2), 2.0)


def test_equilibrium_rejects_bad_interval():
    with pytest.raises(InvalidIntervalError):
        equilibrium_measure(1.0, 1.0, 8)
    with pytest.raises(InvalidIntervalError):
        equilibrium_measure(2.0, -2.0, 8)


def test_scaled_hermite_mass_and_moments():
    for N in (1, 4, 25):
        m = scaled_hermite_measure(N, 128)
        assert np.isclose(m.total_mass, np.sqrt(2 * np.pi / N), rtol=1e-12)
        assert abs(oracles.integral(m, lambda x: x**2) / m.total_mass - 1.0 / N) < 1e-12


def test_scaled_hermite_drops_dead_atoms():
    # far tail weights underflow to 0.0 and must not survive as atoms
    m = scaled_hermite_measure(100, 256)
    assert np.all(m.weights > 0)
    assert len(m) == 256
    # at 1024 nodes the tails underflow: an atom stays iff its scaled weight is > 0
    _, w = measure.gauss_hermite(1024)
    m = scaled_hermite_measure(400, 1024)
    assert len(m) == np.count_nonzero(np.sqrt(2 / 400) * w > 0) == 734


@pytest.mark.parametrize("n", [1, 2, 3, 64, 150, 151, 256, 257, 1024])
def test_gauss_hermite_matches_scipy(n):
    from scipy.special import roots_hermite

    x, w = measure.gauss_hermite(n)
    xs, ws = roots_hermite(n)
    assert np.all(np.abs(x - xs) <= 1e-13 * np.maximum(1.0, np.abs(xs)))
    normal = ws >= np.finfo(float).tiny
    assert np.all(np.abs(w[normal] - ws[normal]) <= 1e-11 * ws[normal])
    # where scipy's weight underflows, so does ours, to a subnormal at most
    assert np.all(w[~normal] < np.finfo(float).tiny)


@pytest.mark.parametrize("n", [5, 64])
def test_gauss_hermite_is_exact_on_even_moments(n):
    # integral x^(2j) exp(-x^2) dx = Gamma(j + 1/2), exact for 2j <= 2n - 1
    x, w = measure.gauss_hermite(n)
    for j in range(n):
        assert math.isclose(np.sum(w * x ** (2 * j)), math.gamma(j + 0.5), rel_tol=1e-12), j


def test_gauss_hermite_refuses_to_certify_a_bad_rule(monkeypatch):
    guesses = measure._hermite_guesses
    # two guesses on one zero: Newton lands both on it
    monkeypatch.setattr(measure, "_hermite_guesses", lambda n: np.repeat(guesses(n)[::2], 2))
    with pytest.raises(NumericalBreakdownError, match="not strictly increasing"):
        measure.gauss_hermite(64)
    monkeypatch.setattr(measure, "_hermite_guesses", guesses)
    # unrefined guesses: the weights miss sqrt(pi)
    monkeypatch.setattr(measure, "NEWTON_PASSES", 0)
    with pytest.raises(NumericalBreakdownError, match="not sqrt"):
        measure.gauss_hermite(64)


def test_uniform_circle():
    m = uniform_circle_measure(12)
    assert m.is_complex
    assert np.allclose(np.abs(m.points), 1.0)
    assert np.isclose(m.total_mass, 1.0)
    assert abs(oracles.integral(m, lambda z: z)) < 1e-14
    # n-th power of the n roots sums back to one
    assert np.isclose(oracles.integral(m, lambda z: z**12), 1.0)


def test_named_measure_dispatch():
    m = named_measure("chebyshev-arcsine", alpha=-2, beta=2, nodes=32)
    assert len(m) == 32
    m = named_measure("scaled-hermite", N=9, nodes=64)
    assert np.isclose(m.total_mass, np.sqrt(2 * np.pi / 9))
    m = named_measure("uniform-circle", n=8)
    assert len(m) == 8
    with pytest.raises(ValueError):
        named_measure("lebesgue")
    with pytest.raises(ValueError, match="uniform-circle measure takes no parameter 'nodes'"):
        named_measure("uniform-circle", nodes=8)
    with pytest.raises(ValueError, match="^scaled-hermite measure needs 'N'$"):  # was a KeyError
        named_measure("scaled-hermite", nodes=64)


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
    assert np.isclose(oracles.integral(m, lambda t: t), 0.5)
    with pytest.raises(DegenerateDensityError):
        grid_measure(x, np.zeros_like(x))


@pytest.mark.parametrize(
    "points, density, message",
    [
        # the NaN point took both its neighbours with it: 2 atoms, [0, 4]
        ([0, 1, np.nan, 3, 4], [1] * 5, "grid point 2 is nan, not finite"),
        ([0, 1, 2, np.inf, 4], [1] * 5, "grid point 3 is inf, not finite"),
        # the NaN entry dropped its atom
        ([0, 1, 2, 3, 4], [1, np.nan, 1, np.nan, 1], "grid density entry 1 is nan, not finite"),
        # reported as "grid density vanishes everywhere"
        ([0, 1, 2, 3, 4], [np.nan] * 5, "grid density entry 0 is nan, not finite"),
        ([0, 1, 2, 3, 4], [1, 1, np.inf, 1, 1], "grid density entry 2 is inf, not finite"),
    ],
)
def test_grid_measure_refuses_non_finite_input(points, density, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        grid_measure(np.array(points, dtype=float), np.array(density, dtype=float))


@pytest.mark.parametrize(
    "points, density, error, message",
    [
        ([0], [1], ValueError, "grid must be strictly increasing with >= 2 points"),
        ([[0, 1]], [[1, 1]], ValueError, "grid must be strictly increasing with >= 2 points"),
        ([0, 1, 2], [1, 1], ValueError, "density must match the grid"),
        ([0, 2, 1], [1, 1, 1], ValueError, "grid must be strictly increasing with >= 2 points"),
        ([0, 1, 2], [1, -1, 1], NegativityError, "grid density must be nonnegative"),
    ],
)
def test_grid_measure_refuses_a_bad_grid_or_density(points, density, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        grid_measure(points, density)


def test_values_reports_offending_atom():
    m = atoms_measure([0.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    with pytest.raises(EvaluationError, match="2.0"):
        m.values(lambda x: np.where(x == 2.0, np.nan, x))


def test_inner_product_conjugates_second_slot():
    m = uniform_circle_measure(16)
    f = m.points
    g = 1j * m.points
    # <f, g> = integral f conj(g) dmu, so <f, i f> = -i <f, f>
    assert np.isclose(oracles.integral(m, f * np.conj(g)), -1j * oracles.integral(m, f * np.conj(f)))


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
    assert np.isclose(oracles.integral(m, lambda x: np.ones_like(x)), w.sum())


def test_repr_mentions_name_and_size():
    m = equilibrium_measure(-1, 1, 10)
    assert "10" in repr(m)


def test_integrate_linear_and_inner_product_symmetric():
    m = equilibrium_measure(-1.0, 1.0, 32)
    f = lambda x: x**3 - 0.2 * x
    g = lambda x: np.cos(x)
    lhs = oracles.integral(m, lambda x: 2.5 * f(x) + g(x))
    assert np.isclose(lhs, 2.5 * oracles.integral(m, f) + oracles.integral(m, g), rtol=1e-13)
    c = uniform_circle_measure(16)
    u = c.points**2 + 0.3j
    v = c.points**3 - 1.0j
    assert np.isclose(oracles.integral(c, u * np.conj(v)), np.conj(oracles.integral(c, v * np.conj(u))))


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
        got = oracles.integral(m, lambda x, e=ell: x**e)
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
    # stream: equal indices, bit for bit, for single and batched draws. One
    # case in four is given no negative entry, so sample_mass draws after its
    # one reduction; most others carry clamped negatives through the full
    # validation
    shares = {True: 0, False: 0}
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
        if s % 4 == 0:
            tiny[:] = False
        d[tiny] = -1e-13 * d[top]  # roundoff negatives, clamped
        if d.max() <= 0:
            d[top] = 1.0
        size = None if s % 2 else int(g.integers(1, 6))
        got = m.sample_categorical(d, stream(5, s), size=size)
        want = oracles.draw_by_choice(m, d, stream(5, s), size=size)
        assert np.array_equal(got, want), s
        assert isinstance(got, int) == (size is None)
        shares[bool(d.min() >= 0)] += 1
    assert shares[True] and shares[False], shares


def test_sample_mass_draws_an_integer_or_boolean_mass_as_its_float_copy():
    m = atoms_measure([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0])
    masses = [np.array([0, 1, 2, 0]), np.array([False, True, True, False])]
    masses.append(np.array([-1, 10**10, 0, 3]))  # a clamped negative: the full validation
    for mass in masses:
        for size in (None, 5):
            got = m.sample_mass(mass, stream(1), size=size)
            assert np.array_equal(got, m.sample_mass(mass.astype(float), stream(1), size=size))
    assert m.sample_mass(np.array([0, 1, 2, 0]), stream(1)) == m.sample_mass(
        np.array([0.0, 1.0, 2.0, 0.0]), stream(1)
    )
    with pytest.raises(NegativityError):
        m.sample_mass(np.array([0, -1, 2, 0]), stream(1))
    with pytest.raises(DegenerateDensityError):
        m.sample_mass(np.zeros(4, dtype=int), stream(1))


def _threshold(mass, u):
    """_inverse_cdf's index for the uniform(s) u on a nonnegative mass."""
    m = atoms_measure(np.arange(len(mass), dtype=float), np.ones(len(mass)))
    return m._inverse_cdf(np.asarray(mass, dtype=float), lambda: u, np.empty(len(mass)))


def _breakpoints(mass):
    """u = 0, every breakpoint fl(c_i / T) below 1, and the doubles either side of each."""
    cdf = np.cumsum(mass, dtype=float)
    marks = cdf / cdf[-1]
    us = np.concatenate(([0.0], marks, np.nextafter(marks, 0.0), np.nextafter(marks, 1.0)))
    return us[(us >= 0.0) & (us < 1.0)]


def _assert_threshold_is_the_division_rule(mass):
    mass = np.asarray(mass, dtype=float)
    us = _breakpoints(mass)
    want = oracles.index_by_normalized_cdf(mass, us)
    got = [_threshold(mass, float(u)) for u in us]
    assert got == want.tolist()
    assert all(type(j) is int for j in got)
    assert np.array_equal(_threshold(mass, us), want)  # several uniforms on one mass
    assert np.all(mass[want] > 0), "a drawn atom carries mass"


THRESHOLD_MASSES = {
    "zero-runs": [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 0.0],
    "ties": [0.25] * 7 + [0.0] * 3 + [0.25] * 5,
    "one-atom": [0.0, 0.0, 4.0, 0.0],
    "tenths": [0.1] * 30,  # running sums that round, so quotients land off a grid
    "graded": [10.0**-k for k in range(0, 300, 7)],
    "underflow": [5e-324, 0.0, 1e-323, 5e-324, 0.0, 1.5e-323, 5e-324, 2.5e-323],
    "subnormal-total": [3e-320, 0.0, 7e-321, 1e-319, 0.0, 4e-322, 2e-320],
    "quotient-underflows": [5e-324, 1e-310, 0.0, 1e300, 2e-320, 3e300],
    "overflow": [1e307, 0.0, 8e307, 1e307, 0.0, 7.9e307],
    # each 5e-324 over a total of 1e300 is 0.0, so at u = 0 the division rule
    # skips all 200 atoms that carry mass: the search steps over each of them
    "long-step": [5e-324] * 200 + [1e300],
}


@pytest.mark.parametrize("name", list(THRESHOLD_MASSES))
def test_threshold_search_is_the_division_rule(name):
    # the draw thresholds the running mass at u T and steps over entries
    # whose quotient fl(c_i / T) lands on the other side of u: at u = 0,
    # at every breakpoint and one double either side it gives, bit for bit,
    # searchsorted(cdf / cdf[-1], u, "right")
    mass = THRESHOLD_MASSES[name]
    assert 0 < math.fsum(mass) < math.inf
    _assert_threshold_is_the_division_rule(mass)


@given(
    st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True)),
        min_size=1,
        max_size=40,
    ),
    st.integers(-320, 307),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8),
)
def test_threshold_search_matches_the_division_rule(shares, scale, us):
    mass = np.asarray(shares) * 10.0**scale
    if not 0 < mass.sum() < math.inf:
        mass = np.append(mass, 1.0)
    _assert_threshold_is_the_division_rule(mass)
    want = oracles.index_by_normalized_cdf(mass, us)
    assert [_threshold(mass, u) for u in us] == want.tolist()
    assert np.array_equal(_threshold(mass, np.asarray(us)), want)


def test_sample_mass_block_equals_scalar_draws_from_one_stream():
    # size=s reads the s uniforms that s scalar draws read, and draws the
    # same indices: zero runs, clamped roundoff negatives, a subnormal total
    masses = [
        np.array(THRESHOLD_MASSES["zero-runs"]),
        np.array([1.0, -1e-13, 0.0, 2.0, 0.5, 0.0]),
        np.array(THRESHOLD_MASSES["subnormal-total"]),
    ]
    for mass in masses:
        m = atoms_measure(np.arange(len(mass), dtype=float), np.ones(len(mass)))
        for s in (1, 7, 50):
            block, rng = m.sample_mass(mass, stream(8, s), size=s), stream(8, s)
            assert block.tolist() == [m.sample_mass(mass, rng) for _ in range(s)]
            assert rng.random() == stream(8, s).random(s + 1)[s]


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


@pytest.mark.parametrize("atoms, rows", [(7, 3), (1200, 30), (1201, 61)])
def test_gram_defect_matches_the_full_gram(atoms, rows):
    # one block (7 atoms) and several (24-row blocks at 1200 atoms), real and
    # complex, with Q = P (upper half only) and with a Q of its own
    rng = np.random.default_rng(atoms)
    P = rng.standard_normal((rows, atoms)) + 1j * rng.standard_normal((rows, atoms))
    Q = rng.standard_normal((rows, atoms))
    for p, q in ((P, None), (P.real, None), (P, Q), (P.real, Q)):
        G = p @ np.conj(p if q is None else q).T
        want = np.max(np.abs(G - np.eye(rows)))
        assert np.isclose(gram_defect(p, q), want, rtol=1e-12, atol=0)


def test_gram_defect_sees_both_halves_of_a_non_hermitian_gram():
    # monomials on 64 roots of unity are orthonormal; Q_0 = P_0 + 0.5 P_40
    # puts the defect at <P_40, Q_0>, below the diagonal, and Q_40 =
    # P_40 + 0.25 P_0 at <P_0, Q_40>, above it
    m = uniform_circle_measure(64)
    P = np.sqrt(m.weights) * m.points ** np.arange(48)[:, None]
    assert gram_defect(P) < 1e-14
    for i, j, size in ((0, 40, 0.5), (40, 0, 0.25)):
        Q = P.copy()
        Q[i] += size * P[j]
        assert abs(gram_defect(P, Q) - size) < 1e-14


def test_gram_defect_of_no_rows_and_of_nan():
    assert gram_defect(np.empty((0, 16))) == 0.0
    P = np.ones((20, 16)) / 4.0
    P[17, 3] = np.nan  # in the last row block, not the first
    assert math.isnan(gram_defect(P))
    assert math.isnan(gram_defect(P, np.ones((20, 16))))
