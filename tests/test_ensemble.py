import numpy as np
import pytest

from polyens import (
    EvaluationError,
    NumericalBreakdownError,
    PolynomialEnsemble,
    PositivityViolationError,
    RankError,
    classical_table,
    equilibrium_measure,
    scaled_hermite_measure,
    stream,
    uniform_circle_measure,
)

import oracles


@pytest.fixture
def cheb3():
    table = classical_table("chebyshev", 3, pad=3)
    return PolynomialEnsemble.from_table(table, equilibrium_measure(-1, 1, 48), N=3)


def test_biorthogonality_and_projection(cheb3):
    assert cheb3.hermitian
    assert cheb3.biorthogonality_defect() < 1e-12
    K = cheb3.kernel_matrix()
    w = cheb3.measure.weights
    # reproducing property: integrating K against itself returns K
    assert np.max(np.abs((K * w) @ K - K)) < 1e-10


def test_mean_density_normalized(cheb3):
    rho = cheb3.mean_density()
    assert np.all(rho >= 0)
    assert np.isclose(cheb3.measure.integrate(rho), 1.0)


def test_eval_kernel_direct_vs_cd(cheb3):
    rng = stream(5)
    for _ in range(100):
        x, y = rng.uniform(-0.99, 0.99, size=2)
        direct = cheb3.eval_kernel(x, y)
        cd = oracles.kernel_by_christoffel_darboux(cheb3, x, y)
        assert np.isclose(direct, cd, rtol=1e-10, atol=1e-10)
    # confluent and nearly confluent points stay finite and continuous
    assert np.isfinite(cheb3.eval_kernel(0.25, 0.25))
    assert np.isclose(
        cheb3.eval_kernel(0.3, 0.3 + 1e-13), cheb3.eval_kernel(0.3, 0.3), rtol=1e-3
    )


def test_eval_P_matches_basis_rows(cheb3):
    m = cheb3.measure
    vals = cheb3.eval_P(m.points[7], upto=2)
    assert vals.shape == (3, 1)
    assert np.allclose(vals.ravel(), cheb3.basis[:3, 7], rtol=1e-12)


def test_joint_density_is_kernel_determinant(cheb3):
    K = cheb3.kernel_matrix()
    idx = [3, 17, 30]
    want = np.linalg.det(K[np.ix_(idx, idx)])
    assert np.isclose(cheb3.joint_density(idx), want, rtol=1e-12)
    # accepts point values too
    pts = cheb3.measure.points[idx]
    assert np.isclose(cheb3.joint_density(pts), want, rtol=1e-12)


def test_log_joint_density_normalization(cheb3):
    # the log form carries the 1/3! so exp(log) is the probability density
    idx = [3, 17, 30]
    sign, lg = cheb3.log_joint_density(idx)
    want = cheb3.joint_density(idx) / 6.0
    assert sign == 1.0
    assert np.isclose(np.exp(lg), want, rtol=1e-10)
    sign_u, lg_u = cheb3.log_joint_density(idx, normalized=False)
    assert np.isclose(lg_u - lg, np.log(6.0), rtol=1e-12)


def test_total_mass_of_joint_density(cheb3):
    # brute-force: the unordered subset law sums to one
    pmf = oracles.subset_pmf(cheb3.kernel_matrix(), cheb3.measure.weights, 3)
    assert np.isclose(sum(pmf.values()), 1.0, atol=1e-10)
    assert min(pmf.values()) > -1e-12


def test_atom_index(cheb3):
    x = cheb3.measure.points[11]
    assert cheb3.atom_index(x) == 11
    assert cheb3.atom_index(x + 1e-14) == 11
    with pytest.raises(EvaluationError):
        cheb3.atom_index(0.123456)


def test_circle_ensemble_geometric_kernel():
    table = classical_table("circle", 4, pad=1)
    ens = PolynomialEnsemble.from_table(table, uniform_circle_measure(12), N=4)
    assert ens.hermitian  # the power basis is orthonormal here
    z = ens.measure.points
    K = ens.kernel_matrix()
    want = sum((z[:, None] * z[None, :].conj()) ** k for k in range(4))
    assert np.max(np.abs(K - want)) < 1e-12


def test_gue_ensemble_defect_small():
    table = classical_table("gue", 30, pad=2)
    ens = PolynomialEnsemble.from_table(table, scaled_hermite_measure(30, 128), N=30)
    assert ens.biorthogonality_defect() < 1e-8


def test_more_points_than_atoms_is_a_rank_error():
    from polyens.config import build_ensemble

    with pytest.raises(RankError):
        build_ensemble({"classical": "gue", "N": 300})  # default 256 nodes
    with pytest.raises(RankError):
        PolynomialEnsemble.from_table(
            classical_table("chebyshev", 20, pad=2), equilibrium_measure(-1, 1, 16), N=20
        )


def test_overflowing_kernel_is_a_breakdown_error():
    from polyens.config import build_ensemble

    ens = build_ensemble({"classical": "gue", "N": 400, "nodes": 1024})
    assert np.isfinite(ens.P_vals).all()  # the basis itself is finite
    with pytest.raises(NumericalBreakdownError, match="N=400 points on 732 atoms"):
        ens.kernel_matrix()


def test_tilt_keeps_biorthogonality(cheb3):
    tilted = cheb3.tilt_nonorthogonal(np.array([[0.2, 0.0], [0.0, 0.1], [0.05, 0.0]]))
    assert not tilted.hermitian
    assert tilted.biorthogonality_defect() < 1e-12
    # kernel actually lost symmetry
    K = tilted.kernel_matrix()
    assert np.max(np.abs(K - K.T)) > 1e-3


def test_tilt_shape_and_padding_errors(cheb3):
    with pytest.raises(ValueError):
        cheb3.tilt_nonorthogonal(np.zeros((2, 1)))  # wrong row count
    with pytest.raises(ValueError):
        cheb3.tilt_nonorthogonal(np.zeros((3, 5)))  # needs rows past the pad


def test_tilt_positivity_scan_catches_bad_kernels(cheb3):
    # a violent tilt produces negative pair minors
    with pytest.raises(PositivityViolationError):
        cheb3.tilt_nonorthogonal(
            np.array([[8.0, 0.0], [0.0, 8.0], [0.0, 8.0]]),
            validate=True,
            rng=stream(99),
            trials=500,
        )


def test_mild_tilt_passes_positivity():
    # small support keeps the nodal set of det[P] away from the atoms, so a
    # small tilt leaves every minor positive (checked by hand for this one)
    table = classical_table("chebyshev", 2, pad=1)
    base = PolynomialEnsemble.from_table(table, equilibrium_measure(-1, 1, 4), N=2)
    tilted = base.tilt_nonorthogonal(
        np.array([[0.05, 0.0], [0.0, 0.05]]), validate=True, rng=stream(3), trials=500
    )
    assert tilted.validate_positivity(rng=stream(4), trials=300)


def test_from_values_infers_hermitian():
    m = equilibrium_measure(-1, 1, 8)
    P = np.ones((1, 8))
    ens = PolynomialEnsemble.from_values(m, P, P.copy())
    assert ens.hermitian
    ens2 = PolynomialEnsemble.from_values(m, P, 2.0 * P)
    assert not ens2.hermitian


def test_nonhermitian_kernel_eval_restricted_to_atoms(cheb3):
    tilted = cheb3.tilt_nonorthogonal(np.array([[0.1, 0.0], [0.0, 0.1], [0.0, 0.0]]))
    x = tilted.measure.points
    v = tilted.eval_kernel(x[2], x[5])
    K = tilted.kernel_matrix()
    assert np.isclose(v, K[2, 5], rtol=1e-12)
    with pytest.raises(EvaluationError):
        tilted.eval_kernel(0.1234, 0.5678)


def test_ordered_tuple_mass_full_enumeration():
    # the 1/N!-normalized density sums to one over ordered atom tuples
    import itertools
    import math

    for N, nodes in [(2, 8), (3, 10)]:
        table = classical_table("chebyshev", N, pad=2)
        ens = PolynomialEnsemble.from_table(table, equilibrium_measure(-1, 1, nodes), N=N)
        w = ens.measure.weights
        total = 0.0
        for tup in itertools.product(range(nodes), repeat=N):
            idx = list(tup)
            total += ens.joint_density(idx) / math.factorial(N) * np.prod(w[idx])
        assert abs(total - 1.0) < 1e-6
