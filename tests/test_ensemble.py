import math
import re

import numpy as np
import pytest

from polyens import (
    EvaluationError,
    NegativityError,
    NumericalBreakdownError,
    OrthogonalityError,
    PolynomialEnsemble,
    PositivityViolationError,
    RankError,
    atoms_measure,
    banded_table,
    classical_table,
    equilibrium_measure,
    eval_polynomials,
    mean_moment,
    sample,
    sample_replicas,
    scaled_hermite_measure,
    stream,
    uniform_circle_measure,
)

from polyens.ensemble import BIORTHOGONALITY_TOL
from polyens.measure import gram_defect

import oracles
from conftest import traced_peak


@pytest.fixture
def cheb3():
    table = classical_table("chebyshev", 3, pad=3)
    return PolynomialEnsemble.from_table(table, equilibrium_measure(-1, 1, 48), N=3)


def test_biorthogonality_and_projection(cheb3):
    assert cheb3.hermitian
    assert cheb3.biorthogonality_defect() < 1e-12
    L = cheb3.kernel_matrix()
    # reproducing property: L, the kernel against counting measure, is a projection
    assert np.max(np.abs(L @ L - L)) < 1e-10


def test_mean_density_normalized(cheb3):
    rho = cheb3.mean_density()
    assert np.all(rho >= 0)
    assert np.isclose(oracles.integral(cheb3.measure, rho), 1.0)


def test_mean_density_of_no_point_and_of_a_negative_kernel(cheb3):
    m, P = cheb3.measure, cheb3.P_vals
    assert np.array_equal(PolynomialEnsemble(m, P, N=0).mean_density(), np.zeros(48))
    with pytest.raises(NegativityError, match="^mean density is nonpositive everywhere$"):
        PolynomialEnsemble(m, P, Q_vals=-P).mean_density()
    Q = P.copy()
    Q[:, 5] *= -1  # K(x_5, x_5) < 0 at one atom
    with pytest.raises(NegativityError, match=re.escape(f"mean density at atom x={m.points[5].item()!r} is -")):
        PolynomialEnsemble(m, P, Q_vals=Q).mean_density()


def test_an_ensemble_refuses_rows_of_the_wrong_shape(cheb3):
    m, P = cheb3.measure, cheb3.P_vals
    with pytest.raises(ValueError, match=r"^basis must be \(rows, n_atoms\) over the measure atoms$"):
        PolynomialEnsemble(m, P[:, 1:])
    with pytest.raises(ValueError, match="^N exceeds available basis rows$"):
        PolynomialEnsemble(m, P, N=4)
    with pytest.raises(ValueError, match=r"^Q_vals must be \(N, n_atoms\)$"):
        PolynomialEnsemble(m, P, N=2, Q_vals=P)


def test_eval_P_kernel_matches_christoffel_darboux(cheb3):
    # K(x, y) = sum_{k<N} P_k(x) P_k(y) off the atoms, from eval_P
    def kernel(x, y):
        return cheb3.eval_P(x)[:, 0] @ cheb3.eval_P(y)[:, 0]

    rng = stream(5)
    for _ in range(100):
        x, y = rng.uniform(-0.99, 0.99, size=2)
        cd = oracles.kernel_by_christoffel_darboux(cheb3, x, y)
        assert np.isclose(kernel(x, y), cd, rtol=1e-10, atol=1e-10)
    # confluent and nearly confluent points stay finite and continuous
    assert np.isfinite(kernel(0.25, 0.25))
    assert np.isclose(kernel(0.3, 0.3 + 1e-13), kernel(0.3, 0.3), rtol=1e-3)


def test_eval_P_matches_basis_rows(cheb3):
    m = cheb3.measure
    vals = cheb3.eval_P(m.points[7], upto=2)
    assert vals.shape == (3, 1)
    assert np.allclose(np.sqrt(m.weights[7]) * vals.ravel(), cheb3.basis[:3, 7], rtol=1e-12)


def test_joint_density_is_kernel_determinant(cheb3):
    L = cheb3.kernel_matrix()
    idx = [3, 17, 30]
    want = np.linalg.det(L[np.ix_(idx, idx)]) / np.prod(cheb3.measure.weights[idx])
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


def test_log_joint_density_normalization_matches_gammaln(monkeypatch):
    # with a unit minor and unit weights the result is exactly -log k!, for
    # k up to 1e5 points
    ens = PolynomialEnsemble(atoms_measure([0.0, 1.0], [1.0, 1.0]), np.eye(2))
    monkeypatch.setattr(PolynomialEnsemble, "_minor", lambda self, idx: (1.0, 0.0, 0.0))
    for k in list(range(1, 2001)) + [10**5]:
        sign, lg = ens.log_joint_density(np.zeros(k, dtype=int))
        want = -oracles.log_factorial_by_gammaln(k)
        assert sign == 1.0
        assert abs(lg - want) <= 1e-15 * abs(want), k


def test_total_mass_of_joint_density(cheb3):
    # brute-force: the unordered subset law sums to one
    pmf = oracles.subset_pmf(cheb3.kernel_matrix(), 3)
    assert np.isclose(sum(pmf.values()), 1.0, atol=1e-10)
    assert min(pmf.values()) > -1e-12


def test_atom_index(cheb3):
    x = cheb3.measure.points[11]
    assert cheb3.atom_index(x) == 11
    assert cheb3.atom_index(x + 1e-14) == 11
    for x in (0.123456, np.nan):
        with pytest.raises(EvaluationError):
            cheb3.atom_index(x)


def test_atom_errors_print_python_scalars(cheb3):
    tilted = cheb3.tilt_nonorthogonal(np.array([[0.0], [0.0], [0.01]]))
    calls = [
        lambda x: tilted.joint_density([x]),
        cheb3.atom_index,
    ]
    for call in calls:
        for x in (np.float64(0.123), np.complex128(0.123 + 0.5j)):
            with pytest.raises(EvaluationError) as info:
                call(x)
            assert "np." not in str(info.value)
            assert str(info.value).startswith(f"{x.item()!r} is not an atom")


def test_circle_ensemble_geometric_kernel():
    table = classical_table("circle", 4, pad=1)
    ens = PolynomialEnsemble.from_table(table, uniform_circle_measure(12), N=4)
    assert ens.hermitian  # the power basis is orthonormal here
    z = ens.measure.points
    L = ens.kernel_matrix()
    want = sum((z[:, None] * z[None, :].conj()) ** k for k in range(4)) / 12
    assert np.max(np.abs(L - want)) < 1e-12


def _monic_chebyshev_c(N, pad):
    """Monic Chebyshev polynomials of the arcsine law: x P_k = P_{k+1} +
    a_{k-1}^2 P_{k-1}, orthogonal but not normal."""
    a = classical_table("chebyshev", N, pad=pad).a
    c = np.zeros((N + pad + 1, 3))
    c[:, 0] = 1.0
    c[1:, 2] = a[:-1] ** 2
    return c


def _table_config(measure, c, q, N):
    entries = [[k, j, float(c[k, j + 1])] for k in range(len(c)) for j in range(-1, q + 1) if c[k, j + 1]]
    return {"measure": measure, "table": {"form": "banded", "q": q, "c": entries}, "N": N}


def test_orthonormal_banded_table_never_inverts_the_gram(monkeypatch):
    # no config reaches the sampler with a Q that misses biorthogonality:
    # every shape builds within BIORTHOGONALITY_TOL, and all but the tilt
    # build hermitian
    from polyens.config import build_ensemble

    def no_inverse(a):
        raise AssertionError("the Gram matrix of orthonormal rows was inverted")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    for name, measure in (
        ("circle", uniform_circle_measure(16)),
        ("chebyshev", equilibrium_measure(-1, 1, 16)),
        ("gue", scaled_hermite_measure(6, 64)),
    ):
        table = classical_table(name, 6, pad=2)
        ens = PolynomialEnsemble.from_table(table, measure, N=6)
        assert ens.Q_vals is None, name
        assert ens.table is table, name
    arcsine = {"kind": "named", "name": "chebyshev-arcsine", "nodes": 64}
    wide = {**arcsine, "alpha": -2, "beta": 2}
    tilt = np.zeros((6, 2))
    tilt[5, 0], tilt[5, 1] = 0.05, 0.05
    configs = {
        "gue": {"classical": "gue", "N": 6, "nodes": 64},
        "chebyshev": {"classical": "chebyshev", "N": 6, "nodes": 64, "pad": 4},
        "uniform-circle": {"classical": "uniform-circle", "N": 6},
        "measure": {"measure": arcsine, "N": 6},
        "orthonormal table": {"measure": arcsine, "table": {"form": "op", "a": [2**-0.5] + [0.5] * 10}, "N": 6},
        "mismatched table": {"measure": wide, "table": {"form": "op", "a": [((k + 1) / 6) ** 0.5 for k in range(11)]},
                             "N": 6},
        "monic table": _table_config(arcsine, _monic_chebyshev_c(8, 4), 1, 8),
        "tilt": {"base": {"classical": "chebyshev", "N": 6, "nodes": 64, "pad": 4}, "tilt": tilt.tolist()},
    }
    for shape, cfg in configs.items():
        ens = build_ensemble(cfg)
        assert ens.biorthogonality_defect() <= BIORTHOGONALITY_TOL, shape
        assert ens.hermitian == (shape != "tilt"), shape


def test_nonorthonormal_banded_table_is_refused_or_rebuilt_from_its_atoms():
    # the circle's power basis is not orthonormal on the arcsine atoms of
    # [-1, 1]: from_table refuses it, and a config on these real atoms builds
    # the OP ensemble of the atoms, the projection onto the same span
    from polyens.config import build_ensemble

    measure = equilibrium_measure(-1, 1, 48)
    table = classical_table("circle", 4, pad=2)
    U = np.sqrt(measure.weights) * eval_polynomials(table, measure.points, 3)
    assert gram_defect(U) > 1e-2
    with pytest.raises(OrthogonalityError, match=r"^its table is not orthonormal on the 48 atoms kept \(Gram defect"):
        PolynomialEnsemble.from_table(table, measure, N=4)
    cfg = _table_config({"kind": "named", "name": "chebyshev-arcsine", "nodes": 48}, table.c, 0, 4)
    ens = build_ensemble(cfg)
    assert ens.hermitian and ens.table.symmetric
    assert ens.biorthogonality_defect() <= 1e-8
    assert np.max(np.abs(ens.kernel_matrix() - PolynomialEnsemble.from_measure(measure, 4).kernel_matrix())) < 1e-12


def test_mismatched_op_table_builds_the_op_ensemble_of_its_atoms():
    # GUE coefficients on the arcsine atoms of [-2, 2]: the rows span the
    # right polynomials but are not orthonormal there, so the config builds
    # the OP ensemble of the atoms, which carries the atoms' own table
    from polyens.config import build_ensemble

    N = 6
    table = classical_table("gue", N, pad=4)
    measure = equilibrium_measure(-2, 2, 64)
    with pytest.raises(OrthogonalityError, match="Gram defect"):
        PolynomialEnsemble.from_table(table, measure, N=N)
    arcsine = {"kind": "named", "name": "chebyshev-arcsine", "alpha": -2, "beta": 2, "nodes": 64}
    ens = build_ensemble({"measure": arcsine, "table": {"form": "op", "a": table.a.tolist()}, "N": N})
    want = PolynomialEnsemble.from_measure(measure, N, pad=4)
    assert ens.hermitian and ens.table.symmetric
    assert np.array_equal(ens.table.c, want.table.c)
    assert np.array_equal(ens.kernel_matrix(), want.kernel_matrix())
    assert abs(np.sum(ens.kernel_diagonal()) - N) < 1e-12
    cfg = sample(ens, rng=stream(2), check_normalization=True)
    assert len(cfg) == N


def test_monic_banded_table_builds_an_ensemble_with_its_moments():
    # monic Chebyshev polynomials are orthogonal but not normal on the
    # arcsine atoms: the config builds the OP ensemble of the atoms, whose
    # kernel diagonal has the monic table's mean moments
    from polyens.config import build_ensemble

    N, pad = 8, 4
    table = banded_table(_monic_chebyshev_c(N, pad), 1, N)
    assert not table.symmetric
    measure = {"kind": "named", "name": "chebyshev-arcsine", "nodes": 64}
    ens = build_ensemble(_table_config(measure, table.c, 1, N))
    assert ens.hermitian and ens.table.symmetric
    assert ens.biorthogonality_defect() <= 1e-8
    x = ens.measure.points
    diag = ens.kernel_diagonal()
    for ell in range(1, 9):
        assert abs(mean_moment(table, ell) - np.sum(x**ell * diag) / N) < 1e-12, ell


def test_an_all_zero_tilt_is_hermitian():
    # Q = P bit for bit: the base ensemble, which spectral thinning accepts
    from polyens import spectral_from_ensemble
    from polyens.config import build_ensemble

    base = {"classical": "chebyshev", "N": 4, "nodes": 32, "pad": 2}
    ens = build_ensemble({"base": base, "tilt": [[0, 0]] * 4})
    assert repr(ens) == "PolynomialEnsemble(chebyshev+tilt, N=4, hermitian, atoms=32)"
    assert np.array_equal(ens.kernel_matrix(), build_ensemble(base).kernel_matrix())
    assert np.array_equal(sample(ens, rng=stream(3)).indices, sample(build_ensemble(base), rng=stream(3)).indices)
    assert np.array_equal(spectral_from_ensemble(ens, [0.5] * 4).phi, ens.P_vals)


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


def _z_powers(powers, nodes):
    """The hermitian ensemble of z^k, k in powers, on the nodes-th roots of
    unity: orthonormal, complex, with no table."""
    m = uniform_circle_measure(nodes)
    return PolynomialEnsemble(m, np.sqrt(m.weights) * np.array([m.points**k for k in powers]))


@pytest.mark.parametrize(
    "cfg",
    [
        {"classical": "uniform-circle", "N": 300, "nodes": 1200},  # 11 blocks of 104 rows, 48, then 8
        {"classical": "uniform-circle", "N": 300, "nodes": 1243},  # n mod 8 = 3
        {"classical": "gue", "N": 100, "nodes": 256},
        {"classical": "uniform-circle", "N": 300, "nodes": 1201},  # n mod 8 = 1
        {"classical": "uniform-circle", "N": 300, "nodes": 1207},  # n mod 8 = 7
        {"classical": "uniform-circle", "N": 6, "nodes": 30},  # one 16-row block, then the last 14
        {"classical": "uniform-circle", "N": 4, "nodes": 5},  # fewer atoms than 8: one block
        {"powers": (0, 1, 3), "nodes": 8},  # hermitian from values, with no real gauge
    ],
)
def test_blocked_kernel_is_the_one_product(cfg):
    from polyens.config import build_ensemble

    ens = _z_powers(cfg["powers"], cfg["nodes"]) if "powers" in cfg else build_ensemble(cfg)
    assert np.array_equal(ens.kernel_matrix(), ens.P_vals.T @ np.conj(ens.q_values))


def test_hermitian_kernel_and_gram_check_hold_no_second_copy():
    # circle N=300 on 1200 atoms: K is 21.97 MiB and the kept basis 5.66 MiB;
    # a mirror through a transposed temporary, or a conjugated copy of the
    # basis, would exceed these bounds
    import tracemalloc

    from polyens.config import build_ensemble

    cfg = {"classical": "uniform-circle", "N": 300, "nodes": 1200}
    tracemalloc.start()
    try:
        ens = build_ensemble(cfg)
        built, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        K = ens.kernel_matrix()
        kernel_peak = tracemalloc.get_traced_memory()[1] - built
    finally:
        tracemalloc.stop()
    assert build_peak < ens.basis.nbytes + (3 << 20)
    assert kernel_peak < K.nbytes + (2 << 20)


@pytest.mark.parametrize(
    "cfg, peak_bytes",
    [
        ({"classical": "uniform-circle", "N": 300, "nodes": 1200}, 1 << 20),
        ({"classical": "gue", "N": 100, "nodes": 256}, None),
        ({"classical": "chebyshev", "N": 200, "nodes": 5000}, None),  # real, 33 row blocks
    ],
)
def test_kernel_diagonal_holds_no_conjugated_basis(cfg, peak_bytes):
    from polyens.config import build_ensemble

    ens = build_ensemble(cfg)
    want = np.einsum("ki,ki->i", ens.P_vals, np.conj(ens.q_values))
    got, peak = traced_peak(ens.kernel_diagonal)
    assert np.array_equal(got, want)
    if peak_bytes is not None:  # the conjugated circle basis alone is 5.76 MB
        assert peak < peak_bytes


def test_overflowing_kernel_is_a_breakdown_error():
    # hand-built rows near 1e200: the basis is finite, its kernel product is not
    ens = PolynomialEnsemble(atoms_measure([0.0, 1.0], [0.5, 0.5]), 1e200 * np.array([[1.0, 2.0]]))
    assert np.isfinite(ens.P_vals).all()
    for call in (ens.kernel_matrix, ens.kernel_diagonal, lambda: ens.log_joint_density([0])):
        with pytest.raises(NumericalBreakdownError, match="N=1 points on 2 atoms"):
            call()


@pytest.mark.parametrize("table", [False, True], ids=["measure", "gue-table"])
def test_gue_400_on_734_atoms_samples(table):
    # the scaled-Hermite atoms of 1024 nodes that keep a weight at N=400
    # reach weights near 1e-320, where the unweighted basis product
    # overflowed; the weighted basis has no entry above 1. The GUE table is
    # not orthonormal on these atoms, so its config builds the OP ensemble
    # of the atoms, as the measure config does
    from polyens.config import build_ensemble

    cfg = {"measure": {"kind": "named", "name": "scaled-hermite", "N": 400, "nodes": 1024}, "N": 400}
    if table:
        cfg["table"] = {"form": "op", "a": np.sqrt(np.arange(1, 405) / 400).tolist(), "N": 400}
    ens = build_ensemble(cfg)
    assert len(ens.measure) == 734 and ens.hermitian and ens.table.symmetric
    assert np.max(np.abs(ens.P_vals)) <= 1.0
    for r in range(2):
        cfg = sample(ens, rng=stream(13, r), check_normalization=True)
        assert np.isfinite(cfg.log_density)
        sign, want = ens.log_joint_density(cfg.indices)
        assert sign == 1.0 and abs(cfg.log_density - want) <= 1e-8 * abs(want)
    if not table:
        # E[sum x^2] = N mean_moment(table, 2), within 4 SE over 100 draws
        sums, logs = sample_replicas(ens, 100, seed=17, statistic=lambda x: float(np.sum(x**2)))
        assert np.isfinite(logs).all()
        se = np.std(sums, ddof=1) / 10
        assert abs(np.mean(sums) - 400 * mean_moment(ens.table, 2)) <= 4 * se


def test_mean_density_at_the_outermost_atom_is_inf_without_a_warning():
    # the GUE N=400 measure ensemble's outermost atoms, x = -+1.921 with
    # weight 1.5e-323: K(x, x) = L_ii / w_i passes the float range, so the
    # density is inf, and the quotient's overflow is no warning (an error in
    # this suite). An inner atom keeps the table's sum of P_k(x)^2 / N
    from polyens.config import build_ensemble

    ens = build_ensemble({"measure": {"kind": "named", "name": "scaled-hermite", "N": 400, "nodes": 1024}, "N": 400})
    x, density = ens.measure.points, ens.mean_density()
    for i in (0, len(x) - 1):
        assert abs(abs(x[i]) - 1.921) < 1e-3
        assert density[i] == math.inf
    i = len(x) // 2
    assert np.isclose(np.sum(ens.eval_P(x[i]) ** 2), ens.N * density[i], rtol=1e-10)


def test_nonreal_kernel_diagonal_is_refused_where_it_is_formed():
    # a real tilt of the circle's complex basis: Im K(x, x) reaches 11% of
    # max |K(x, x)|, so the kernel is no point process
    base = PolynomialEnsemble.from_table(classical_table("circle", 4, pad=2), uniform_circle_measure(16), N=4)
    tilted = base.tilt_nonorthogonal(np.array([[0, 0], [0, 0], [0.3, 0], [0, 0.2]]))
    calls = (
        tilted.kernel_matrix,
        tilted.kernel_diagonal,
        tilted.mean_density,
        lambda: tilted.joint_density([0, 1, 2, 3]),
        lambda: tilted.log_joint_density([0, 1, 2, 3]),
        lambda: tilted.validate_positivity(rng=stream(1)),
        lambda: sample(tilted, rng=stream(1)),
    )
    for call in calls:
        with pytest.raises(PositivityViolationError, match="non-real"):
            call()


def test_nonreal_minor_is_refused_by_every_determinant_user():
    # real diagonal, but det L = 1 - 0.25i
    K = np.array([[1.0, 0.5], [0.5j, 1.0]])
    ens = PolynomialEnsemble(atoms_measure([0.0, 1.0], [0.5, 0.5]), np.eye(2), Q_vals=np.conj(K))
    assert np.array_equal(ens.kernel_matrix(), K)
    for call in (
        lambda: ens.joint_density([0, 1]),
        lambda: ens.log_joint_density([0, 1]),
        lambda: ens.validate_positivity(rng=stream(1)),
    ):
        with pytest.raises(PositivityViolationError, match="non-real determinant"):
            call()
    assert ens.joint_density([1]) == 2.0  # one-point minors are real: L_11 / w_1


@pytest.fixture(scope="module")
def circle300():
    from polyens.config import build_ensemble

    return build_ensemble({"classical": "uniform-circle", "N": 300, "nodes": 1200})


@pytest.mark.parametrize("idx", [np.arange(300), stream(7).choice(1200, 300, replace=False)], ids=["first", "stream7"])
def test_roundoff_complex_minor_has_sign_zero(circle300, idx):
    # numerically singular 300-point minors of the circle kernel: numpy's
    # unit sign reads -0.39 - 0.92i and -0.30 - 0.95i, a phase, not a sign
    assert circle300.log_joint_density(idx, normalized=False) == (0.0, -np.inf)
    assert circle300.joint_density(idx) == 0.0


def test_drawn_complex_minor_keeps_sign_one_and_its_logdet(circle300):
    for i in range(4):
        idx = sample(circle300, rng=stream(11, i)).indices
        sign, logdet, logh = circle300._minor(idx)
        U = circle300.P_vals[:, idx]
        sub = U.T @ np.conj(U)
        d = np.sqrt(np.abs(np.diagonal(sub)))
        phase, scaled = np.linalg.slogdet(sub / np.outer(d, d))
        assert abs(phase.imag) < 1e-9
        assert sign == 1.0 and logdet == scaled + 2.0 * np.sum(np.log(d))
        assert logh == np.sum(np.log(np.abs(np.diagonal(sub))))


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
    tilted = cheb3.tilt_nonorthogonal(np.array([[0.0], [0.0], [0.01]]))
    with pytest.raises(ValueError, match="^tilting starts from a hermitian ensemble$"):
        tilted.tilt_nonorthogonal(np.zeros((3, 1)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_tilt_refuses_a_non_finite_entry(cheb3, value):
    # a NaN tilt built, then read as "the basis product overflows"
    tilt = np.zeros((3, 2))
    tilt[2, 1] = value
    with pytest.raises(ValueError, match=re.escape(f"tilt[2][1] must be finite, got {value}")):
        cheb3.tilt_nonorthogonal(tilt)


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


def test_positivity_scan_of_large_minors_does_not_overflow():
    # max |K| = N = 200, so a k-point minor of K reaches 200^k, past the
    # float range from k = 134 on; the scan compares in logs
    ens = PolynomialEnsemble.from_table(classical_table("circle", 200, pad=1), uniform_circle_measure(400), N=200)
    assert ens.validate_positivity(rng=stream(5), trials=12)


def test_constructor_infers_hermitian():
    m = equilibrium_measure(-1, 1, 8)
    P = np.ones((1, 8))
    ens = PolynomialEnsemble(m, P, Q_vals=P.copy())
    assert ens.hermitian
    ens2 = PolynomialEnsemble(m, P, Q_vals=2.0 * P)
    assert not ens2.hermitian


def test_nonhermitian_kernel_eval_restricted_to_atoms(cheb3):
    # the tilted kernel has values on the atoms only: L_ij / sqrt(w_i w_j) =
    # sum_k P_k(x_i) Q_k(x_j) with Q_k = P_k + sum_j tilt[k, j] P_{N+j}
    tilt = np.array([[0.1, 0.0], [0.0, 0.1], [0.0, 0.0]])
    tilted = cheb3.tilt_nonorthogonal(tilt)
    x, w = tilted.measure.points, tilted.measure.weights
    P = cheb3.eval_P(x, upto=4)
    K = P[:3].T @ (P[:3] + tilt @ P[3:])
    L = tilted.kernel_matrix()
    assert np.allclose(L / np.sqrt(np.outer(w, w)), K, rtol=1e-12, atol=1e-12)
    assert not np.allclose(L, L.T)
    with pytest.raises(EvaluationError, match="only atom values exist"):
        tilted.eval_P(0.1234)


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


def test_biorthogonality_defect_of_a_nan_basis_is_nan():
    measure = equilibrium_measure(-1, 1, 16)
    P = PolynomialEnsemble.from_table(classical_table("chebyshev", 4, pad=0), measure, N=4).P_vals.copy()
    P[2, 5] = np.nan
    assert math.isnan(PolynomialEnsemble(measure, P).biorthogonality_defect())
    assert math.isnan(PolynomialEnsemble(measure, P, Q_vals=P + 0.0).biorthogonality_defect())


def test_a_nan_gram_is_not_within_tolerance():
    # on atoms at +-1e199 and +-1e200 the Chebyshev basis overflows: P_2 is
    # +inf everywhere and P_1 changes sign, so <P_1, P_2> is inf - inf
    measure = atoms_measure(np.array([-1e200, -1e199, 1e199, 1e200]), np.full(4, 0.25))
    table = classical_table("chebyshev", 3, pad=1)
    with np.errstate(all="ignore"):
        assert math.isnan(gram_defect(np.sqrt(measure.weights) * eval_polynomials(table, measure.points, 2)))
        with pytest.raises(OrthogonalityError, match=r"\(Gram defect nan\)$"):
            PolynomialEnsemble.from_table(table, measure, N=3)


def test_biorthogonality_defect_holds_no_full_gram():
    # circle N=300 on 1200 atoms: the weighted or conjugated basis alone is
    # 5.49 MiB, and the full Gram check peaked at 12.36 MiB
    from polyens.config import build_ensemble

    ens = build_ensemble({"classical": "uniform-circle", "N": 300, "nodes": 1200})
    defect, peak = traced_peak(ens.biorthogonality_defect)
    assert defect < 1e-12
    assert peak < 2 << 20


def test_densities_and_positivity_read_minors_not_the_kernel():
    # circle N=300 on 1200 atoms: the n x n kernel is 23 MB; every 4th atom
    # gives the DFT minor K = 300 I, so log det K = 300 log 300
    import tracemalloc

    from polyens.config import build_ensemble

    tracemalloc.start()
    try:
        ens = build_ensemble({"classical": "uniform-circle", "N": 300, "nodes": 1200})
        idx = np.arange(0, 1200, 4)
        sign, logdet = ens.log_joint_density(idx)
        with np.errstate(over="ignore"):
            det = ens.joint_density(idx)  # 300^300 passes the float range
        z = ens.measure.points
        ens.validate_positivity(rng=stream(21))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sign == 1.0 and np.isclose(logdet, 300 * math.log(300) - math.lgamma(301), rtol=1e-12)
    assert det == math.inf
    assert ens._rows is None
    assert peak < len(z) ** 2 * 16
    # K(z, z) = L_ii / w_i = N and K = 0 between atoms 4 apart: the DFT
    K = ens.kernel_matrix() / ens.measure.weights[0]  # equal weights
    assert np.isclose(K[3, 3], 300.0, rtol=1e-12) and abs(K[3, 7]) < 1e-10


def test_more_points_than_atoms_is_a_rank_error_before_the_gram():
    # N = 4 on 3 atoms: an exactly singular Gram, which inverting would
    # report as numpy's "Singular matrix"
    measure = atoms_measure(np.array([-1.0, 0.0, 1.0]), np.full(3, 1 / 3))
    with pytest.raises(RankError, match="N=4 points need 4 distinct atoms; the measure has 3"):
        PolynomialEnsemble.from_table(classical_table("chebyshev", 4), measure)
