import os
import re
import subprocess
import sys

import numpy as np
import pytest

from polyens import (
    ConditionalState,
    ConfigError,
    DegenerateDensityError,
    EvaluationError,
    NegativityError,
    OrthogonalityError,
    PolyensError,
    PolynomialEnsemble,
    SpectralData,
    atoms_measure,
    classical_table,
    conditional_density,
    equilibrium_measure,
    sample,
    sample_replicas,
    spectral_from_ensemble,
    stream,
    thin_contraction,
    uniform_circle_measure,
)

from polyens.config import build_ensemble
from polyens.sampler import _drive

import oracles


def cheb_ensemble(N, atoms, pad=3):
    table = classical_table("chebyshev", N, pad=pad)
    return PolynomialEnsemble.from_table(table, equilibrium_measure(-1, 1, atoms), N=N)


@pytest.fixture
def e2():
    return cheb_ensemble(2, 4, pad=1)


@pytest.fixture
def e3():
    return cheb_ensemble(3, 16)


def test_first_conditional_is_mean_density(e3):
    assert np.allclose(conditional_density(e3, []), e3.mean_density(), rtol=1e-12)


def test_conditionals_normalize(e3):
    m = e3.measure
    for prefix in ([], [2], [2, 9]):
        d = conditional_density(e3, prefix)
        assert np.isclose(m.integrate(d), 1.0, atol=1e-10)
        assert d.min() > -1e-12


def chain_ensembles():
    """The hermitian e3, a tilted e2, and a tilted e3: with N = 3 the
    residual row and column of a second point enter the conditionals."""
    e3 = cheb_ensemble(3, 16)
    tilted = [
        cheb_ensemble(2, 4, pad=1).tilt_nonorthogonal(
            np.array([[0.05, 0.0], [0.0, 0.05]]), validate=True
        ),
        e3.tilt_nonorthogonal(np.array([[0.0, 0.0], [0.05, 0.0], [0.0, 0.05]]), validate=True),
    ]
    assert not any(e.hermitian for e in tilted)
    return [e3] + tilted


def test_conditionals_match_minor_ratios():
    for ens in chain_ensembles():
        K = ens.kernel_matrix()
        for prefix in ([], [0], [3], [3, 1]):
            if len(prefix) >= ens.N:
                continue
            want = oracles.conditional_by_minors(K, prefix) / (ens.N - len(prefix))
            assert np.max(np.abs(conditional_density(ens, prefix) - want)) < 1e-12


def test_heights_match_consecutive_minor_ratios():
    for ens in chain_ensembles():
        K = ens.kernel_matrix()
        order = [3, 0, 2][: ens.N]
        state = ConditionalState(ens)
        for idx in order:
            state.push(idx)
        want = [oracles.conditional_by_minors(K, order[:k])[order[k]] for k in range(ens.N)]
        assert np.allclose(state.heights, want, rtol=1e-11)


def test_minor_ratio_draw_matches_sample():
    # a draw driven by the oracle conditionals consumes the same stream
    for ens in chain_ensembles():
        K = ens.kernel_matrix()
        for r in range(8):
            cfg = sample(ens, rng=stream(31, r))
            rng = stream(31, r)
            prefix, logp = [], 0.0
            for k in range(ens.N):
                d = oracles.conditional_by_minors(K, prefix) / (ens.N - k)
                idx = ens.measure.sample_categorical(d, rng)
                logp += np.log(d[idx])
                prefix.append(idx)
            assert prefix == cfg.indices.tolist()
            assert abs(logp - cfg.log_density) <= 1e-10 * max(1.0, abs(logp))


def test_sample_matches_choice_oracle_chain():
    # the chain driven step by step through Generator.choice draws the same
    # points with the same log density from the same stream
    ensembles = [
        build_ensemble({"classical": name, "N": 30}) for name in ("gue", "chebyshev", "circle")
    ]
    tilt = np.zeros((30, 2))
    tilt[28, 0] = tilt[29, 1] = 0.01
    ensembles.append(cheb_ensemble(30, 256, pad=2).tilt_nonorthogonal(tilt, validate=True))
    assert not ensembles[-1].hermitian
    for ens in ensembles:
        for r in range(5):
            cfg = sample(ens, rng=stream(17, r))
            rng = stream(17, r)
            state = ConditionalState(ens)
            logp = 0.0
            for _ in range(ens.N):
                d = state.density_all()
                idx = oracles.draw_by_choice(ens.measure, d, rng)
                logp += float(np.log(d[idx]))
                state.push(idx)
            assert state.selected == cfg.indices.tolist(), (ens.name, r)
            assert logp == cfg.log_density, (ens.name, r)


def _poisoned_states():
    """(state, error, match): a sampler state whose residual diagonal has
    been overwritten so that its next step must refuse to draw."""
    e3 = cheb_ensemble(3, 16)
    x = e3.measure.points

    def state(ens=e3):
        return ConditionalState(ens)

    s = state()
    s._diag[5] = np.nan
    yield s, EvaluationError, re.escape(repr(x[5]))
    s = state()
    s._diag[9] = np.inf
    yield s, EvaluationError, re.escape(repr(x[9]))
    s = state()
    s._diag[2] = -np.inf
    yield s, EvaluationError, re.escape(repr(x[2]))
    # every mass finite (weight 1.5, density diag / 2), their sum is not
    heavy = PolynomialEnsemble.from_measure(
        atoms_measure(np.linspace(-1.0, 1.0, 8), np.full(8, 1.5)), 2, pad=1
    )
    s = state(heavy)
    s._diag[:] = 1.7e308
    yield s, PolyensError, "mass"
    s = state()
    s._diag[4] = -0.5 * s._diag.max()
    yield s, NegativityError, re.escape(repr(x[4]))
    s = state()
    s._diag[:] = 0.0
    yield s, DegenerateDensityError, "vanishes"
    s = state()
    s._diag = s._diag.astype(complex)
    s._diag[7] += 0.5j
    yield s, NegativityError, "complex"


def test_poisoned_state_refuses_to_draw():
    for state, err, match in _poisoned_states():
        rng = stream(6)
        with pytest.raises(err, match=match):
            _drive(state, rng)
        assert state.k == 0
        assert rng.random() == stream(6).random()  # nothing was drawn


def test_chain_rule_reproduces_joint_density(e3):
    # product of conditional heights equals the normalized joint density
    state = ConditionalState(e3)
    logp = 0.0
    for idx in (3, 8, 14):
        d = state.density_all()
        logp += np.log(d[idx])
        state.push(idx)
    sign, lg = e3.log_joint_density([3, 8, 14])
    assert sign == 1.0
    assert np.isclose(logp, lg, rtol=1e-10)
    assert state.base_times_height_check() < 1e-9


def test_gue_log_density_matches_joint_density():
    # the kernel diagonal spans 32 to 1e135 here; the joint density's minor
    # must be scaled by it to agree with the chain rule
    ens = build_ensemble({"classical": "gue", "N": 100, "nodes": 256})
    for r in range(30):
        cfg = sample(ens, rng=stream(1, r))
        sign, lg = ens.log_joint_density(cfg.indices)
        assert sign == 1.0
        assert abs(lg - cfg.log_density) <= 1e-12 * abs(cfg.log_density)


def test_gue_prefix_determinant_matches_pivots_at_n200():
    ens = build_ensemble({"classical": "gue", "N": 200, "nodes": 512})
    for r in range(10):
        cfg = sample(ens, rng=stream(1, r))
        assert ConditionalState.from_prefix(ens, cfg.indices).base_times_height_check() < 1e-9


def test_sample_is_deterministic_per_stream(e3):
    a = sample(e3, rng=stream(42, 7))
    b = sample(e3, rng=stream(42, 7))
    assert np.array_equal(a.indices, b.indices)
    assert a.log_density == b.log_density
    assert len(a) == 3
    assert np.all(np.diff(np.sort(a.indices)) > 0)  # no repeats


def test_sample_log_density_matches_joint(e3):
    cfg = sample(e3, rng=stream(1, 0))
    _, lg = e3.log_joint_density(sorted(cfg.indices))
    assert np.isclose(cfg.log_density, lg, rtol=1e-10)


def test_empirical_pair_law_op(e2):
    pmf = oracles.subset_pmf(e2.kernel_matrix(), e2.measure.weights, 2)
    rng = stream(2024)
    counts = {}
    R = 20_000
    for _ in range(R):
        cfg = sample(e2, rng=rng, check_normalization=True)
        key = tuple(sorted(cfg.indices))
        counts[key] = counts.get(key, 0) + 1
    tv = 0.5 * sum(abs(counts.get(k, 0) / R - p) for k, p in pmf.items())
    assert tv < 0.03


def test_empirical_pair_law_tilted(e2):
    tilted = e2.tilt_nonorthogonal(np.array([[0.05, 0.0], [0.0, 0.05]]), validate=True)
    pmf = oracles.subset_pmf(tilted.kernel_matrix(), tilted.measure.weights, 2)
    assert np.isclose(sum(pmf.values()), 1.0, atol=1e-10)
    rng = stream(77)
    counts = {}
    R = 20_000
    for _ in range(R):
        cfg = sample(tilted, rng=rng, check_normalization=True)
        key = tuple(sorted(cfg.indices))
        counts[key] = counts.get(key, 0) + 1
    tv = 0.5 * sum(abs(counts.get(k, 0) / R - p) for k, p in pmf.items())
    assert tv < 0.03


def test_circle_sampling_runs():
    table = classical_table("circle", 3, pad=1)
    ens = PolynomialEnsemble.from_table(table, uniform_circle_measure(9), N=3)
    cfg = sample(ens, rng=stream(5), check_normalization=True)
    assert len(cfg) == 3
    assert np.iscomplexobj(cfg.points)


def test_sample_replicas_shapes_and_determinism(e3):
    idx, logs = sample_replicas(e3, 5, seed=11)
    assert idx.shape == (5, 3)
    assert logs.shape == (5,)
    idx2, logs2 = sample_replicas(e3, 5, seed=11)
    assert np.array_equal(idx, idx2)
    # replica r depends only on (seed, r), not on the batch size
    idx3, _ = sample_replicas(e3, 3, seed=11)
    assert np.array_equal(idx[:3], idx3)


def test_sample_replicas_statistic(e3):
    vals, logs = sample_replicas(e3, 4, seed=9, statistic=lambda p: float(np.sum(p)))
    assert vals.shape == (4,)
    assert np.all(np.isfinite(vals))
    assert np.all(np.isfinite(logs))


WORKER_SCRIPT = """
import numpy as np
from polyens import classical_table, equilibrium_measure, PolynomialEnsemble, sample_replicas
t = classical_table("chebyshev", 2, pad=1)
e = PolynomialEnsemble.from_table(t, equilibrium_measure(-1, 1, 8), N=2)
idx, logs = sample_replicas(e, 8, seed=123)
sums, _ = sample_replicas(e, 8, seed=123, statistic=lambda p: float(np.sum(p)))
print(idx.tolist(), logs.tolist(), sums.tolist())
"""


def test_worker_fanout_matches_serial():
    # POLYENS_THREADS only changes scheduling, never the draws
    outs = []
    for workers in ("1", "2"):
        env = dict(os.environ, POLYENS_THREADS=workers)
        r = subprocess.run(
            [sys.executable, "-c", WORKER_SCRIPT], capture_output=True, text=True, env=env
        )
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]


def test_worker_count_must_be_an_integer(e3, monkeypatch):
    monkeypatch.setenv("POLYENS_THREADS", "two")
    with pytest.raises(ConfigError):
        sample_replicas(e3, 4, seed=1)


def test_spectral_data_validation(e3):
    P = e3.P_vals
    with pytest.raises(ValueError):
        SpectralData(np.array([0.5, 1.5, 0.5]), P, P, e3.measure)
    with pytest.raises(OrthogonalityError):
        SpectralData(np.array([0.5, 0.5, 0.5]), P, P + 0.3, e3.measure)
    sd = spectral_from_ensemble(e3, [1.0, 1.0, 1.0])
    assert np.allclose(sd.intensity(), e3.mean_density() * 3, rtol=1e-10)


def test_thinning_edge_probabilities(e3):
    sd = spectral_from_ensemble(e3, [1.0, 0.0, 1.0])
    thin, keep = thin_contraction(sd, rng=stream(8))
    assert keep.tolist() == [True, False, True]
    assert thin.N == 2
    sd_all = spectral_from_ensemble(e3, [1.0, 1.0, 1.0])
    thin_all, _ = thin_contraction(sd_all, rng=stream(9))
    assert np.max(np.abs(thin_all.kernel_matrix() - e3.kernel_matrix())) < 1e-12


def test_thinning_zero_rank_gives_empty_configuration(e3):
    sd = spectral_from_ensemble(e3, [0.0, 0.0, 0.0])
    thin, keep = thin_contraction(sd, rng=stream(10))
    assert thin.N == 0 and not keep.any()
    cfg = sample(thin, rng=stream(11))
    assert len(cfg) == 0
    assert cfg.log_density == 0.0


def test_thinned_intensity_monte_carlo(e3):
    sd = spectral_from_ensemble(e3, [0.8, 0.5, 0.2])
    expected = sd.intensity() * e3.measure.weights
    rng = stream(1234)
    R = 4000
    counts = np.zeros(len(e3.measure))
    for _ in range(R):
        thin, _ = thin_contraction(sd, rng)
        if thin.N:
            counts[sample(thin, rng=rng).indices] += 1
    assert 0.5 * np.abs(counts / R - expected).sum() < 0.05


def test_exchangeability_two_seed_chi_square():
    # sorted-tuple pmfs from independent seeds are homogeneous
    import scipy.stats

    ens = cheb_ensemble(2, 12, pad=1)
    n = len(ens.measure)
    counts = np.zeros((2, n * n))
    for r, seed in enumerate((101, 202)):
        rows, _ = sample_replicas(ens, 10_000, seed=seed)
        s = np.sort(rows, axis=1)
        np.add.at(counts[r], s[:, 0] * n + s[:, 1], 1)
    keep = counts.sum(axis=0) > 0
    _, pval, _, _ = scipy.stats.chi2_contingency(counts[:, keep])
    assert pval > 0.01


def test_one_point_intensity_matches_kernel_diagonal():
    # singleton occupation vs K(x,x) w, 3 binomial SEs per atom
    ens = cheb_ensemble(2, 12, pad=1)
    R = 100_000
    rows, _ = sample_replicas(ens, R, seed=303)
    freq = np.bincount(rows.ravel(), minlength=len(ens.measure)) / R
    p = np.real(np.diag(ens.kernel_matrix())) * ens.measure.weights
    se = np.sqrt(p * (1.0 - p) / R)
    assert np.all(np.abs(freq - p) <= 3.0 * se)
