import re
import tracemalloc

import numpy as np
import pytest

from polyens import (
    ConditionalState,
    DegenerateDensityError,
    EvaluationError,
    NegativityError,
    NumericalBreakdownError,
    OrthogonalityError,
    PolyensError,
    PolynomialEnsemble,
    PositivityViolationError,
    ReferenceMeasure,
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
from polyens.ensemble import GAUGE_TOL
from polyens.sampler import _drive

import oracles
from conftest import traced_peak


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
        assert np.isclose(oracles.integral(m, d), 1.0, atol=1e-10)
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
        L, w = ens.kernel_matrix(), ens.measure.weights
        for prefix in ([], [0], [3], [3, 1]):
            if len(prefix) >= ens.N:
                continue
            want = oracles.conditional_by_minors(L, prefix) / (w * (ens.N - len(prefix)))
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
        L, w = ens.kernel_matrix(), ens.measure.weights
        for r in range(8):
            cfg = sample(ens, rng=stream(31, r))
            rng = stream(31, r)
            prefix, logp = [], 0.0
            for k in range(ens.N):
                d = oracles.conditional_by_minors(L, prefix) / (w * (ens.N - k))
                idx = ens.measure.sample_categorical(d, rng)
                logp += np.log(d[idx])
                prefix.append(idx)
            assert prefix == cfg.indices.tolist()
            assert abs(logp - cfg.log_density) <= 1e-10 * max(1.0, abs(logp))


def _assert_draws_match_minor_ratios(ens, seed, replicas):
    # the chain driven by determinant ratios of the complex L itself
    L, w = ens.kernel_matrix(), ens.measure.weights
    for r in range(replicas):
        cfg = sample(ens, rng=stream(seed, r))
        rng = stream(seed, r)
        prefix, logp = [], 0.0
        for k in range(ens.N):
            d = oracles.conditional_by_minors(L, prefix) / (w * (ens.N - k))
            idx = ens.measure.sample_categorical(d, rng)
            logp += np.log(d[idx])
            prefix.append(idx)
        assert prefix == cfg.indices.tolist(), (ens.name, r)
        assert abs(logp - cfg.log_density) <= 1e-10 * max(1.0, abs(logp)), (ens.name, r)


def test_circle_ensembles_sample_on_real_rows():
    # conj(d_i) L_ij d_j is real for d_i = exp(i (N-1) arg(x_i) / 2): the
    # sampler keeps real rows, and its draws follow the true complex L
    small = PolynomialEnsemble.from_table(
        classical_table("circle", 3, pad=1), uniform_circle_measure(9), N=3
    )
    for ens, replicas in ((small, 8), (build_ensemble({"classical": "circle", "N": 30}), 3)):
        K = ens.kernel_matrix()
        assert np.iscomplexobj(K)
        d = ens.real_gauge()
        assert d is not None and np.allclose(np.abs(d), 1.0, rtol=0, atol=1e-15)
        gauged = np.conj(d)[:, None] * K * d
        assert np.all(np.abs(gauged.imag) <= 1e-12 * np.sqrt(np.outer(K.diagonal().real, K.diagonal().real)))
        state = ConditionalState(ens)
        assert state._E.dtype == np.float64
        _assert_draws_match_minor_ratios(ens, 37, replicas)


def test_kernel_without_real_gauge_samples_on_complex_rows():
    # z^0, z^1, z^3 are orthonormal on 8 roots of unity, but the gauge turns
    # K = 1 + u + u^3 (u = z conj(w)) into u^(-1) + 1 + u^2, which is complex
    m = uniform_circle_measure(8)
    ens = PolynomialEnsemble(m, np.sqrt(m.weights) * np.array([m.points**k for k in (0, 1, 3)]))
    assert ens.hermitian and ens.biorthogonality_defect() < 1e-12
    assert ens.real_gauge() is None
    assert ConditionalState(ens)._E.dtype == np.complex128
    # with no gauge the one cached array is L itself, complex
    rows, _ = ens.sampler_rows()
    assert rows.dtype == np.complex128 and np.array_equal(rows, ens.kernel_matrix())
    _assert_draws_match_minor_ratios(ens, 37, 8)


def test_kernel_matrix_is_the_callers_own_array():
    # real and non-hermitian kernels: writing to the L a caller gets cannot
    # move a draw, and the rows the sampler caches are read-only
    gue = build_ensemble({"classical": "gue", "N": 10, "nodes": 64})
    tilted = cheb_ensemble(3, 16).tilt_nonorthogonal(np.array([[0.0, 0.0], [0.05, 0.0], [0.0, 0.05]]))
    for ens in (gue, tilted):
        before = sample(ens, rng=stream(1, 0))
        L = ens.kernel_matrix()
        L *= 0.5
        after = sample(ens, rng=stream(1, 0))
        assert np.array_equal(before.indices, after.indices) and before.log_density == after.log_density
        assert np.array_equal(ens.kernel_matrix(), 2 * L)
        for part in ens.sampler_rows():
            assert not part.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0.0


def _same_gauge(ens):
    want = oracles.real_gauge_by_full_scan(ens, GAUGE_TOL)
    got = ens.real_gauge()
    assert (got is None) == (want is None), ens
    assert got is None or np.array_equal(got, want)
    return got


def test_real_gauge_scan_of_the_upper_half_matches_the_full_scan():
    circle = {N: build_ensemble({"classical": "circle", "N": N}) for N in (30, 300)}
    for ens in circle.values():
        assert _same_gauge(ens) is not None
    m = uniform_circle_measure(8)
    assert _same_gauge(PolynomialEnsemble(m, np.sqrt(m.weights) * np.array([m.points**k for k in (0, 1, 3)]))) is None
    # column phases exp(i t u_i) move the gauged kernel G to G_ij exp(i t (u_i - u_j)),
    # so max |Im| grows like t s: scale t to land either side of GAUGE_TOL. u is
    # zero on the first half of the atoms, so the largest |Im| is not in the
    # first row blocks of the scan
    ens = circle[300]
    n = len(ens.measure)
    u = np.where(np.arange(n) < n // 2, 0.0, stream(44).uniform(-1.0, 1.0, n))
    d = ens.real_gauge()
    G = (np.conj(d)[:, None] * ens.kernel_matrix() * d).real
    s = np.max(np.abs(G * (u[:, None] - u))) / np.max(np.diagonal(G))
    for factor in (0.5, 0.9, 1.1, 2.0):
        t = factor * GAUGE_TOL / s
        tilted = PolynomialEnsemble(ens.measure, ens.P_vals * np.exp(1j * t * u))
        assert (_same_gauge(tilted) is None) == (factor > 1), factor


def test_gauged_rows_are_the_kernel_rows_gauged_one_at_a_time():
    # the block build, its mirrored lower half and full-width last block
    # included, gives every row as Re((conj(d_i) L_i.) d) of kernel_matrix(),
    # and the mass as Re L_ii, bit for bit
    for cfg in ({"classical": "circle", "N": 30}, {"classical": "circle", "N": 300, "nodes": 1200}):
        ens = build_ensemble(cfg)
        G, mass = ens.sampler_rows()
        L, d = ens.kernel_matrix(), ens.real_gauge()
        assert G.dtype == np.float64 and d is not None
        for i in range(len(L)):
            assert np.array_equal(G[i], np.real(np.conj(d[i]) * L[i] * d)), (cfg, i)
        assert np.array_equal(mass, L.diagonal().real)
        # L is formed afresh on each call, the same bits, and never cached
        again = ens.kernel_matrix()
        assert again is not L and np.array_equal(again, L)
        assert ens.sampler_rows()[0] is G


def test_a_gauged_draw_holds_no_complex_kernel():
    # circle N=300 on 1200 atoms: the complex L takes n^2 16 bytes (23 MB).
    # The first draw builds the real rows (n^2 8 bytes) block by block and
    # peaks below L; then no complex n x n array is held
    ens = build_ensemble({"classical": "circle", "N": 300, "nodes": 1200})
    n = len(ens.measure)

    def draw():
        state = ConditionalState(ens)
        _drive(state, stream(53))
        return state

    state, peak = traced_peak(draw)
    assert state.k == ens.N
    assert peak < n * n * 16
    for owner in (ens, state):
        for name, value in vars(owner).items():
            for a in value if isinstance(value, tuple) else (value,):
                assert not (isinstance(a, np.ndarray) and np.iscomplexobj(a) and a.size >= n * n), name


def test_refactor_replays_a_real_gauge_state():
    ens = build_ensemble({"classical": "circle", "N": 30})
    state = ConditionalState(ens)
    assert state._E.dtype == np.float64
    rng = stream(43)
    for _ in range(12):
        state.push(ens.measure.sample_mass(state._diag, rng))
    diag, heights, prefix = state._diag.copy(), list(state.heights), state.selected
    state.refactor()
    assert state.selected == prefix
    assert state.heights == heights
    assert np.array_equal(state._diag, diag)


def test_refactor_replays_a_non_hermitian_state():
    tilt = np.zeros((20, 2))
    tilt[18, 0] = tilt[19, 1] = 0.01
    ens = cheb_ensemble(20, 256, pad=4).tilt_nonorthogonal(tilt)
    state = ConditionalState(ens)
    assert state._C is not None
    rng = stream(44)
    for _ in range(12):
        state.push(ens.measure.sample_mass(state._diag, rng))
    diag, heights, prefix = state._diag.copy(), list(state.heights), state.selected
    state.refactor()
    assert state.selected == prefix
    assert state.heights == heights
    assert np.array_equal(state._diag, diag)
    state.push(ens.measure.sample_mass(state._diag, rng))  # and the state goes on
    assert state.k == 13


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
    # the benchmark's gue_mc shape: the log density summed after the draw
    ensembles.append(build_ensemble({"classical": "gue", "N": 100, "nodes": 256}))
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
            # the draw sums log mass - log w - log(N - k), not log density
            assert abs(logp - cfg.log_density) <= 1e-12 * abs(logp), (ens.name, r)


def _tilted_chebyshev(N, nodes, pad):
    """The benchmark's non-hermitian shape: Q_{N-2} = P_{N-2} + 0.01 P_N and
    Q_{N-1} = P_{N-1} + 0.01 P_{N+1}."""
    tilt = np.zeros((N, 2))
    tilt[N - 2, 0] = tilt[N - 1, 1] = 0.01
    base = build_ensemble({"classical": "chebyshev", "N": N, "nodes": nodes, "pad": pad})
    return base.tilt_nonorthogonal(tilt, validate=True)


def _phase_tilted_circle():
    # per-atom phases exp(i u_i) are a diagonal unitary similarity of K that
    # the unit-circle gauge does not undo: complex rows
    circle = build_ensemble({"classical": "circle", "N": 30})
    u = stream(44).uniform(-1.0, 1.0, len(circle.measure))
    return PolynomialEnsemble(circle.measure, circle.P_vals * np.exp(1j * u))


# (row kind, builder): every kind of sampler row, three of them at the
# benchmark's sampling shapes
STEP_ENSEMBLES = {
    "gue-100-256": ("real", lambda: build_ensemble({"classical": "gue", "N": 100, "nodes": 256})),
    "circle-300-1200": (
        "gauge-real",
        lambda: build_ensemble({"classical": "circle", "N": 300, "nodes": 1200}),
    ),
    "phase-tilted-circle-30": ("complex", _phase_tilted_circle),
    "tilted-chebyshev-100-256": ("non-hermitian", lambda: _tilted_chebyshev(100, 256, 4)),
    "chebyshev-30": ("real", lambda: build_ensemble({"classical": "chebyshev", "N": 30})),
}


def _row_kind(state):
    if state._C is not None:
        return "non-hermitian"
    if state.ensemble.real_gauge() is not None:
        return "gauge-real"
    return "real" if state._E.dtype == np.float64 else "complex"


@pytest.mark.parametrize("name", list(STEP_ENSEMBLES))
def test_sample_matches_the_allocating_step_bit_for_bit(name):
    # the in-place step against the step that allocates every row, product
    # and downdate: the same draws, pivots, residual masses and rows
    kind, make = STEP_ENSEMBLES[name]
    ens = make()
    assert _row_kind(ConditionalState(ens)) == kind
    for r in range(5):
        ref = oracles.AllocatingChain(ens)
        indices, log_density = ref.sample(stream(19, r))
        cfg = sample(ens, rng=stream(19, r))
        assert np.array_equal(cfg.indices, indices), r
        assert cfg.log_density == log_density, r
        state = ConditionalState(ens)
        again = _drive(state, stream(19, r))
        assert np.array_equal(again.indices, indices) and again.log_density == log_density, r
        assert state.heights == ref.heights, r
        assert np.array_equal(state._diag, ref.diag), r
        assert np.array_equal(state._E, ref.E), r
        assert state._C is None or np.array_equal(state._C, ref.C), r


@pytest.mark.parametrize("name", list(STEP_ENSEMBLES))
def test_push_and_the_draw_run_one_step_loop(name):
    # conditioning on the drawn indices, each one checked, ends in the state
    # the draw left, bit for bit; a repeated atom is refused at its second
    # occurrence, when the prefix has been read that far and no further
    ens = STEP_ENSEMBLES[name][1]()
    drawn = ConditionalState(ens)
    cfg = _drive(drawn, stream(31))
    given = ConditionalState.from_prefix(ens, cfg.indices)
    assert given.heights == drawn.heights
    assert np.array_equal(given._E, drawn._E) and np.array_equal(given._diag, drawn._diag)
    assert given._C is drawn._C is None or np.array_equal(given._C, drawn._C)
    read = []

    def prefix():
        for idx in [*cfg.indices[:7], cfg.indices[3], *cfg.indices[7:]]:
            read.append(idx)
            yield idx

    with pytest.raises(ValueError, match=f"atom {cfg.indices[3]} has residual mass 0.000e"):
        ConditionalState.from_prefix(ens, prefix())
    assert len(read) == 8


def test_consecutive_draws_from_one_stream_match_the_allocating_step():
    for name in ("gue-100-256", "phase-tilted-circle-30", "tilted-chebyshev-100-256"):
        ens = STEP_ENSEMBLES[name][1]()
        rng, ref_rng = stream(21), stream(21)
        for draw in range(2):
            cfg = sample(ens, rng=rng)
            indices, log_density = oracles.AllocatingChain(ens).sample(ref_rng)
            assert np.array_equal(cfg.indices, indices), (name, draw)
            assert cfg.log_density == log_density, (name, draw)


@pytest.mark.parametrize("name", list(STEP_ENSEMBLES))
def test_a_draw_reads_one_uniform_per_point(name):
    # a batched sampler must keep this: replica r's N points read the first
    # N uniforms of stream(seed, r), and nothing else
    ens = STEP_ENSEMBLES[name][1]()
    for r in range(3):
        rng = stream(29, r)
        sample(ens, rng=rng)
        assert rng.random() == stream(29, r).random(ens.N + 1)[ens.N], r


@pytest.mark.parametrize("name", ["gue", "circle"])
def test_a_draw_that_fails_past_its_first_point_has_read_its_block(name):
    # the draw reads its N - k uniforms as one block once the first mass is
    # validated, so a draw refused at a later step has read exactly that
    # block. Doubled rows define no point process: the mass after the first
    # drawn point dips below zero, from a fresh state and after a prefix
    ens = build_ensemble({"classical": name, "N": 10, "nodes": 64})
    for prefix in ([], [3, 17]):
        for r in range(3):
            state = ConditionalState.from_prefix(ens, prefix)
            state.rows = 2 * state.rows
            rng = stream(9, r)
            with pytest.raises(PositivityViolationError, match=f"after {len(prefix) + 1} points"):
                _drive(state, rng)
            block = ens.N - len(prefix)
            assert rng.random() == stream(9, r).random(block + 1)[block], (prefix, r)


def _traced_peak(step):
    """Bytes by which step() raises tracemalloc's peak above what was
    traced just before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        step()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_step_allocates_less_than_one_row():
    # the step writes into buffers the state owns: at k=50 on the gue_mc
    # shape and on the circle's real gauged rows neither the draw nor push
    # raises the peak by a row of n doubles, and a whole draw of a built
    # state holds O(N), 16 doubles a point, where a row a point is 8 N n bytes
    for cfg in ({"classical": "gue", "N": 100, "nodes": 256}, {"classical": "circle", "N": 300, "nodes": 1200}):
        ens = build_ensemble(cfg)
        m = ens.measure
        state = ConditionalState(ens)
        rng = stream(47)
        for _ in range(50):
            state.push(m._inverse_cdf(state._diag, rng.random, state._cdf))
        row = 8 * len(m)
        assert _traced_peak(lambda: m._inverse_cdf(state._diag, rng.random, state._cdf)) < row, cfg
        idx = m._inverse_cdf(state._diag, rng.random, state._cdf)
        assert _traced_peak(lambda: state.push(idx)) < row, cfg
        assert state.k == 51
        state, rng = ConditionalState(ens), stream(48)
        assert _traced_peak(lambda: _drive(state, rng)) < 16 * 8 * ens.N, cfg
        assert state.k == ens.N
    assert ens.real_gauge() is not None and state.rows.dtype == np.float64


def test_conditioned_atoms_hold_exactly_zero_mass():
    # R_k vanishes on the atoms conditioned on, so their residual mass is
    # exactly 0.0, and no step of a draw meets a negative mass: real and
    # complex hermitian kernels, and the benchmark's non-hermitian tilt
    tilt = np.zeros((100, 2))
    tilt[98, 0] = tilt[99, 1] = 0.01
    base = build_ensemble({"classical": "chebyshev", "N": 100, "nodes": 256, "pad": 4})
    ensembles = [
        build_ensemble({"classical": "gue", "N": 100, "nodes": 256}),
        build_ensemble({"classical": "circle", "N": 300, "nodes": 1200}),
        base.tilt_nonorthogonal(tilt, validate=True),
    ]
    assert [e.hermitian for e in ensembles] == [True, True, False]
    for ens in ensembles:
        for r in range(3):
            rng = stream(41, r)
            state = ConditionalState(ens)
            for _ in range(ens.N):
                assert state._diag.min() >= 0.0, (ens.name, r, state.k)
                state.push(ens.measure.sample_mass(state._diag, rng))
                assert not np.any(state._diag[state.selected]), (ens.name, r, state.k)
            assert state.selected == sample(ens, rng=stream(41, r)).indices.tolist()


def test_push_refuses_a_repeated_or_unknown_atom():
    for name in ("gue", "circle"):
        ens = build_ensemble({"classical": name, "N": 10, "nodes": 64})
        with pytest.raises(ValueError, match="atom 3 has residual mass 0.000e"):
            conditional_density(ens, [3, 3])
        state = ConditionalState(ens)
        for idx in (-1, 64):
            with pytest.raises(ValueError, match=f"atom {idx} is outside 0..63"):
                state.push(idx)
        assert state.k == 0


def test_a_full_state_refuses_another_point(e3):
    state = ConditionalState.from_prefix(e3, [2, 9, 5])
    for step in (lambda: state.push(0), state.density_all):
        with pytest.raises(ValueError, match="^all N points are already conditioned on$"):
            step()
    assert state.k == 3


def test_push_refuses_an_index_that_is_not_an_integer():
    # an atom value is not an index: truncated, 1.0592 (atom 40) would
    # condition on atom 1
    ens = build_ensemble({"classical": "gue", "N": 10, "nodes": 64})
    state = ConditionalState(ens)
    for idx, shown in ((3.7, "3.7"), ("5", "'5'"), (True, "True"), (np.float64(3.0), "3.0"), (np.True_, "True")):
        with pytest.raises(ValueError, match=re.escape(f"atom index {shown} is not an integer")) as info:
            state.push(idx)
        assert "PolynomialEnsemble.atom_index" in str(info.value)
    assert state.k == 0
    for idx in (np.int64(3), np.uint8(5), np.array(7), 9):
        state.push(idx)
    assert state.selected == [3, 5, 7, 9]
    x = ens.measure.points[40].item()
    assert abs(x - 1.0592) < 1e-4
    with pytest.raises(ValueError, match=re.escape(f"atom index {x!r} is not an integer")):
        conditional_density(ens, [x])
    assert conditional_density(ens, [ens.atom_index(x)])[40] == 0.0


def _poisoned_states():
    """(state, error, match): a sampler state whose residual diagonal has
    been overwritten so that its next step must refuse to draw."""
    e3 = cheb_ensemble(3, 16)
    x = e3.measure.points

    def state(ens=e3):
        return ConditionalState(ens)

    s = state()
    s._diag[5] = np.nan
    yield s, EvaluationError, re.escape(repr(x[5].item()))
    s = state()
    s._diag[9] = np.inf
    yield s, EvaluationError, re.escape(repr(x[9].item()))
    s = state()
    s._diag[2] = -np.inf
    yield s, EvaluationError, re.escape(repr(x[2].item()))
    # every mass finite (weight 1.5, density diag / 2), their sum is not
    heavy = PolynomialEnsemble.from_measure(
        atoms_measure(np.linspace(-1.0, 1.0, 8), np.full(8, 1.5)), 2, pad=1
    )
    s = state(heavy)
    s._diag[:] = 1.7e308
    yield s, PolyensError, "mass"
    s = state()
    s._diag[4] = -0.5 * s._diag.max()
    yield s, PositivityViolationError, "no point process after 0 points.*" + re.escape(
        repr(x[4].item())
    )
    # a non-finite mass is named before a negative one elsewhere
    s = state()
    s._diag[4] = -0.5 * s._diag.max()
    s._diag[9] = np.inf
    yield s, EvaluationError, re.escape(repr(x[9].item()))
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
        with pytest.raises(err, match=match) as info:
            _drive(state, rng)
        assert "np.float64" not in str(info.value)
        assert state.k == 0
        assert rng.random() == stream(6).random()  # nothing was drawn


def test_normalization_check_refuses_to_draw(e3):
    state = ConditionalState(e3)
    state._diag *= 1.5
    rng = stream(6)
    with pytest.raises(NumericalBreakdownError, match="integrates to"):
        _drive(state, rng, check_normalization=True)
    assert state.k == 0
    assert rng.random() == stream(6).random()  # nothing was drawn


class _TopUniform:
    """Stub rng whose every uniform is the largest double below 1."""

    def random(self, size=None):
        u = np.nextafter(1.0, 0.0)
        return u if size is None else np.full(size, u)


def test_top_uniform_draws_the_last_atom_with_mass():
    # zero-mass atoms before, between and after the ones with mass; the
    # inverse CDF must stop at the last atom with mass, never past the end
    zeros = [0, 2, 3, 5, 6, 7]
    m = atoms_measure(np.arange(8.0), np.full(8, 0.5))
    dens = np.array([0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
    assert m.sample_categorical(dens, _TopUniform()) == 4
    assert m.sample_categorical(dens, _TopUniform(), size=3).tolist() == [4, 4, 4]
    state = ConditionalState(cheb_ensemble(1, 8, pad=1))
    state._diag[zeros] = 0.0
    cfg = _drive(state, _TopUniform())
    assert cfg.indices.tolist() == [4]
    assert np.isfinite(cfg.log_density)


def test_sampler_draws_from_the_residual_mass(monkeypatch):
    # each step draws straight from the residual mass: neither the public
    # conditional density nor the density-weighted draw is on the path
    ensembles = [
        build_ensemble({"classical": name, "N": 30}) for name in ("gue", "chebyshev", "circle")
    ]
    tilt = np.zeros((30, 2))
    tilt[28, 0] = tilt[29, 1] = 0.01
    ensembles.append(cheb_ensemble(30, 256, pad=2).tilt_nonorthogonal(tilt, validate=True))
    want = [[sample(ens, rng=stream(23, r)).indices for r in range(3)] for ens in ensembles]

    def refuse(*args, **kwargs):
        raise AssertionError("called while sampling")

    monkeypatch.setattr(ConditionalState, "density_all", refuse)
    monkeypatch.setattr(ReferenceMeasure, "sample_categorical", refuse)
    for ens, rows in zip(ensembles, want):
        for r, idx in enumerate(rows):
            assert np.array_equal(sample(ens, rng=stream(23, r)).indices, idx), (ens.name, r)


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
    pmf = oracles.subset_pmf(e2.kernel_matrix(), 2)
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
    pmf = oracles.subset_pmf(tilted.kernel_matrix(), 2)
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
    for r in range(5):
        cfg = sample(e3, rng=stream(11, r))
        assert np.array_equal(idx[r], cfg.indices)
        assert logs[r] == cfg.log_density


def test_sample_replicas_counts(e3):
    idx, logs = sample_replicas(e3, 0, seed=11)
    assert idx.shape == (0, 3)
    assert logs.shape == (0,)
    with pytest.raises(ValueError, match="n_replicas"):
        sample_replicas(e3, -2, seed=11)


def test_sample_replicas_statistic(e3):
    vals, logs = sample_replicas(e3, 4, seed=9, statistic=lambda p: float(np.sum(p)))
    assert vals.shape == (4,)
    assert np.all(np.isfinite(vals))
    assert np.all(np.isfinite(logs))


def test_spectral_data_validation(e3):
    P = e3.P_vals
    with pytest.raises(ValueError):
        SpectralData(np.array([0.5, 1.5, 0.5]), P, e3.measure)
    with pytest.raises(ValueError, match="contraction needs"):
        spectral_from_ensemble(e3, [np.nan, 0.5, 0.5])
    with pytest.raises(OrthogonalityError):
        SpectralData(np.array([0.5, 0.5, 0.5]), P + 0.3, e3.measure)
    with pytest.raises(ValueError, match=r"^phi must be \(rank, n_atoms\)$"):
        SpectralData(np.array([0.5, 0.5]), P, e3.measure)
    with pytest.raises(ValueError, match="^more coefficients than kernel rank$"):
        spectral_from_ensemble(e3, [0.5] * 4)
    sd = spectral_from_ensemble(e3, [1.0, 1.0, 1.0])
    assert np.allclose(sd.intensity(), e3.mean_density() * 3, rtol=1e-10)


def test_spectral_thinning_refuses_a_non_hermitian_ensemble():
    # P paired with P would not be this kernel: at every lambda = 1/2 its
    # spectral kernel is 0.18 away from K / 2
    tilt = np.zeros((4, 2))
    tilt[2, 0] = tilt[3, 1] = 0.1
    tilted = cheb_ensemble(4, 16, pad=2).tilt_nonorthogonal(tilt)
    with pytest.raises(ValueError, match="hermitian"):
        spectral_from_ensemble(tilted, [0.5] * 4)


def test_thinning_edge_probabilities(e3):
    sd = spectral_from_ensemble(e3, [1.0, 0.0, 1.0])
    thin, keep = thin_contraction(sd, rng=stream(8))
    assert keep.tolist() == [True, False, True]
    assert thin.N == 2
    sd_all = spectral_from_ensemble(e3, [1.0, 1.0, 1.0])
    thin_all, _ = thin_contraction(sd_all, rng=stream(9))
    assert np.max(np.abs(thin_all.kernel_matrix() - e3.kernel_matrix())) < 1e-12


def test_spectral_data_holds_one_family_and_thins_to_hermitian_ensembles(e3):
    # a thinned biorthogonal projection need not be a point process, so the
    # spectral data of a contraction is one orthonormal family
    assert list(SpectralData.__dataclass_fields__) == ["lambdas", "phi", "measure"]
    sd = spectral_from_ensemble(e3, [0.5, 0.5, 0.5])
    for seed in range(4):
        thin, keep = thin_contraction(sd, rng=stream(seed))
        assert thin.hermitian and np.array_equal(thin.P_vals, e3.P_vals[keep])


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
    # singleton occupation vs L_xx = K(x,x) w, 3 binomial SEs per atom
    ens = cheb_ensemble(2, 12, pad=1)
    R = 100_000
    rows, _ = sample_replicas(ens, R, seed=303)
    freq = np.bincount(rows.ravel(), minlength=len(ens.measure)) / R
    p = np.real(np.diag(ens.kernel_matrix()))
    se = np.sqrt(p * (1.0 - p) / R)
    assert np.all(np.abs(freq - p) <= 3.0 * se)


def test_spectral_data_refuses_a_nan_family(e3):
    phi = e3.P_vals.copy()
    phi[1, 4] = np.nan
    with pytest.raises(OrthogonalityError):
        SpectralData(np.full(3, 0.5), phi, e3.measure)


def test_spectral_data_check_holds_no_full_gram():
    # circle N=300 on 1200 atoms: the weighted or conjugated family alone is
    # 5.49 MiB, and the full Gram check peaked at 12.36 MiB
    ens = build_ensemble({"classical": "uniform-circle", "N": 300, "nodes": 1200})
    P = ens.P_vals
    sd, peak = traced_peak(lambda: SpectralData(np.full(300, 0.5), P, ens.measure))
    assert sd.rank == 300
    assert peak < 2 << 20
