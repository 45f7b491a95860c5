"""Independent brute-force routes used to pin down expected values.

Everything here is deliberately naive: explicit path recursion, exhaustive
subset enumeration, dense eigendecompositions, loop-based jackknives.  The
library must agree with these on small inputs; the library's own shortcuts
never appear.
"""

import itertools
import math

import numpy as np


def paths(table, ell, k):
    """Yield (endpoint, weight, heights) over every admissible lattice path
    of ell steps starting at ordinate k. heights[t] is the ordinate after t
    steps, heights[0] == k."""
    q = table.q

    def walk(h, left, weight, trail):
        if left == 0:
            yield h, weight, trail
            return
        for nxt in range(max(0, h - q), h + 2):
            c = table.coeff(h, nxt)
            if c == 0:
                continue
            yield from walk(nxt, left - 1, weight * c, trail + (nxt,))

    yield from walk(k, ell, table.coeff(0, 0) * 0 + 1.0, (k,))


def moment_by_paths(table, ell, k, m):
    """<x^ell P_k, Q_m> summed path by path."""
    return sum(w for end, w, _ in paths(table, ell, k) if end == m)


def mean_moment_by_paths(table, ell):
    N = table.N
    return sum(moment_by_paths(table, ell, k, k) for k in range(N)) / N


def section_power_trace(table, ell, size):
    """trace(H^ell) of the dense size x size section H[i, k] = <x P_k, Q_i>,
    built entry by entry and raised to the power by dense products."""
    H = np.array([[table.coeff(k, i) for k in range(size)] for i in range(size)])
    return np.trace(np.linalg.matrix_power(H, ell))


def gap_by_escape(table, ell):
    """N * (mean moment - zero-set moment): total weight of ell-step loops
    below N that visit ordinate >= N. Loops move at most ell, so only
    starting points within ell of N can contribute."""
    N = table.N
    total = 0.0
    for k in range(max(0, N - ell), N):
        for end, w, trail in paths(table, ell, k):
            if end == k and max(trail) >= N:
                total += w
    return total


def variance_by_escape(table, ell):
    """Var[sum x^ell]: weight of 2*ell-step loops below N whose ordinate at
    half time is >= N."""
    return covariance_by_escape(table, ell, ell)


def covariance_by_escape(table, ell, m):
    """Cov(sum x^ell, sum x^m): loops of ell+m steps below N sitting at
    ordinate >= N after the first ell steps. Up-steps move one ordinate, so
    only starts within ell of N can be high enough at half time."""
    N = table.N
    total = 0.0
    for k in range(max(0, N - ell), N):
        for end, w, trail in paths(table, ell + m, k):
            if end == k and trail[ell] >= N:
                total += w
    return total


def walk_steps_by_gather(table, ell, starts, ceiling):
    """The banded walk as a gather: the weights of every ell-step path from
    each start after each of its 0..ell steps, out[d + q*ell, i] over all
    -q*ell <= d <= ell, every grid row updated at every step, each step's
    weights gathered per start and displacement from a zero-padded band."""
    q = table.q
    D = (q + 1) * ell + 1
    steps = np.zeros((q + 2, ceiling + 2), dtype=table.c.dtype)
    steps[:, : ceiling + 1] = table.c[: ceiling + 1].T
    steps[0, ceiling] = 0.0  # no step up out of the ceiling
    h = np.asarray(starts, dtype=int) + np.arange(-q * ell, ell + 1)[:, None]
    h[(h < 0) | (h > ceiling)] = ceiling + 1  # the all-zero column
    w = steps[:, h]  # w[j + 1, r, i]: weight of step j at ordinate h[r, i]
    v = np.zeros(h.shape, dtype=steps.dtype)
    v[q * ell] = 1.0
    yield v
    for _ in range(ell):
        new = np.zeros_like(v)
        for j in range(-1, q + 1):  # step j moves ordinate h to h - j
            lo, hi = max(j, 0), D + min(j, 0)
            new[lo - j : hi - j] += v[lo:hi] * w[j + 1, lo:hi]
        v = new
        yield v


def full_walk_loops(table, ell, starts, ceiling):
    """Weight of the ell-step loops from each start that stay at ordinates
    0..ceiling, read at displacement 0 of the full ell-step walk."""
    *_, v = walk_steps_by_gather(table, ell, starts, ceiling)
    return v[table.q * ell]


def mean_moment_by_full_walk(table, ell):
    """The l-th mean moment as one full l-step walk from every k < N,
    capped where a loop of that order can climb."""
    N, q = table.N, table.q
    return np.sum(full_walk_loops(table, ell, np.arange(N), N - 1 + (q * ell) // (q + 1))) / N


def limit_by_full_walk(profile, ell, grid):
    """The profile limit of order l on the quadrature grid (s, w) as one full
    l-step walk on blocks of (q+1) l + 1 rows, each of the band frozen at
    its node."""
    from polyens import banded_table

    q, (s, w) = profile.q, grid
    rows = (q + 1) * ell + 1
    band = np.column_stack([profile(j, s) for j in range(-1, q + 1)])
    table = banded_table(np.repeat(band, rows, axis=0), q, len(s) * rows)
    return float(w @ full_walk_loops(table, ell, np.arange(len(s)) * rows + q * ell, table.top))


def _gl_grid(nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w  # mapped to [0,1]


def limit_moment_by_compositions(profile, ell, nodes=256):
    """Limit mean moment of a banded profile by enumerating step counts:
    every (k_{-1}..k_q) >= 0 with sum k_j = l and sum j k_j = 0 adds its
    multinomial coefficient times integral prod_j a_j(s)^{k_j} ds."""
    q = profile.q
    s, w = _gl_grid(nodes)
    vals = {j: profile(j, s) for j in range(-1, q + 1)}
    total = 0.0
    for combo in itertools.product(range(ell + 1), repeat=q + 2):
        if sum(combo) != ell:
            continue
        if sum(j * kj for j, kj in zip(range(-1, q + 1), combo)) != 0:
            continue
        coeff = math.factorial(ell)
        for kj in combo:
            coeff //= math.factorial(kj)
        integrand = np.ones_like(s)
        for j, kj in zip(range(-1, q + 1), combo):
            if kj:
                integrand = integrand * vals[j] ** kj
        total += coeff * float(np.sum(w * integrand))
    return total


def mu_ab_by_binomials(profile, ell, nodes=256):
    """l-th moment of 2 a(U) xi + b(U) for an OP profile (xi arcsine):
    sum_m binom(l, 2m) binom(2m, m) integral a(s)^{2m} b(s)^{l-2m} ds."""
    s, w = _gl_grid(nodes)
    av = profile(-1, s)
    bv = profile(0, s)
    total = 0.0
    for m in range(ell // 2 + 1):
        coeff = math.comb(ell, 2 * m) * math.comb(2 * m, m)
        total += coeff * float(np.sum(w * av ** (2 * m) * bv ** (ell - 2 * m)))
    return total


def mu_ab_sample(profile, rng, size):
    """Draws of 2 a(U) xi + b(U) for an OP profile, U uniform on [0, 1] and
    xi = cos(pi V) arcsine on [-1, 1]."""
    u = rng.random(size)
    xi = np.cos(np.pi * rng.random(size))
    return 2.0 * profile(-1, u) * xi + profile(0, u)


def limiting_variance_by_quadrature(f, a=1.0, b=0.0, nodes=512):
    """Limiting Var[sum f(x_i)] = a^2 integral of ((f(x)-f(y))/(x-y))^2 dQ
    by tensor Chebyshev-Gauss quadrature on the support square; within
    1e-8 of the diagonal the divided difference is a centred difference
    quotient for f'."""
    u = np.cos((2 * np.arange(1, nodes + 1) - 1) * np.pi / (2 * nodes))
    x = b + 2.0 * a * u
    F = np.asarray(f(x), dtype=float)
    dx = x[:, None] - x[None, :]
    close = np.abs(dx) <= 1e-8 * max(1.0, float(np.max(np.abs(x))))
    D = np.empty_like(dx)
    np.divide(F[:, None] - F[None, :], dx, out=D, where=~close)
    h = 1e-5 * np.maximum(1.0, np.abs(x))
    dvals = (np.asarray(f(x + h), dtype=float) - np.asarray(f(x - h), dtype=float)) / (2 * h)
    D[close] = np.broadcast_to(dvals[:, None], D.shape)[close]
    Qw = 1.0 - u[:, None] * u[None, :]
    return float(a**2 * np.mean(D * D * Qw))


def kernel_by_christoffel_darboux(ensemble, x, y):
    """K(x, y), x != y, of an OP ensemble with pad >= 1 by the two-term
    Christoffel-Darboux form a_{N-1} (P_N(x) P_{N-1}(y) - P_{N-1}(x) P_N(y)) / (x - y)."""
    N = ensemble.N
    vx = ensemble.eval_P(x, upto=N)[:, 0]
    vy = ensemble.eval_P(y, upto=N)[:, 0]
    return ensemble.table.a[N - 1] * (vx[N] * vy[N - 1] - vx[N - 1] * vy[N]) / (x - y)


def integral(m, f):
    """sum_i w_i f(x_i) over the atoms of the measure m, f a callable or its
    values at the atoms."""
    return np.sum(m.weights * (f(m.points) if callable(f) else f))


def gauss_rule(a, b):
    """Nodes and weights of the measure whose first orthonormal polynomials
    have coefficients (a, b): dense eigendecomposition of the Jacobi matrix."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    M = len(a) + 1
    J = np.diag(b[:M]) + np.diag(a, 1) + np.diag(a, -1)
    vals, vecs = np.linalg.eigh(J)
    return vals, vecs[0] ** 2


def subset_pmf(kernel, N):
    """Exhaustive law of the unordered N-subset: det of the minor of the
    kernel L against counting measure on the atoms."""
    out = {}
    for S in itertools.combinations(range(len(kernel)), N):
        out[S] = float(np.real(np.linalg.det(kernel[np.ix_(S, S)])))
    return out


def conditional_by_minors(kernel, prefix):
    """Minor ratio det L[prefix + x] / det L[prefix] at every atom x, one
    determinant per atom. Divided by N - len(prefix) it is the chain rule's
    next-point mass; divided further by the atom weights, its density."""
    prefix = list(prefix)
    base = np.linalg.det(kernel[np.ix_(prefix, prefix)])
    out = np.empty(len(kernel))
    for x in range(len(kernel)):
        S = prefix + [x]
        out[x] = np.real(np.linalg.det(kernel[np.ix_(S, S)]) / base)
    return out


def gue_matrix_spectra(N, replicas, rng):
    """Eigenvalues of GUE matrices scaled so the spectrum fills [-2, 2]:
    the matrix-model route to the same point process."""
    out = np.empty((replicas, N))
    for r in range(replicas):
        A = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / np.sqrt(2 * N)
        H = (A + A.conj().T) / np.sqrt(2)
        out[r] = np.linalg.eigvalsh(H)
    return out


def jackknife_se(samples, estimator):
    """Leave-one-out jackknife standard error, by explicit deletion."""
    n = len(samples)
    reps = np.array([estimator(np.delete(samples, i)) for i in range(n)])
    return float(np.sqrt((n - 1) / n * np.sum((reps - reps.mean()) ** 2)))


def chebyshev_zeros(N):
    """Zeros of the degree-N first-kind Chebyshev polynomial."""
    j = np.arange(1, N + 1)
    return np.sort(np.cos((2 * j - 1) * np.pi / (2 * N)))


def arcsine_potential(z):
    """log-potential of the arcsine law on [-1, 1] at z outside the cut."""
    u = complex(z)
    return float(-np.log(np.abs(u + np.sqrt(u - 1) * np.sqrt(u + 1)) / 2))


def draw_by_choice(measure, density, rng, size=None):
    """Categorical draw of atom indices with p_i proportional to
    density_i * w_i, the way the library drew before its inverse-CDF step:
    clip tiny negatives to zero, normalize, and let Generator.choice draw."""
    mass = np.clip(np.asarray(density, dtype=float) * measure.weights, 0.0, None)
    picked = rng.choice(len(mass), size=size, p=mass / mass.sum())
    return picked if size is not None else int(picked)


def log_factorial_by_gammaln(k):
    """log k! from scipy's log-gamma function."""
    from scipy.special import gammaln

    return float(gammaln(k + 1))


def op_polynomials_by_three_terms(table, x, upto, p0=1.0):
    """P_0..P_upto of an OP table by the three-term recurrence
    P_{k+1} = ((x - b_k) P_k - a_{k-1} P_{k-1}) / a_k, written out on the
    a and b arrays."""
    a, b = table.a, table.b
    pts = np.atleast_1d(np.asarray(x))
    out = np.zeros((upto + 1, len(pts)), dtype=complex if np.iscomplexobj(pts) else float)
    out[0] = p0
    if upto == 0:
        return out
    out[1] = (pts - b[0]) * out[0] / a[0]
    for k in range(1, upto):
        out[k + 1] = ((pts - b[k]) * out[k] - a[k - 1] * out[k - 1]) / a[k]
    return out


def real_gauge_by_full_scan(ensemble, tol):
    """The unit-circle phase gauge d_i = exp(i (N-1) arg(x_i) / 2) if every
    entry of conj(d_i) L_ij d_j, both halves of the kernel, has |Im| <= tol
    sqrt(L_ii L_jj); else None. Only a complex hermitian kernel is tried."""
    L = ensemble.kernel_matrix()
    if not (ensemble.hermitian and np.iscomplexobj(L)):
        return None
    d = np.exp(0.5j * (ensemble.N - 1) * np.angle(ensemble.measure.points))
    gauged = L * d
    gauged *= np.conj(d[:, None])
    diag = L.diagonal().real
    return d if np.all(np.abs(gauged.imag) <= tol * np.sqrt(np.outer(diag, diag))) else None


def stieltjes_by_two_passes(m, N, pad=8):
    """(a, b) of the orthonormal polynomials of a real atomic measure, by the
    discretized Stieltjes procedure on unweighted values with two full
    Gram-Schmidt passes at every degree."""
    K = N + pad
    x, w = m.points, m.weights
    P = np.empty((K + 2, len(x)))
    P[0] = 1.0 / np.sqrt(w.sum())
    a = np.zeros(K + 1)
    b = np.zeros(K + 1)
    for k in range(K + 1):
        xp = x * P[k]
        b[k] = float(np.sum(w * xp * P[k]))
        y = xp - b[k] * P[k]
        if k > 0:
            y -= a[k - 1] * P[k - 1]
        for _ in range(2):
            coefs = P[: k + 1] @ (w * y)
            y -= coefs @ P[: k + 1]
        a[k] = np.sqrt(float(np.sum(w * y * y)))
        P[k + 1] = y / a[k]
    return a, b


class AllocatingChain:
    """The chain-rule sampler step on L = kernel_matrix() with every
    product, row and downdate a fresh array: the step as it stood before
    the state owned its work buffers. ConditionalState.push and the draw of
    sampler._drive must reproduce it bit for bit, in rows, pivots, residual
    masses, indices and log densities."""

    def __init__(self, ensemble):
        self.ensemble = ensemble
        self.L = ensemble.kernel_matrix()
        self.w = ensemble.measure.weights  # read only by the log density
        self.heights = []
        self.at = []
        self.gauge = ensemble.real_gauge()
        dtype = float if self.gauge is not None else self.L.dtype
        shape = (ensemble.N, len(self.L))
        self.E = np.empty(shape, dtype=dtype)
        self.C = None if ensemble.hermitian else np.empty(shape, dtype=dtype)
        self.diag = np.real(np.diagonal(self.L)).copy()

    def push(self, idx):
        k = len(self.heights)
        E = self.E[:k]
        krow = self.L[idx]
        if self.gauge is not None:
            krow = np.real(np.conj(self.gauge[idx]) * krow * self.gauge)
        if self.C is not None:
            row = krow - self.C[:k, idx] @ E
        else:
            row = krow - np.conj(E[:, idx]) @ E
        pivot = float(row[idx].real)
        assert pivot > 0, pivot
        root = math.sqrt(pivot)
        e = np.divide(row, root, out=self.E[k])
        e[self.at] = 0.0
        if self.C is not None:
            col = (self.L[:, idx] - E[:, idx] @ self.C[:k]) / root
            self.C[k] = col
            drop = np.real(col * e)
        elif not np.iscomplexobj(e):
            drop = e * e
        else:
            drop = np.real(np.conj(e) * e)
        self.diag -= drop
        self.diag[idx] = 0.0
        self.at.append(idx)
        self.heights.append(pivot)

    def draw(self, rng):
        """One inverse-CDF lookup on a fresh cumulative sum of the mass."""
        mass = self.diag
        assert mass.min() >= 0
        cdf = mass.cumsum()
        assert 0 < cdf[-1] < math.inf
        cdf /= cdf[-1]
        return int(cdf.searchsorted(rng.random(), side="right"))

    def sample(self, rng):
        """(indices, log density) of one draw of the N points."""
        N = self.ensemble.N
        picked = np.empty(N)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(N):
                idx = self.draw(rng)
                picked[k] = self.diag[idx]
                self.push(idx)
            indices = np.array(self.at)
            logs = np.log(picked) - np.log(self.w[indices]) - np.log(np.arange(N, 0, -1))
        logdens = 0.0
        for v in logs.tolist():
            logdens += v
        return indices, logdens
