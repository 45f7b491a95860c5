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


def kernel_by_christoffel_darboux(ensemble, x, y):
    """K(x, y), x != y, of an OP ensemble with pad >= 1 by the two-term
    Christoffel-Darboux form a_{N-1} (P_N(x) P_{N-1}(y) - P_{N-1}(x) P_N(y)) / (x - y)."""
    N = ensemble.N
    vx = ensemble.eval_P(x, upto=N)[:, 0]
    vy = ensemble.eval_P(y, upto=N)[:, 0]
    return ensemble.table.a[N - 1] * (vx[N] * vy[N - 1] - vx[N - 1] * vy[N]) / (x - y)


def gauss_rule(a, b):
    """Nodes and weights of the measure whose first orthonormal polynomials
    have coefficients (a, b): dense eigendecomposition of the Jacobi matrix."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    M = len(a) + 1
    J = np.diag(b[:M]) + np.diag(a, 1) + np.diag(a, -1)
    vals, vecs = np.linalg.eigh(J)
    return vals, vecs[0] ** 2


def subset_pmf(kernel, weights, N):
    """Exhaustive law of the unordered N-subset: det of the kernel minor
    times the product of atom weights."""
    n = len(weights)
    out = {}
    for S in itertools.combinations(range(n), N):
        sub = kernel[np.ix_(S, S)]
        p = np.linalg.det(sub) * math.prod(weights[i] for i in S)
        out[S] = float(np.real(p))
    return out


def conditional_by_minors(kernel, prefix):
    """Minor ratio det K[prefix + x] / det K[prefix] at every atom x, one
    determinant per atom. Divided by N - len(prefix) it is the chain rule's
    next-point density."""
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
