"""Variances of linear statistics: exact path formulas, bounds, limits.

Var[sum_i x_i^l] for a polynomial ensemble equals the total weight of
lattice paths (0,k) -> (2l,k), k < N, whose midpoint ordinate escapes to
N or above. One banded walk of l steps up from the starts k in [N-l, N)
and one back down from the ordinates N + i it can reach give both halves;
the result is the sum over k and i of their products. Every such loop
stays at ordinates in [N-l, N+l-1], so the result depends only on that
coefficient window; the escaping-path reading is what the tests enumerate
literally.

The pair-correlation remainder measure

    Q_N(dx,dy) = (1/2) (P_N(x) P_{N-1}(y) - P_{N-1}(x) P_N(y))^2 mu(dx) mu(dy)

is a probability measure whose moments converge, for tables with limiting
coefficients a and b, to those of

    Q(dx,dy) = (4a^2 - (x-b)(y-b)) dx dy
               / (4 pi^2 a^2 sqrt(4a^2-(x-b)^2) sqrt(4a^2-(y-b)^2))

on [b-2a, b+2a]^2, and Var[sum f(x_i)] -> a^2 integral of the squared
divided difference of f against Q, which is (1/4) sum_k k c_k^2 over the
Chebyshev coefficients of f(b + 2a u) = sum_k c_k T_k(u). One FFT of f at
LIMIT_NODES points gives them, exactly for polynomials of lower degree.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CoefficientRangeError, EvaluationError, _integer
from .recurrence import RecurrenceTable, _walks

# Chebyshev-Gauss sample count of the limit routes
LIMIT_NODES = 512

# smallest sample cumulants takes: k_4 divides by n - 3, the jackknife by n - 4
MIN_SAMPLE = 5


def _escape_sum(table, ell, m):
    """Weight of the (l+m)-step loops from ordinates k < N whose ordinate
    k + d after l steps is >= N: up-walks k -> k + d times return walks."""
    N, q = table.N, table.q
    ceiling = N - 1 + (q * (ell + m)) // (q + 1)  # max climb of a length l+m loop
    k0 = max(0, N - ell)
    up = _walks(table, ell, range(k0, N), ceiling)
    back = _walks(table, m, range(N, ceiling + 1), ceiling)
    total = 0.0
    for d in range(1, min(ell, q * m) + 1):
        lo = max(k0, N - d)  # k in [lo, N) climbs to k + d >= N, column k + d - N of back
        total += up[q * ell + d, lo - k0 :] @ back[q * m - d, lo + d - N : d]
    return table.value(total)


def variance_power(table, ell):
    """Var[sum_i x_i^l], exactly, from the table.

    Equals the total weight of length-2l loop paths below N that touch
    ordinate >= N at half time. Needs pad >= l."""
    ell = _integer(ell, "ell", 1)
    return _escape_sum(table, ell, ell)


def covariance_power(table, ell, m):
    """Cov[sum_i x_i^l, sum_i x_i^m]: loop paths of length l+m whose
    ordinate at the split time l is >= N. Symmetric in (l, m).
    Needs pad >= max(l, m)."""
    ell, m = _integer(ell, "ell", 1), _integer(m, "m", 1)
    return _escape_sum(table, ell, m)


def variance_upper_bound(table, ell):
    """(2l)^{2l} max^{2l}: combinatorial bound on Var[sum x_i^l], the max
    over coefficients |<x P_k, Q_m>| with k, m within l of N."""
    ell = _integer(ell, "ell", 1)
    wmax = table.window_max(table.N - ell, table.N + ell)
    return float((2.0 * ell) ** (2 * ell) * wmax ** (2 * ell))


def lipschitz_variance_bound(a_top, lip):
    """(a_{N-1} * lip)^2: bound on Var[sum f(x_i)] for lip-Lipschitz f.
    a_top may be the number itself or a table of orthonormal polynomials
    (a symmetric table), whose a_{N-1} is used; any other table has no
    a_{N-1} to read, an EvaluationError."""
    if isinstance(a_top, RecurrenceTable):
        if not a_top.symmetric:
            raise EvaluationError("the Lipschitz bound needs a symmetric recurrence table")
        a_top = float(a_top.a[a_top.N - 1])
    return float((a_top * lip) ** 2)


def empirical_Q_moment(ensemble, m, n):
    """Moment integral x^m y^n dQ_N of the pair-correlation remainder
    measure, computed from the weighted rows sqrt(w) P_{N-1} and sqrt(w) P_N
    on the atoms, with no weight. (0,0) gives 1.
    Needs an ensemble of orthonormal polynomials (a symmetric table)."""
    if ensemble.table is None or not ensemble.table.symmetric:
        raise EvaluationError(
            "Q_N moments need an orthonormal-polynomial ensemble; "
            "this one has no symmetric recurrence table"
        )
    N, m, n = ensemble.N, _integer(m, "m", 0), _integer(n, "n", 0)
    if N + 1 > len(ensemble.basis):
        raise CoefficientRangeError("needs the basis padded through P_N")
    mu = ensemble.measure
    x = mu.points
    if mu.is_complex:
        raise ValueError("Q_N moments are defined for real-supported measures")
    pN = ensemble.basis[N]
    pM = ensemble.basis[N - 1]
    powers = np.power.outer(x, np.arange(max(m, n) + 1)).T

    def trio(p):
        xm = powers[p]
        return (
            float(np.sum(xm * pN * pN)),
            float(np.sum(xm * pM * pM)),
            float(np.sum(xm * pN * pM)),
        )

    Am, Bm, Cm = trio(m)
    An, Bn, Cn = trio(n)
    return 0.5 * (Am * Bn + Bm * An - 2.0 * Cm * Cn)


def _chebyshev_coefficients(f, a, b):
    """c_0..c_{M-1} with f(b + 2a u) = sum_k c_k T_k(u), M = LIMIT_NODES:
    one DCT-II, as the real FFT of the mirrored samples at the interior
    Chebyshev-Gauss points u = cos((j+1/2)pi/M), so f is never read at a
    support end. Exact for polynomials of degree below M."""
    if a <= 0:
        raise ValueError("a must be positive")
    M = LIMIT_NODES
    theta = (np.arange(M) + 0.5) * (np.pi / M)
    g = np.asarray(f(b + 2.0 * a * np.cos(theta)), dtype=float)
    Y = np.fft.rfft(np.concatenate((g, g[::-1])))[:M]
    c = (np.exp(-0.5j * np.pi / M * np.arange(M)) * Y).real / M
    c[0] /= 2.0
    return c


def limiting_Q_moment(m, n, a=1.0, b=0.0):
    """Moment integral x^m y^n dQ of the limiting pair measure on
    [b-2a, b+2a]^2; (0,0) gives 1. With x = b + 2a u the weight 1 - uv
    factorizes, so this is c_0(x^m) c_0(x^n) - c_1(x^m) c_1(x^n) / 4 in
    Chebyshev coefficients: exact for orders below LIMIT_NODES."""
    m, n = _integer(m, "m", 0), _integer(n, "n", 0)
    if max(m, n) >= LIMIT_NODES:
        raise ValueError(f"moment orders must be below {LIMIT_NODES}, got ({m}, {n})")
    cm = _chebyshev_coefficients(lambda x: x**m, a, b)
    cn = _chebyshev_coefficients(lambda x: x**n, a, b)
    return float(cm[0] * cn[0] - cm[1] * cn[1] / 4.0)


def limiting_variance(f, a=1.0, b=0.0):
    """Limiting Var[sum f(x_i)] = (1/4) sum_k k c_k^2 over the Chebyshev
    coefficients of f(b + 2a u) (Johansson 1998), which equals a^2 times
    the squared divided difference of f integrated against Q. Exact for
    polynomials f of degree below LIMIT_NODES."""
    c = _chebyshev_coefficients(f, a, b)
    return float(np.arange(len(c)) @ (c * c) / 4.0)


@dataclass
class CumulantReport:
    """First four cumulants of a replica sample, as unbiased k-statistics,
    with jackknife standard errors."""

    k: np.ndarray  # k[0] unused; k[1..4] are the cumulant estimates
    se: np.ndarray

    @property
    def mean(self):
        return self.k[1]

    @property
    def variance(self):
        return self.k[2]

    @property
    def skewness(self):
        return self.k[3] / self.k[2] ** 1.5

    @property
    def excess_kurtosis(self):
        return self.k[4] / self.k[2] ** 2


def _kstats_from_power_sums(S1, S2, S3, S4, n):
    k1 = S1 / n
    k2 = (n * S2 - S1**2) / (n * (n - 1))
    k3 = (n**2 * S3 - 3 * n * S2 * S1 + 2 * S1**3) / (n * (n - 1) * (n - 2))
    k4 = (
        n**2 * (n + 1) * S4
        - 4 * n * (n + 1) * S3 * S1
        - 3 * n * (n - 1) * S2**2
        + 12 * n * S2 * S1**2
        - 6 * S1**4
    ) / (n * (n - 1) * (n - 2) * (n - 3))
    return k1, k2, k3, k4


def cumulants(samples):
    """k-statistics k_1..k_4 (unbiased cumulant estimators) of a 1-d sample,
    with leave-one-out jackknife standard errors."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or len(x) < MIN_SAMPLE:
        raise ValueError(f"need a 1-d sample of size >= {MIN_SAMPLE}")
    n = len(x)
    # center for conditioning; cumulants above k1 are shift-invariant
    shift = x.mean()
    y = x - shift
    pows = [np.sum(y**r) for r in range(1, 5)]
    k1, k2, k3, k4 = _kstats_from_power_sums(*pows, n)
    k = np.array([np.nan, k1 + shift, k2, k3, k4])

    # jackknife: power sums with sample i removed, vectorized over i
    S = [pows[r - 1] - y**r for r in range(1, 5)]
    j1, j2, j3, j4 = _kstats_from_power_sums(S[0], S[1], S[2], S[3], n - 1)
    se = np.empty(5)
    se[0] = np.nan
    for slot, jk in zip((1, 2, 3, 4), (j1, j2, j3, j4)):
        se[slot] = np.sqrt((n - 1) / n * np.sum((jk - jk.mean()) ** 2))
    return CumulantReport(k, se)
