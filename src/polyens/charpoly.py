"""Average characteristic polynomial via Hessenberg sections.

The degree-N average characteristic polynomial of an ensemble equals the
characteristic polynomial of the N x N section [<x P_j, Q_i>], so its zeros
are that section's eigenvalues. The eigensolve is the only dense step: the
trace of the l-th section power, which cross-checks the zeros' power sums,
is the weight of the l-step loops that stay below N, counted by the same
banded walk as the mean moments. The zero-set's moments track the mean
empirical moments with an O(1/N) gap controlled by coefficients in a window
around index N.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdownError
from .measure import ReferenceMeasure
from .recurrence import _walk_steps, hessenberg_matrix, mean_moment

POWER_SUM_TOL = 1e-8


@dataclass
class ZeroSet:
    """Zeros of the average characteristic polynomial with their power sums
    p_l = sum_i z_i^l, cross-checked against the section traces, i.e. the
    weight of the l-step loops below N that the banded walk counts."""

    zeros: np.ndarray
    power_sums: np.ndarray  # index l = 0..lmax

    def __len__(self):
        return len(self.zeros)

    def mean_power(self, ell):
        """p_l / N."""
        return self.power_sums[ell] / len(self.zeros)


def zeros(table, lmax=8):
    """Zeros of the average characteristic polynomial (eigenvalues of the
    N x N Hessenberg section), plus power sums up to lmax.

    Symmetric (OP) tables take the tridiagonal route (_tridiagonal_zeros).
    So does any real q = 1 table whose section has up_k * down_{k+1} > 0
    for k < N - 1: a diagonal similarity makes it symmetric with
    off-diagonal sqrt(up_k * down_{k+1}) (e.g. monic OPs, whose dense
    non-normal eigensolve loses digits fast in N). On that route a constant
    diagonal (a measure symmetric about a point: GUE, Chebyshev on any
    interval, the monic Chebyshev table) is solved as the half-size
    positive definite problem, any other diagonal by LAPACK dsterf. A
    triangular section (e.g. the uniform-circle shift) short-circuits to
    its diagonal, which is exact; otherwise eigenvalues would be polluted
    by the O(eps^(1/N)) sensitivity of a nilpotent matrix.

    The power sums are checked against the section traces, read from one
    lmax-step walk (see recurrence._walk_steps); a disagreement raises
    NumericalBreakdownError.
    """
    N, q = table.N, table.q
    c = table.c[:N]
    pairs = c[:-1, 0] * c[1:, 2] if q == 1 and not table.is_complex else None
    if table.symmetric or (pairs is not None and np.all(pairs > 0)):
        off = table.a[: N - 1] if table.symmetric else np.sqrt(pairs)
        zs = _tridiagonal_zeros(table.b[:N], off)
    elif not np.any(c[:, 2:]):  # no down steps: a triangular section
        zs = table.c[:N, 1].copy()
    else:
        zs = np.linalg.eigvals(hessenberg_matrix(table, N))
    order = np.argsort(zs.real + 1e-12 * np.abs(zs.imag))
    zs = zs[order]
    ps = np.array([np.sum(zs**l) for l in range(lmax + 1)])
    for l, v in enumerate(_walk_steps(table, lmax, np.arange(N), N - 1)):
        tr = np.sum(v[q * lmax])  # trace of the l-th section power
        if abs(ps[l] - tr) > POWER_SUM_TOL * max(1.0, abs(tr)):
            raise NumericalBreakdownError(
                f"eigenvalue power sum p_{l}={ps[l]!r} disagrees with "
                f"trace {tr!r}; eigensolve is unreliable"
            )
    if not np.iscomplexobj(zs):
        ps = ps.real
    return ZeroSet(zs, ps)


def _tridiagonal_zeros(diag, off):
    """Eigenvalues of the symmetric tridiagonal matrix T with diagonal diag
    and off-diagonal off > 0.

    When every diagonal entry equals one value b, permuting even and odd
    indices turns T - b into the Golub-Kahan form [[0, C], [C^T, 0]] of the
    lower bidiagonal C with C[i, i] = off[2i] and C[i+1, i] = off[2i+1]
    (ceil(N/2) x floor(N/2)). The eigenvalues are then b -+ sqrt(lam), lam
    running over the eigenvalues of the floor(N/2) positive definite
    tridiagonal C^T C, and b itself when N is odd. The entries of C^T C,
    off[2i]^2 + off[2i+1]^2 and off[2i+1] off[2i+2], are formed without
    cancellation, and LAPACK dpteqr (LDL^T, then dqds) finds lam in about a
    quarter of the work of dsterf on T. If dpteqr fails or returns some
    lam <= 0 (a strongly graded off-diagonal makes C^T C numerically
    indefinite), or the diagonal is not constant, T goes to
    eigvalsh_tridiagonal (dsterf).
    """
    b, m = diag[0], len(diag) // 2
    if np.all(diag == b):
        from scipy.linalg.lapack import dpteqr

        down = off[1::2]
        d = off[0::2] ** 2
        d[: len(down)] += down**2
        if m < 2:  # dpteqr's wrapper refuses n = 1; a 1 x 1 C^T C is its eigenvalue
            lam, info = d, 0
        else:
            e = down[: m - 1] * off[2::2]
            lam, _, _, info = dpteqr(d, e, np.zeros((1, 1)), compute_z=0)
        if info == 0 and np.all(lam > 0):
            s = np.sqrt(lam)
            return np.concatenate((b - s, [b] * (len(diag) % 2), b + s))
    from scipy.linalg import eigvalsh_tridiagonal

    return eigvalsh_tridiagonal(diag, off)


@dataclass
class GapResult:
    ell: int
    mean_moment: float | complex  # complex for a complex table
    zero_moment: float | complex
    gap: float
    bound: float


def moment_gap(table, ell, zero_set=None):
    """Gap |mean_moment(l) - p_l/N| together with its theoretical bound
    (2l)^l / N * max^l, the max running over |<x P_k, Q_m>| with k and m
    within l of N. The bound needs pad >= l."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    N = table.N
    zs = zero_set if zero_set is not None else zeros(table, lmax=ell)
    mean = mean_moment(table, ell)
    zmom = zs.mean_power(ell)
    gap = abs(mean - zmom)
    wmax = table.window_max(N - ell, N + ell)
    bound = (2.0 * ell) ** ell / N * wmax**ell
    return GapResult(ell, mean, table.value(zmom), float(gap), float(bound))


def log_potential(target, z):
    """Logarithmic potential integral log 1/|z - x| d nu(x).

    nu is the measure itself for a ReferenceMeasure argument (weights as
    given); for a ZeroSet or a plain array of points it is the normalized
    counting measure. Evaluating on top of an atom gives +inf.
    """
    if isinstance(target, ReferenceMeasure):
        pts, wts = target.points, target.weights
    elif isinstance(target, ZeroSet):
        pts = target.zeros
        wts = np.full(len(pts), 1.0 / len(pts))
    else:
        pts = np.asarray(target)
        wts = np.full(len(pts), 1.0 / len(pts))
    z = np.asarray(z)
    scalar = z.ndim == 0
    dist = np.abs(np.atleast_1d(z)[:, None] - pts[None, :])
    with np.errstate(divide="ignore"):
        out = -np.sum(wts * np.log(dist), axis=1)
    return float(out[0]) if scalar else out


def mean_measure(ensemble):
    """Mean empirical measure E[mu_hat] = (K(x,x)/N) mu as a ReferenceMeasure
    (a probability measure on the ensemble's atoms)."""
    dens = ensemble.mean_density()
    keep = dens > 0
    return ReferenceMeasure(
        ensemble.measure.points[keep],
        dens[keep] * ensemble.measure.weights[keep],
        name="mean-measure",
    )
