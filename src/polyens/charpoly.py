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
from .recurrence import _walks, hessenberg_matrix, mean_moment

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

    Symmetric (OP) tables use the tridiagonal eigensolver. So does any
    real q = 1 table whose section has up_k * down_{k+1} > 0 for k < N - 1:
    a diagonal similarity makes it symmetric with off-diagonal
    sqrt(up_k * down_{k+1}) (e.g. monic OPs, whose dense non-normal
    eigensolve loses digits fast in N). A triangular section (e.g. the
    uniform-circle shift) short-circuits to its diagonal, which is exact;
    otherwise eigenvalues would be polluted by the O(eps^(1/N))
    sensitivity of a nilpotent matrix.
    """
    N, q = table.N, table.q
    c = table.c[:N]
    pairs = c[:-1, 0] * c[1:, 2] if q == 1 and not table.is_complex else None
    if table.symmetric or (pairs is not None and np.all(pairs > 0)):
        from scipy.linalg import eigvalsh_tridiagonal

        off = table.a[: N - 1] if table.symmetric else np.sqrt(pairs)
        zs = eigvalsh_tridiagonal(table.b[:N], off)
    elif not np.any(c[:, 2:]):  # no down steps: a triangular section
        zs = table.c[:N, 1].copy()
    else:
        zs = np.linalg.eigvals(hessenberg_matrix(table, N))
    order = np.argsort(zs.real + 1e-12 * np.abs(zs.imag))
    zs = zs[order]
    ps = np.array([np.sum(zs**l) for l in range(lmax + 1)])
    for l in range(1, lmax + 1):
        tr = np.sum(_walks(table, l, np.arange(N), N - 1)[q * l])
        if abs(ps[l] - tr) > POWER_SUM_TOL * max(1.0, abs(tr)):
            raise NumericalBreakdownError(
                f"eigenvalue power sum p_{l}={ps[l]!r} disagrees with "
                f"trace {tr!r}; eigensolve is unreliable"
            )
    if not np.iscomplexobj(zs):
        ps = ps.real
    return ZeroSet(zs, ps)


@dataclass
class GapResult:
    ell: int
    mean_moment: float
    zero_moment: float
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
    return GapResult(ell, _as_real(mean), _as_real(zmom), float(gap), float(bound))


def _as_real(z):
    z = complex(z)
    return z.real if abs(z.imag) <= 1e-12 * max(1.0, abs(z)) else z


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
