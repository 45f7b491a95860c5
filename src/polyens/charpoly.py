"""Average characteristic polynomial via Hessenberg sections.

The degree-N average characteristic polynomial of an ensemble equals the
characteristic polynomial of the N x N section H_N = [<x P_j, Q_i>], so its
zeros are that section's eigenvalues. Their l-th power sum is tr(H_N^l), the
weight of the l-step loops that stay below N, while the mean moment counts
every l-loop from k < N. Their gap is the weight of the loops that climb
past N - 1, over N, read from the few starts next to N. Neither needs an
eigensolve. The zeros do: it is the only dense step, and it runs only when
the locations are read. A section with no tridiagonal or triangular form
is eigensolved once, by np.linalg.eig: its values are the zeros, and its
vectors give the condition bound that refuses untrustworthy ones.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdownError, _integer
from .measure import ReferenceMeasure
from .recurrence import _escape_weight, _loop_sums, hessenberg_matrix

POWER_SUM_TOL = 1e-8

# largest eps * max kappa * ||H||_2 / max(1, ||H||_2) of a dense eigensolve:
# sections with false complex zeros read 0.05 and up, the random test tables
# at most 3.5e-13 (see _refuse_ill_conditioned)
CONDITION_TOL = 1e-6


class ZeroSet:
    """Zeros of the average characteristic polynomial of a table, with their
    power sums p_l = sum_i z_i^l, l = 0..lmax; built by zeros().

    power_sums are the section traces tr(H_N^l): exact, real for a real
    table and complex for a complex one, and len() is N. The locations are
    solved on the first read of `zeros` and cached; that read runs the
    eigensolve and its cross-check against the traces, so a
    NumericalBreakdownError surfaces there.
    """

    def __init__(self, table, power_sums, edge):
        self._table, self.power_sums, self._edge = table, power_sums, edge
        self._zeros = None

    @property
    def zeros(self):
        if self._zeros is None:
            self._zeros = _section_zeros(self._table, self.power_sums)
        return self._zeros

    def __len__(self):
        return self._table.N

    def mean_power(self, ell):
        """p_l / N; an order past the stored power sums raises ValueError."""
        if not 0 <= ell < len(self.power_sums):
            raise ValueError(
                f"power sum of order {ell} is not stored: this zero set has "
                f"orders 0..{len(self.power_sums) - 1}"
            )
        return self.power_sums[ell] / len(self)


def zeros(table, lmax=8):
    """Zero set of the average characteristic polynomial (the eigenvalues of
    the N x N Hessenberg section), with power sums up to lmax.

    The power sums are the section traces, the loop sums of one walk at
    ceiling N - 1 (see recurrence._loop_sums), which holds one block of
    starts at a time and takes lmax steps, or ceil(lmax/2) on a symmetric
    table, whose loops are a path out and the same path back. For
    moment_gap the zero set keeps the loop weights of the last
    floor(q lmax / (q + 1)) starts, the only ones whose loops can leave the
    section. The locations are solved when
    ZeroSet.zeros is first read (see _section_zeros), so errors of the
    eigensolve surface there.
    """
    lmax = _integer(lmax, "lmax", 0)
    traces, edge = _loop_sums(table, lmax, table.N - 1, keep=(table.q * lmax) // (table.q + 1))
    return ZeroSet(table, traces, edge)


def _section_zeros(table, traces):
    """Eigenvalues of table's N x N section, sorted by real part, with
    sum z^l checked against traces[l].

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
    by the O(eps^(1/N)) sensitivity of a nilpotent matrix. Any other
    section goes to one dense eigensolve, np.linalg.eig, whose values are
    the zeros and whose vectors feed the condition bound.

    A power sum that misses its trace by more than POWER_SUM_TOL (relative
    to max(1, |trace|)) raises NumericalBreakdownError, and so, after that
    check, does a dense eigensolve whose error bound passes CONDITION_TOL
    (see _refuse_ill_conditioned).
    """
    N, q = table.N, table.q
    c = table.c[:N]
    pairs = c[:-1, 0] * c[1:, 2] if q == 1 and not table.is_complex else None
    H = V = None  # the section and its eigenvectors, on the dense route
    if table.symmetric or (pairs is not None and np.all(pairs > 0)):
        off = table.a[: N - 1] if table.symmetric else np.sqrt(pairs)
        zs = _tridiagonal_zeros(table.b[:N], off)
    elif not np.any(c[:, 2:]):  # no down steps: a triangular section
        zs = table.c[:N, 1].copy()
    else:
        H = hessenberg_matrix(table, N)
        zs, V = np.linalg.eig(H)
    zs = zs[np.argsort(zs.real + 1e-12 * np.abs(zs.imag))]
    for l, tr in enumerate(traces):
        p = np.sum(zs**l)
        if abs(p - tr) > POWER_SUM_TOL * max(1.0, abs(tr)):
            raise NumericalBreakdownError(
                f"eigenvalue power sum p_{l}={p!r} disagrees with "
                f"trace {tr!r}; eigensolve is unreliable"
            )
    if H is not None:
        _refuse_ill_conditioned(H, V)
    return zs


def _refuse_ill_conditioned(H, V):
    """Raise NumericalBreakdownError when eps * max_i kappa_i * ||H||_2
    exceeds CONDITION_TOL * max(1, ||H||_2), for V the right eigenvectors of
    H from the eigensolve that gave the zeros (no second solve).
    kappa_i = ||x_i|| ||y_i|| / |y_i^H x_i| is the condition number of
    eigenvalue i (Wilkinson), for right and left eigenvectors x_i and y_i;
    with the right ones the columns of V, it is the norm of column i of V
    times that of row i of V^-1."""
    try:
        kappa = np.max(np.linalg.norm(V, axis=0) * np.linalg.norm(np.linalg.inv(V), axis=1))
    except np.linalg.LinAlgError:  # V singular: H is defective
        kappa = np.inf
    norm = np.linalg.norm(H, 2)
    bound = np.finfo(float).eps * kappa * norm
    if not bound <= CONDITION_TOL * max(1.0, norm):
        raise NumericalBreakdownError(
            f"the section's eigenvalues are ill-conditioned: eps * max kappa * ||H|| = "
            f"{bound:.3g} exceeds {CONDITION_TOL:g} * max(1, ||H||); the zeros cannot be trusted"
        )


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
    within l of N. The bound needs pad >= l.

    p_l is read from zero_set's power sums, or else from zeros(table, l):
    the section trace, so no zero location is solved. The gap is |w| / N
    for the weight w of the l-loops from k < N that climb past N - 1
    (recurrence._escape_weight), and the mean moment is p_l/N + w/N.
    zero_set must be that of a table with the same N, dtype and rows
    0..N-1, the rows its section weights read (else ValueError)."""
    ell = _integer(ell, "ell", 1)
    N = table.N
    table._stored(N + ell, "the window reaches index")  # the widest read, checked before any walk
    zs = zero_set if zero_set is not None else zeros(table, lmax=ell)
    zmom, t = zs.mean_power(ell), zs._table
    if not (t.N == N and t.c.dtype == table.c.dtype and np.array_equal(t.c[:N], table.c[:N])):
        raise ValueError(
            f"zero_set is the zero set of {t!r}, whose N x N section "
            f"differs from that of the given {table!r}"
        )
    escape = _escape_weight(table, ell, zs._edge[ell]) / N
    wmax = table.window_max(N - ell, N + ell)
    bound = (2.0 * ell) ** ell / N * wmax**ell
    return GapResult(ell, table.value(zmom + escape), table.value(zmom), float(abs(escape)), float(bound))


def log_potential(target, z):
    """Logarithmic potential integral log 1/|z - x| d nu(x).

    nu is the measure itself for a ReferenceMeasure argument (weights as
    given); for a ZeroSet or a plain array of points it is the normalized
    counting measure. Evaluating on top of an atom gives +inf.
    """
    if isinstance(target, ReferenceMeasure):
        pts, wts = target.points, target.weights
    else:
        pts = target.zeros if isinstance(target, ZeroSet) else np.asarray(target)
        wts = np.full(len(pts), 1.0 / len(pts))
    z = np.asarray(z)
    scalar = z.ndim == 0
    dist = np.abs(np.atleast_1d(z)[:, None] - pts[None, :])
    with np.errstate(divide="ignore"):
        out = -np.sum(wts * np.log(dist), axis=1)
    return float(out[0]) if scalar else out


def mean_measure(ensemble):
    """Mean empirical measure E[mu_hat] = (K(x,x)/N) mu as a ReferenceMeasure
    (a probability measure on the ensemble's atoms): the masses L_ii / N of
    the kernel diagonal at the atoms where the checked mean density is
    positive."""
    keep = ensemble.mean_density() > 0
    mass = np.real(ensemble.kernel_diagonal()[keep]) / ensemble.N
    return ReferenceMeasure(ensemble.measure.points[keep], mass, name="mean-measure")
