"""Exact chain-rule sampling of polynomial ensembles on atomic measures.

One route serves every kernel, hermitian or not. After k points
x_1..x_k the residual kernel

    R_k(x, y) = K(x, y) - sum_{j<k} C_j(x) E_j(y)

is kept in factored form. Conditioning on an atom i with pivot
s = R_k(i, i) > 0 appends the residual row E_k = R_k(i, .)/sqrt(s) and the
residual column C_k = R_k(., i)/sqrt(s), an incremental LU of the prefix
minor at O(k n) per step. The pivot is the minor ratio
det K[prefix + i] / det K[prefix], and the next conditional density is
R_k(x, x)/(N - k). For a hermitian kernel C_k = conj(E_k) is not stored and
the update is Gram-Schmidt on the functions K(x_i, .) (Hough, Krishnapur,
Peres and Virag 2006).

A complex hermitian kernel with a real gauge (PolynomialEnsemble.real_gauge:
unit phases d with conj(d_i) K_ij d_j real, as for every OP ensemble on
the unit circle) is factored in real arithmetic. The diagonal unitary
similarity leaves every minor, pivot and residual mass unchanged, so the
rows E are real, each step reads its kernel row as
Re(conj(d_idx) K[idx] d) in O(n), and the rest of the step is the real
path. Only the sampler's rows change: kernel_matrix() still returns the
true complex K, and log_joint_density reads its complex minors from the
basis columns. A complex kernel without such a gauge keeps complex rows.

Every step draws exactly from the conditional density restricted to the
atoms (categorical draw, no rejection). The chain multiplies to the DPP
density: sum of log conditional densities = log det K[points] - log N!.

The state keeps the residual diagonal in the units the draw consumes, the
residual mass w(x) R_k(x, x) of the next point, so each point is one
uniform drawn straight from it by the inverse-CDF routine of
ReferenceMeasure.sample_mass, the one validated draw (sample_categorical
uses it too). A draw of N points enters np.errstate once and takes one log
of the N drawn masses at its end. The rows E, C and the pivots stay
unweighted. The kernel is checked finite once, when kernel_matrix() forms
it.

A step allocates no array. The state owns its work buffers, made once next
to E and C: the draw's cumulative mass, the mass downdate, a contiguous
copy of the column the row product reads and, for a complex kernel, a
complex row. push forms the residual row in E[k] and a non-hermitian
column in C[k], by the operations a step on fresh arrays runs, in the same
order, so rows, pivots, masses and draws do not move by a bit.

R_k vanishes on the atoms conditioned on, and the state holds that
exactly: push writes 0.0 into the new row E_k at every earlier point and
sets the new point's mass to 0.0. (The column C_k needs no such write:
its entries at earlier points enter the downdate only times the row's
zeros.) A conditioned atom therefore has mass exactly 0.0, never roundoff
of either sign, so push refuses a repeated atom by one comparison, and
sample_mass sees a nonnegative mass and draws after one reduction. Its
full validation runs only when the mass has a negative entry, a
non-finite entry or a sum that is not positive and finite; a negative
beyond roundoff there means the kernel defines no point process, a
PositivityViolationError.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    NegativityError,
    NumericalBreakdownError,
    OrthogonalityError,
    PositivityViolationError,
)
from .measure import NEGATIVITY_TOL, ReferenceMeasure
from .ensemble import BIORTHOGONALITY_TOL, PolynomialEnsemble
from .rng import DEFAULT_SEED, stream


@dataclass
class PointConfiguration:
    """One exact draw: atom indices in order drawn, their values, and the
    log of the chain-rule density w.r.t. mu^N (log det K - log N!)."""

    indices: np.ndarray
    points: np.ndarray
    log_density: float

    def __len__(self):
        return len(self.indices)


class ConditionalState:
    """Chain-rule state after conditioning on a prefix of points."""

    def __init__(self, ensemble):
        self.ensemble = ensemble
        self.K = ensemble.kernel_matrix()
        self.w = ensemble.measure.weights
        self.heights = []  # pivots R_k(x_k, x_k), ratios of consecutive prefix minors
        self._at = np.empty(ensemble.N, dtype=np.intp)  # atoms conditioned on, in order
        self._gauge = ensemble.real_gauge()  # rows of conj(d_i) K_ij d_j are real
        dtype = float if self._gauge is not None else self.K.dtype
        shape = (ensemble.N, len(self.K))
        self._E = np.empty(shape, dtype=dtype)
        self._C = None if ensemble.hermitian else np.empty(shape, dtype=dtype)
        self._diag = self.w * np.real(np.diagonal(self.K))  # residual mass w(x) R_k(x, x)
        self._real = not np.iscomplexobj(self._E)
        # work buffers, so that a step allocates no array
        self._col = np.empty(ensemble.N, dtype=dtype)  # contiguous conj(E[:k, idx])
        self._crow = np.empty(shape[1], dtype=complex) if np.iscomplexobj(self.K) else None
        self._tmp = np.empty(shape[1])  # the mass downdate
        self._cdf = np.empty(shape[1])  # the draw's cumulative mass

    @classmethod
    def from_prefix(cls, ensemble, prefix):
        state = cls(ensemble)
        for idx in prefix:
            state.push(idx)
        return state

    @property
    def k(self):
        return len(self.heights)

    @property
    def selected(self):
        """Indices of the atoms conditioned on, in the order pushed."""
        return self._at[: self.k].tolist()

    def density_all(self):
        """Conditional density (w.r.t. mu) of the next point at every atom."""
        N, k = self.ensemble.N, self.k
        if k >= N:
            raise ValueError("all N points are already conditioned on")
        return self._diag / (self.w * (N - k))

    def push(self, idx):
        """Condition on the atom at index idx.

        Raises ValueError when idx is not an integer (Python or numpy; an
        atom value goes through PolynomialEnsemble.atom_index first), is
        not an atom index, or its residual mass is not positive (an atom
        already conditioned on has mass 0.0). The row, the column and the
        downdate are written into the state's own buffers.
        """
        N, k = self.ensemble.N, self.k
        if k >= N:
            raise ValueError("all N points are already conditioned on")
        idx = _atom_number(idx)
        if not 0 <= idx < len(self._diag):
            raise ValueError(f"atom {idx} is outside 0..{len(self._diag) - 1}")
        if not self._diag[idx] > 0:
            raise ValueError(
                f"atom {idx} has residual mass {float(self._diag[idx]):.3e}: "
                "it is conditioned on already or carries no mass"
            )
        E = self._E[:k]
        e = self._E[k]
        krow = self.K[idx]
        if self._gauge is not None:
            krow = np.multiply(np.conj(self._gauge[idx]), krow, out=self._crow)
            krow = np.multiply(krow, self._gauge, out=krow).real
        if self._C is not None:
            np.matmul(self._C[:k, idx], E, out=e)
        else:
            # the strided column is copied: BLAS rounds a strided view differently
            np.matmul(np.conjugate(E[:, idx], out=self._col[:k]), E, out=e)
        np.subtract(krow, e, out=e)
        pivot = float(e[idx].real)
        if pivot <= 0:
            raise NumericalBreakdownError(f"degenerate pivot {pivot:.3e} at atom {idx}")
        root = math.sqrt(pivot)
        np.divide(e, root, out=e)
        e[self._at[:k]] = 0.0  # R_k(x_i, x_j) = 0 at every conditioned x_j
        if self._C is not None:
            col = np.matmul(E[:, idx], self._C[:k], out=self._C[k])
            np.subtract(self.K[:, idx], col, out=col)
            np.divide(col, root, out=col)
            # col * e is complex exactly when K is, as is the buffer _crow
            drop = np.multiply(col, e, out=self._tmp if self._crow is None else self._crow)
        elif self._real:
            drop = np.multiply(e, e, out=self._tmp)
        else:
            drop = np.multiply(np.conjugate(e, out=self._crow), e, out=self._crow)
        self._diag -= np.multiply(self.w, drop.real, out=self._tmp)
        self._diag[idx] = 0.0
        self._at[k] = idx
        self.heights.append(pivot)

    def refactor(self):
        """Rebuild the factors of the current prefix from K: push replayed on a fresh state."""
        prefix = self.selected
        self.__init__(self.ensemble)
        for idx in prefix:
            self.push(idx)

    def base_times_height_check(self):
        """Relative gap between det[K(x_i, x_j)] on the prefix and the
        product of the recorded pivots."""
        if not self.k:
            return 0.0
        sign, logdet = self.ensemble.log_joint_density(self.selected, normalized=False)
        if sign <= 0:
            raise OrthogonalityError("prefix determinant is not positive")
        logprod = float(np.sum(np.log(self.heights)))
        return abs(float(np.expm1(logdet - logprod)))


def _atom_number(idx):
    """idx as a Python int, for an integer of Python or numpy; a bool, a float
    or a string is a ValueError, never truncated to an index."""
    if not isinstance(idx, bool):
        try:
            return operator.index(idx)
        except TypeError:
            pass
    shown = idx.item() if isinstance(idx, np.generic) else idx
    raise ValueError(
        f"atom index {shown!r} is not an integer; "
        "PolynomialEnsemble.atom_index gives the index of an atom value"
    )


def conditional_density(ensemble, prefix):
    """Density vector (over atoms, w.r.t. mu) of the next point given a
    prefix of atom indices."""
    return ConditionalState.from_prefix(ensemble, prefix).density_all()


def sample(ensemble, rng=None, check_normalization=False):
    """One exact draw of the N-point configuration."""
    rng = stream() if rng is None else rng
    return _drive(ConditionalState(ensemble), rng, check_normalization)


def _drive(state, rng, check_normalization=False):
    e = state.ensemble
    m = e.measure
    mass, cdf = state._diag, state._cdf  # push downdates mass in place
    picked = np.empty(e.N)  # residual mass of each point as it was drawn
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(e.N):
            if check_normalization:
                total = float(np.sum(mass)) / (e.N - k)
                if abs(total - 1.0) > 1e-8:
                    raise NumericalBreakdownError(
                        f"conditional density integrates to {total!r}, not 1"
                    )
            try:
                idx = m._inverse_cdf(mass, rng, cdf)
            except NegativityError:
                if mass.dtype.kind == "c":  # an overwritten state, not a kernel at fault
                    raise
                i = int(np.argmin(mass))
                raise PositivityViolationError(
                    f"the kernel defines no point process after {k} points: residual "
                    f"mass at atom x={m.points[i].item()!r} is {mass[i]:.3e}, below "
                    f"-{NEGATIVITY_TOL:g} * max"
                ) from None
            picked[k] = mass[idx]
            state.push(idx)
        indices = state._at.copy()
        # each entry is the density_all() entry of its step, bit for bit
        logs = np.log(picked / (state.w[indices] * np.arange(e.N, 0, -1)))
    logdens = 0.0
    for v in logs.tolist():  # summed in draw order
        logdens += v
    return PointConfiguration(indices, m.points[indices], logdens)


def sample_replicas(ensemble, n_replicas, seed=DEFAULT_SEED, statistic=None):
    """n_replicas independent draws; replica r uses stream(seed, r), so the
    result is reproducible and replica r does not depend on n_replicas.

    Returns (values, log_densities): values is the (replicas, N) index
    matrix, or the per-replica statistic of the drawn points when statistic
    is given.
    """
    if n_replicas < 0:
        raise ValueError(f"n_replicas must be >= 0, got {n_replicas}")
    rows = np.empty((n_replicas, ensemble.N), dtype=int)
    logs = np.empty(n_replicas)
    for r in range(n_replicas):
        cfg = sample(ensemble, rng=stream(seed, r))
        rows[r] = cfg.indices
        logs[r] = cfg.log_density
    if statistic is None:
        return rows, logs
    points = ensemble.measure.points
    return np.asarray([statistic(points[row]) for row in rows]), logs


# -- spectral thinning -------------------------------------------------------


@dataclass
class SpectralData:
    """Kernel in spectral form K(x, y) = sum_k lambda_k phi_k(x) conj(psi_k(y))
    with biorthogonal families and contraction coefficients 0 <= lambda <= 1."""

    lambdas: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    measure: ReferenceMeasure

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.phi = np.asarray(self.phi)
        self.psi = np.asarray(self.psi)
        r = len(self.lambdas)
        n = len(self.measure)
        if self.phi.shape != (r, n) or self.psi.shape != (r, n):
            raise ValueError("phi and psi must be (rank, n_atoms)")
        if not np.all((self.lambdas >= 0) & (self.lambdas <= 1)):  # NaN included
            raise ValueError("contraction needs 0 <= lambda_k <= 1")
        if not self.measure.gram_defect(self.phi, self.psi) <= BIORTHOGONALITY_TOL:
            raise OrthogonalityError("phi and psi are not biorthogonal")

    @property
    def rank(self):
        return len(self.lambdas)

    def intensity(self):
        """1-point correlation density sum lambda_k phi_k psi_k-bar w.r.t. mu."""
        vals = np.einsum("k,ki,ki->i", self.lambdas, self.phi, np.conj(self.psi))
        return vals.real if np.iscomplexobj(vals) else vals


def spectral_from_ensemble(ensemble, lambdas):
    """Spectral data of a hermitian ensemble contracted by the given
    coefficients: phi_k = psi_k = P_k. A non-hermitian ensemble is a
    ValueError: its P_k are not its own duals, and a thinned biorthogonal
    projection need not be a point process."""
    if not ensemble.hermitian:
        raise ValueError("spectral thinning needs a hermitian ensemble")
    lambdas = np.asarray(lambdas, dtype=float)
    if len(lambdas) > ensemble.N:
        raise ValueError("more coefficients than kernel rank")
    P = ensemble.P_vals[: len(lambdas)]
    return SpectralData(lambdas, P, P, ensemble.measure)


def thin_contraction(spectral, rng=None):
    """Bernoulli thinning of a contraction: keep the k-th spectral direction
    with probability lambda_k, returning the projection ensemble on the kept
    directions (possibly zero-rank) and the keep mask. Sampling the returned
    ensemble and mixing over masks reproduces the DPP of the contracted
    kernel."""
    rng = stream() if rng is None else rng
    keep = rng.random(spectral.rank) < spectral.lambdas
    phi = spectral.phi[keep]
    psi = spectral.psi[keep]
    ens = PolynomialEnsemble(spectral.measure, phi, Q_vals=psi, name="thinned-projection")
    return ens, keep
