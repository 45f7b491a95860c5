"""Exact chain-rule sampling of polynomial ensembles on atomic measures.

One route serves every kernel, hermitian or not. It runs on
L_ij = sqrt(w_i) K(x_i, x_j) sqrt(w_j), the kernel against counting
measure on the atoms, and reads no weights; its rows come from the one
n x n array the ensemble caches, PolynomialEnsemble.sampler_rows. After k
points the residual kernel

    R_k(x, y) = L(x, y) - sum_{j<k} C_j(x) E_j(y)

is kept in factored form. Conditioning on an atom i with pivot
s = R_k(i, i) > 0 appends the residual row E_k = R_k(i, .)/sqrt(s) and
column C_k = R_k(., i)/sqrt(s), an incremental LU of the prefix minor at
O(k n) per step; s is the minor ratio det L[prefix + i] / det L[prefix].
For a hermitian kernel C_k = conj(E_k) is not stored and the update is
Gram-Schmidt on the rows L(x_i, .) (Hough, Krishnapur, Peres and Virag
2006). A complex hermitian kernel with a real gauge
(PolynomialEnsemble.real_gauge, as for every OP ensemble on the unit
circle) is factored in real arithmetic: the diagonal unitary similarity
leaves every minor, pivot and mass unchanged, and the cached rows are the
real G_ij = Re((conj(d_i) L_ij) d_j), gauged once when built, so a step
reads G[idx] as it reads a row of a real L. The first mass is Re L_ii in
every case. Other complex kernels keep complex rows.

The state keeps the residual diagonal R_k(x, x), the mass of the next
point, and each point is one uniform drawn from it by the inverse-CDF
routine of ReferenceMeasure.sample_mass, the one validated draw. The chain
multiplies to the DPP density, sum of log conditional densities =
log det K[points] - log N!. Weights are read only where a mass becomes a
density against mu: density_all, and the log density of a draw, summed as
log(mass) - log(w) - log(N - k) so that it is finite where the density
itself overflows.

One step loop, ConditionalState._steps, serves push, from_prefix, refactor
and sample, and binds what it reads once per call. It allocates no array:
it writes the row into E[k], a non-hermitian column into C[k] and the
downdate into buffers the state owns, by the operations a step on fresh
arrays runs, in the same order, so draws do not move by a bit. R_k vanishes
on the atoms conditioned on, and the state holds that exactly: the new row
is 0.0 at every earlier point and the new point's mass is 0.0. A given
index is checked at its step (an integer, an atom index, mass > 0). A drawn
one needs no check: the draw thresholds the running mass c at the uniform
u, taking the first j with fl(c_j / c[-1]) > u, which is below n and where
c rose, at mass > 0 (ReferenceMeasure._inverse_cdf). Every step checks its
pivot. The draw validates each mass before it reads a uniform, in full
only for a mass with a negative or non-finite entry or a sum that is not
positive and finite; a negative beyond roundoff is a
PositivityViolationError (the kernel defines no point process). A draw
reads its N - k uniforms as one rng.random(N - k) block once its first mass
is validated: the doubles N - k scalar reads give, in the same order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NegativityError,
    NumericalBreakdownError,
    OrthogonalityError,
    PositivityViolationError,
    _integer,
)
from .measure import NEGATIVITY_TOL, ReferenceMeasure, gram_defect
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
    """Chain-rule state after conditioning on a prefix of points. rows is
    the ensemble's cached array of sampler_rows, read, never written: L,
    or the real gauged rows G of a kernel with a real gauge."""

    def __init__(self, ensemble):
        self.ensemble = ensemble
        self.rows, mass = ensemble.sampler_rows()  # L, or the real gauged rows of L
        self.heights = []  # pivots R_k(x_k, x_k), ratios of consecutive prefix minors
        self._at = np.empty(ensemble.N, dtype=np.intp)  # atoms conditioned on, in order
        shape = (ensemble.N, len(self.rows))
        self._E = np.empty(shape, dtype=self.rows.dtype)
        self._C = None if ensemble.hermitian else np.empty(shape, dtype=self.rows.dtype)
        self._diag = mass.copy()  # residual mass R_k(x, x)
        self._real = not np.iscomplexobj(self.rows)
        # work buffers, so that a step allocates no array
        self._col = np.empty(ensemble.N, dtype=self.rows.dtype)  # contiguous conj(E[:k, idx])
        self._crow = None if self._real else np.empty(shape[1], dtype=complex)  # complex products
        self._tmp = np.empty(shape[1])  # the mass downdate
        self._cdf = np.empty(shape[1])  # the draw's cumulative mass

    @classmethod
    def from_prefix(cls, ensemble, prefix):
        state = cls(ensemble)
        state._steps(prefix)
        return state

    @property
    def k(self):
        return len(self.heights)

    @property
    def selected(self):
        """Indices of the atoms conditioned on, in the order pushed."""
        return self._at[: self.k].tolist()

    def density_all(self):
        """Conditional density (w.r.t. mu) of the next point at every atom; inf where it overflows."""
        N, k = self.ensemble.N, self.k
        if k >= N:
            raise ValueError("all N points are already conditioned on")
        with np.errstate(over="ignore"):
            return self._diag / (self.ensemble.measure.weights * (N - k))

    def push(self, idx):
        """Condition on the atom at index idx by one pass of the step loop,
        which checks a given index: ValueError when idx is not an integer (an
        atom value goes through PolynomialEnsemble.atom_index first), is not
        an atom index, or its residual mass is not positive (as at an atom
        conditioned on)."""
        self._steps((idx,))

    def _steps(self, given, rng=None, picked=None, check_normalization=False):
        """The one step loop: condition on each index of given, checked as
        push says, or, given None, on N - k indices drawn from rng by one
        block of uniforms, unchecked, each one's residual mass written to
        picked (see the module docstring)."""
        N, n, k = self.ensemble.N, len(self._diag), self.k
        rows, at, diag, E_all, C_all, col = self.rows, self._at, self._diag, self._E, self._C, self._col
        real, drop = self._real, self._tmp if self._real else self._crow
        drop_re, record, draw, cdf = drop.real, self.heights.append, self.ensemble.measure._inverse_cdf, self._cdf
        uniform = _block(rng, N - k).__next__ if given is None else None
        matmul, subtract, divide, multiply, conjugate = np.matmul, np.subtract, np.divide, np.multiply, np.conjugate
        for idx in range(k, N) if given is None else given:
            if given is None:
                if check_normalization and abs((total := float(np.sum(diag)) / (N - k)) - 1.0) > 1e-8:
                    raise NumericalBreakdownError(f"conditional density integrates to {total!r}, not 1")
                idx = draw(diag, uniform, cdf)  # an atom index with mass > 0: see the module docstring
                picked[k] = diag[idx]
            else:
                if k >= N:
                    raise ValueError("all N points are already conditioned on")
                idx = _integer(idx, "atom index", hint="; PolynomialEnsemble.atom_index gives the index of an atom value")
                if not 0 <= idx < n:
                    raise ValueError(f"atom {idx} is outside 0..{n - 1}")
                if not diag[idx] > 0:
                    raise ValueError(
                        f"atom {idx} has residual mass {float(diag[idx]):.3e}: "
                        "it is conditioned on already or carries no mass"
                    )
            E, e = E_all[:k], E_all[k]
            if C_all is not None:
                matmul(C_all[:k, idx], E, e)
            else:
                # the strided column is copied: BLAS rounds a strided view differently
                matmul(conjugate(E[:, idx], col[:k]), E, e)
            subtract(rows[idx], e, e)
            pivot = e.item(idx).real
            if pivot <= 0:
                raise NumericalBreakdownError(f"degenerate pivot {pivot:.3e} at atom {idx}")
            root = math.sqrt(pivot)
            divide(e, root, e)
            e[at[:k]] = 0.0  # R_k(x_i, x_j) = 0 at every conditioned x_j
            if C_all is not None:
                c = matmul(E[:, idx], C_all[:k], C_all[k])
                subtract(rows[:, idx], c, c)
                divide(c, root, c)
                multiply(c, e, drop)
            elif real:
                multiply(e, e, drop)
            else:
                multiply(conjugate(e, drop), e, drop)
            subtract(diag, drop_re, diag)
            diag[idx] = 0.0
            at[k] = idx
            record(pivot)
            k += 1

    def refactor(self):
        """Rebuild the factors of the current prefix from the rows: the step loop replayed on a fresh state."""
        prefix = self.selected
        self.__init__(self.ensemble)
        self._steps(prefix)

    def base_times_height_check(self):
        """Relative gap between det L on the prefix and the product of the
        recorded pivots."""
        if not self.k:
            return 0.0
        sign, logdet, _ = self.ensemble._minor(self._at[: self.k])
        if sign <= 0:
            raise OrthogonalityError("prefix determinant is not positive")
        logprod = float(np.sum(np.log(self.heights)))
        return abs(float(np.expm1(logdet - logprod)))


def _block(rng, count):
    """A draw's count uniforms as floats, read as one rng.random(count)
    block at the first next(), which the draw makes once the first mass is
    validated. The block stays one array, 8 bytes a point."""
    block = rng.random(count)
    for j in range(count):
        yield block.item(j)


def conditional_density(ensemble, prefix):
    """Density vector (over atoms, w.r.t. mu) of the next point given a
    prefix of atom indices."""
    return ConditionalState.from_prefix(ensemble, prefix).density_all()


def sample(ensemble, rng=None, check_normalization=False):
    """One exact draw of the N-point configuration.

    Point k is the first index whose running mass, over the total, exceeds
    the uniform u_k, found with no normalization pass
    (ReferenceMeasure.sample_mass). The N uniforms u_k are one
    rng.random(N) block, read once the first mass is validated: a draw
    refused at its first mass reads none, and a draw that fails after its
    first point has read exactly the block."""
    rng = stream() if rng is None else rng
    return _drive(ConditionalState(ensemble), rng, check_normalization)


def _drive(state, rng, check_normalization=False):
    """Draw a fresh state's N points by its step loop, which checks no drawn index (module docstring)."""
    e = state.ensemble
    m = e.measure
    picked = np.empty(e.N)  # residual mass of each point as it was drawn
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            state._steps(None, rng, picked, check_normalization)
        except NegativityError:
            mass = state._diag
            if mass.dtype.kind == "c":  # an overwritten state, not a kernel at fault
                raise
            i = int(np.argmin(mass))
            raise PositivityViolationError(
                f"the kernel defines no point process after {state.k} points: residual "
                f"mass at atom x={m.points[i].item()!r} is {mass[i]:.3e}, below "
                f"-{NEGATIVITY_TOL:g} * max"
            ) from None
        indices = state._at.copy()
        # the log of each step's density_all() entry, finite where it overflows
        logs = np.log(picked) - np.log(m.weights[indices]) - np.log(np.arange(e.N, 0, -1))
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
    n_replicas = _integer(n_replicas, "n_replicas", 0)
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
    """Hermitian kernel in spectral form K(x, y) = sum_k lambda_k phi_k(x)
    conj(phi_k(y)) with an orthonormal family and contraction coefficients
    0 <= lambda <= 1. phi holds weighted atom values, sqrt(w_i) phi_k(x_i),
    as the rows of a PolynomialEnsemble do. One family only: a thinned
    biorthogonal projection need not be a point process."""

    lambdas: np.ndarray
    phi: np.ndarray
    measure: ReferenceMeasure

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.phi = np.asarray(self.phi)
        if self.phi.shape != (len(self.lambdas), len(self.measure)):
            raise ValueError("phi must be (rank, n_atoms)")
        if not np.all((self.lambdas >= 0) & (self.lambdas <= 1)):  # NaN included
            raise ValueError("contraction needs 0 <= lambda_k <= 1")
        if not gram_defect(self.phi) <= BIORTHOGONALITY_TOL:
            raise OrthogonalityError("phi is not orthonormal")

    @property
    def rank(self):
        return len(self.lambdas)

    def intensity(self):
        """1-point correlation density sum lambda_k |phi_k|^2 / w w.r.t. mu."""
        return np.real(np.einsum("k,ki,ki->i", self.lambdas, self.phi, np.conj(self.phi))) / self.measure.weights


def spectral_from_ensemble(ensemble, lambdas):
    """Spectral data of a hermitian ensemble contracted by the given
    coefficients: phi_k = P_k. A non-hermitian ensemble is a ValueError:
    its P_k are not its own duals, and a thinned biorthogonal projection
    need not be a point process."""
    if not ensemble.hermitian:
        raise ValueError("spectral thinning needs a hermitian ensemble")
    if len(lambdas) > ensemble.N:
        raise ValueError("more coefficients than kernel rank")
    return SpectralData(lambdas, ensemble.P_vals[: len(lambdas)], ensemble.measure)


def thin_contraction(spectral, rng=None):
    """Bernoulli thinning of a contraction: keep the k-th spectral direction
    with probability lambda_k, returning the hermitian projection ensemble
    on the kept directions (possibly zero-rank) and the keep mask. Sampling
    the returned ensemble and mixing over masks reproduces the DPP of the
    contracted kernel."""
    rng = stream() if rng is None else rng
    keep = rng.random(spectral.rank) < spectral.lambdas
    ens = PolynomialEnsemble(spectral.measure, spectral.phi[keep], name="thinned-projection")
    return ens, keep
