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

Every step draws exactly from the conditional density restricted to the
atoms (categorical draw, no rejection). The chain multiplies to the DPP
density: sum of log conditional densities = log det K[points] - log N!.

Each point is one uniform, drawn as ReferenceMeasure.sample_categorical
describes; each step validates its mass in one pass, and the kernel is
checked finite once, when kernel_matrix() forms it.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalBreakdownError, OrthogonalityError
from .measure import ReferenceMeasure
from .ensemble import PolynomialEnsemble
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
        self.Kdiag = np.ascontiguousarray(np.real(np.diag(self.K)))
        self.selected = []
        self.heights = []  # pivots R_k(x_k, x_k), ratios of consecutive prefix minors
        shape = (ensemble.N, len(self.K))
        self._E = np.empty(shape, dtype=self.K.dtype)
        self._C = None if ensemble.hermitian else np.empty(shape, dtype=self.K.dtype)
        self._diag = self.Kdiag.copy()  # R_k(x, x)
        self._real = not np.iscomplexobj(self.K)

    @classmethod
    def from_prefix(cls, ensemble, prefix):
        state = cls(ensemble)
        state.selected = [int(idx) for idx in prefix]
        state.refactor()
        return state

    @property
    def k(self):
        return len(self.selected)

    def density_all(self):
        """Conditional density (w.r.t. mu) of the next point at every atom."""
        N, k = self.ensemble.N, self.k
        if k >= N:
            raise ValueError("all N points are already conditioned on")
        return self._diag / (N - k)

    def push(self, idx):
        """Condition on the atom at index idx."""
        N, k = self.ensemble.N, self.k
        if k >= N:
            raise ValueError("all N points are already conditioned on")
        idx = int(idx)
        E = self._E[:k]
        if self._C is not None:
            row = self.K[idx] - self._C[:k, idx] @ E
        else:
            row = self.K[idx] - np.conj(E[:, idx]) @ E
        pivot = float(np.real(row[idx]))
        if pivot <= 0:
            raise NumericalBreakdownError(f"degenerate pivot {pivot:.3e} at atom {idx}")
        root = np.sqrt(pivot)
        e = np.divide(row, root, out=self._E[k])
        if self._C is not None:
            col = (self.K[:, idx] - E[:, idx] @ self._C[:k]) / root
            self._C[k] = col
            self._diag -= np.real(col * e)
        elif self._real:
            self._diag -= e * e
        else:
            self._diag -= np.real(np.conj(e) * e)
        self.heights.append(pivot)
        self.selected.append(idx)

    def refactor(self):
        """Rebuild the factors of the current prefix from K by replaying push."""
        prefix = self.selected
        self.selected, self.heights = [], []
        self._diag = self.Kdiag.copy()
        for idx in prefix:
            self.push(idx)

    def base_times_height_check(self):
        """Relative gap between det[K(x_i, x_j)] on the prefix and the
        product of the recorded pivots."""
        if not self.selected:
            return 0.0
        sign, logdet = self.ensemble.log_joint_density(self.selected, normalized=False)
        if sign <= 0:
            raise OrthogonalityError("prefix determinant is not positive")
        logprod = float(np.sum(np.log(self.heights)))
        return abs(float(np.expm1(logdet - logprod)))


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
    logdens = 0.0
    for _ in range(e.N):
        vals = state.density_all()
        if check_normalization:
            total = float(np.sum(vals * m.weights))
            if abs(total - 1.0) > 1e-8:
                raise NumericalBreakdownError(
                    f"conditional density integrates to {total!r}, not 1"
                )
        idx = m.sample_categorical(vals, rng)
        logdens += float(np.log(vals[idx]))
        state.push(idx)
    indices = np.array(state.selected, dtype=int)
    return PointConfiguration(indices, m.points[indices], logdens)


def _worker_count():
    raw = os.environ.get("POLYENS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"POLYENS_THREADS must be an integer, got {raw!r}") from None


def _run_chunk(ensemble, seed, replicas):
    rows = np.empty((len(replicas), ensemble.N), dtype=int)
    logs = np.empty(len(replicas))
    for i, r in enumerate(replicas):
        cfg = sample(ensemble, rng=stream(seed, r))
        rows[i] = cfg.indices
        logs[i] = cfg.log_density
    return rows, logs


def sample_replicas(ensemble, n_replicas, seed=DEFAULT_SEED, statistic=None):
    """n_replicas independent draws; replica r uses stream(seed, r), so the
    result is reproducible and independent of worker fan-out.

    Returns (values, log_densities): values is the (replicas, N) index
    matrix, or the per-replica statistic of the drawn points when statistic
    is given. POLYENS_THREADS > 1 fans the draws out over processes; the
    statistic always runs in the calling process, so any callable works.
    """
    workers = min(_worker_count(), max(1, n_replicas))
    todo = np.arange(n_replicas)
    if workers == 1 or n_replicas < 4:
        rows, logs = _run_chunk(ensemble, seed, todo)
    else:
        import concurrent.futures

        chunks = np.array_split(todo, workers)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, [ensemble] * workers, [seed] * workers, chunks))
        rows = np.concatenate([p[0] for p in parts])
        logs = np.concatenate([p[1] for p in parts])
    if statistic is None:
        return rows, logs
    points = ensemble.measure.points
    return np.asarray([statistic(points[r]) for r in rows]), logs


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
        if np.any(self.lambdas < 0) or np.any(self.lambdas > 1):
            raise ValueError("contraction needs 0 <= lambda_k <= 1")
        G = (self.phi * self.measure.weights) @ np.conj(self.psi).T
        if r and np.max(np.abs(G - np.eye(r))) > 1e-8:
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
    coefficients: phi_k = psi_k = P_k."""
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
    ens = PolynomialEnsemble.from_values(
        spectral.measure, phi, psi, name="thinned-projection"
    )
    return ens, keep
