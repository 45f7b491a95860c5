"""Biorthogonal polynomial ensembles and their correlation kernels.

An ensemble is N biorthogonal pairs (P_k, Q_k) against a reference measure:
<P_j, Q_k> = delta_jk, with kernel K(x, y) = sum_{k<N} P_k(x) conj(Q_k(y)).
The N-point process has joint density det[K(x_i, x_j)] / N! against mu^N.
When Q = P (orthonormal polynomials of mu) the kernel is hermitian and the
process is the usual orthogonal-polynomial ensemble.

P values live on the atoms of the measure; evaluation at arbitrary points
uses the recurrence when a table is attached.
"""

import numpy as np
from scipy.special import gammaln

from .errors import (
    EvaluationError,
    NegativityError,
    NumericalBreakdownError,
    PositivityViolationError,
    RankError,
)
from .measure import NEGATIVITY_TOL
from .recurrence import eval_polynomials, table_from_measure

BIORTHOGONALITY_TOL = 1e-8


class PolynomialEnsemble:
    """N-point polynomial ensemble over an atomic reference measure.

    Attributes
    ----------
    N : number of points / kernel rank.
    measure : the reference measure.
    basis : (rows, n_atoms) values of P_0, P_1, ... at the atoms; at least
        N rows, more when a padded table allows (used for tilts and for the
        pair-correlation machinery that needs P_N).
    Q_vals : None for a hermitian ensemble (Q = P), else (N, n_atoms).
    table : optional RecurrenceTable consistent with the ensemble.
    """

    def __init__(self, measure, basis, N=None, Q_vals=None, table=None, name=None):
        basis = np.asarray(basis)
        if basis.ndim != 2 or basis.shape[1] != len(measure):
            raise ValueError("basis must be (rows, n_atoms) over the measure atoms")
        self.measure = measure
        self.basis = basis
        self.N = int(N) if N is not None else len(basis)
        if not 0 <= self.N <= len(basis):
            raise ValueError("N exceeds available basis rows")
        atoms = np.unique(measure.points).size
        if self.N > atoms:
            raise RankError(f"N={self.N} points need {self.N} distinct atoms; the measure has {atoms}")
        if Q_vals is not None:
            Q_vals = np.asarray(Q_vals)
            if Q_vals.shape != (self.N, len(measure)):
                raise ValueError("Q_vals must be (N, n_atoms)")
        self.Q_vals = Q_vals
        self.table = table
        self.name = name or ("op-ensemble" if Q_vals is None else "biorthogonal-ensemble")
        self._kernel = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_table(cls, table, measure, N=None, name=None):
        """Ensemble whose P_k follow the table's recurrence over the measure.

        For an OP table the caller guarantees table and measure describe the
        same orthonormal family (use from_measure to derive the table). The
        full padded basis is evaluated at the atoms.
        """
        N = table.N if N is None else int(N)
        p0 = 1.0 / np.sqrt(measure.total_mass)
        upto = table.top
        basis = eval_polynomials(table, measure.points, upto, p0=p0)
        if table.form == "banded":
            # Q is the dual family inside span(P); for self-dual families
            # (uniform circle) this is P itself.
            P = basis[:N]
            G = (P * measure.weights) @ P.conj().T
            A = np.linalg.inv(G).conj().T
            Q = A @ P
            if np.max(np.abs(G - np.eye(N))) <= BIORTHOGONALITY_TOL:
                Q = None  # orthonormal rows: hermitian after all
            return cls(measure, basis, N=N, Q_vals=Q, table=table, name=name)
        return cls(measure, basis, N=N, table=table, name=name)

    @classmethod
    def from_measure(cls, measure, N, pad=8, name=None):
        """Orthonormal-polynomial ensemble of the measure itself."""
        table = table_from_measure(measure, N, pad=pad)
        return cls.from_table(table, measure, N=N, name=name)

    @classmethod
    def from_values(cls, measure, P_vals, Q_vals=None, name=None):
        """Ensemble from explicit biorthogonal value rows (e.g. a thinned
        kernel). Only atom-level evaluation is available."""
        P_vals = np.asarray(P_vals)
        herm = Q_vals is None or (
            np.shape(Q_vals) == P_vals.shape and np.array_equal(P_vals, Q_vals)
        )
        return cls(
            measure,
            P_vals,
            N=len(P_vals),
            Q_vals=None if herm else Q_vals,
            name=name,
        )

    # -- basic structure ---------------------------------------------------

    @property
    def hermitian(self):
        return self.Q_vals is None

    @property
    def P_vals(self):
        return self.basis[: self.N]

    @property
    def q_values(self):
        return self.P_vals if self.hermitian else self.Q_vals

    def __repr__(self):
        kind = "hermitian" if self.hermitian else "non-hermitian"
        return f"PolynomialEnsemble({self.name}, N={self.N}, {kind}, atoms={len(self.measure)})"

    def kernel_matrix(self):
        """K(x_i, x_j) on all atom pairs, cached. Checked finite once, when
        formed: an overflowing basis product is a NumericalBreakdownError
        here rather than a non-finite density inside a sampling step."""
        if self._kernel is None:
            with np.errstate(over="ignore", invalid="ignore"):
                K = self.P_vals.T @ np.conj(self.q_values)
            if not np.isfinite(K).all():
                raise NumericalBreakdownError(
                    f"kernel of N={self.N} points on {len(self.measure)} atoms "
                    "is not finite: the basis product overflows"
                )
            self._kernel = K
        return self._kernel

    def biorthogonality_defect(self):
        """max |<P_i, Q_j> - delta_ij| over i, j < N."""
        if self.N == 0:
            return 0.0
        G = (self.P_vals * self.measure.weights) @ np.conj(self.q_values).T
        return float(np.max(np.abs(G - np.eye(self.N))))

    def atom_index(self, x):
        """Index of the atom at value x (within 1e-12 relative)."""
        pts = self.measure.points
        d = np.abs(pts - x)
        i = int(np.argmin(d))
        scale = max(1.0, float(np.max(np.abs(pts))))
        if d[i] > 1e-12 * scale:
            raise EvaluationError(f"{x!r} is not an atom of the measure")
        return i

    # -- evaluation --------------------------------------------------------

    def eval_P(self, x, upto=None):
        """Values of P_0..P_upto (default N-1) at arbitrary points, via the
        recurrence. Needs an attached table."""
        upto = self.N - 1 if upto is None else int(upto)
        if self.table is None:
            raise EvaluationError(
                "ensemble has no recurrence table; only atom values exist"
            )
        p0 = 1.0 / np.sqrt(self.measure.total_mass)
        return eval_polynomials(self.table, x, upto, p0=p0)

    def eval_kernel(self, x, y):
        """K(x, y) at scalar points.

        Hermitian ensembles with a table evaluate anywhere, as the sum of
        P_k(x) conj(P_k(y)) over k < N. Other kernels evaluate only on atoms
        of the measure.
        """
        if not self.hermitian or self.table is None:
            i, j = self.atom_index(x), self.atom_index(y)
            return self.kernel_matrix()[i, j]
        vx = self.eval_P(x)
        vy = self.eval_P(y)
        out = np.sum(vx[:, 0] * np.conj(vy[:, 0]))
        return float(out.real) if not np.iscomplexobj(out) else complex(out)

    def mean_density(self):
        """K(x, x)/N at every atom: density of the mean empirical measure
        against mu. Integrates to 1; tiny negatives clamp, real ones raise."""
        if self.N == 0:
            return np.zeros(len(self.measure))
        d = np.einsum("ki,ki->i", self.P_vals, np.conj(self.q_values))
        if np.iscomplexobj(d):
            top = float(np.max(np.abs(d))) or 1.0
            if np.max(np.abs(d.imag)) > 1e-9 * top:
                raise EvaluationError("kernel diagonal has a non-real part")
            d = d.real
        d = d / self.N
        top = float(np.max(d)) if len(d) else 0.0
        if top <= 0:
            raise NegativityError("mean density is nonpositive everywhere")
        if np.min(d) < -NEGATIVITY_TOL * top:
            i = int(np.argmin(d))
            raise NegativityError(
                f"mean density at atom x={self.measure.points[i]!r} is {d[i]:.3e}"
            )
        return np.clip(d, 0.0, None)

    def joint_density(self, points):
        """det[K(x_i, x_j)] for a configuration given as atom indices (ints)
        or atom values. The normalized N-point probability density against
        mu^N is this divided by N! (see log_joint_density)."""
        idx = self._as_indices(points)
        if len(idx) == 0:
            return 1.0
        sub, sign, logdet = self._minor(idx)
        det = sign * np.exp(logdet)
        if np.iscomplexobj(sub):
            scale = max(1.0, float(np.max(np.abs(sub))) ** len(idx))
            if abs(det.imag) > 1e-9 * scale:
                raise PositivityViolationError(
                    f"joint density has non-real determinant {det!r}"
                )
            det = det.real
        return float(det)

    def log_joint_density(self, points, normalized=True):
        """(sign, log|det K|) of the kernel minor at the points, from the
        diagonally scaled minor (see _minor), with the log N! normalization
        subtracted when normalized=True, so exp(...) is the probability
        density w.r.t. mu^N."""
        idx = self._as_indices(points)
        if len(idx) == 0:
            return 1.0, 0.0
        _, sign, logdet = self._minor(idx)
        if normalized:
            logdet -= gammaln(len(idx) + 1)
        return (float(np.real(sign)), float(logdet))

    def _minor(self, idx):
        """The minor K[idx, idx] and (sign, log|det|) of it. Row and column
        i are divided by sqrt|K_ii| (by 1 where K_ii = 0) before slogdet:
        the unweighted kernel's diagonal spans many decades on wide
        supports, and unscaled elimination loses the small entries' digits."""
        sub = self.kernel_matrix()[np.ix_(idx, idx)]
        d = np.sqrt(np.abs(np.diagonal(sub)))
        d[d == 0] = 1.0
        sign, logdet = np.linalg.slogdet(sub / np.outer(d, d))
        return sub, sign, logdet + 2.0 * np.sum(np.log(d))

    def _as_indices(self, points):
        points = np.atleast_1d(np.asarray(points))
        if points.dtype.kind in "iu":
            return points.astype(int)
        return np.array([self.atom_index(p) for p in points], dtype=int)

    # -- tilting -----------------------------------------------------------

    def tilt_nonorthogonal(self, tilt, validate=False, rng=None, trials=200):
        """Replace Q_k by P_k + sum_j tilt[k, j] P_{N+j}.

        The added directions are orthogonal to span(P_0..P_{N-1}), so
        biorthogonality <P_i, Q_k> = delta is preserved while the kernel
        loses hermitian symmetry. Requires a padded basis covering the tilt
        columns. With validate=True, random principal minors of the new
        kernel are scanned and a PositivityViolationError is raised if any
        is negative beyond tolerance (the tilt then defines no point
        process).
        """
        if not self.hermitian:
            raise ValueError("tilting starts from a hermitian ensemble")
        tilt = np.atleast_2d(np.asarray(tilt, dtype=float))
        if tilt.shape[0] != self.N:
            raise ValueError(f"tilt must have N={self.N} rows")
        d = tilt.shape[1]
        if self.N + d > len(self.basis):
            raise ValueError(
                f"tilt needs basis rows up to {self.N + d - 1}; "
                f"only {len(self.basis)} rows available (increase pad)"
            )
        Q = self.basis[: self.N] + tilt @ self.basis[self.N : self.N + d]
        out = PolynomialEnsemble(
            self.measure,
            self.basis,
            N=self.N,
            Q_vals=Q,
            table=self.table,
            name=f"{self.name}+tilt",
        )
        if validate:
            out.validate_positivity(rng=rng, trials=trials)
        return out

    def validate_positivity(self, rng=None, trials=200):
        """Scan random k-point minors of the kernel for negativity."""
        from .rng import stream

        rng = rng or stream()
        n = len(self.measure)
        for _ in range(trials):
            k = int(rng.integers(1, self.N + 1))
            idx = rng.choice(n, size=min(k, n), replace=False)
            sub, sign, logdet = self._minor(idx)
            minor = np.real(sign * np.exp(logdet))
            scale = max(1.0, float(np.max(np.abs(sub))) ** len(idx))
            if minor < -1e-9 * scale:
                raise PositivityViolationError(
                    f"negative {len(idx)}-point minor {minor:.3e} at atoms {sorted(idx.tolist())}"
                )
        return True
