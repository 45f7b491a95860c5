"""Biorthogonal polynomial ensembles and their correlation kernels.

An ensemble is N biorthogonal pairs (P_k, Q_k) against a reference measure:
<P_j, Q_k> = delta_jk, with kernel K(x, y) = sum_{k<N} P_k(x) conj(Q_k(y)).
The N-point process has joint density det[K(x_i, x_j)] / N! against mu^N.
A table builds only Q = P, orthonormal polynomials of mu, whose hermitian
kernel gives the orthogonal-polynomial ensemble; Q != P comes from a tilt
or from explicit value rows.

P values live on the atoms of the measure; evaluation at arbitrary points
uses the recurrence when a table is attached.
"""

import math

import numpy as np

from .errors import (
    EvaluationError,
    NegativityError,
    NumericalBreakdownError,
    OrthogonalityError,
    PositivityViolationError,
    RankError,
)
from .measure import NEGATIVITY_TOL, _row_blocks
from .recurrence import DEFAULT_PAD, RecurrenceTable, eval_polynomials, table_from_measure

BIORTHOGONALITY_TOL = 1e-8

# a phase gauge is real when it leaves |Im| <= this times max K(x, x)
GAUGE_TOL = 1e-12

# a complex minor whose unit sign has |Im| above this has a determinant at
# roundoff. Measured only on the uniform circle, N=300 on 1200 atoms: drawn
# configurations keep |Im sign| <= 7.4e-11 (30 draws), while the numerically
# singular minors at atoms 0..299 and at 300 random atoms read 0.92 and 0.95.
# The size of the determinant does not separate the two: relative to
# max(1, max|K_ij|)^k the drawn minors sit at e^-103..e^-146, already far
# below k*eps, and the singular ones at e^-839 and e^-7254. It applies to
# complex minors only; a real minor's sign is numpy's +-1 at any size
SIGN_IMAG_TOL = 1e-6

_UNCHECKED = object()


def _check_rank(N, measure):
    atoms = measure.distinct_atoms
    if N > atoms:
        raise RankError(f"N={N} points need {N} distinct atoms; the measure has {atoms}")


def _log_scale(sub):
    """log of max(1, max|K_ij|)^k, the size scale of a k x k minor's
    determinant, in logs so that large minors do not overflow."""
    return len(sub) * np.log(max(1.0, np.max(np.abs(sub))))


def _signed_logdet(sub, idx):
    """(sign, log|det|) of the kernel minor sub at atoms idx, the sign -1,
    0 or 1. Row and column i are divided by sqrt|K_ii| (by 1 where K_ii = 0)
    before slogdet: the unweighted kernel's diagonal spans many decades on
    wide supports, and unscaled elimination loses the small entries' digits.
    A complex determinant with |Im| > 1e-9 max(1, max|K_ij|)^k is a
    PositivityViolationError; below that, one whose phase is more than
    SIGN_IMAG_TOL off the real axis is roundoff, (0, -inf)."""
    d = np.sqrt(np.abs(np.diagonal(sub)))
    d[d == 0] = 1.0
    sign, logdet = np.linalg.slogdet(sub / np.outer(d, d))
    logdet += 2.0 * np.sum(np.log(d))
    if np.iscomplexobj(sub):
        with np.errstate(divide="ignore"):
            excess = np.log(abs(sign.imag) / 1e-9) + logdet - _log_scale(sub)
        if excess > 0:
            raise PositivityViolationError(f"kernel minor at atoms {sorted(idx.tolist())} has a non-real determinant")
        if abs(sign.imag) > SIGN_IMAG_TOL:
            return 0.0, -np.inf
        sign = np.sign(sign.real)
    return sign, logdet


class PolynomialEnsemble:
    """N-point polynomial ensemble over an atomic reference measure.

    Attributes
    ----------
    N : number of points / kernel rank.
    measure : the reference measure.
    basis : (rows, n_atoms) values of P_0, P_1, ... at the atoms; at least
        N rows, more when a padded table allows (used for tilts and for the
        pair-correlation machinery that needs P_N).
    Q_vals : None for a hermitian ensemble (Q = P, also when given equal to
        P bit for bit), else (N, n_atoms), from a tilt or explicit values.
    table : optional RecurrenceTable of P.
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
        _check_rank(self.N, measure)
        if Q_vals is not None:
            Q_vals = np.asarray(Q_vals)
            if Q_vals.shape != (self.N, len(measure)):
                raise ValueError("Q_vals must be (N, n_atoms)")
            if np.array_equal(Q_vals, basis[: self.N]):
                Q_vals = None
        self.Q_vals = Q_vals
        self.table = table
        self.name = name or ("op-ensemble" if Q_vals is None else "biorthogonal-ensemble")
        self._kernel = None
        self._gauge = _UNCHECKED

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_table(cls, table, measure, N=None, name=None):
        """Hermitian ensemble whose P_k follow the table's recurrence over
        the measure, with the full padded basis evaluated at the atoms; an N
        other than table.N is written into the attached table. P_0..P_{N-1}
        must be orthonormal on the atoms, measure.gram_defect(P) within
        BIORTHOGONALITY_TOL (a NaN Gram is not), else OrthogonalityError.
        The table stays attached only if the padded rows are orthogonal to P
        within the same tolerance, checked conjugated with no conjugated copy
        of the basis; else table=None."""
        N = table.N if N is None else int(N)
        if N != table.N:
            table = RecurrenceTable(N, table.c, table.q)
        _check_rank(N, measure)
        p0 = 1.0 / np.sqrt(measure.total_mass)
        basis = eval_polynomials(table, measure.points, table.top, p0=p0)
        P = basis[:N]
        defect = measure.gram_defect(P)
        if not defect <= BIORTHOGONALITY_TOL:
            n = len(measure)
            raise OrthogonalityError(f"its table is not orthonormal on the {n} atoms kept (Gram defect {defect:.3g})")
        above = (np.conj(basis[N:]) * measure.weights) @ P.T
        if not np.max(np.abs(above), initial=0.0) <= BIORTHOGONALITY_TOL:
            table = None
        return cls(measure, basis, N=N, table=table, name=name)

    @classmethod
    def from_measure(cls, measure, N, pad=DEFAULT_PAD, name=None):
        """Orthonormal-polynomial ensemble of the measure itself."""
        table = table_from_measure(measure, N, pad=pad)
        return cls.from_table(table, measure, N=N, name=name)

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
        """K(x_i, x_j) on all atom pairs, cached; bit for bit P^T conj(Q).
        Only the sampler needs it: minors come from the basis (_minor).
        Checked once, when formed (see _checked), not inside a step.

        A real kernel is the one product (numpy sends the hermitian P^T P to
        a symmetric rank-k routine). A complex one is formed in the row
        blocks of _row_blocks, block r as conj(conj(P[:, r])^T Q), so only one
        block of the basis is ever held conjugated; rounding is symmetric in
        sign, so this is P^T conj(Q) bit for bit.

        A complex hermitian kernel forms only its upper half. Block [lo, hi)
        computes K[lo:hi, lo:], and before its conjugation, its part right of
        the block is copied transposed into K[hi:, lo:hi], so no second n x n
        array is held. The last block, the last 8 + n mod 8 rows, is full
        width: the one product forms the last n mod 8 rows with remainder
        tiles, whose rounding is not the mirror of the same columns', so
        those rows are computed, not mirrored."""
        if self._kernel is None:
            P, Q = self.P_vals, self.q_values
            with np.errstate(over="ignore", invalid="ignore"):
                if np.iscomplexobj(Q):
                    n = P.shape[1]
                    K = np.empty((n, Q.shape[1]), dtype=np.result_type(P, Q))
                    blocks = _row_blocks(n, len(P))
                    end = blocks[-1][0] if self.hermitian else 0  # no mirror into the full-width last block
                    for lo, hi in blocks:
                        left = lo if self.hermitian and hi < n else 0
                        rows = K[lo:hi, left:]
                        np.matmul(np.conj(P[:, lo:hi]).T, Q[:, left:], out=rows)
                        K[hi:end, lo:hi] = K[lo:hi, hi:end].T  # K[j, i] = conj(K[i, j])
                        np.conjugate(rows, out=rows)
                else:
                    K = P.T @ Q
            self._kernel = self._checked(K, np.diagonal(K), "kernel")
        return self._kernel

    def real_gauge(self):
        """Unit phases d with conj(d_i) K(x_i, x_j) d_j real at every atom
        pair, or None. Cached.

        A diagonal unitary similarity leaves every minor of K, and so the
        process, unchanged; the sampler then runs on the real kernel
        Re(conj(d_i) K_ij d_j). Only a complex hermitian kernel is tried,
        with d_i = exp(i (N - 1) arg(x_i) / 2): by the Christoffel-Darboux
        formula for polynomials orthogonal on the unit circle,
        K(z, w) (z conj(w))^(-(N-1)/2) is real on |z| = |w| = 1. The phases
        are accepted when max |Im(conj(d_i) K_ij d_j)| <= GAUGE_TOL max K_ii.
        That imaginary part is antisymmetric, so only the upper half is
        scanned, K[lo:hi, lo:] for the row blocks of _row_blocks, and no
        second n x n array is formed. A real kernel needs no gauge, and a
        non-hermitian or failing one has none: both give None.
        """
        if self._gauge is _UNCHECKED:
            self._gauge = self._find_real_gauge()
        return self._gauge

    def _find_real_gauge(self):
        K = self.kernel_matrix()
        if not (self.hermitian and np.iscomplexobj(K)):
            return None
        d = np.exp(0.5j * (self.N - 1) * np.angle(self.measure.points))
        tol = GAUGE_TOL * np.max(np.real(np.diagonal(K)), initial=0.0)
        for lo, hi in _row_blocks(len(K), len(K)):
            block = K[lo:hi, lo:] * d[lo:]
            block *= np.conj(d[lo:hi, None])
            if np.max(np.abs(block.imag)) > tol:
                return None
        return d

    def kernel_diagonal(self):
        """K(x_i, x_i) at every atom, read from the basis rows in O(N n)
        without forming the n x n kernel. Checked like kernel_matrix. One
        einsum per row block of atoms (_row_blocks), real or complex: a
        complex Q is conjugated one block at a time, so no conjugated copy
        of the basis is held, and each block's sums are the one-shot
        einsum's bit for bit."""
        P, Q = self.P_vals, self.q_values
        d = np.empty(P.shape[1], dtype=np.result_type(P, Q))
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in _row_blocks(P.shape[1], len(P)):
                np.einsum("ki,ki->i", P[:, lo:hi], np.conj(Q[:, lo:hi]), out=d[lo:hi])
        return self._checked(d, d, "kernel diagonal")

    def _checked(self, values, diag, what):
        """values, if finite (else NumericalBreakdownError: the basis product
        overflowed) and, for a complex non-hermitian kernel, if the diagonal
        diag, unless None, is real to 1e-9 of its largest modulus (else the
        kernel defines no point process: PositivityViolationError)."""
        if not np.isfinite(values).all():
            raise NumericalBreakdownError(
                f"{what} of N={self.N} points on {len(self.measure)} atoms "
                "is not finite: the basis product overflows"
            )
        if np.iscomplexobj(diag) and not self.hermitian:
            top, worst = np.max(np.abs(diag), initial=0.0), np.max(np.abs(diag.imag), initial=0.0)
            if worst > 1e-9 * (top or 1.0):
                raise PositivityViolationError(f"kernel diagonal has a non-real part, {worst:.3e} against {top:.3e}")
        return values

    def biorthogonality_defect(self):
        """max |<P_i, Q_j> - delta_ij| over i, j < N (NaN for a NaN Gram), by
        measure.gram_defect in the row blocks of _row_blocks, upper half only
        when hermitian."""
        return self.measure.gram_defect(self.P_vals, None if self.hermitian else self.Q_vals)

    def atom_index(self, x):
        """Index of the atom at value x (within 1e-12 relative)."""
        pts = self.measure.points
        d = np.abs(pts - x)
        i = int(np.argmin(d))
        scale = max(1.0, float(np.max(np.abs(pts))))
        if d[i] > 1e-12 * scale:
            raise EvaluationError(f"{np.asarray(x).item()!r} is not an atom of the measure")
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
            with np.errstate(over="ignore", invalid="ignore"):
                value = self.P_vals[:, i] @ np.conj(self.q_values[:, j])
            return self._checked(value, None, "kernel value")
        vx = self.eval_P(x)
        vy = self.eval_P(y)
        out = np.sum(vx[:, 0] * np.conj(vy[:, 0]))
        return float(out.real) if not np.iscomplexobj(out) else complex(out)

    def mean_density(self):
        """K(x, x)/N at every atom: density of the mean empirical measure
        against mu. Integrates to 1; tiny negatives clamp, real ones raise."""
        if self.N == 0:
            return np.zeros(len(self.measure))
        d = np.real(self.kernel_diagonal()) / self.N
        top = float(np.max(d)) if len(d) else 0.0
        if top <= 0:
            raise NegativityError("mean density is nonpositive everywhere")
        if np.min(d) < -NEGATIVITY_TOL * top:
            i = int(np.argmin(d))
            raise NegativityError(
                f"mean density at atom x={self.measure.points[i].item()!r} is {d[i]:.3e}"
            )
        return np.clip(d, 0.0, None)

    def joint_density(self, points):
        """det[K(x_i, x_j)] for a configuration given as atom indices (ints)
        or atom values. The normalized N-point probability density against
        mu^N is this divided by N! (see log_joint_density)."""
        sign, logdet = self.log_joint_density(points, normalized=False)
        return float(sign * np.exp(logdet))

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
            logdet -= math.lgamma(len(idx) + 1)
        return (float(sign), float(logdet))

    def _minor(self, idx):
        """The minor K[idx, idx], formed from the basis columns of its atoms
        in O(N k^2) and checked (see _checked), and the real (sign, log|det|)
        of it (see _signed_logdet). No n x n kernel is formed."""
        with np.errstate(over="ignore", invalid="ignore"):
            sub = self.P_vals[:, idx].T @ np.conj(self.q_values[:, idx])
        sub = self._checked(sub, np.diagonal(sub), "kernel minor")
        return (sub, *_signed_logdet(sub, idx))

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
        loses hermitian symmetry, unless the tilt is all zero. Requires a
        padded basis covering the tilt columns. With validate=True, random
        principal minors of the new kernel are scanned and a
        PositivityViolationError is raised if any is negative beyond
        tolerance (the tilt then defines no point process).
        """
        if not self.hermitian:
            raise ValueError("tilting starts from a hermitian ensemble")
        tilt = np.atleast_2d(np.asarray(tilt, dtype=float))
        if tilt.shape[0] != self.N:
            raise ValueError(f"tilt must have N={self.N} rows")
        bad = np.argwhere(~np.isfinite(tilt))
        if len(bad):
            k, j = bad[0]
            raise ValueError(f"tilt[{k}][{j}] must be finite, got {tilt[k, j]}")
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
            Q_vals=Q,  # an all-zero tilt leaves Q = P: hermitian
            table=None,  # self.table describes (P, P), not (P, Q)
            name=f"{self.name}+tilt",
        )
        if validate:
            out.validate_positivity(rng=rng, trials=trials)
        return out

    def validate_positivity(self, rng=None, trials=200):
        """Scan random k-point minors of the kernel (see _minor) for
        negativity."""
        from .rng import stream

        rng = rng or stream()
        n = len(self.measure)
        for _ in range(trials):
            k = int(rng.integers(1, self.N + 1))
            idx = rng.choice(n, size=min(k, n), replace=False)
            sub, sign, logdet = self._minor(idx)
            if sign < 0 and logdet - _log_scale(sub) > np.log(1e-9):
                raise PositivityViolationError(
                    f"negative {len(idx)}-point minor, log|det| {logdet:.3f}, at atoms {sorted(idx.tolist())}"
                )
        return True
