"""Biorthogonal polynomial ensembles and their correlation kernels.

An ensemble is N biorthogonal pairs (P_k, Q_k) against a reference measure:
<P_j, Q_k> = delta_jk, with kernel K(x, y) = sum_{k<N} P_k(x) conj(Q_k(y)).
The N-point process has joint density det[K(x_i, x_j)] / N! against mu^N.
A table builds only Q = P, orthonormal polynomials of mu, whose hermitian
kernel gives the orthogonal-polynomial ensemble; Q != P comes from a tilt
or from explicit value rows.

On the atoms the ensemble holds only the weighted rows
U[k, i] = sqrt(w_i) P_k(x_i) and, when Q != P, V[k, i] = sqrt(w_i) Q_k(x_i).
The kernel against counting measure on the atoms, L = U^T conj(V), is
sqrt(w_i) K(x_i, x_j) sqrt(w_j): the Gram check, the kernel, its minors and
the sampler read no weights, and a Gram-checked basis has no entry above 1
in modulus. Weights are read only where a result becomes a density against
mu. Off the atoms, values come from the recurrence of an attached table.
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
    _integer,
)
from .measure import NEGATIVITY_TOL, _row_blocks, gram_defect
from .recurrence import DEFAULT_PAD, RecurrenceTable, _lanczos, eval_polynomials
from .rng import stream

BIORTHOGONALITY_TOL = 1e-8

# a phase gauge is real when it leaves |Im| <= this times sqrt(L_ii L_jj) at
# every atom pair: |Im K_ij| <= GAUGE_TOL sqrt(K_ii K_jj) <= GAUGE_TOL max K_ii
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

# a minor's determinant is non-real (or, for validate_positivity, negative)
# beyond roundoff when |Im det| (or -det) exceeds this times prod |L_ii|. That
# ratio is the same for L and K, and prod |K_ii| <= max(1, max |K_ij|)^k
MINOR_TOL = 1e-9

# bytes of one stack's gathered basis columns in the positivity scan, N k
# entries an item; a stack holds at least one item
MINOR_STACK_BYTES = 1 << 20


def _check_rank(N, measure):
    atoms = measure.distinct_atoms
    if N > atoms:
        raise RankError(f"N={N} points need {N} distinct atoms; the measure has {atoms}")


class PolynomialEnsemble:
    """N-point polynomial ensemble over an atomic reference measure.

    Attributes
    ----------
    N : number of points / kernel rank.
    measure : the reference measure.
    basis : (rows, n_atoms) weighted values U[k, i] = sqrt(w_i) P_k(x_i); at
        least N rows, more when a padded table allows (for tilts and the
        pair-correlation machinery that needs P_N).
    Q_vals : None for a hermitian ensemble (Q = P, also when given equal to
        P bit for bit), else (N, n_atoms) weighted values
        V[k, i] = sqrt(w_i) Q_k(x_i), from a tilt or explicit values.
    table : optional RecurrenceTable of P.
    """

    def __init__(self, measure, basis, N=None, Q_vals=None, table=None, name=None):
        basis = np.asarray(basis)
        if basis.ndim != 2 or basis.shape[1] != len(measure):
            raise ValueError("basis must be (rows, n_atoms) over the measure atoms")
        self.measure = measure
        self.basis = basis
        self.N = len(basis) if N is None else _integer(N, "N", 0)
        if self.N > len(basis):
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
        self._rows = self._gauge = None  # sampler_rows, real_gauge

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_table(cls, table, measure, N=None, name=None):
        """Hermitian ensemble whose P_k follow the table's recurrence, the
        full padded weighted basis run at the atoms from
        sqrt(w_i / total mass); an N other than table.N is written into the
        attached table. P_0..P_{N-1} must be orthonormal on the atoms,
        gram_defect(U) within BIORTHOGONALITY_TOL (a NaN Gram is not), else
        OrthogonalityError. The table stays attached only if the padded rows
        are orthogonal to P within the same tolerance."""
        N = table.N if N is None else _integer(N, "N", 1)
        if N != table.N:
            table = RecurrenceTable(N, table.c, table.q)
        _check_rank(N, measure)
        p0 = np.sqrt(measure.weights) / np.sqrt(measure.total_mass)
        basis = eval_polynomials(table, measure.points, table.top, p0=p0)
        P = basis[:N]
        defect = gram_defect(P)
        if not defect <= BIORTHOGONALITY_TOL:
            n = len(measure)
            raise OrthogonalityError(f"its table is not orthonormal on the {n} atoms kept (Gram defect {defect:.3g})")
        above = np.conj(basis[N:]) @ P.T
        if not np.max(np.abs(above), initial=0.0) <= BIORTHOGONALITY_TOL:
            table = None
        return cls(measure, basis, N=N, table=table, name=name)

    @classmethod
    def from_measure(cls, measure, N, pad=DEFAULT_PAD, name=None):
        """Orthonormal-polynomial ensemble of the measure itself: its Lanczos
        table and the checked rows P_0..P_{N+pad} it computed (recurrence._lanczos)."""
        table, U = _lanczos(measure, N, pad=pad)
        return cls(measure, U[: table.top + 1], N=N, table=table, name=name)

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
        """L_ij = sqrt(w_i) K(x_i, x_j) sqrt(w_j), the kernel against
        counting measure on the atoms, bit for bit U^T conj(V), formed
        afresh on each call and not kept (see _form_kernel), so the caller
        owns it. Minors come from the basis (_minor), and the sampler reads
        the read-only rows of sampler_rows."""
        return self._form_kernel()

    def _form_kernel(self):
        """L, formed and checked (see _checked).

        A real kernel is the one product. A complex one is formed in the row
        blocks of _row_blocks, block r as conj(conj(U[:, r])^T V), so only one
        block of the basis is held conjugated; rounding is symmetric in sign,
        so this is U^T conj(V) bit for bit. A complex hermitian kernel forms
        only its upper half: block [lo, hi) computes L[lo:hi, lo:] and, before
        its conjugation, copies its part right of the block transposed into
        L[hi:, lo:hi]. The last block, the last 8 + n mod 8 rows, is full
        width, as the one product forms the last n mod 8 rows with remainder
        tiles whose rounding is not the mirror of the same columns'."""
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
        return self._checked(K, np.diagonal(K), "kernel")

    def sampler_rows(self):
        """(rows, mass), cached and read-only: the one n x n array the
        sampler reads its rows from, and the real part of L's diagonal, the
        mass of the first point. The rows are the real gauged kernel
        G_ij = Re((conj(d_i) L_ij) d_j) when real_gauge finds phases d,
        else L itself (as kernel_matrix forms it).

        G is built in _form_kernel's row blocks with the same products, so
        no complex n x n array is held: block [lo, hi) gives L[lo:hi, lo:]
        and, mirrored, L[hi:, lo:hi], and each is gauged by the two
        multiplies in that order, as the rows of L one at a time would be,
        bit for bit. Every gauged value is tested against GAUGE_TOL before
        its real part is kept; one that fails drops G, and the rows are L."""
        if self._rows is None:
            d = None
            if self.hermitian and np.iscomplexobj(self.P_vals):
                # Christoffel-Darboux on the unit circle: K(z, w) (z conj(w))^(-(N-1)/2) is real
                d = np.exp(0.5j * (self.N - 1) * np.angle(self.measure.points))
            rows = None if d is None else self._gauged_rows(d)
            if rows is None:
                L, d = self._form_kernel(), None
                rows = L, np.real(np.diagonal(L)).copy()
            for part in rows:
                part.flags.writeable = False
            self._rows, self._gauge = rows, d
        return self._rows

    def _gauged_rows(self, d):
        """(G, mass) of sampler_rows for the phases d, or None when a gauged
        value has |Im| > GAUGE_TOL sqrt(L_ii L_jj), with the diagonal read
        from kernel_diagonal."""
        P = self.P_vals
        n = P.shape[1]
        root = np.sqrt(np.real(self.kernel_diagonal()))
        G, mass = np.empty((n, n)), np.empty(n)
        blocks = _row_blocks(n, len(P))
        end = blocks[-1][0]  # no mirror into the full-width last block
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in blocks:
                left = lo if hi < n else 0
                L = np.matmul(np.conj(P[:, lo:hi]).T, P[:, left:])
                lower = L[:, hi - left : end - left].T.copy()  # L[j, i] = conj(L[i, j])
                np.conjugate(L, out=L)
                mass[lo:hi] = np.diagonal(L, offset=lo - left).real
                for r, c, part in ((slice(lo, hi), slice(left, n), L), (slice(hi, end), slice(lo, hi), lower)):
                    np.multiply(np.conj(d[r, None]), part, out=part)
                    np.multiply(part, d[c], out=part)
                    if np.any(np.abs(part.imag) > GAUGE_TOL * np.outer(root[r], root[c])):
                        return None
                    G[r, c] = part.real
        return self._checked(G, None, "kernel"), mass

    def real_gauge(self):
        """Unit phases d with conj(d_i) L_ij d_j real at every atom pair, or
        None; found by building sampler_rows.

        A diagonal unitary similarity leaves every minor of L, and so the
        process, unchanged; the sampler then runs on the real kernel
        G_ij = Re((conj(d_i) L_ij) d_j), which sampler_rows caches in place
        of L. Only a complex hermitian kernel is tried, with
        d_i = exp(i (N - 1) arg(x_i) / 2): by the Christoffel-Darboux
        formula for polynomials orthogonal on the unit circle,
        K(z, w) (z conj(w))^(-(N-1)/2) is real on |z| = |w| = 1. They are
        accepted when every gauged value the build keeps, both halves, has
        |Im| <= GAUGE_TOL sqrt(L_ii L_jj).
        """
        self.sampler_rows()
        return self._gauge

    def kernel_diagonal(self):
        """L_ii = w_i K(x_i, x_i) at every atom, the mass of the mean
        empirical measure times N, read from the basis rows in O(N n)
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
        overflowed, which a Gram-checked basis cannot) and, for a complex
        non-hermitian kernel, if each entry of diag, unless None, has
        |Im L_ii| <= MINOR_TOL |L_ii|, the 1-point case of the minor rule,
        i.e. |Im K_ii| <= MINOR_TOL |K_ii| (else the kernel defines no point
        process: PositivityViolationError)."""
        refusal = self._refusal(values, diag, what)
        if refusal is not None:
            raise refusal
        return values

    def _refusal(self, values, diag, what):
        """The exception _checked raises for values, or None."""
        if not np.isfinite(values).all():
            return NumericalBreakdownError(
                f"{what} of N={self.N} points on {len(self.measure)} atoms "
                "is not finite: the basis product overflows"
            )
        if np.iscomplexobj(diag) and not self.hermitian:
            excess = np.abs(diag.imag) - MINOR_TOL * np.abs(diag)
            if np.max(excess, initial=0.0) > 0:
                i = int(np.argmax(excess))
                return PositivityViolationError(
                    f"kernel diagonal has a non-real part, {abs(diag[i].imag):.3e} against {abs(diag[i]):.3e}"
                )
        return None

    def biorthogonality_defect(self):
        """max |<P_i, Q_j> - delta_ij| over i, j < N (NaN for a NaN Gram), by
        measure.gram_defect of the weighted rows, upper half only when
        hermitian."""
        return gram_defect(self.P_vals, None if self.hermitian else self.Q_vals)

    def atom_index(self, x):
        """Index of the atom at value x (within 1e-12 relative)."""
        pts = self.measure.points
        d = np.abs(pts - x)
        i = int(np.argmin(d))
        if not d[i] <= 1e-12 * max(1.0, float(np.max(np.abs(pts)))):  # a NaN x is no atom
            raise EvaluationError(f"{np.asarray(x).item()!r} is not an atom of the measure")
        return i

    # -- evaluation --------------------------------------------------------

    def eval_P(self, x, upto=None):
        """Values of P_0..P_upto (default N-1) at arbitrary points, via the
        recurrence. Needs an attached table."""
        if self.table is None:
            raise EvaluationError("ensemble has no recurrence table; only atom values exist")
        p0 = 1.0 / np.sqrt(self.measure.total_mass)
        return eval_polynomials(self.table, x, self.N - 1 if upto is None else upto, p0=p0)

    def mean_density(self):
        """K(x, x)/N = L_ii / (N w_i) at every atom: density of the mean
        empirical measure against mu. Integrates to 1; tiny negatives clamp,
        real ones raise. It is inf where it passes the float range, at atoms
        whose weight is too small for K(x, x)."""
        if self.N == 0:
            return np.zeros(len(self.measure))
        with np.errstate(over="ignore"):
            d = np.real(self.kernel_diagonal()) / (self.N * self.measure.weights)
        top = float(np.max(d)) if len(d) else 0.0
        if top <= 0:
            raise NegativityError("mean density is nonpositive everywhere")
        if np.min(d) < -NEGATIVITY_TOL * top:
            i = int(np.argmin(d))
            raise NegativityError(f"mean density at atom x={self.measure.points[i].item()!r} is {d[i]:.3e}")
        return np.clip(d, 0.0, None)

    def joint_density(self, points):
        """det[K(x_i, x_j)] for a configuration given as atom indices (ints)
        or atom values. The normalized N-point probability density against
        mu^N is this divided by N! (see log_joint_density)."""
        sign, logdet = self.log_joint_density(points, normalized=False)
        return float(sign * np.exp(logdet))

    def log_joint_density(self, points, normalized=True):
        """(sign, log|det K|) of the kernel minor at the points, as
        log|det L[idx, idx]| - sum log w_idx (see _minor), less log N! when
        normalized=True, so exp(...) is the probability density w.r.t. mu^N."""
        idx = self._as_indices(points)
        if len(idx) == 0:
            return 1.0, 0.0
        sign, logdet, _ = self._minor(idx)
        logdet -= np.sum(np.log(self.measure.weights[idx]))
        if normalized:
            logdet -= math.lgamma(len(idx) + 1)
        return (float(sign), float(logdet))

    def _minor(self, idx):
        """(sign, log|det|, log h) of the minor L[idx, idx]: the one-set
        case of _minors, whose refusal it raises."""
        sign, logdet, logh, refusal = self._minors(np.asarray(idx)[None])
        if refusal is not None:
            raise refusal
        return sign[0], logdet[0], logh[0]

    def _minors(self, idx, rows=None):
        """(sign, log|det|, log h, refusal) of the minors L[idx[t], idx[t]]
        of an (m, k) stack of atom index sets, each formed from its atoms'
        basis columns in O(N k^2) with no n x n kernel. rows is the pair
        (P.T, Q.T) the columns are gathered from, by default views of the
        basis; a scan of many stacks passes C-ordered copies, whose rows
        gather faster, to the same values.

        Item t has the sign -1, 0 or 1 and h = prod |L_ii|, its Hadamard
        scale (log h = -inf when a diagonal entry is 0). Rows and columns
        are divided by sqrt|L_ii| (by 1 where L_ii = 0) before slogdet: the
        diagonal spans many decades on wide supports, and unscaled
        elimination loses the small entries' digits. A minor that _checked
        refuses, or a complex determinant with |Im| > MINOR_TOL h, is a
        refusal; below that, a complex one whose phase is more than
        SIGN_IMAG_TOL off the real axis is roundoff, (0, -inf). The arrays
        cover the items before the first refused one, and refusal is that
        item's exception, or None.

        Each item's factors have the layout of the one-set product
        P[:, idx].T @ conj(Q[:, idx]) of a C-ordered basis, whose gathers
        are F-ordered: P.T[idx] holds every item's P[:, idx].T. So the
        stacked matmul takes the same BLAS call per item (a product's last
        bits depend on its operands' layout), and with the stacked slogdet
        gives every item bit for bit as the 2-D calls would."""
        m = len(idx)
        PT, QT = rows or (self.P_vals.T, self.q_values.T)
        V = QT[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            sub = np.matmul(PT[idx], np.conjugate(V, out=V).transpose(0, 2, 1))
            diag = sub.diagonal(axis1=1, axis2=2)
            refused = ~np.isfinite(sub).all(axis=(1, 2))
            if np.iscomplexobj(diag) and not self.hermitian:
                refused |= np.max(np.abs(diag.imag) - MINOR_TOL * np.abs(diag), axis=1, initial=0.0) > 0
        stop = int(np.argmax(refused)) if refused.any() else m
        refusal = self._refusal(sub[stop], diag[stop], "kernel minor") if stop < m else None
        sub, diag = sub[:stop], diag[:stop]
        h = np.abs(diag)
        d = np.sqrt(h)
        d[d == 0] = 1.0
        sign, logdet = np.linalg.slogdet(np.divide(sub, d[:, :, None] * d[:, None, :], out=sub))
        logdet += 2.0 * np.log(d).sum(axis=1)
        with np.errstate(divide="ignore"):
            logh = np.log(h).sum(axis=1)
        if np.iscomplexobj(sub):
            phase = np.abs(sign.imag)
            with np.errstate(divide="ignore", invalid="ignore"):
                nonreal = (phase != 0) & (np.log(phase / MINOR_TOL) + logdet > logh)
            if nonreal.any():
                stop = int(np.argmax(nonreal))
                refusal = PositivityViolationError(
                    f"kernel minor at atoms {sorted(idx[stop].tolist())} has a non-real determinant"
                )
                sign, logdet, logh, phase = sign[:stop], logdet[:stop], logh[:stop], phase[:stop]
            roundoff = phase > SIGN_IMAG_TOL
            sign = np.where(roundoff, 0.0, np.sign(sign.real))
            logdet[roundoff] = -np.inf
        return sign, logdet, logh, refusal

    def _as_indices(self, points):
        points = np.atleast_1d(np.asarray(points))
        if points.dtype.kind in "iu":
            return points.astype(int)
        return np.array([self.atom_index(p) for p in points], dtype=int)

    # -- tilting -----------------------------------------------------------

    def tilt_nonorthogonal(self, tilt, validate=False, rng=None, trials=200):
        """Replace Q_k by P_k + sum_j tilt[k, j] P_{N+j}, from a padded basis
        covering the tilt columns.

        Where the padded rows are orthogonal to P_0..P_{N-1}, as for every
        ensemble with an attached table, <P_i, Q_k> = delta holds while the
        kernel loses hermitian symmetry. Elsewhere it need not: a Gram
        defect above BIORTHOGONALITY_TOL is an OrthogonalityError (the
        kernel is no projection). With validate=True, random principal
        minors are scanned, and one negative beyond tolerance is a
        PositivityViolationError (the tilt defines no point process).
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
            raise ValueError(f"tilt needs basis rows up to {self.N + d - 1}; "
                             f"only {len(self.basis)} rows available (increase pad)")
        # an all-zero tilt leaves Q = P, hermitian; self.table describes (P, P), not (P, Q)
        Q = self.basis[: self.N] + tilt @ self.basis[self.N : self.N + d]
        out = PolynomialEnsemble(self.measure, self.basis, N=self.N, Q_vals=Q, name=f"{self.name}+tilt")
        defect = out.biorthogonality_defect()
        if not defect <= BIORTHOGONALITY_TOL:
            raise OrthogonalityError(f"the tilted pair is not biorthogonal (Gram defect {defect:.3g}): "
                                     "the padded rows are not orthogonal to P")
        if validate:
            out.validate_positivity(rng=rng, trials=trials)
        return out

    def validate_positivity(self, rng=None, trials=200):
        """Scan random k-point minors of the kernel (see _minors) for
        negativity: det L[idx, idx] < -MINOR_TOL prod |L_ii| raises.

        Every trial's size k and atoms are drawn first, trial by trial
        (rng.integers, then rng.choice). The minors are then factored in
        stacks of one size, in draw order, each stack's gathered columns
        within MINOR_STACK_BYTES. The columns are gathered from C-ordered
        copies of P.T and, when Q != P, of Q.T, held for the scan only. The
        first failing trial in draw order raises, so a refused scan has
        read the draws of all its trials."""
        rng = rng or stream()
        n = len(self.measure)
        draws = []
        for _ in range(_integer(trials, "trials", 0)):
            k = int(rng.integers(1, self.N + 1))
            draws.append(rng.choice(n, size=min(k, n), replace=False))
        by_size = {}
        for t, idx in enumerate(draws):
            by_size.setdefault(len(idx), []).append(t)
        PT = np.ascontiguousarray(self.P_vals.T)
        rows = PT, PT if self.hermitian else np.ascontiguousarray(self.Q_vals.T)
        itemsize = np.result_type(*rows).itemsize
        first, error = len(draws), None
        for k, members in by_size.items():
            step = max(1, MINOR_STACK_BYTES // (self.N * k * itemsize))
            for lo in range(0, len(members), step):
                chunk = members[lo : lo + step]
                idx = np.array([draws[t] for t in chunk])
                sign, logdet, logh, refusal = self._minors(idx, rows)
                with np.errstate(invalid="ignore"):  # -inf - -inf where sign is 0
                    negative = (sign < 0) & (logdet - logh > np.log(MINOR_TOL))
                if negative.any():
                    i = int(np.argmax(negative))
                    refusal = PositivityViolationError(
                        f"negative {k}-point minor, log|det| {logdet[i]:.3f}, at atoms {sorted(idx[i].tolist())}"
                    )
                elif refusal is None:
                    continue
                else:
                    i = len(sign)
                if chunk[i] < first:
                    first, error = chunk[i], refusal
                break  # the size's later trials come later in draw order
        if error is not None:
            raise error
        return True
