"""Recurrence tables and lattice-path moment formulas.

A table stores the multiplication coefficients <x P_k, Q_m> of a biorthogonal
family as one banded array of lower bandwidth q: c[k][j+1] = <x P_k, Q_{k-j}>
for -1 <= j <= q, everything below the band zero. Orthonormal polynomials are
the symmetric q = 1 case: rows [a_k, b_k, a_{k-1}] with a_k > 0, so
x P_k = a_k P_{k+1} + b_k P_k + a_{k-1} P_{k-1}. A table knows that it is
one (`symmetric`) from its coefficients, not from how it was written.

Powers <x^l P_k, Q_m> are sums over oriented lattice paths (0,k) -> (l,m)
whose steps rise by at most one and fall by at most q, each path weighted by
the product of its edge coefficients. We never enumerate paths: one banded
walk, `_walks`, carries the path weights from a range of starting
ordinates at once, and every table query here and in the variance,
zero-set and limit modules (moments, traces of sections, escape sums) reads
its result, or its weights after each step (`_walk_steps`) to read every
power up to l at once. An l-step walk costs about (q+1)(q+2) l^2 / 2
multiply-adds per start, reads each step's weights from a strided view of
the band, and holds a few grids of (q+1) l + 1 rows by its starts. The loop
sums over every k < N (`_loop_sums`) walk the starts in blocks and add up
each block as it is walked, so they hold one block's grids, a few MB, at
any N; the loops that leave the section (`_escape_weight`) walk only the
starts next to N. On a symmetric table a loop is a path out and the same
path back, so loops of order l walk ceil(l/2) steps (`_loop_weights`).
Every such query returns a complex for a complex table and a float
otherwise (`RecurrenceTable.value`). Indices run over 0..N+pad; a read
past the pad raises, naming the pad that would do (`RecurrenceTable._stored`).
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    CoefficientRangeError,
    InvalidIntervalError,
    NumericalBreakdownError,
    OrthogonalityError,
    RankError,
    _integer,
)
from .measure import equilibrium_measure, gram_defect, scaled_hermite_measure, uniform_circle_measure

DEFAULT_PAD = 8

# largest max |<P_i, P_j> - delta_ij| of a table_from_measure family
ORTHONORMALITY_TOL = 1e-9

# table_from_measure reorthogonalizes when Simon's estimate of an overlap
# passes this. Hermite N=400 on 1024 nodes then needs no pass; clustered,
# uniform K+2 = n and 200-decade weights need 42 to 92, and their true drift
# stays below 1e-13, four orders inside ORTHONORMALITY_TOL. At sqrt(eps),
# Simon's own level, the clustered measure drifted to 1.1e-9
_REORTH_TOL = 1e-11

_EPS = np.finfo(float).eps

# starts per walk in _loop_sums: its grids of (q+1) lmax + 1 rows stay a few
# MB at any N, and N <= _LOOP_BLOCK is walked and summed in one block
_LOOP_BLOCK = 4096


class RecurrenceTable:
    """Banded coefficients c[k][j+1] = <x P_k, Q_{k-j}>, indices 0..N+pad.

    `symmetric` marks the table of orthonormal polynomials: q = 1, real,
    up steps positive, each down step equal to the up step below it.
    `c` is read-only, and `a` and `b` are read-only views of its up steps
    and diagonal.
    """

    def __init__(self, N, c, q):
        self._own(N, np.array(c), q)  # a copy: the caller's array stays the caller's

    @classmethod
    def _of(cls, N, c, q):
        """A table of c itself, no copy: for builders whose c is fresh."""
        table = cls.__new__(cls)
        table._own(N, c, q)
        return table

    def _own(self, N, c, q):
        N, q = _integer(N, "N", 1), _integer(q, "q", 0)
        if c.ndim != 2 or c.shape[1] != q + 2:
            raise ValueError("a table needs c with q + 2 columns")
        if len(c) < N:
            raise ValueError("table must store at least N coefficient rows")
        if not np.all(np.isfinite(c)):  # both parts of a complex table
            raise ValueError("coefficients must be finite")
        for k in range(min(len(c), q + 1)):
            c[k, k + 2:] = 0.0  # target index k-j < 0 does not exist
        c.flags.writeable = False  # symmetric is read from c once, so c stays as read
        self.N, self.c, self.q = N, c, q
        self.a, self.b = c[:, 0], c[:, 1]
        self.symmetric = (q == 1 and not np.iscomplexobj(c) and bool(np.all(c[:, 0] > 0))
                          and np.array_equal(c[1:, 2], c[:-1, 0]))

    @property
    def top(self):
        """Largest stored coefficient index, N + pad."""
        return len(self.c) - 1

    @property
    def pad(self):
        return self.top - self.N

    @property
    def is_complex(self):
        return np.iscomplexobj(self.c)

    def value(self, x):
        """x as the result of a query of this table: a complex for a complex
        table, a float otherwise (where any imaginary part is roundoff)."""
        return complex(x) if self.is_complex else float(np.real(x))

    def __repr__(self):
        return f"RecurrenceTable(N={self.N}, pad={self.pad}, q={self.q})"

    def _stored(self, index, what):
        """The one range rule: a read of coefficient row index past the top
        is a CoefficientRangeError naming the pad that would store it. what
        is a fixed phrase, so no message is built unless it raises."""
        if index > self.top:
            raise CoefficientRangeError(
                f"{what} {index} but the table stores indices up to {self.top} "
                f"(N={self.N}, pad={self.pad}); rebuild with pad >= {index - self.N}"
            )

    def coeff(self, k, m):
        """<x P_k, Q_m>; zero off the band, an error past the pad (_stored)."""
        k, m = _integer(k, "k"), _integer(m, "m")
        if k < 0 or m < 0 or m > k + 1 or m < k - self.q:
            return self.value(0.0)
        self._stored(k, "coeff reads index")
        return self.value(self.c[k, k - m + 1])

    def window_max(self, lo, hi):
        """max |<x P_k, Q_m>| over lo <= k, m <= hi, lo clipped to 0 and hi
        past the pad an error as in coeff; hi < lo is a ValueError."""
        lo = max(_integer(lo, "lo"), 0)
        hi = _integer(hi, "hi", lo)
        self._stored(hi, "the window reaches index")
        k = np.arange(lo, hi + 1)[:, None]
        m = k - np.arange(-1, self.q + 1)
        inside = (lo <= m) & (m <= hi)
        return float(np.max(np.abs(self.c[lo : hi + 1]), where=inside, initial=0.0))


def op_table(a, b, N):
    """Table of orthonormal polynomials from a_0..a_{N+pad} (all > 0) and b
    likewise: the q = 1 rows [a_k, b_k, a_{k-1}], with a_{-1} = 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be 1-d arrays of equal length")
    if np.any(a <= 0):
        raise ValueError("an OP table requires a_k > 0")
    c = np.zeros((len(a), 3))
    c[:, 0], c[:, 1] = a, b
    return _op_rows(c, N)


def _op_rows(c, N):
    """The OP table of rows c[k] = [a_k, b_k, .], its last column filled in
    place with the down steps a_{k-1} (a_{-1} = 0), with no copy of c."""
    c[:1, 2] = 0.0
    c[1:, 2] = c[:-1, 0]
    return RecurrenceTable._of(N, c, 1)


def banded_table(c, q, N):
    """General banded table from the coefficient array c[k][j+1] = <xP_k, Q_{k-j}>."""
    return RecurrenceTable(N, c, q)


def _gue_rows(c, N):
    """exp(-N x^2/2) dx: a_k = sqrt((k+1)/N), b_k = 0."""
    a = c[:, 0]
    np.add(np.arange(len(c)), 1.0, out=a)
    a /= N
    np.sqrt(a, out=a)
    return _op_rows(c, N)


def _chebyshev_rows(c, N, alpha, beta):
    """Arcsine measure of [alpha, beta]: a_0 = h/sqrt(2), a_k = h/2 (k >= 1),
    b_k = mid, where h and mid are the half-width and midpoint."""
    if not (np.isfinite(alpha) and np.isfinite(beta)) or alpha >= beta:
        raise InvalidIntervalError(f"need alpha < beta, got [{alpha}, {beta}]")
    half = 0.5 * (beta - alpha)
    c[:, 0] = half / 2.0
    c[0, 0] = half / np.sqrt(2.0)
    c[:, 1] = 0.5 * (alpha + beta)
    return _op_rows(c, N)


def _circle_rows(c, N):
    """Monomials on the unit circle: <z P_k, Q_m> is 1 at m = k+1, else 0."""
    c[:, 0] = 1.0
    return RecurrenceTable._of(N, c, 0)


class Family(NamedTuple):
    """A classical ensemble: the real parameters it takes beyond N, with
    their defaults; the lower bandwidth q of its table; rows(c, N, **params),
    its closed-form table of c, a zeroed array of q + 2 columns that it
    fills in place; atoms(N, nodes, **params), the measure its ensemble is
    sampled on; and nodes(N), that measure's default node count."""

    params: dict
    q: int
    rows: Callable
    atoms: Callable
    nodes: Callable


# the classical ensembles that configs and the command line name; "circle"
# is a second name of "uniform-circle"
FAMILIES = {
    "gue": Family({}, 1, _gue_rows, scaled_hermite_measure, lambda N: 256),
    "chebyshev": Family(
        {"alpha": -1.0, "beta": 1.0}, 1, _chebyshev_rows,
        lambda N, nodes, alpha, beta: equilibrium_measure(alpha, beta, nodes), lambda N: 256,
    ),
    "uniform-circle": Family(
        {}, 0, _circle_rows, lambda N, nodes: uniform_circle_measure(nodes), lambda N: max(4 * N, 64)
    ),
}
FAMILIES["circle"] = FAMILIES["uniform-circle"]


def classical_table(name, N, pad=DEFAULT_PAD, **params):
    """The closed-form table of the FAMILIES entry `name`, for integers
    N >= 1 and pad >= -1: the entry's rows fill its coefficient array in
    place, holding one copy. 'gue' is the orthonormal polynomials of
    exp(-N x^2/2) dx, 'chebyshev' those of the arcsine measure of
    [alpha, beta] (default [-1, 1]), and 'uniform-circle' (or 'circle') the
    monomials on the unit circle (banded, q = 0). An unknown name, or a
    parameter the family does not take, is a ValueError.
    """
    N, pad = _integer(N, "N", 1), _integer(pad, "pad", -1)
    if not (isinstance(name, str) and name in FAMILIES):
        raise ValueError(f"unknown classical table {name!r}")
    family = FAMILIES[name]
    for key in params:
        if key not in family.params:
            raise ValueError(f"{name} table takes no parameter {key!r}")
    return family.rows(np.zeros((N + pad + 1, family.q + 2)), N, **{**family.params, **params})


def table_from_measure(m, N, pad=DEFAULT_PAD):
    """Orthonormal-polynomial table of a real atomic measure (see _lanczos)."""
    return _lanczos(m, N, pad)[0]


def _lanczos(m, N, pad=DEFAULT_PAD):
    """(table, U): the orthonormal-polynomial table of a real atomic measure
    and its rows U[k, i] = sqrt(w_i) P_k(x_i), k <= N + pad + 1, by Lanczos
    on U (the discretized Stieltjes procedure; Gautschi, Orthogonal
    Polynomials, 2004) with Simon's partial reorthogonalization (Math.
    Comp. 42, 1984).

    Each step is the three-term step a_k u_{k+1} = x u_k - b_k u_k -
    a_{k-1} u_{k-1}. Simon's recurrence carries an O(k) estimate of the
    overlaps |u_{k+1} . u_j|, j <= k, from the coefficients alone. Only when
    it passes _REORTH_TOL, u_{k+1} and then u_{k+2} get one full Gram-Schmidt
    pass against all earlier vectors, and a second pass when the first
    removed more than half the norm (Kahan-Parlett: twice is enough).

    Needs integers N >= 1 and pad >= -1, and N + pad + 2 distinct atoms
    (one degree past the stored range fixes a_{N+pad} as a residual norm).
    Raises NumericalBreakdownError when a residual vanishes to roundoff,
    and OrthogonalityError when the Gram defect of U (measure.gram_defect)
    exceeds ORTHONORMALITY_TOL.
    """
    if m.is_complex:
        raise ValueError("table_from_measure needs a real-supported measure")
    N, pad = _integer(N, "N", 1), _integer(pad, "pad", -1)
    K = N + pad
    x, w = m.points, m.weights
    atoms = m.distinct_atoms
    if atoms < K + 2:
        raise RankError(f"measure has {atoms} distinct atoms; need at least {K + 2} for N={N}, pad={pad}")
    U = np.empty((K + 2, len(x)))
    # not sqrt(w / w.sum()): dividing subnormal tail weights first rounds
    # them, 5.6e-6 relative in a_k for scaled-Hermite N=400 on 1024 nodes
    U[0] = np.sqrt(w) / np.sqrt(w.sum())
    a = np.zeros(K + 1)
    b = np.zeros(K + 1)
    noise = _EPS * math.sqrt(len(x)) * np.max(np.abs(x))  # rounding of one step
    floor = _EPS * math.sqrt(len(x))  # overlap left by an orthogonalization
    omega, before = np.ones(1), np.zeros(0)  # estimates for u_k and u_{k-1}
    again = False
    for k in range(K + 1):
        y = x * U[k]
        scale = y @ y
        if k:
            y -= a[k - 1] * U[k - 1]
        b[k] = U[k] @ y
        y -= b[k] * U[k]
        nrm = math.sqrt(y @ y)
        # t[j] ~ a_k (u_{k+1} . u_j), j < k, from the three-term steps of
        # u_k and of u_j (up[j] = a_j, and omega[k] = before[k - 1] = 1)
        up = a[:k]
        t = up * omega[1:]
        t += (b[:k] - b[k]) * omega[:-1]
        t -= a[k - 1] * before
        t[1:] += up[:-1] * omega[:-2]
        nxt = np.empty(k + 2)
        nxt[k:] = floor, 1.0
        if again or abs(t).max(initial=0.0) + noise > _REORTH_TOL * nrm:
            again = not again
            V = U[: k + 1]
            full = nrm
            y -= (V @ y) @ V
            nrm = math.sqrt(y @ y)
            if nrm < full / 2:
                y -= (V @ y) @ V
                nrm = math.sqrt(y @ y)
            nxt[:k] = floor
        else:
            t += np.copysign(noise, t)
            t /= nrm
            nxt[:k] = t
        if not nrm * nrm > scale * 1e-28:
            raise NumericalBreakdownError(
                f"orthogonalization broke down at degree {k + 1}; "
                "the measure is too coarse for this table"
            )
        a[k] = nrm
        U[k + 1] = y / nrm
        omega, before = nxt, omega
    drift = gram_defect(U)
    if not drift <= ORTHONORMALITY_TOL:
        raise OrthogonalityError(
            f"orthonormality drift {drift:.3e} exceeds {ORTHONORMALITY_TOL:g}"
        )
    return op_table(a, b, N), U


def _walks(table, ell, starts, ceiling):
    """Weights of all ell-step lattice paths from each start ordinate.

    out[d + q*ell, i] is the total weight of the paths starts[i] ->
    starts[i] + d, -q*ell <= d <= ell, that stay at ordinates 0..ceiling.
    starts is a range (see _walk_steps). Only the coefficients of those
    ordinates are read; a ceiling past the pad raises (_stored). Costs about
    (q+1)(q+2) ell^2 / 2 multiply-adds per start.
    """
    for v in _walk_steps(table, ell, starts, ceiling):
        pass
    return v


def _walk_steps(table, ell, starts, ceiling):
    """The weights of _walks after each of its 0..ell steps, laid out as its
    result, each yield a fresh array. Paths of s steps never reach the grid
    rows that the longer walk adds, so the s-th yield holds, bit for bit,
    _walks(table, s, ...) at the same displacements.

    starts is a range with step >= 1 and ell >= 0, as callers build them, so
    the weight of step j at ordinate starts[i] + d is read from a strided
    view of one zero-padded copy of the band over the ordinates the paths
    can reach, with no per-start gather. Step s updates only the rows of
    displacements -q*s..s that s-step paths can reach; every other row is
    an exact zero, and adding it would change no bit. So a walk holds the
    band copy and about three grids of (q+1) ell + 1 rows by len(starts).
    The l-loops of a symmetric table ask ceil(l/2) steps (_loop_weights).
    """
    table._stored(ceiling, "the paths climb to ordinate")
    n, q = len(starts), table.q
    D, o = (q + 1) * ell + 1, q * ell  # rows of the grid, row of displacement 0
    lo = starts.start - o  # lowest ordinate a path reads
    band = np.zeros((q + 2, D + starts.step * max(n - 1, 0)), dtype=table.c.dtype)
    a, b = max(lo, 0), min(lo + band.shape[1] - 1, ceiling)  # stored rows reached
    if a <= b:
        band[:, a - lo : b - lo + 1] = table.c[a : b + 1].T
        if b == ceiling:
            band[0, b - lo] = 0.0  # no step up out of the ceiling
    # w[j + 1, r, i]: weight of step j at ordinate starts[i] + r - o
    w = np.lib.stride_tricks.as_strided(
        band, shape=(q + 2, D, n),
        strides=(band.strides[0], band.itemsize, starts.step * band.itemsize), writeable=False,
    )
    v = np.zeros((D, n), dtype=band.dtype)
    v[o] = 1.0
    yield v
    for s in range(ell):
        new = np.zeros_like(v)
        top, bot = o - q * s, o + s + 1  # live rows of v; step j moves row r to r - j
        for j in range(-1, q + 1):
            new[top - j : bot - j] += v[top:bot] * w[j + 1, top:bot]
        v = new
        yield v


def path_sum_moment(table, ell, k, m):
    """<x^l P_k, Q_m>: total weight of oriented lattice paths (0,k) -> (l,m).

    One banded walk from k, capped at the highest ordinate a contributing
    path can reach; coefficients above it are never read.
    """
    ell, k, m = _integer(ell, "ell", 0), _integer(k, "k", 0), _integer(m, "m", 0)
    if ell == 0:
        return table.value(1.0 if k == m else 0.0)
    q = table.q
    if m > k + ell or m < k - q * ell:
        return table.value(0.0)
    hi = (q * (ell + k) + m) // (q + 1)  # highest ordinate of a path k -> m
    return table.value(_walks(table, ell, range(k, k + 1), hi)[m - k + q * ell, 0])


def mean_moment(table, ell):
    """(1/N) sum_{k<N} <x^l P_k, Q_k>: the l-th moment of the mean empirical
    measure, straight from the table: the loops of one walk from every k < N,
    of ceil(l/2) steps on a symmetric table, forming order l only."""
    ell = _integer(ell, "ell", 0)
    return table.value(_mean_moments(table, ell, lo=ell)[ell])


def _loop_weights(table, lmax, starts, ceiling, half, lo=0):
    """(l, the weight of the l-step loops from each start that stay at
    ordinates 0..ceiling) for l = lo..lmax in turn, from one walk of lmax
    steps; or, with half (q = 1 and each up step a ceil(lmax/2)-step path
    takes equal to the down step back, as on a symmetric table), of
    ceil(lmax/2) steps. There a path and its reverse weigh the same, so the
    l-loops from k weigh sum_d W_a(k -> k+d) W_b(k -> k+d), a = floor(l/2),
    b = l - a, summed over the rows -a..a that a-step paths reach and no
    other: order l equals, bit for bit, order l of any longer walk."""
    if not half:
        steps = enumerate(_walk_steps(table, lmax, starts, ceiling))
        yield from ((ell, v[table.q * lmax]) for ell, v in steps if ell >= lo)
        return
    h, back = (lmax + 1) // 2, None
    for s, v in enumerate(_walk_steps(table, h, starts, ceiling)):
        for ell, u in ((2 * s - 1, back), (2 * s, v)):  # b = s, a = ell // 2
            if lo <= ell <= lmax:
                live = slice(h - ell // 2, h + ell // 2 + 1)
                yield ell, np.sum(u[live] * v[live], axis=0)
        back = v


def _loop_sums(table, lmax, ceiling, keep=0, lo=0):
    """For l = lo..lmax (lower orders read 0), the sum over k < N of the
    weight of the l-step loops from k that stay at ordinates 0..ceiling,
    from one walk (at ceiling N - 1 the section traces tr(H_N^l)); and an
    (lmax+1) x keep array of those weights of the last `keep` starts (or N).

    The walk, of ceil(lmax/2) steps on a symmetric table (_loop_weights),
    runs over blocks of _LOOP_BLOCK starts, so it holds one block's grids
    at any N. Each block's loop weights are summed by np.sum and the block
    sums added in order: N <= _LOOP_BLOCK is one np.sum per order. Each
    start's loop weights are its own, so the kept ones equal, bit for bit,
    those of a single walk from every k < N, also across two blocks."""
    N = table.N
    first = max(N - keep, 0)  # first start whose weights are kept
    sums = np.zeros(lmax + 1, dtype=table.c.dtype)
    kept = np.empty((lmax + 1, N - first), dtype=table.c.dtype)
    for k in range(0, N, _LOOP_BLOCK):
        block = range(k, min(k + _LOOP_BLOCK, N))
        at = max(first - k, 0)  # first kept start of the block, if any
        for ell, loops in _loop_weights(table, lmax, block, ceiling, table.symmetric, lo):
            sums[ell] += np.sum(loops)
            if at < len(block):
                kept[ell, k + at - first : k + len(block) - first] = loops[at:]
    return sums, kept


def _mean_moments(table, lmax, lo=0):
    """The mean moments of orders lo..lmax (unconverted, see mean_moment)
    from one walk. A loop of l steps from k climbs at most floor(q l /
    (q + 1)), so the walk stops there for lmax; the shorter loops never
    reach the rows that adds, and each order equals, bit for bit, its own
    walk (see _walk_steps and _loop_weights)."""
    N, q = table.N, table.q
    hi = N - 1 + (q * lmax) // (q + 1)  # highest ordinate of a loop from N - 1
    return _loop_sums(table, lmax, hi, lo=lo)[0] / N


def _escape_weight(table, ell, inside):
    """Weight of the l-loops from k < N that climb past N - 1, unconverted.

    An l-loop from k climbs at most floor(q l / (q + 1)), so only the starts
    that close to N can leave the section. They are walked at mean_moment's
    ceiling, less `inside`, the section loop weights of order l of (at
    least) those last starts: a sum of a few terms, with no O(N) one."""
    N, q = table.N, table.q
    climb = (q * ell) // (q + 1)
    k = max(N - climb, 0)  # first start whose loops can climb past N - 1
    loops = _walks(table, ell, range(k, N), N - 1 + climb)[q * ell]
    return np.sum(loops - inside[len(inside) - (N - k):])


def hessenberg_matrix(table, size=None):
    """Matrix [<x P_j, Q_i>]_{i,j < size} of multiplication by x compressed
    to the span of P_0..P_{size-1}. Upper Hessenberg: entries vanish for
    row > column + 1; symmetric tridiagonal for a symmetric table."""
    n = table.N if size is None else _integer(size, "size", 1)
    table._stored(n - 1, "the section reads index")
    H = np.zeros((n, n), dtype=table.c.dtype)
    k = np.arange(n)
    for j in range(-1, table.q + 1):
        ok = (k - j >= 0) & (k - j < n)
        H[k[ok] - j, k[ok]] = table.c[k[ok], j + 1]
    return H


def eval_polynomials(table, x, upto, p0=1.0):
    """Values of P_0..P_upto at points x, by the forward recurrence.

    p0 is the value of P_0: a constant (1/sqrt(total mass) for orthonormal
    families), or one value per point. The recurrence is linear, so
    p0_i = sqrt(w_i / total mass) at the atoms gives the weighted rows
    sqrt(w_i) P_k(x_i). Needs stored coefficients through index upto - 1.
    """
    upto = _integer(upto, "upto", 0)
    table._stored(upto - 1, "the recurrence reads index")
    pts = np.atleast_1d(np.asarray(x))
    dtype = complex if (table.is_complex or np.iscomplexobj(pts)) else float
    out = np.zeros((upto + 1, len(pts)), dtype=dtype)
    out[0] = p0
    if upto == 0:
        return out
    s = table.c
    for k in range(upto):
        if s[k, 0] == 0:
            raise NumericalBreakdownError(
                f"banded table has zero up-coefficient at k={k}; "
                "P_{k+1} is not determined"
            )
        acc = (pts - s[k, 1]) * out[k]
        for j in range(1, min(k, table.q) + 1):
            acc = acc - s[k, j + 1] * out[k - j]
        out[k + 1] = acc / s[k, 0]
    return out
