"""Limit laws of mean empirical moments for tables with coefficient profiles.

When the coefficients of a table follow smooth shapes, a_j^N(k) ~ a_j(k/N),
the l-th mean empirical moment converges to the loop count of the table
frozen at s, integrated over s in [0, 1] (Kuijlaars and Van Assche 1999):

    m_l = integral (weight of l-step loops of the constant band a_j(s)) ds.

One route computes it: the frozen bands at the Gauss-Legendre nodes sit
side by side in one banded table, and the lattice walk of the recurrence
module counts their loops. Constant OP profiles give the arcsine law of
[b-2a, b+2a]; the GUE profile a(s) = sqrt(s), b = 0 gives the semicircle
(Catalan moments).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import _integer
from .recurrence import _loop_weights, _mean_moments, banded_table

GL_NODES = 256


def _as_profile_fn(f):
    if callable(f):
        return f
    val = float(f)
    return lambda s: np.full_like(np.asarray(s, dtype=float), val)


@dataclass
class CoefficientProfile:
    """Limiting coefficient shapes a_j(s), s in [0,1], for -1 <= j <= q.
    a_{-1} is the up-step profile; OP tables have a_{-1} = a_1 = a and
    a_0 = b."""

    funcs: dict

    def __post_init__(self):
        js = sorted(self.funcs)
        if not js or js[0] != -1:
            raise ValueError("profile needs the up-step shape at j = -1")
        if js != list(range(-1, js[-1] + 1)):
            raise ValueError("profile indices must be contiguous from -1")
        self.funcs = {j: _as_profile_fn(f) for j, f in self.funcs.items()}

    @property
    def q(self):
        return max(self.funcs)

    def __call__(self, j, s):
        return self.funcs[j](np.asarray(s, dtype=float))


def op_profile(a, b=0.0):
    """Profile of an OP table with coefficient shapes a(s) and b(s)."""
    a = _as_profile_fn(a)
    return CoefficientProfile({-1: a, 0: _as_profile_fn(b), 1: a})


def gue_profile():
    """a_k = sqrt((k+1)/N) flattens to a(s) = sqrt(s)."""
    return op_profile(lambda s: np.sqrt(s), 0.0)


def catalan_moment(ell):
    """Semicircle moments: Catalan numbers at even orders, 0 at odd."""
    ell = _integer(ell, "ell", 0)
    if ell % 2:
        return 0.0
    m = ell // 2
    return float(math.comb(2 * m, m) // (m + 1))


def arcsine_moment(ell, alpha=-1.0, beta=1.0):
    """Moment integral x^l d omega_[alpha,beta]: exactly
    (1/4^m) binom(2m, m) on [-1,1], transported affinely elsewhere."""
    ell = _integer(ell, "ell", 0)
    mid = 0.5 * (alpha + beta)
    half = 0.5 * (beta - alpha)
    total = 0.0
    for j in range(0, ell + 1, 2):
        central = math.comb(j, j // 2) / 4.0 ** (j // 2)
        total += math.comb(ell, j) * mid ** (ell - j) * half**j * central
    return float(total)


@functools.lru_cache(maxsize=None)
def _gl_grid():
    """The GL_NODES Gauss-Legendre nodes and weights mapped to [0,1], built
    once by Newton on the Legendre recurrence from Tricomi's guesses (nodes
    to 1 ulp, weights to 7e-13; numpy's leggauss: 2e-11, and an eigensolve
    whose workspace stays resident). The arrays are shared, so read-only."""
    n = GL_NODES
    x = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5)) * (1 - (n - 1) / (8.0 * n**3))
    for _ in range(4):
        prev, p = np.ones(n), x
        for j in range(2, n + 1):
            prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
        dp = n * (x * p - prev) / (x * x - 1)
        w, x = 2 / ((1 - x * x) * dp * dp), x - p / dp
    s, w = 0.25 * (x - x[::-1] + 2.0), w + w[::-1]  # mirror-symmetric
    w /= w.sum()  # of mass 1, as leggauss scales its rule
    s.flags.writeable = False
    w.flags.writeable = False
    return s, w


def banded_limit_moment(profile, ell):
    """Limit of the l-th mean empirical moment for a banded profile: the
    weight of l-step loops of the band frozen at s, integrated over s."""
    ell = _integer(ell, "ell", 0)
    return float(_limit_moments(profile, ell)[ell])


def _limit_moments(profile, lmax):
    """The profile limits of orders 0..lmax from one walk.

    Each Gauss-Legendre node gets a block of (q+1) lmax + 1 rows of its
    frozen band; a loop of l <= lmax steps that starts at ordinate q lmax of
    a block never leaves it, so one walk from every block counts the loops
    of every node and order. The band is constant within a block, so each
    order equals, bit for bit, a walk of its own on blocks of (q+1) l + 1
    rows. A q = 1 profile whose up and down shapes agree at the nodes (as
    op_profile's) freezes to symmetric bands, which a ceil(lmax/2)-step
    path never leaves: its loops walk half their length (_loop_weights).
    """
    q = profile.q
    s, w = _gl_grid()
    rows = (q + 1) * lmax + 1
    band = np.empty((GL_NODES, q + 2))
    for j in range(-1, q + 1):
        band[:, j + 1] = profile(j, s)
    half = q == 1 and np.array_equal(band[:, 0], band[:, 2])
    table = banded_table(np.repeat(band, rows, axis=0), q, GL_NODES * rows)
    starts = range(q * lmax, GL_NODES * rows, rows)
    return np.array([w @ loops for _, loops in _loop_weights(table, lmax, starts, table.top, half)])


@dataclass
class LimitRow:
    ell: int
    finite_moment: float | complex  # complex for a complex table
    limit_moment: float
    gap: float


def limit_report(table, profile, lmax):
    """Side-by-side finite-N mean moments (from the table) and their
    profile limits, with gaps, for orders 1..lmax; each side from one walk."""
    lmax = _integer(lmax, "lmax", 0)
    finite, limit = _mean_moments(table, lmax), _limit_moments(profile, lmax)
    rows = []
    for ell in range(1, lmax + 1):
        fin, lim = table.value(finite[ell]), float(limit[ell])
        rows.append(LimitRow(ell, fin, lim, abs(fin - lim)))
    return rows
