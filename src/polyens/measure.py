"""Atomic reference measures.

Everything downstream (orthonormal polynomials, kernels, samplers) works
against a measure stored as atoms: points x_i with positive weights w_i.
Continuous classical measures enter through quadrature discretizations that
are exact on polynomials up to degree 2*nodes - 1, so all polynomial
integrals used elsewhere are exact up to roundoff.
"""

import math

import numpy as np

from .errors import (
    DegenerateDensityError,
    EvaluationError,
    InvalidIntervalError,
    NegativityError,
    NumericalBreakdownError,
    _integer,
)

DEFAULT_NODES = 1024

# densities may dip this far (relative) below zero before we refuse to clamp
NEGATIVITY_TOL = 1e-9

# complex entries per row block of a kernel, Gram or gauge scan (512 kB): on
# circle N=300 on 1200 atoms, 256 kB blocks of the full kernel took 7 ms more
# than the one product, 512 kB ~1 ms
_KERNEL_BLOCK = 1 << 15

# row blocks are a multiple of this high, but for the last one (see
# _row_blocks). A hermitian kernel mirrors its blocks, which is exact only
# where a block is tiled as the one product tiles it: on circle N=300
# (OpenBLAS, Haswell kernels) heights that are multiples of 4 kept K bit for
# bit at 1200, 1201 and 1243 atoms, while 2, 6, 109 and 110 changed about a
# thousand entries. A 1-row block would also go to a matrix-vector routine,
# which rounds differently.
_BLOCK_ROWS = 8


def _row_blocks(n, width):
    """(lo, hi) bounds of the row blocks of an n-row array whose rows hold
    width entries: about _KERNEL_BLOCK entries a block, with heights a
    multiple of _BLOCK_ROWS, then a last block of the last
    _BLOCK_ROWS + n mod _BLOCK_ROWS rows (all n rows when n < 2 _BLOCK_ROWS)."""
    rows = max(_BLOCK_ROWS, _KERNEL_BLOCK // max(1, width) // _BLOCK_ROWS * _BLOCK_ROWS)
    last = max(0, n - _BLOCK_ROWS - n % _BLOCK_ROWS)
    return [(lo, min(lo + rows, last)) for lo in range(0, last, rows)] + [(last, n)]


def gram_defect(U, V=None):
    """max |conj(U) V^T - I| over two families of weighted atom values
    (V = U when None), the one biorthogonality check: for rows
    U[k, i] = sqrt(w_i) P_k(x_i) and V[k, i] = sqrt(w_i) Q_k(x_i) it is
    max |<P_i, Q_j> - delta_ij|, with no weights read. The Gram is formed in
    the row blocks of _row_blocks, block [lo, hi) as conj(U[lo:hi]) V[left:]^T,
    so no conjugated copy is held; V = U forms only the upper half
    (left = lo). A NaN entry gives NaN, so callers test `not defect <= tol`."""
    V, upper = (U, True) if V is None else (V, False)
    defect = 0.0
    for lo, hi in _row_blocks(len(U), U.shape[1]):
        left = lo if upper else 0
        G = np.conj(U[lo:hi]) @ V[left:].T
        G[:, lo - left : hi - left] -= np.eye(hi - lo)
        defect = np.maximum(defect, np.max(np.abs(G), initial=0.0))
    return float(defect)


class ReferenceMeasure:
    """Finite atomic measure sum_i w_i * delta(x_i).

    Parameters
    ----------
    points : array_like
        Atom locations, real or complex.
    weights : array_like
        Strictly positive masses, same length as points.
    name : optional label recording how the measure was built.
    """

    def __init__(self, points, weights, name=None):
        points = np.asarray(points)
        weights = np.asarray(weights, dtype=float)
        if points.ndim != 1 or weights.ndim != 1 or len(points) != len(weights):
            raise ValueError("points and weights must be 1-d arrays of equal length")
        if len(points) == 0:
            raise ValueError("measure needs at least one atom")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ValueError("weights must be finite and strictly positive")
        if not np.all(np.isfinite(points.view(float) if np.iscomplexobj(points) else points)):
            raise ValueError("points must be finite")
        if not np.iscomplexobj(points):
            points = points.astype(float)
        self.points = points
        self.weights = weights
        self.name = name

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        tag = self.name or "atoms"
        return f"ReferenceMeasure({tag}, n={len(self)}, mass={self.total_mass:.6g})"

    @property
    def total_mass(self):
        return float(self.weights.sum())

    @property
    def is_complex(self):
        return np.iscomplexobj(self.points)

    @property
    def distinct_atoms(self):
        """Number of distinct atom values, by one sort (np.unique imports numpy.ma)."""
        return int(np.count_nonzero(np.diff(np.sort(self.points)))) + 1

    def values(self, f):
        """f at the atoms, f a callable (its scalar result broadcast) or an array
        of atom values, checked once: shape (ValueError), finiteness (EvaluationError)."""
        vals = np.asarray(f(self.points) if callable(f) else f)
        if vals.shape != self.points.shape:
            if not callable(f):
                raise ValueError(f"expected {self.points.shape} atom values, got {vals.shape}")
            vals = np.broadcast_to(vals, self.points.shape)
        bad = ~np.isfinite(vals.real) | ~np.isfinite(np.imag(vals))
        if np.any(bad):
            where = self.points[bad][0]
            raise EvaluationError(f"f is not finite at atom x={where.item()!r}")
        return vals

    def sample_categorical(self, density, rng, size=None):
        """Exact draw of atom indices from the density-weighted measure:
        density relative to mu, as for values, and p_i proportional to
        density_i * w_i, drawn by sample_mass (values below
        -NEGATIVITY_TOL * max raise; tiny negatives clamp to zero)."""
        vals = np.real_if_close(self.values(density), tol=1000)
        if np.iscomplexobj(vals):
            raise NegativityError("density is complex; cannot sample")
        with np.errstate(over="ignore", invalid="ignore"):
            return self.sample_mass(vals * self.weights, rng, size)

    def sample_mass(self, mass, rng, size=None):
        """Exact draw of atom indices with p_i proportional to mass_i.

        Each index is one inverse-CDF lookup of one rng.random() uniform:
        the stream use of rng.choice(n, size=size, p=p), and its CDF up to
        roundoff (the float64 cumulative mass over its last entry, which is
        then exactly 1, so a zero-mass atom is never drawn).

        Mass with no negative entry and a positive finite sum is drawn from
        after one argmin and the cumulative sum (mass[argmin], the first NaN
        or a least entry, is the minimum at a quarter of the call cost of a
        reduction on a few hundred atoms). Any other mass gets the full
        validation first, in this order: non-finite entries (the first is
        named), all mass <= 0, entries below -NEGATIVITY_TOL * max, a sum
        that overflows (which warns, so callers hold
        np.errstate(over="ignore", invalid="ignore")). Tiny negatives clamp
        to zero on a copy. The sampler draws each point through the same
        routine (_inverse_cdf), with a CDF buffer its state owns.
        """
        picked = self._inverse_cdf(mass, rng, np.empty(len(mass)), size)
        return picked if size is not None else int(picked)

    def _inverse_cdf(self, mass, rng, cdf, size=None):
        """sample_mass's draw, writing the cumulative mass into cdf, a
        float64 buffer of len(mass), so that a valid mass allocates no
        array. Returns searchsorted's index (an np.intp for size None)."""
        if mass.dtype.kind == "c":
            raise NegativityError("mass is complex; cannot sample")
        if not (mass[mass.argmin()] >= 0 and 0 < np.add.accumulate(mass, out=cdf)[-1] < math.inf):
            cdf = self._validated_cdf(mass)
        cdf /= cdf[-1]
        return cdf.searchsorted(rng.random(size), side="right")

    def _validated_cdf(self, mass):
        """Cumulative sum of mass in float64, tiny negatives clamped, after
        every check of sample_mass."""
        top = mass.max()
        low = mass.min()
        if not (math.isfinite(top) and math.isfinite(low)):
            i = int(np.flatnonzero(~np.isfinite(mass))[0])
            raise EvaluationError(
                f"density times weight is {float(mass[i])!r} at atom x={self.points[i].item()!r}"
            )
        if top <= 0:
            raise DegenerateDensityError("density vanishes on every atom")
        if low < 0:
            if low < -NEGATIVITY_TOL * top:
                i = int(np.argmin(mass))
                raise NegativityError(
                    f"density times weight at atom x={self.points[i].item()!r} is "
                    f"{mass[i]:.3e}, below the -{NEGATIVITY_TOL:g} * max clamp threshold"
                )
            mass = np.maximum(mass, 0.0)
        cdf = mass.cumsum(dtype=float)
        if not math.isfinite(cdf[-1]):
            raise NumericalBreakdownError(
                f"density mass sums to {float(cdf[-1])!r}; cannot normalize"
            )
        return cdf


def equilibrium_measure(alpha, beta, nodes=DEFAULT_NODES):
    """Arcsine (equilibrium) measure of [alpha, beta], discretized on
    Chebyshev-Gauss nodes: equal weights 1/nodes at the mapped Chebyshev
    points. Exact for polynomials of degree <= 2*nodes - 1."""
    nodes = _integer(nodes, "nodes", 1)
    if not (np.isfinite(alpha) and np.isfinite(beta)) or alpha >= beta:
        raise InvalidIntervalError(f"need alpha < beta, got [{alpha}, {beta}]")
    k = np.arange(1, nodes + 1)
    u = np.cos((2 * k - 1) * np.pi / (2 * nodes))
    mid = 0.5 * (alpha + beta)
    half = 0.5 * (beta - alpha)
    return ReferenceMeasure(
        mid + half * u,
        np.full(nodes, 1.0 / nodes),
        name="chebyshev-arcsine",
    )


def scaled_hermite_measure(N, nodes=DEFAULT_NODES):
    """Gaussian weight exp(-N x^2 / 2) dx, discretized by the Gauss-Hermite
    rule of gauss_hermite rescaled by sqrt(2/N). An atom is kept iff its
    rescaled weight is > 0: far-tail weights that underflow to exactly zero
    are dropped (a mathematical no-op); subnormal ones stay."""
    N = _integer(N, "N", 1)
    x, w = gauss_hermite(_integer(nodes, "nodes", 1))
    s = np.sqrt(2.0 / N)
    pts = s * x
    wts = s * w
    keep = wts > 0.0
    return ReferenceMeasure(pts[keep], wts[keep], name="scaled-hermite")


# Newton passes from the asymptotic guesses, which are within ~3e-3 relative
# of the nodes for every n and ~4e-6 from n = 20: quadratic convergence
# reaches roundoff within four
NEWTON_PASSES = 4

# the orthonormal recurrence is rescaled every this many steps: over 32 steps
# it grows by at most about |x|^32 2^16 / sqrt(32!), 1e55 at x = 128 (n = 8192)
_RESCALE_EVERY = 32

# the first zeros of Ai (DLMF Table 9.9.1), where its asymptotic series is poor
_AIRY_ZEROS = np.array(
    [-2.338107410459767, -4.087949444130971, -5.520559828095551, -6.786708090071759, -7.944133587120853]
)

# relative tolerance on sum(w) = sqrt(pi), the rule's self-check
_MASS_TOL = 1e-13


def gauss_hermite(n):
    """Nodes and weights of the n-point Gauss-Hermite rule for exp(-x^2) dx,
    with numpy alone, in O(n^2) (Townsend, Trogdon & Olver, IMA J. Numer.
    Anal. 2015).

    Initial guesses for the positive nodes come from the asymptotics of the
    Laguerre zeros that are their squares (_hermite_guesses). NEWTON_PASSES
    vectorized Newton passes on the orthonormal recurrence refine them all
    at once; the weights are w_i = 1 / (n p_{n-1}(x_i)^2), formed in logs,
    so far-tail weights underflow gracefully instead of overflowing p.

    The rule certifies itself: n strictly increasing nodes and
    sum(w) = sqrt(pi) within _MASS_TOL relative, else
    NumericalBreakdownError.
    """
    n = _integer(n, "n", 1)
    x = _hermite_guesses(n)
    for _ in range(NEWTON_PASSES):
        p_n, p_last, _ = _hermite_pair(n, x)
        x = x - p_n / (math.sqrt(2 * n) * p_last)
    _, p_last, log_scale = _hermite_pair(n, x)
    w = np.exp(-math.log(n) - 2.0 * (np.log(np.abs(p_last)) + log_scale))
    mirror = slice(None, 0, -1) if n % 2 else slice(None, None, -1)
    x = np.concatenate([-x[mirror], x])
    w = np.concatenate([w[mirror], w])
    mass = float(w.sum())
    if len(x) != n or not np.all(np.diff(x) > 0):
        raise NumericalBreakdownError(f"{n}-point Gauss-Hermite nodes are not strictly increasing")
    if not abs(mass - math.sqrt(math.pi)) <= _MASS_TOL * math.sqrt(math.pi):
        raise NumericalBreakdownError(
            f"{n}-point Gauss-Hermite weights sum to {mass!r}, not sqrt(pi)"
        )
    return x, w


def _hermite_guesses(n):
    """Asymptotic guesses for the n // 2 positive Hermite zeros, in
    increasing order, led by the zero at 0 when n is odd.

    H_2m(x) and H_2m+1(x) / x are Laguerre polynomials L_m^(a)(x^2), a = -1/2
    and 1/2. Tricomi's expansion of their zeros holds in the bulk; Gatteschi's,
    through the Airy zeros, holds at the edge, where it is the better guess
    for about the 0.4 sqrt(n) largest (both surveyed in Gatteschi,
    J. Comput. Appl. Math. 144, 2002).
    """
    m = n // 2
    a = 0.5 if n % 2 else -0.5
    nu = 4 * m + 2 * a + 2
    k = np.arange(1, m + 1)
    # Tricomi: t = cos^2(s / 2), s - sin(s) = (4m - 4k + 3) pi / nu
    rhs = (4 * (m - k) + 3) * np.pi / nu
    s = np.full(m, np.pi / 2)
    for _ in range(7):
        s -= (s - np.sin(s) - rhs) / (1 - np.cos(s))
    t = np.cos(s / 2) ** 2
    lag = nu * t - (5 / (4 * (1 - t) ** 2) - 1 / (1 - t) - 1 + 3 * a * a) / (3 * nu)
    # Gatteschi for the e largest, from the Airy zeros ai_j = -T(3 pi (4j - 1) / 8)
    e = min(m, math.ceil(0.4 * math.sqrt(n)))
    u = 3 * np.pi / 8 * (4 * np.arange(1, e + 1) - 1)
    ai = -(u ** (2 / 3)) * (
        1 + 5 / 48 * u**-2 - 5 / 36 * u**-4 + 77125 / 82944 * u**-6 - 108056875 / 6967296 * u**-8
    )
    ai[: len(_AIRY_ZEROS)] = _AIRY_ZEROS[:e]
    c = 2 ** (1 / 3)
    edge = (
        nu
        + c**2 * ai * nu ** (1 / 3)
        + c**4 / 5 * ai**2 * nu ** (-1 / 3)
        + (11 / 35 - a * a - 12 / 175 * ai**3) / nu
        + (16 / 1575 * ai + 92 / 7875 * ai**4) * c**2 * nu ** (-5 / 3)
        - (15152 / 3031875 * ai**5 + 1088 / 121275 * ai**2) * c * nu ** (-7 / 3)
    )
    lag[m - e :] = edge[::-1]
    x = np.sqrt(lag)
    return np.concatenate([[0.0], x]) if n % 2 else x


def _hermite_pair(n, x):
    """(p_n(x), p_{n-1}(x), log_scale) for the orthonormal Hermite
    polynomials of exp(-x^2): the true values are the first two times
    exp(log_scale). The recurrence
    p_{k+1} = sqrt(2 / (k + 1)) x p_k - sqrt(k / (k + 1)) p_{k-1}
    is rescaled every _RESCALE_EVERY steps so that it never overflows."""
    p_prev = np.zeros_like(x)
    p = np.full_like(x, math.pi**-0.25)
    log_scale = np.zeros_like(x)
    for k in range(n):
        p_prev, p = p, math.sqrt(2 / (k + 1)) * x * p - math.sqrt(k / (k + 1)) * p_prev
        if k % _RESCALE_EVERY == _RESCALE_EVERY - 1:
            scale = np.maximum(np.abs(p), np.abs(p_prev))
            p /= scale
            p_prev /= scale
            log_scale += np.log(scale)
    return p, p_prev, log_scale


def uniform_circle_measure(n=DEFAULT_NODES):
    """Uniform probability measure on the unit circle, n equispaced atoms.
    Monomials z^k, k < n, are exactly orthonormal for it."""
    n = _integer(n, "n", 1)
    z = np.exp(2j * np.pi * np.arange(n) / n)
    return ReferenceMeasure(z, np.full(n, 1.0 / n), name="uniform-circle")


def atoms_measure(points, weights, name=None):
    """Measure from explicit atoms."""
    return ReferenceMeasure(points, weights, name=name or "atoms")


def grid_measure(points, density):
    """Measure with the given density against Lebesgue on a sorted grid,
    using trapezoid cell weights. A non-finite point or density entry is a
    ValueError naming the first one."""
    x = np.asarray(points, dtype=float)
    d = np.asarray(density, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("grid must be strictly increasing with >= 2 points")
    if d.shape != x.shape:
        raise ValueError("density must match the grid")
    for what, v in (("point", x), ("density entry", d)):
        bad = np.flatnonzero(~np.isfinite(v))
        if len(bad):
            raise ValueError(f"grid {what} {bad[0]} is {float(v[bad[0]])!r}, not finite")
    if np.any(np.diff(x) <= 0):
        raise ValueError("grid must be strictly increasing with >= 2 points")
    if np.any(d < 0):
        raise NegativityError("grid density must be nonnegative")
    dx = np.diff(x)
    cell = np.empty_like(x)
    cell[0] = dx[0] / 2
    cell[-1] = dx[-1] / 2
    cell[1:-1] = (dx[:-1] + dx[1:]) / 2
    w = d * cell
    keep = w > 0
    if not np.any(keep):
        raise DegenerateDensityError("grid density vanishes everywhere")
    return ReferenceMeasure(x[keep], w[keep], name="grid")


# each named measure's constructor and the keyword parameters it takes, with
# their defaults (None: the config must give it)
NAMED_MEASURES = {
    "chebyshev-arcsine": (equilibrium_measure, {"alpha": -1.0, "beta": 1.0, "nodes": DEFAULT_NODES}),
    "scaled-hermite": (scaled_hermite_measure, {"N": None, "nodes": DEFAULT_NODES}),
    "uniform-circle": (uniform_circle_measure, {"n": DEFAULT_NODES}),
}


def named_measure(name, **params):
    """The classical measure of a config's name and parameters; an unknown
    name, a parameter the named measure does not take, or one it needs and
    is not given, is a ValueError."""
    if not (isinstance(name, str) and name in NAMED_MEASURES):
        raise ValueError(f"unknown measure name {name!r}")
    build, takes = NAMED_MEASURES[name]
    for key in params:
        if key not in takes:
            raise ValueError(f"{name} measure takes no parameter {key!r}")
    for key, default in takes.items():
        if default is None and key not in params:
            raise ValueError(f"{name} measure needs {key!r}")
    return build(**{**takes, **params})
