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
)

DEFAULT_NODES = 1024

# densities may dip this far (relative) below zero before we refuse to clamp
NEGATIVITY_TOL = 1e-9


class ReferenceMeasure:
    """Finite atomic measure sum_i w_i * delta(x_i).

    Parameters
    ----------
    points : array_like
        Atom locations, real or complex.
    weights : array_like
        Strictly positive masses, same length as points.
    name, params : optional metadata recording how the measure was built.
    """

    def __init__(self, points, weights, name=None, params=None):
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
        self.params = dict(params) if params else {}

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

    def values(self, f):
        """Evaluate f on the atoms, rejecting non-finite results loudly."""
        vals = np.asarray(f(self.points))
        if vals.shape != self.points.shape:
            vals = np.broadcast_to(vals, self.points.shape)
        bad = ~np.isfinite(vals.real) | ~np.isfinite(np.imag(vals))
        if np.any(bad):
            where = self.points[bad][0]
            raise EvaluationError(f"f is not finite at atom x={where!r}")
        return vals

    def integrate(self, f):
        """integral f dmu = sum_i w_i f(x_i); f is a callable or an atom-value array."""
        vals = self.values(f) if callable(f) else self._check_values(f)
        return complex_or_float(np.sum(self.weights * vals))

    def inner_product(self, f, g):
        """<f, g> = integral f * conj(g) dmu, conjugate-linear in g."""
        fv = self.values(f) if callable(f) else self._check_values(f)
        gv = self.values(g) if callable(g) else self._check_values(g)
        return complex_or_float(np.sum(self.weights * fv * np.conj(gv)))

    def _check_values(self, vals):
        vals = np.asarray(vals)
        if vals.shape != self.points.shape:
            raise ValueError(f"expected {self.points.shape} atom values, got {vals.shape}")
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(np.imag(vals))):
            bad = ~np.isfinite(vals.real) | ~np.isfinite(np.imag(vals))
            raise EvaluationError(f"non-finite value at atom x={self.points[bad][0]!r}")
        return vals

    def sample_categorical(self, density, rng, size=None):
        """Exact draw of atom indices from the density-weighted measure.

        density gives values relative to mu (callable or per-atom array);
        the draw is categorical with p_i proportional to density_i * w_i.
        No rejection step: works for any nonnegative density. Values below
        -NEGATIVITY_TOL * max raise; tiny negatives clamp to zero.

        Each index is one inverse-CDF lookup of one rng.random() uniform,
        which is the arithmetic and the stream use of
        rng.choice(n, size=size, p=p). The mass is validated in one pass:
        its minimum, maximum and sum; the per-atom scan that names a
        non-finite atom runs only when one of them is not finite.
        """
        vals = self.values(density) if callable(density) else np.asarray(density)
        if vals.shape != self.points.shape or vals.dtype.kind == "c":
            vals = np.real_if_close(self._check_values(vals), tol=1000)
            if np.iscomplexobj(vals):
                raise NegativityError("density is complex; cannot sample")
        with np.errstate(over="ignore", invalid="ignore"):
            mass = vals * self.weights
            top = mass.max()
            low = mass.min()
            if not (math.isfinite(top) and math.isfinite(low)):
                self._check_values(vals)
                where = self.points[~np.isfinite(mass)][0]
                raise EvaluationError(f"density times weight overflows at atom x={where!r}")
            if top <= 0:
                raise DegenerateDensityError("density vanishes on every atom")
            if low < 0:
                if low < -NEGATIVITY_TOL * top:
                    i = int(np.argmin(mass))
                    raise NegativityError(
                        f"density at atom x={self.points[i]!r} is {vals[i]:.3e}, "
                        f"below the -{NEGATIVITY_TOL:g} clamp threshold"
                    )
                np.maximum(mass, 0.0, out=mass)
            total = mass.sum()
            if not math.isfinite(total):
                raise NumericalBreakdownError(f"density mass sums to {total!r}; cannot normalize")
        cdf = (mass / total).cumsum()
        cdf /= cdf[-1]
        picked = cdf.searchsorted(rng.random(size), side="right")
        return picked if size is not None else int(picked)


def complex_or_float(z):
    z = complex(z)
    return z.real if z.imag == 0.0 else z


def equilibrium_measure(alpha, beta, nodes=DEFAULT_NODES):
    """Arcsine (equilibrium) measure of [alpha, beta], discretized on
    Chebyshev-Gauss nodes: equal weights 1/nodes at the mapped Chebyshev
    points. Exact for polynomials of degree <= 2*nodes - 1."""
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
        params={"alpha": float(alpha), "beta": float(beta), "nodes": int(nodes)},
    )


def scaled_hermite_measure(N, nodes=DEFAULT_NODES):
    """Gaussian weight exp(-N x^2 / 2) dx, discretized by Gauss-Hermite
    quadrature rescaled by sqrt(2/N). Atoms whose weights underflow to
    exactly zero are dropped (a mathematical no-op)."""
    if N <= 0:
        raise ValueError("N must be positive")
    from scipy.special import roots_hermite

    x, w = roots_hermite(nodes)
    s = np.sqrt(2.0 / N)
    pts = s * x
    wts = s * w
    keep = wts > 0.0
    return ReferenceMeasure(
        pts[keep],
        wts[keep],
        name="scaled-hermite",
        params={"N": int(N), "nodes": int(nodes)},
    )


def uniform_circle_measure(n=DEFAULT_NODES):
    """Uniform probability measure on the unit circle, n equispaced atoms.
    Monomials z^k, k < n, are exactly orthonormal for it."""
    if n < 1:
        raise ValueError("need at least one atom")
    z = np.exp(2j * np.pi * np.arange(n) / n)
    return ReferenceMeasure(
        z, np.full(n, 1.0 / n), name="uniform-circle", params={"n": int(n)}
    )


def atoms_measure(points, weights, name=None):
    """Measure from explicit atoms."""
    return ReferenceMeasure(points, weights, name=name or "atoms")


def grid_measure(points, density):
    """Measure with the given density against Lebesgue on a sorted grid,
    using trapezoid cell weights."""
    x = np.asarray(points, dtype=float)
    d = np.asarray(density, dtype=float)
    if x.ndim != 1 or len(x) < 2 or np.any(np.diff(x) <= 0):
        raise ValueError("grid must be strictly increasing with >= 2 points")
    if d.shape != x.shape:
        raise ValueError("density must match the grid")
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


def named_measure(name, **params):
    """Dispatch on the classical measure names used in configs."""
    if name == "chebyshev-arcsine":
        return equilibrium_measure(
            params.get("alpha", -1.0),
            params.get("beta", 1.0),
            params.get("nodes", DEFAULT_NODES),
        )
    if name == "scaled-hermite":
        return scaled_hermite_measure(params["N"], params.get("nodes", DEFAULT_NODES))
    if name == "uniform-circle":
        return uniform_circle_measure(params.get("n", DEFAULT_NODES))
    raise ValueError(f"unknown measure name {name!r}")
