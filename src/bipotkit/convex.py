"""Closed convex functions on R^n (n <= 3) and their Fenchel machinery.

The form taxonomy is closed under the analytic conjugation table below;
max-affine and sampled forms conjugate through a discrete sup on explicit
grids. Subdifferential membership is always decided through the Fenchel
equality gap phi(x) + phi*(y) - <x, y>, never through difference quotients.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .numerics import (
    DEFAULT_TOL,
    INF,
    DimensionMismatchError,
    MinusInfinityError,
    NegativeFenchelGapError,
    Record,
    _batch_inner,
    _batch_norm,
    _batch_norm2,
    _row_keys,
    _run_starts,
    as_vector,
    ensure_dimension,
    ensure_extended,
    ensure_finite,
    ensure_tol,
)

ANALYTIC_TOL = DEFAULT_TOL
SAMPLED_TOL = 1e-6


class ConjugateDomainError(ValueError):
    """Conjugation failed: empty effective domain or missing grid."""


class ConvexFunction(Record):
    """Base class; subclasses implement ``value_many`` on a trusted (n, dim)
    stack of vectors, and ``value`` is the same on one vector."""

    def __call__(self, x):
        return self.value(as_vector(x, self.dim))

    def value(self, x):
        return float(self.value_many(x[None])[0])

    __hash__ = None


class _ScaleForm(ConvexFunction):
    """The quadratic and norm forms, scale * g(x) on R^dim with one finite
    scale >= 0; each subclass gives its g through its own ``value_many``."""

    scale: float
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "scale", ensure_finite(self.scale, "scale"))
        object.__setattr__(self, "dim", ensure_dimension(self.dim))
        if self.scale < 0:
            raise ValueError(f"scale must be nonnegative, got {self.scale}")


class Quadratic(_ScaleForm):
    """x -> (scale/2) * ||x||^2 with scale >= 0; scale 0 is the zero function."""

    def value_many(self, xs):
        if self.scale == 0.0:
            # the zero function, also where the squared norm overflows
            return np.zeros(xs.shape[:-1])
        with np.errstate(over="ignore"):  # beyond the float range the value is +inf
            return (0.5 * self.scale) * _batch_norm2(xs)


class ScaledNorm(_ScaleForm):
    """x -> scale * ||x|| with scale >= 0."""

    def value_many(self, xs):
        if self.scale == 0.0:
            return np.zeros(xs.shape[:-1])
        with np.errstate(over="ignore"):  # beyond the float range the value is +inf
            return self.scale * _batch_norm(xs)


class IndicatorBall(ConvexFunction):
    """Indicator of the closed ball of given radius; radius may be +inf."""

    radius: float
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "radius", ensure_extended(self.radius, "radius"))
        object.__setattr__(self, "dim", ensure_dimension(self.dim))
        if self.radius < 0:
            raise ValueError(f"radius must be nonnegative, got {self.radius}")

    def value_many(self, xs):
        return np.where(_batch_norm(xs) <= self.radius, 0.0, INF)


class IndicatorPoint(ConvexFunction):
    """Indicator of a single point, offset by a finite constant there.

    The offset exists so the taxonomy is closed under conjugation:
    Affine(a, c)* = IndicatorPoint(a, offset=-c).
    """

    point: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "point", as_vector(self.point))
        object.__setattr__(self, "offset", ensure_finite(self.offset, "offset"))

    @property
    def dim(self):
        return self.point.size

    def value_many(self, xs):
        return np.where(np.all(xs == self.point, axis=1), self.offset, INF)


class Affine(ConvexFunction):
    """x -> <slope, x> + offset."""

    slope: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "slope", as_vector(self.slope))
        object.__setattr__(self, "offset", ensure_finite(self.offset, "offset"))

    @property
    def dim(self):
        return self.slope.size

    def value_many(self, xs):
        return _batch_inner(xs, self.slope) + self.offset


class MaxAffine(ConvexFunction):
    """Pointwise max of finitely many affine pieces (slope, offset)."""

    slopes: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        slopes = np.atleast_2d(np.asarray(self.slopes, dtype=np.float64))
        offsets = np.asarray(self.offsets, dtype=np.float64).reshape(-1)
        if slopes.shape[0] == 0:
            raise ValueError("a max-affine function needs at least one piece")
        if slopes.shape[0] != offsets.size:
            raise ValueError("slopes and offsets disagree in piece count")
        if not (np.all(np.isfinite(slopes)) and np.all(np.isfinite(offsets))):
            raise ValueError("max-affine pieces must be finite")
        ensure_dimension(slopes.shape[1])
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def from_pieces(cls, pieces):
        """Build from an iterable of (slope, offset) pairs."""
        slopes = [as_vector(s) for s, _ in pieces]
        offsets = [o for _, o in pieces]
        return cls(np.array(slopes), np.array(offsets))

    @property
    def dim(self):
        return self.slopes.shape[1]

    @property
    def pieces(self):
        return [(self.slopes[i].copy(), float(self.offsets[i])) for i in range(self.offsets.size)]

    def value_many(self, xs):
        # the first maximal piece, as a scan over the pieces in order keeps it
        vals = _batch_inner(xs[:, None, :], self.slopes) + self.offsets
        return vals[np.arange(xs.shape[0]), vals.argmax(axis=1)]


class Sampled(ConvexFunction):
    """Finite samples (grid node -> extended value); +inf off the grid.

    In one dimension the grid must be strictly increasing.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        if grid.ndim == 1:
            grid = grid[:, None]
        if grid.ndim != 2 or grid.shape[0] == 0:
            raise ValueError("grid must be a nonempty stack of vectors")
        ensure_dimension(grid.shape[1])
        if not np.all(np.isfinite(grid)):
            raise ValueError("grid nodes must be finite")
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if values.size != grid.shape[0]:
            raise ValueError("values and grid disagree in length")
        for v in values:
            ensure_extended(v, "sampled value")
        if grid.shape[1] == 1 and grid.shape[0] > 1:
            if not np.all(np.diff(grid[:, 0]) > 0):
                raise ValueError("a 1-d grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def dim(self):
        return self.grid.shape[1]

    def value_many(self, xs):
        # the first grid node equal to each probe: a stable sort keeps equal
        # nodes in index order, and the left search lands on the first
        keys, probes = _row_keys(self.grid), _row_keys(xs)
        order = np.argsort(keys, kind="stable")
        first = order[np.minimum(np.searchsorted(keys[order], probes), keys.size - 1)]
        return np.where(keys[first] == probes, self.values[first], INF)


def _as_grid(grid, dim=None):
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim == 1:
        g = g[:, None]
    if g.ndim != 2 or g.shape[0] == 0:
        raise ValueError("a grid must be a nonempty stack of vectors")
    if not np.all(np.isfinite(g)):
        raise ValueError("grid nodes must be finite")
    if dim is not None and g.shape[1] != dim:
        raise DimensionMismatchError(f"grid dimension {g.shape[1]} != expected {dim}")
    return g


def discrete_conjugate_values(grid, values, dual_grid):
    """Values of the discrete conjugate sup_i (<x_i, y> - v_i) on dual_grid.

    1-d samples on an ascending dual grid take the linear-time merge, any
    other input the brute force; both give the same bits. Raises if every
    sample is +inf (the sup would be -inf).
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim == 1:
        grid = grid[:, None]
    dual = _as_grid(dual_grid, grid.shape[1])
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    finite = values < INF
    if not finite.any():
        raise ConjugateDomainError("conjugate of an everywhere-infinite function is -inf")

    if grid.shape[1] == 1 and bool(np.all(np.diff(dual[:, 0]) >= 0)):
        xf = grid[finite, 0]
        vf = values[finite]
        order = np.argsort(xf, kind="stable")
        return kernels.conjugate_merge(xf[order], vf[order], dual[:, 0])
    out = kernels.conjugate_bruteforce(kernels.pairing_matrix(grid, dual), values)
    if np.any(out == -INF):
        raise ConjugateDomainError("conjugate of an everywhere-infinite function is -inf")
    return out


def conjugate(phi, dual_grid=None, primal_grid=None):
    """Fenchel conjugate of phi.

    Analytic forms map through the closed table. Sampled forms need a
    ``dual_grid``; max-affine forms additionally need a ``primal_grid`` to
    sample on before the discrete sup. Discrete results come back as
    :class:`Sampled` on the dual grid.
    """
    if isinstance(phi, Quadratic):
        if phi.scale > 0:
            return Quadratic(1.0 / phi.scale, phi.dim)
        return IndicatorPoint(np.zeros(phi.dim))
    if isinstance(phi, ScaledNorm):
        return IndicatorBall(phi.scale, phi.dim)
    if isinstance(phi, IndicatorBall):
        if phi.radius == INF:
            return IndicatorPoint(np.zeros(phi.dim))
        return ScaledNorm(phi.radius, phi.dim)
    if isinstance(phi, IndicatorPoint):
        if bool(np.all(phi.point == 0.0)) and phi.offset == 0.0:
            return Quadratic(0.0, phi.dim)
        return Affine(phi.point, -phi.offset)
    if isinstance(phi, Affine):
        return IndicatorPoint(phi.slope, -phi.offset)
    if isinstance(phi, Sampled):
        if dual_grid is None:
            raise ConjugateDomainError("conjugating a sampled form needs a dual grid")
        vals = discrete_conjugate_values(phi.grid, phi.values, dual_grid)
    elif isinstance(phi, MaxAffine):
        if dual_grid is None or primal_grid is None:
            raise ConjugateDomainError(
                "conjugating a max-affine form needs a primal grid to sample on and a dual grid")
        pg = _as_grid(primal_grid, phi.dim)
        vals = discrete_conjugate_values(pg, phi.value_many(pg), dual_grid)
    else:
        raise TypeError(f"cannot conjugate {type(phi).__name__}")
    return Sampled(_as_grid(dual_grid, phi.dim), vals)


def default_tol(phi):
    """1e-9 for analytic forms, 1e-6 for sampled grids."""
    return SAMPLED_TOL if isinstance(phi, Sampled) else ANALYTIC_TOL


class FenchelGapReport(Record):
    """Outcome of one Fenchel-Young inequality evaluation."""

    gap: float
    at_equality: bool
    tol: float = ANALYTIC_TOL
    _hidden = ("tol",)


def fenchel_gap(phi, x, y, tol=None, primal_grid=None):
    """Report the gap phi(x) + phi*(y) - <x, y> at one primal-dual probe.

    The gap is nonnegative up to rounding; a value below -tol means the
    conjugate implementation is inconsistent and raises. For max-affine
    forms the conjugate is sampled on ``primal_grid``, which bounds the true
    gap from below; it is exact whenever the sup is attained on that grid.
    """
    tol = default_tol(phi) if tol is None else ensure_tol(tol)
    xv = as_vector(x, phi.dim)
    yv = as_vector(y, phi.dim)
    px = phi.value(xv)
    # discrete forms conjugate on the one dual point, exact for sampled forms
    py = conjugate(phi, dual_grid=yv[None], primal_grid=primal_grid).value(yv)
    ensure_extended(py, "conjugate value")
    pairing = _batch_inner(xv, yv)[()]
    gap = px + py - pairing
    if math.isnan(gap):
        raise MinusInfinityError("fenchel gap is undefined (inf - inf)")
    if gap < -tol:
        raise NegativeFenchelGapError(
            f"fenchel gap {gap} < -{tol}; conjugate inconsistency for {type(phi).__name__}")
    return FenchelGapReport(gap=gap, at_equality=bool(gap <= tol), tol=tol)


def subdifferential_contains(phi, x, y, tol=None, primal_grid=None):
    """True iff y is a subgradient of phi at x, by the equality criterion."""
    return fenchel_gap(phi, x, y, tol=tol, primal_grid=primal_grid).at_equality


def graph_of(phi, x_grid, y_grid, tol=None):
    """Law graph of phi sampled on a product grid: the contact graph of the
    separable bipotential phi(x) + phi*(y), the pairs (x, y) of x_grid x
    y_grid whose Fenchel gap is at most tol, in row-major order. Max-affine
    forms use x_grid as the sampling window for their conjugate. Raises if no
    pair is in contact (a law graph cannot be empty). Discrete forms
    conjugate on the distinct dual probes, ascending in one dimension as a
    1-d :class:`Sampled` grid must be; the table still reads y_grid as given.
    """
    from .bipotentials import _contact_graph, _probe_table, build_separable

    tol = default_tol(phi) if tol is None else ensure_tol(tol)
    xg = _as_grid(x_grid, phi.dim)
    yg = _as_grid(y_grid, phi.dim)
    # not np.unique: under numpy 2.4 its first call in a process adds about
    # 1 MB of peak RSS
    dual = np.sort(yg[:, 0]) if phi.dim == 1 else yg
    dual = dual[_run_starts(dual)] if phi.dim == 1 else dual
    b = build_separable(phi, dual_grid=dual, primal_grid=xg)
    return _contact_graph(_probe_table(b, xg, yg), tol)
