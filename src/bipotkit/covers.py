"""Convex lagrangian covers: parameterized families lambda -> phi_lambda.

A cover evaluates f(lambda, x, y) = phi_lambda(x) + phi*_lambda(y) over a
compact parameter set that may include the 0 and +inf sentinels; those ends
degenerate to exact indicator forms, never to large finite surrogates. The
union of the member graphs should reproduce a target law, which
:func:`coverage_check` certifies sample-wise in both directions.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .convex import (
    ConvexFunction,
    IndicatorPoint,
    Quadratic,
    ScaledNorm,
    _as_grid,
    conjugate,
)
from .numerics import (
    DEFAULT_TOL,
    INF,
    Record,
    _batch_inner,
    _batch_norm,
    _batch_norm2,
    _chunks,
    _nonzero,
    _run_starts,
    as_vector,
    ensure_dimension,
    ensure_extended,
    ensure_tol,
)

DEFAULT_GRID_LO = 1e-4
DEFAULT_GRID_HI = 1e4
DEFAULT_GRID_POINTS = 512

# numeric infima over a log grid carry the grid's own resolution, so
# sample-based certifications default to a matching tolerance
GRID_TOL = 1e-3


class PreconditionError(ValueError):
    """A candidate-selection precondition (subgradient membership) failed."""


class CandidateNotFoundError(ValueError):
    """No tabulated parameter satisfies the candidate condition."""


# ---------------------------------------------------------------------------
# parameter domains


def _grid_ends(lo, hi):
    """The log grid's ends that [lo, hi] gives when none are named: lo and
    hi, with an end at 0 or inf replaced by DEFAULT_GRID_LO or DEFAULT_GRID_HI."""
    return (lo if lo > 0 else DEFAULT_GRID_LO, hi if hi < INF else DEFAULT_GRID_HI)


class ClosedInterval(Record):
    """[lo, hi] with lo >= 0, optionally extended by the +inf sentinel.

    The sample grid is log-spaced between grid_lo and grid_hi (defaults
    clamp the unbounded ends to [1e-4, 1e4]) and always carries both
    endpoints, plus 0 and inf when they belong to the set.
    """

    lo: float
    hi: float
    includes_infinity: bool = False
    grid_points: int = DEFAULT_GRID_POINTS
    grid_lo: float = None
    grid_hi: float = None

    def __post_init__(self):
        lo = ensure_extended(self.lo, "lo")
        hi = ensure_extended(self.hi, "hi")
        if lo < 0 or hi < lo:
            raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
        if lo == INF:
            raise ValueError("lo must be finite")
        flag, n = self.includes_infinity, self.grid_points
        if not isinstance(flag, (bool, np.bool_)):
            raise ValueError(f"includes_infinity must be a bool, got {flag!r}")
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"grid_points must be an integer, got {n!r}")
        if n < 2:
            raise ValueError("grid_points must be at least 2")
        dlo, dhi = _grid_ends(lo, hi)
        glo = float(self.grid_lo if self.grid_lo is not None and hi > 0 else dlo)
        ghi = float(self.grid_hi if self.grid_hi is not None and hi > 0 else dhi)
        # the ends are checked once clamped into [lo, hi], as the grid uses
        # them; [0, 0] has no positive member, so no log grid and no ends but
        # the ones lo and hi give
        glo, ghi = max(glo, lo) if lo > 0 else glo, min(ghi, hi)
        if hi > 0 and not 0 < glo <= ghi < INF:
            raise ValueError(f"log grid needs 0 < grid_lo <= grid_hi < inf, got [{glo}, {ghi}]")
        for name, value in (("lo", lo), ("hi", hi), ("includes_infinity", bool(flag)),
                            ("grid_points", int(n)), ("grid_lo", glo), ("grid_hi", ghi)):
            object.__setattr__(self, name, value)

    def contains(self, lam):
        lam = ensure_extended(lam, "lambda")
        if lam == INF:
            return self.includes_infinity
        return self.lo <= lam <= self.hi

    def contains_many(self, lams):
        """:meth:`contains` over an array of validated parameters."""
        return np.where(lams == INF, self.includes_infinity,
                        (self.lo <= lams) & (lams <= self.hi))

    @cached_property
    def sample_grid(self):
        """Built once per domain and read-only."""
        core = np.logspace(math.log10(self.grid_lo), math.log10(self.grid_hi),
                           self.grid_points) if self.hi > 0 else np.empty(0)
        # 10 ** log10(t) can round to just outside [lo, hi]; such nodes go
        core = core[(self.lo <= core) & (core <= self.hi)]
        ends = [self.lo]
        if self.hi < INF:
            ends.append(self.hi)
        grid = np.sort(np.concatenate([core, np.asarray(ends)]))
        grid = grid[_run_starts(grid)]
        if self.includes_infinity:
            grid = np.append(grid, INF)
        grid.flags.writeable = False
        return grid


class FiniteSet(Record):
    """An explicit finite parameter set; values may include the inf sentinel."""

    values: tuple

    def __post_init__(self):
        vals = tuple(sorted(ensure_extended(v, "lambda") for v in self.values))
        if not vals:
            raise ValueError("a finite parameter set cannot be empty")
        if vals[0] < 0:
            raise ValueError("parameters must be nonnegative")
        object.__setattr__(self, "values", vals)

    def contains(self, lam):
        return ensure_extended(lam, "lambda") in self.values

    def contains_many(self, lams):
        """:meth:`contains` over an array of validated parameters."""
        return (lams[..., None] == np.asarray(self.values)).any(axis=-1)

    @cached_property
    def sample_grid(self):
        """Built once per set and read-only."""
        grid = np.asarray(self.values)
        grid.flags.writeable = False
        return grid


# ---------------------------------------------------------------------------
# families
#
# Every family evaluates f(lambda, x, y) one way, ``f_many(lams, x, y)``,
# the only code that evaluates f: the parameters, an array with at least one
# axis, broadcast against the leading axes of the trusted float64 point
# stacks x and y of shape (..., dim). It computes phi_lambda(x) over x's axes
# and phi*_lambda(y) over y's, each term once per probe of its own stack,
# and adds them through ``_add_terms``: a sum beyond the float range is
# +inf or -inf, and -inf + inf (say an affine term overflowing against an
# infinite indicator) is +inf. The BIC screen, the sweep, ``Cover.f_eval``,
# ``p1_candidate`` and ``SeparableBipotential`` all call it, on one row for
# the scalar entry points.
# At the 0 and inf members of the quadratic and norm families each term is
# decided on exact coordinates: at 0 the phi term is 0 and the phi* term the
# indicator of y = 0, at inf the phi term is the indicator of x = 0 and the
# phi* term 0; a nonzero vector whose squared norm underflows is still
# nonzero. Separable and tabulated families evaluate their members through
# ``ConvexFunction.value_many``.
# ``finite_boundary_lams`` takes vectors or point stacks alike and returns one
# value per leading index for each boundary. ``special_lams_many`` stacks the
# exact per-probe minimizers then the finiteness boundaries as (lams, present)
# pairs over the same leading axes. The four families share ``_Family``,
# whose defaults of both hooks report none; a family with values overrides
# them. The candidate rules ``candidate`` and ``candidate_dual`` depend on
# (lambda1, lambda2, alpha) only: the BIC screen calls them once per
# (lambda1, lambda2, alpha) block with the point None.
# Every family also has ``sweep_windows(grid, x, y)``: for each pair of the
# broadcast stacks, a run (start, width), width at least 1, of nodes of the
# ascending sample grid that provably holds the first minimum of f over the
# whole grid; the whole grid where no narrower run is proven.
# The quadratic and norm families share one base, ``_ScaleFamily``: their
# members are one scale form (``convex.Quadratic`` or ``convex.ScaledNorm``)
# at each finite parameter, and the base states ``phi``, ``phi_star`` and
# ``candidate_dual`` once. Each of the two adds ``infimum(domain, x, y)``,
# the closed-form infimum of f and its parameter over an interval domain,
# which analytic mode of ``InfOfCoverBipotential`` evaluates; all of a
# family's math lives here.


# squared norms and parameters in [2**-300, 2**300] keep both quadratic
# terms and their sum normal, with products and quotients in [2**-601, 2**600]
_SAFE_LO, _SAFE_HI = 2.0 ** -300, 2.0 ** 300
# a bound, in units of u = 2**-53, on how far above 1 the ratio of two
# quadratic members' exact values can be while their float values are in
# the opposite order (5 is needed, see sweep_windows)
_KAPPA = 8
# bound on the error of a computed log-distance between the grid nodes and a
# pair's minimizer: a few ulps of logs below 210 in magnitude are about
# 1e-13, so this slack leaves three orders of magnitude to spare
_LOG_SLACK = 2.0 ** -30


def _add_terms(p, d):
    """f = p + d, the phi and phi* terms of a family's ``f_many``, as an
    array even when 0-d: a sum beyond the float range is +inf or -inf, and
    -inf + inf is +inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.asarray(p + d)
    return np.fmin(total, INF, out=total)


def _add_with_ends(lams, p, d, x, y):
    """``_add_terms`` of the quadratic and norm families' terms, decided at
    the 0 and inf members on the exact coordinates: at 0 the phi term is 0
    and the phi* term the indicator of y = 0, at inf the phi term is the
    indicator of x = 0 and the phi* term 0; a pass over the terms only for
    an end that ``lams`` holds. A point is nonzero when one of its
    coordinates is, tested a coordinate at a time: ``any`` along a short
    last axis costs a reduction per point."""
    p, d = np.asarray(p), np.asarray(d)
    for end, term, v, zero in ((0.0, d, y, p), (INF, p, x, d)):
        at = np.equal(lams, end)
        if at.any():
            nonzero = v[..., 0] != 0.0
            for k in range(1, v.shape[-1]):
                nonzero |= v[..., k] != 0.0
            np.copyto(term, np.where(nonzero, INF, 0.0), where=at)
            np.copyto(zero, 0.0, where=at)
    return _add_terms(p, d)


def _form_values(form, v):
    """form(v) over a point stack of shape (..., dim)."""
    return form.value_many(v.reshape(-1, v.shape[-1])).reshape(v.shape[:-1])


class _Family:
    """The defaults of the family protocol: no finiteness boundaries and no
    special parameters."""

    def finite_boundary_lams(self, x, y):
        return []

    def special_lams_many(self, x, y):
        return []


class _ScaleFamily(Record, _Family):
    """The quadratic and norm families: phi_lambda is the scale form
    ``_form(lambda, dim)``, the indicator of x = 0 at inf, and phi*_lambda
    its conjugate by the closed table of ``convex.conjugate``. Each family
    adds ``infimum``, its closed-form infimum of f over an interval domain."""

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", ensure_dimension(self.dim))

    def phi(self, lam):
        if lam == INF:
            return IndicatorPoint(np.zeros(self.dim))
        return self._form(lam, self.dim)

    def phi_star(self, lam):
        return conjugate(self.phi(lam))

    def candidate_dual(self, lam1, lam2, alpha, x):
        # mixes in the second argument take the arithmetic mean: it is exact
        # on the quadratics' lines y = lambda x, and the norms' balls hold the
        # mix by the triangle inequality; an infinite member forces x = 0,
        # where every parameter accepts
        if lam1 == INF or lam2 == INF:
            return INF
        return alpha * lam1 + (1.0 - alpha) * lam2


class QuadraticFamily(_ScaleFamily):
    """phi_lambda = (lambda/2)||.||^2; the ends degenerate to indicators.

    f(0, x, y) is the indicator of y = 0 and f(inf, x, y) the indicator of
    x = 0; member graphs are the lines y = lambda x, whose union is the
    positively-collinear (Cauchy) law.
    """

    _form = Quadratic

    def f_many(self, lams, x, y):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            p = (0.5 * lams) * _batch_norm2(x)
            d = (0.5 * _batch_norm2(y)) / lams
        return _add_with_ends(lams, p, d, x, y)

    def sweep_windows(self, grid, x, y):
        """Per pair, the run of grid nodes within d_min + sqrt(2 kappa u) +
        2 slack of the minimizer in log-distance, d_min that of the nearest
        node, for squared norms in [2**-300, 2**300]; node 0 for y = 0, and
        the inf member, when the grid holds it, for x = 0 and ||y||^2 >=
        2**-300; the whole grid for the other pairs, and for every pair but
        y = 0 when the grid has no finite positive node or one outside
        that range.

        With a = ||x||^2 and b = ||y||^2 positive, f(lambda) = sqrt(ab)
        cosh(t - t*) at t = ln lambda, t* = ln sqrt(b/a). In the safe range
        ``f_many`` rounds (lambda/2) a, (b/2)/lambda and their sum once each
        (the halvings are exact), so the float value lies within
        [(1-u)^2, (1+u)^2] f, u = 2**-53. A node can then hold or tie the
        float minimum only if cosh(d) <= cosh(d_min) ((1+u)/(1-u))^2 <
        cosh(d_min) (1 + 5u), d its log-distance to t* and d_min the least
        over the nodes; kappa = 8 covers the 5. As cosh(d_min + delta) >=
        cosh(d_min) cosh(delta) >= cosh(d_min) (1 + delta^2 / 2), every node
        farther than d_min + sqrt(2 kappa u) fails that test. The slack
        covers the rounding of the computed log-distances, once for d_min
        and once for d. The 0 and inf nodes are +inf for nonzero x and y.
        The run is searched by log-distance, not as a fixed number of nodes
        around the nearest, because the domain ends sit among the log-grid
        nodes at irregular spacing.

        For y = 0, f is 0 at the 0 member and the rounded (lambda/2) a,
        non-decreasing, at the others, up to the indicator of x = 0 at inf.
        For x = 0 and y != 0, f is +inf at 0 and 0 at inf, and (b/2)/lambda
        >= 2**-601 > 0 at the finite nodes in the safe range."""
        a, b = _batch_norm2(x), _batch_norm2(y)
        zero_y = ~y.any(axis=-1)
        # the finite positive nodes
        lo, hi = np.searchsorted(grid, 0.0, "right"), np.searchsorted(grid, INF, "left")
        if not (lo < hi and _SAFE_LO <= grid[lo] and grid[hi - 1] <= _SAFE_HI):
            return 0, np.where(zero_y, 1, grid.size)
        t = np.log(grid[lo:hi])
        safe = (_SAFE_LO <= a) & (a <= _SAFE_HI) & (_SAFE_LO <= b) & (b <= _SAFE_HI)
        zero_x = ~x.any(axis=-1) & (b >= _SAFE_LO) & (grid[-1] == INF)
        t_star = 0.5 * (np.log(np.clip(b, _SAFE_LO, _SAFE_HI))
                       - np.log(np.clip(a, _SAFE_LO, _SAFE_HI)))
        k = np.searchsorted(t, t_star)
        d_min = np.minimum(np.abs(t_star - t[np.maximum(k - 1, 0)]),
                           np.abs(t[np.minimum(k, t.size - 1)] - t_star))
        reach = d_min + (math.sqrt(2 * _KAPPA * 2.0 ** -53) + 2 * _LOG_SLACK)
        near = np.searchsorted(t, t_star - reach, "left")
        far = np.searchsorted(t, t_star + reach, "right")
        return (np.select([safe, zero_x], [lo + near, grid.size - 1]),
                np.select([safe, zero_x | zero_y], [far - near, 1], grid.size))

    def special_lams_many(self, x, y):
        # the unconstrained minimizer ||y||/||x||, with the ends standing in
        # when an argument vanishes
        nx = _batch_norm(x)
        ny = _batch_norm(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(nx == 0.0, INF, np.where(ny == 0.0, 0.0, ny / nx))
        return [(lam, (nx != 0.0) | (ny != 0.0))]

    def candidate(self, lam1, lam2, alpha, y):
        # harmonic interpolation 1/lam = alpha/lam1 + beta/lam2 with the
        # conventions 1/0 = inf and 1/inf = 0
        inv = 0.0
        for lam, wgt in ((lam1, alpha), (lam2, 1.0 - alpha)):
            if wgt == 0.0:
                continue
            if lam == 0.0:
                return 0.0
            if lam < INF:
                inv += wgt / lam
        if inv == 0.0:
            return INF
        return 1.0 / inv

    def infimum(self, domain, x, y):
        """Exact infimum of (lam/2)||x||^2 + ||y||^2/(2 lam) over [lo, hi],
        with its parameter, for point stacks x, y of shape (..., dim)
        broadcast against each other.

        The unconstrained minimizer is lam = ||y||/||x|| with value ||x||
        ||y||; outside the interval the objective is monotone, so the nearer
        end attains. The 0 and inf members contribute their indicator values.
        """
        nx2 = _batch_norm2(x)
        ny2 = _batch_norm2(y)
        nx = np.sqrt(nx2)
        ny = np.sqrt(ny2)
        lo, hi = domain.lo, domain.hi
        # x = 0 and y != 0: the inf member, else the largest finite one
        if domain.includes_infinity:
            end_val, end_lam = 0.0, INF
        elif hi == 0.0:
            end_val, end_lam = INF, 0.0
        else:
            # hi = inf: the limit 0, even where ||y||^2 overflowed
            end_val, end_lam = (0.5 * ny2) / hi if hi < INF else 0.0, hi
        with np.errstate(divide="ignore", invalid="ignore"):
            lam_star = ny / nx
            # inf / inf: both norms overflowed, every member is +inf; the
            # first, lo, attains as in a sweep (0 / 0 is the y = 0 case below)
            lam_star = np.where(np.isnan(lam_star), lo, lam_star)
            # min(max(lam_star, lo), hi) as Python evaluates it
            lam = np.where(lo > lam_star, lo, lam_star)
            lam = np.where(hi < lam, hi, lam)
            val = np.where(lam == lam_star, nx * ny,
                           np.where(lam == 0.0, INF, (0.5 * lam) * nx2 + (0.5 * ny2) / lam))
            # y = 0: the lo member attains; at lo = 0 it gives 0 for any x
            val = np.where(ny == 0.0, (0.5 * lo) * nx2 if lo > 0.0 else lo, val)
        lam = np.where(ny == 0.0, lo, lam)
        only_y = (nx == 0.0) & (ny != 0.0)
        return np.where(only_y, end_val, val), np.where(only_y, end_lam, lam)


class NormFamily(_ScaleFamily):
    """phi_lambda = lambda||.||, phi*_lambda the indicator of the lambda-ball.

    Member graphs are the rigid-plastic yielding laws: x = 0 while
    ||y|| < lambda, outward rays once ||y|| = lambda.
    """

    _form = ScaledNorm

    def f_many(self, lams, x, y):
        with np.errstate(invalid="ignore", over="ignore"):
            p = lams * _batch_norm(x)
        d = np.where(_batch_norm(y) <= lams, 0.0, INF)
        return _add_with_ends(lams, p, d, x, y)

    def sweep_windows(self, grid, x, y):
        """Per pair, the first node that passes ``f_many``'s test ||y|| <=
        lambda, and the node after it too when that first node is the 0
        member of a nonzero y (+inf there though its squared norm
        underflows to 0).

        f is +inf on the nodes that fail the test, and lambda ||x|| on the
        others, which correct rounding keeps non-decreasing up to the inf
        member (the indicator of x = 0); so the first passing node holds
        the first minimum. Where no node passes, the last one stands in: a
        window whose minimum is +inf means a grid of +inf values."""
        ny = _batch_norm(y)
        start = np.minimum(np.searchsorted(grid, ny, "left"), grid.size - 1)
        width = np.where((grid[start] == 0.0) & y.any(axis=-1), 2, 1)
        return start, np.minimum(width, grid.size - start)

    def finite_boundary_lams(self, x, y):
        # f(., x, y) switches from +inf to finite exactly at lambda = ||y||;
        # a log grid cannot see that edge, so infimum sweeps must add it
        return [_batch_norm(y)]

    def special_lams_many(self, x, y):
        # the minimizer and the finiteness boundary coincide at ||y||
        return [(_batch_norm(y), True)]

    def candidate(self, lam1, lam2, alpha, y):
        return min(lam1, lam2)

    def infimum(self, domain, x, y):
        """Exact infimum of lam ||x|| + indicator(||y|| <= lam) over [lo,
        hi], with its parameter, for point stacks x, y of shape (..., dim)
        broadcast against each other.

        The smallest admitted parameter max(||y||, lo) attains; when no
        finite member admits y the value is +inf unless x = 0 meets the inf
        member.
        """
        nx = _batch_norm(x)
        ny = _batch_norm(y)
        lo, hi = domain.lo, domain.hi
        lam = np.where(lo > ny, lo, ny)  # max(ny, lo) as Python evaluates it
        admitted = lam <= hi
        with np.errstate(invalid="ignore"):
            # the 0 member admits only y = 0, where it gives 0 for any x
            val = np.where(admitted,
                           np.where(lam == 0.0, 0.0, np.where(lam == ny, nx * ny, lam * nx)), INF)
        # x = 0: an admitting member gives 0, and the inf member admits every y
        end_val, end_lam = (0.0, INF) if domain.includes_infinity else (INF, hi)
        val = np.where(nx == 0.0, np.where(admitted, 0.0, end_val), val)
        lam = np.where(admitted, lam, np.where(nx == 0.0, end_lam, hi))
        return val, lam


class SeparableFamily(Record, _Family):
    """A single-member cover {phi}; f is phi(x) + phi*(y) for every lambda."""

    potential: ConvexFunction
    potential_star: ConvexFunction

    @property
    def dim(self):
        return self.potential.dim

    def phi(self, lam):
        return self.potential

    def phi_star(self, lam):
        return self.potential_star

    def f_many(self, lams, x, y):
        # the one member at every parameter
        p = _form_values(self.potential, x)
        return _add_terms(np.broadcast_to(p, np.broadcast_shapes(np.shape(lams), p.shape)),
                          _form_values(self.potential_star, y))

    def sweep_windows(self, grid, x, y):
        """Node 0 for every pair: f does not depend on lambda."""
        return 0, 1

    def candidate(self, lam1, lam2, alpha, y):
        return lam1

    def candidate_dual(self, lam1, lam2, alpha, x):
        return lam1


class TabulatedFamily(_Family):
    """Explicit finite table lambda -> (phi_lambda, phi*_lambda).

    Joint lower semicontinuity cannot be certified from a finite table, so
    covers built on one carry lsc_certificate "assumed".
    """

    def __init__(self, entries):
        table = {}
        for lam, phi, phi_star in entries:
            lam = ensure_extended(lam, "lambda")
            if phi.dim != phi_star.dim:
                raise ValueError("phi and phi* must share a dimension")
            table[lam] = (phi, phi_star)
        if not table:
            raise ValueError("a tabulated family needs at least one entry")
        dims = {phi.dim for phi, _ in table.values()}
        if len(dims) != 1:
            raise ValueError("all tabulated members must share a dimension")
        self.table = dict(sorted(table.items()))
        self.dim = dims.pop()

    def __eq__(self, other):
        # by value, as records compare: the same members with equal forms;
        # unhashable, as the forms are
        return type(other) is type(self) and self.table == other.table

    def lams(self):
        return list(self.table)

    def _entry(self, lam):
        try:
            return self.table[ensure_extended(lam, "lambda")]
        except KeyError:
            raise ValueError(f"lambda {lam} is not tabulated") from None

    def phi(self, lam):
        return self._entry(lam)[0]

    def phi_star(self, lam):
        return self._entry(lam)[1]

    def f_many(self, lams, x, y):
        # each member's forms once over the rows of x, and of y
        lams = np.asarray(lams, dtype=np.float64)
        known = (lams[..., None] == np.array(self.lams())).any(axis=-1)
        if not known.all():
            self._entry(lams[~known][0])  # raises for the first untabulated one
        p = np.empty(np.broadcast_shapes(lams.shape, x.shape[:-1]))
        d = np.empty(np.broadcast_shapes(lams.shape, y.shape[:-1]))
        for lam, (phi, phi_star) in self.table.items():
            at = lams == lam
            if at.any():
                np.copyto(p, _form_values(phi, x), where=at)
                np.copyto(d, _form_values(phi_star, y), where=at)
        return _add_terms(p, d)

    def sweep_windows(self, grid, x, y):
        """The whole grid, its members, for every pair."""
        return 0, grid.size

    def candidate(self, lam1, lam2, alpha, y):
        raise CandidateNotFoundError("tabulated families use the grid scan")

    def candidate_dual(self, lam1, lam2, alpha, x):
        raise CandidateNotFoundError("tabulated families use the grid scan")


# ---------------------------------------------------------------------------
# the cover


class Cover(Record):
    domain: object
    family: object

    @property
    def dim(self):
        return self.family.dim

    @property
    def lsc_certificate(self):
        """"structural" when joint lsc holds by form, "assumed" for tables."""
        return "assumed" if isinstance(self.family, TabulatedFamily) else "structural"

    def f_eval(self, lam, x, y):
        """f(lambda, x, y) = phi_lambda(x) + phi*_lambda(y), exact case split."""
        lam = ensure_extended(lam, "lambda")
        if not self.domain.contains(lam):
            raise ValueError(f"lambda {lam} is outside the parameter domain")
        xv = as_vector(x, self.dim)
        yv = as_vector(y, self.dim)
        return float(self.family.f_many(np.array([lam]), xv[None], yv[None])[0])

    def grid_infimum(self, x, y):
        """(value, attaining lambda) of f over the sample grid plus the
        probe's finiteness boundaries where the domain holds them."""
        vals, lams = self._sweep(as_vector(x, self.dim)[None], as_vector(y, self.dim)[None])
        return float(vals[0]), float(lams[0])

    def grid_infimum_values(self, xs, ys):
        """Grid-infimum values over probe stacks of shape (..., dim) that
        broadcast against each other: paired stacks give one value per pair,
        ``xs[:, None]`` against ``ys[None]`` the product table. Entry for
        entry equal to :meth:`grid_infimum`, and to a sweep of every grid
        node: each pair is evaluated only on the nodes that can hold its
        first minimum (see :meth:`_sweep`)."""
        return self._sweep(_as_stack(xs, self.dim), _as_stack(ys, self.dim))[0]

    def _sweep(self, xs, ys):
        """(values, attaining lambdas) of the grid infimum over trusted probe
        stacks broadcast against each other, with at least one leading axis.

        The family's ``sweep_windows`` names, for each pair, a run of grid
        nodes that holds its first minimum over the whole grid, and
        ``f_many`` evaluates those nodes alone (:func:`_windowed_sweep`), in
        slabs of about ``numerics.SWEEP_CHUNK / 16`` pairs along the first
        axis, so a caller may pass any number of pairs at once. Each probe's
        finiteness boundaries where the domain holds them follow: a boundary
        wins when its value is lower, or equal at a smaller lambda. The
        attaining lambda is thus the first minimum in ascending order."""
        fam, dom = self.family, self.domain
        grid = dom.sample_grid
        shape = np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1])
        # the stacks as given, with the leading axes they broadcast over
        xs, ys = (a.reshape((1,) * (len(shape) + 1 - a.ndim) + a.shape) for a in (xs, ys))
        vals, lams = np.empty(shape), np.empty(shape)
        # slabs along the first axis: a windowed pair keeps some 16 floats of
        # temporaries alive, so SWEEP_CHUNK / 16 pairs hold about SWEEP_CHUNK
        # of them
        for r in _chunks(shape[0], 16 * math.prod(shape[1:])):
            x, y = (a if a.shape[0] == 1 else a[r] for a in (xs, ys))
            v, lam = vals[r], lams[r]
            v[...], first = _windowed_sweep(fam, grid, x, y)
            lam[...] = grid[first]
            x, y = (np.broadcast_to(a, v.shape + a.shape[-1:]) for a in (x, y))
            for edge_lams in fam.finite_boundary_lams(x, y):
                at = _nonzero(dom.contains_many(edge_lams))
                edge, edge_lams = fam.f_many(edge_lams[at], x[at], y[at]), edge_lams[at]
                wins = (edge < v[at]) | ((edge == v[at]) & (edge_lams < lam[at]))
                won = tuple(i[wins] for i in at)
                v[won], lam[won] = edge[wins], edge_lams[wins]
        return vals, lams


def _windowed_sweep(fam, grid, xs, ys):
    """(values, node indices) of the first minima of f over the grid for
    point stacks of shape (..., dim) broadcast against each other, each
    pair over the run of nodes that ``fam.sweep_windows`` names for it; a
    run whose minimum is +inf answers node 0, as a grid of +inf values
    does.

    A family that names one run for every pair (separable, tabulated) has
    ``f_many`` evaluate it on the stacks as given, each probe's terms once,
    in chunks of nodes. Otherwise the pairs are grouped by run width and
    gathered in chunks, so each gather is exactly as wide as its runs.
    Chunks hold about ``numerics.SWEEP_CHUNK`` entries."""
    shape = np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1])
    start, width = fam.sweep_windows(grid, xs, ys)
    if np.ndim(start) == np.ndim(width) == 0:
        vals, first = np.full(shape, INF), np.zeros(shape, dtype=np.intp)
        run = np.arange(start, start + width)
        for c in _chunks(width, math.prod(shape)):
            nodes = run[c]
            total = fam.f_many(grid[nodes], xs[..., None, :], ys[..., None, :])
            k = total.argmin(axis=-1)
            low = np.take_along_axis(total, k[..., None], axis=-1)[..., 0]
            # a later chunk wins only with a lower value
            won = low < vals
            vals[won], first[won] = low[won], nodes[k[won]]
        return vals, first
    start, width = (np.broadcast_to(w, shape).reshape(-1) for w in (start, width))
    xs, ys = (np.broadcast_to(a, shape + a.shape[-1:]).reshape(-1, a.shape[-1]) for a in (xs, ys))
    vals, first = np.empty(start.size), np.empty(start.size, dtype=np.intp)
    # the distinct widths, ascending (np.unique would import numpy.ma)
    for w in np.flatnonzero(np.bincount(width)).tolist():
        pairs = np.flatnonzero(width == w)
        for c in _chunks(pairs.size, w):
            at = pairs[c]
            total = fam.f_many(grid[start[at, None] + np.arange(w)], xs[at, None], ys[at, None])
            k = total.argmin(axis=-1)
            vals[at] = low = total[np.arange(at.size), k]
            first[at] = np.where(low == INF, 0, start[at] + k)
    return vals.reshape(shape), first.reshape(shape)


def _as_stack(points, dim):
    """Validated float64 probe stack of shape (..., dim); up to two axes it
    reads as :func:`_as_grid` does."""
    p = np.asarray(points, dtype=np.float64)
    if p.ndim < 3:
        return _as_grid(p, dim)
    return _as_grid(p.reshape(-1, p.shape[-1]), dim).reshape(p.shape)


def quadratic_cover(dim=1, grid_points=DEFAULT_GRID_POINTS,
                    grid_lo=DEFAULT_GRID_LO, grid_hi=DEFAULT_GRID_HI):
    """The scaled-quadratics cover on [0, inf], ends included."""
    dom = ClosedInterval(0.0, INF, includes_infinity=True, grid_points=grid_points,
                         grid_lo=grid_lo, grid_hi=grid_hi)
    return Cover(dom, QuadraticFamily(dim))


def norm_cover(dim=1, grid_points=DEFAULT_GRID_POINTS,
               grid_lo=DEFAULT_GRID_LO, grid_hi=DEFAULT_GRID_HI):
    """The scaled-norms cover on [0, inf], ends included."""
    dom = ClosedInterval(0.0, INF, includes_infinity=True, grid_points=grid_points,
                         grid_lo=grid_lo, grid_hi=grid_hi)
    return Cover(dom, NormFamily(dim))


def separable_cover(phi, dual_grid=None, primal_grid=None):
    """Single-member cover of M(phi); conjugates analytic forms in closed
    form and sampled forms on the supplied grids."""
    phi_star = conjugate(phi, dual_grid=dual_grid, primal_grid=primal_grid)
    return Cover(FiniteSet((0.0,)), SeparableFamily(phi, phi_star))


def tabulated_cover(entries):
    """Cover from explicit (lambda, phi, phi*) rows."""
    family = TabulatedFamily(entries)
    return Cover(FiniteSet(tuple(family.lams())), family)


# ---------------------------------------------------------------------------
# coverage certification


class CoverageReport(Record):
    covered: bool
    missed_pairs: list
    spurious_pairs: list


def coverage_check(cover, law, tol=GRID_TOL, snap=0.0):
    """Certify union-of-graphs equality against a sampled law.

    A law pair is missed when no swept lambda brings f within tol of the
    pairing. A triple (lambda, x, y) over the sample grid and the law's
    domain x image is spurious when f touches the pairing but (x, y) is not
    in the law (stored pairs, snap-tolerant, or declared slice hints).
    """
    ensure_tol(tol)
    if cover.dim != law.dim:
        raise ValueError(f"cover dimension {cover.dim} != law dimension {law.dim}")
    gaps = cover.grid_infimum_values(law.xs, law.ys) - _batch_inner(law.xs, law.ys)
    miss = np.flatnonzero(gaps > tol)
    missed = list(zip(law.xs[miss], law.ys[miss]))
    xs, ys = law.domain(), law.image()
    x_stack, y_stack = np.array(xs), np.array(ys)
    a, b = _nonzero(~law._membership(x_stack, y_stack, snap))
    spurious = [(lam, xs[a[k]], ys[b[k]])
                for k, lam in _touching(cover, x_stack[a], y_stack[b], tol)]
    return CoverageReport(not missed and not spurious, missed, spurious)


def _touching(cover, xs, ys, tol):
    """(k, lambda) wherever f(lambda, xs[k], ys[k]) is within tol of the
    pairing, for paired (n, dim) stacks: k ascending, then lambda ascending
    over the sample grid plus each pair's finiteness boundaries off it that
    the domain holds; about ``numerics.SWEEP_CHUNK`` parameter x pair entries
    at a time."""
    fam, dom = cover.family, cover.domain
    grid = dom.sample_grid
    out = []
    for c in _chunks(xs.shape[0], grid.size):
        x, y = xs[c], ys[c]
        pairing = _batch_inner(x, y)
        k, at = _nonzero(fam.f_many(grid, x[:, None], y[:, None]) - pairing[:, None] <= tol)
        ks, lams = [k], [grid[at]]
        for edge in fam.finite_boundary_lams(x, y):
            # the grid is ascending: a boundary on it equals the node it sorts at
            on_grid = grid[np.minimum(np.searchsorted(grid, edge), grid.size - 1)] == edge
            keep = np.flatnonzero(dom.contains_many(edge) & ~on_grid)
            hit = fam.f_many(edge[keep], x[keep], y[keep]) - pairing[keep] <= tol
            ks.append(keep[hit])
            lams.append(edge[keep][hit])
        k, lam = np.concatenate(ks) + c.start, np.concatenate(lams)
        order = np.lexsort((lam, k))
        out.extend(zip(k[order].tolist(), lam[order].tolist()))
    return out


# ---------------------------------------------------------------------------
# candidate parameter for implicit-convexity verification


def p1_candidate(cover, lam1, lam2, alpha, x1, x2, y, tol=DEFAULT_TOL):
    """Parameter lambda at which the mixed point alpha*x1 + beta*x2 should be
    a subgradient point of phi*_lambda at y.

    Preconditions: alpha in [0, 1] and x_i in the subdifferential of
    phi*_{lambda_i} at y, checked through the Fenchel equality gap.
    Built-in families use their closed selection rules (harmonic
    interpolation for quadratics, the minimum for norms); tabulated families
    scan their parameters in ascending order.
    """
    ensure_tol(tol)
    if not 0.0 <= alpha <= 1.0:
        raise PreconditionError(f"alpha must be in [0, 1], got {alpha}")
    lam1 = ensure_extended(lam1, "lambda1")
    lam2 = ensure_extended(lam2, "lambda2")
    for name, lam in (("lambda1", lam1), ("lambda2", lam2)):
        if not cover.domain.contains(lam):
            raise PreconditionError(f"{name} = {lam} is outside the parameter domain")
    xv1 = as_vector(x1, cover.dim)
    xv2 = as_vector(x2, cover.dim)
    yv = as_vector(y, cover.dim)
    ends = np.array([xv1, xv2])
    gaps = cover.family.f_many(np.array([lam1, lam2]), ends, yv) - _batch_inner(ends, yv)
    for name, lam, gap in (("x1", lam1, gaps[0]), ("x2", lam2, gaps[1])):
        if not gap <= tol:
            raise PreconditionError(
                f"{name} is not a subgradient point of phi*_lambda at y "
                f"(lambda = {lam}, gap = {gap})")

    mixed = alpha * xv1 + (1.0 - alpha) * xv2
    if isinstance(cover.family, TabulatedFamily):
        # the first member, ascending, at which the mixed point is one
        members = cover.family.lams()
        gaps = cover.family.f_many(np.array(members), mixed, yv) - _batch_inner(mixed, yv)
        accepted = np.flatnonzero(gaps <= tol)
        if accepted.size:
            return members[accepted[0]]
        raise CandidateNotFoundError(
            "no tabulated lambda accepts the mixed point as a subgradient point")
    return cover.family.candidate(lam1, lam2, alpha, yv)
