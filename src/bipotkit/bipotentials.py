"""Bipotential construction, axiom verification, and graph extraction.

A bipotential b(x, y) is convex and lsc separately in each argument,
dominates the duality pairing everywhere, and touches it exactly on the
graph of the law it represents. Three constructions are provided: the
separable bipotential phi(x) + phi*(y), the infimum of a convex lagrangian
cover (closed form where the family admits one, or a parameter-grid sweep),
and the support-style extension that equals the pairing on a BB-graph and
+inf off it.

The bi-implicit convexity screen (:func:`bic_check`) probes whether a mix
of two member graphs in either argument stays dominated by some member,
the standing condition for the infimum construction to remain separately
convex. The family's candidate rule is tried first; the fallback sweep is
augmented with the exact per-probe minimizers, so a reported failure is a
genuine counterexample and not a grid artifact.

:func:`certify` chains the whole construction for one cover: build the
infimum bipotential, certify coverage of a sampled law, screen bi-implicit
convexity, and verify the axioms on probe grids.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Optional

import numpy as np

from . import kernels
from .convex import _as_grid, conjugate
from .covers import (
    GRID_TOL,
    SWEEP_CHUNK,
    CandidateNotFoundError,
    CoverageReport,
    FiniteSet,
    NormFamily,
    QuadraticFamily,
    SeparableFamily,
    TabulatedFamily,
    coverage_check,
)
from .laws import LawGraph, NotBBGraphError, bb_check
from .numerics import (
    INF,
    Record,
    _batch_inner,
    _batch_norm,
    _batch_norm2,
    _nonzero,
    _row_keys,
    _run_starts,
    as_vector,
    ensure_extended,
    ensure_finite,
)


class AnalyticFormUnavailableError(ValueError):
    """Closed-form infimum requested for a family that has none."""


# ---------------------------------------------------------------------------
# bipotential objects


class Bipotential:
    """Extended-real b(x, y), never -inf, with a provenance label."""

    dim = 1
    provenance = "abstract"

    def __repr__(self):
        return f"<{type(self).__name__} {self.provenance}>"

    def __call__(self, x, y):
        return self.value(as_vector(x, self.dim), as_vector(y, self.dim))

    def value(self, x, y):
        raise NotImplementedError

    def gap(self, x, y):
        """b(x, y) - <x, y>; nonnegative everywhere for a true bipotential,
        zero exactly on the represented graph."""
        xv = as_vector(x, self.dim)
        yv = as_vector(y, self.dim)
        return self.value(xv, yv) - _batch_inner(xv, yv)[()]

    def table(self, x_grid, y_grid):
        """Values over a product grid, x on rows and y on columns; equal
        entry for entry to :meth:`value`."""
        return self._table(_as_grid(x_grid, self.dim), _as_grid(y_grid, self.dim))

    def _table(self, xg, yg):
        # one value per pair: the fallback for subclasses without a batched
        # form; every built-in class overrides it
        out = np.empty((xg.shape[0], yg.shape[0]))
        for i in range(xg.shape[0]):
            for j in range(yg.shape[0]):
                out[i, j] = self.value(xg[i], yg[j])
        return out


class CauchyProduct(Bipotential):
    """b(x, y) = ||x|| ||y||; contact exactly on the positively-collinear
    pairs, the archetypal non-separable bipotential."""

    def __init__(self, dim=1):
        self.dim = int(dim)
        self.provenance = "closed-form"

    def value(self, x, y):
        x, y = as_vector(x, self.dim), as_vector(y, self.dim)
        return float(self._table(x[None], y[None])[0, 0])

    def _table(self, xg, yg):
        nx = _batch_norm(xg)[:, None]
        ny = _batch_norm(yg)[None, :]
        # a zero norm gives 0 even against a norm that overflowed to inf
        with np.errstate(invalid="ignore"):
            return np.where((nx == 0.0) | (ny == 0.0), 0.0, nx * ny)


class SeparableBipotential(Bipotential):
    """b(x, y) = phi(x) + phi*(y), the f of the one-member cover {phi}; its
    graph is the subdifferential of phi."""

    def __init__(self, potential, potential_star):
        if potential.dim != potential_star.dim:
            raise ValueError("potential and conjugate must share a dimension")
        self.potential = potential
        self.potential_star = potential_star
        self.dim = potential.dim
        self.provenance = "separable"

    def value(self, x, y):
        x, y = as_vector(x, self.dim), as_vector(y, self.dim)
        return float(self._table(x[None], y[None])[0, 0])

    def _table(self, xg, yg):
        family = SeparableFamily(self.potential, self.potential_star)
        return family.f_many(np.zeros(1), xg[:, None], yg[None])


class InfOfCoverBipotential(Bipotential):
    """b(x, y) = inf over lambda of phi_lambda(x) + phi*_lambda(y).

    Mode "analytic" evaluates the family's closed-form infimum and is exact;
    mode "grid" sweeps the parameter grid plus the family's finiteness
    boundaries and carries the grid resolution as error. Finite parameter
    sets are exact in either mode (the sweep is the whole set).
    """

    def __init__(self, cover, mode="analytic"):
        if mode not in ("analytic", "grid"):
            raise ValueError(f"mode must be 'analytic' or 'grid', got {mode!r}")
        if mode == "analytic" and isinstance(cover.family, TabulatedFamily):
            raise AnalyticFormUnavailableError(
                "tabulated families have no closed-form infimum; use mode='grid'")
        self.cover = cover
        self.mode = mode
        self.dim = cover.dim
        self.provenance = f"inf-of-cover/{mode}"

    def value(self, x, y):
        return self.infimum(x, y)[0]

    def argmin_lambda(self, x, y):
        """The parameter reported by :meth:`infimum` for this probe."""
        return self.infimum(x, y)[1]

    def infimum(self, x, y):
        """(value, parameter): the swept minimum in grid mode, the attaining
        or limiting parameter of the closed form in analytic mode."""
        vals, lams = self._infimum(as_vector(x, self.dim)[None], as_vector(y, self.dim)[None])
        return float(vals[0]), float(lams[0])

    def _table(self, xg, yg):
        return self._infimum(xg[:, None, :], yg[None, :, :])[0]

    def _infimum(self, x, y):
        """(values, parameters) over trusted point stacks broadcast against
        each other."""
        closed = self._closed_form()
        if closed is None:
            return self.cover._sweep(x, y)
        return closed(self.cover.domain, x, y)

    def _closed_form(self):
        """The closed-form infimum of analytic mode, or None where the
        parameter sweep runs: in grid mode, over a finite set (whose sweep is
        exact) and for a separable family (constant in the parameter)."""
        fam = self.cover.family
        if (self.mode == "grid" or isinstance(fam, SeparableFamily)
                or isinstance(self.cover.domain, FiniteSet)):
            return None
        if isinstance(fam, QuadraticFamily):
            return _quadratic_infimum
        if isinstance(fam, NormFamily):
            return _norm_infimum
        raise AnalyticFormUnavailableError(
            f"no closed-form infimum for {type(fam).__name__}; use mode='grid'")


class BInfinityBipotential(Bipotential):
    """The pairing on the law's graph, +inf off it.

    The canonical bipotential of a BB-graph. Membership delegates to the
    law: stored pairs (snap-tolerant when requested) and declared slice
    hints.
    """

    def __init__(self, law, snap=0.0):
        self.law = law
        self.snap = float(snap)
        self.dim = law.dim
        self.provenance = "b-infinity"

    def value(self, x, y):
        x, y = as_vector(x, self.dim), as_vector(y, self.dim)
        if self.law.contains(x, y, snap=self.snap):
            return _batch_inner(x, y)[()]
        return INF

    def _table(self, xg, yg):
        member = self.law._membership(xg, yg, self.snap)
        return np.where(member, kernels.pairing_matrix(xg, yg), INF)


# ---------------------------------------------------------------------------
# closed-form cover infima


def _quadratic_infimum(domain, x, y):
    """Exact infimum of (lam/2)||x||^2 + ||y||^2/(2 lam) over [lo, hi], with
    its parameter, for point stacks x, y of shape (..., dim) broadcast
    against each other.

    The unconstrained minimizer is lam = ||y||/||x|| with value ||x|| ||y||;
    outside the interval the objective is monotone, so the nearer end
    attains. The 0 and inf members contribute their indicator values.
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
        # inf / inf: both norms overflowed, every member is +inf; the first,
        # lo, attains as in a sweep (0 / 0 is the y = 0 case below)
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


def _norm_infimum(domain, x, y):
    """Exact infimum of lam ||x|| + indicator(||y|| <= lam) over [lo, hi],
    with its parameter, for point stacks x, y of shape (..., dim) broadcast
    against each other.

    The smallest admitted parameter max(||y||, lo) attains; when no finite
    member admits y the value is +inf unless x = 0 meets the inf member.
    """
    nx = _batch_norm(x)
    ny = _batch_norm(y)
    lo, hi = domain.lo, domain.hi
    lam = np.where(lo > ny, lo, ny)  # max(ny, lo) as Python evaluates it
    admitted = lam <= hi
    with np.errstate(invalid="ignore"):
        # the 0 member admits only y = 0, where it gives 0 for any x
        val = np.where(admitted, np.where(lam == 0.0, 0.0, np.where(lam == ny, nx * ny, lam * nx)),
                       INF)
    # x = 0: an admitting member gives 0, and the inf member admits every y
    end_val, end_lam = (0.0, INF) if domain.includes_infinity else (INF, hi)
    val = np.where(nx == 0.0, np.where(admitted, 0.0, end_val), val)
    lam = np.where(admitted, lam, np.where(nx == 0.0, end_lam, hi))
    return val, lam


# ---------------------------------------------------------------------------
# construction entry points


def build_separable(phi, dual_grid=None, primal_grid=None):
    """Separable bipotential phi(x) + phi*(y); sampled and max-affine forms
    conjugate on the supplied grids."""
    star = conjugate(phi, dual_grid=dual_grid, primal_grid=primal_grid)
    return SeparableBipotential(phi, star)


def build_inf(cover, mode="analytic"):
    """Infimum-of-cover bipotential; mode "analytic" demands a closed form."""
    return InfOfCoverBipotential(cover, mode=mode)


def build_b_infinity(law, tol=1e-9, snap=0.0):
    """Pairing-on-the-graph bipotential over a law that must first pass the
    BB-graph test; refuses otherwise with the failing slice attached."""
    report = bb_check(law, tol)
    if not report.is_bb_graph:
        raise NotBBGraphError(report)
    return BInfinityBipotential(law, snap=snap)


# ---------------------------------------------------------------------------
# axiom verification on finite probe grids


class AxiomCounterexample(Record):
    axiom: str            # "lower-bound", "convexity-x", "convexity-y", "graph-closure"
    x: np.ndarray
    y: np.ndarray
    violation: float


class NoContactNote(Record):
    """A probe slice whose gap never reaches the contact tolerance; the
    graph misses the grid there, which a finite probe cannot refute."""

    side: str             # "primal" or "dual"
    at: np.ndarray
    min_gap: float


class AxiomReport(Record):
    lower_bound_ok: bool
    separate_convexity_ok: bool
    graph_equivalence_ok: bool
    counterexamples: list
    no_contact: list

    @property
    def is_bipotential(self):
        return (self.lower_bound_ok and self.separate_convexity_ok
                and self.graph_equivalence_ok)


def _chunks(n, width):
    """Slices over n items of ``width`` entries each, at most about
    ``SWEEP_CHUNK`` entries per slice; one slice even when n is 0, so that
    per-slice results always concatenate."""
    step = max(1, SWEEP_CHUNK // max(1, width))
    return [slice(s, s + step) for s in range(0, max(n, 1), step)]


# a grid whose largest magnitude lies in this range keys its probes as they
# are, to 9 decimals; any other grid is first scaled by the power of two that
# brings its largest magnitude into [0.5, 1)
_KEY_RANGE = (2.0 ** -10, 2.0 ** 16)


def _key_grid(g):
    """``g`` at the scale its midpoint keys are rounded at (see _KEY_RANGE);
    the power-of-two scaling is exact, so it keeps every midpoint."""
    s = float(np.abs(g).max())
    if s == 0.0 or _KEY_RANGE[0] <= s <= _KEY_RANGE[1]:
        return g
    return np.ldexp(g, -math.frexp(s)[1])


def _midpoint_triples(g):
    """Index arrays (i, j, k) over the pairs i < j in row-major order, with
    g[k] the first grid point equal to the midpoint of g[i], g[j] after
    rounding to 9 decimals at the grid's own scale (so uniform float grids
    qualify), k not i or j. A grid too fine for that rounding, one where it
    would merge distinct probes, is keyed exactly instead."""
    n = g.shape[0]
    g = _key_grid(g)

    def key(a):
        return _row_keys(a if exact else np.round(a, 9))

    for exact in (False, True):
        keys = key(g)
        order = np.argsort(keys, kind="stable")  # equal keys keep index order
        table = keys[order]
        # probes that share a key sit side by side in key order
        tie = table[1:] == table[:-1]
        if not (g[order[1:]][tie] != g[order[:-1]][tie]).any():
            break
    i, j = np.triu_indices(n, 1)
    hits = []
    for part in _chunks(i.size, g.shape[1]):
        a, b = i[part], j[part]
        mid = key(0.5 * (g[a] + g[b]))
        pos = np.minimum(np.searchsorted(table, mid), n - 1)
        k = order[pos]
        keep = (table[pos] == mid) & (k != a) & (k != b)
        hits.append((a[keep], b[keep], k[keep]))
    return tuple(np.concatenate(h) for h in zip(*hits))


def _midpoint_failures(triples, width, fails):
    """Index arrays (k, column) and the violations of each failing entry of
    a (triple, column) table over the midpoint triples, triple by triple and
    columns ascending. ``fails(i, j, k)`` maps the index arrays of about
    ``SWEEP_CHUNK / width`` triples to (triple, column, violation) arrays of
    their failing entries, in row-major order."""
    i, j, k = triples
    ks, cols, violations = [], [], []
    for part in _chunks(i.size, width):
        t, c, v = fails(i[part], j[part], k[part])
        ks.append(k[part][t])
        cols.append(c)
        violations.append(v)
    return np.concatenate(ks), np.concatenate(cols), np.concatenate(violations)


def _probe_table(b, x_grid, y_grid):
    """(xg, yg, B, P): the validated probe stacks, b over their product (x
    on rows) and the pairing matrix, all that the axiom check, the contact
    graph, the CSV rows and the demos' reference line read."""
    xg = _as_grid(x_grid, b.dim)
    yg = _as_grid(y_grid, b.dim)
    return xg, yg, b.table(xg, yg), kernels.pairing_matrix(xg, yg)


def verify_axioms(b, x_grid, y_grid, tol=1e-9):
    """Check the bipotential axioms on a finite product grid.

    Domination of the pairing is checked pointwise; separate convexity
    through on-grid midpoints along each axis; and the graph axiom through
    its grid shadow: the contact set {gap <= tol} must be midpoint-closed in
    every slice, since slices of a true contact graph are convex (2 tol
    absorbs the two endpoints' own slack). Slices with no contact at all go
    to ``no_contact``, diagnostics rather than failures. Every check runs
    over all midpoint triples at once, in chunks of ``SWEEP_CHUNK`` entries.
    """
    return _axiom_report(_probe_table(b, x_grid, y_grid), tol)


def _axiom_report(table, tol):
    """:func:`verify_axioms` over an evaluated probe table."""
    xg, yg, B, P = table
    G = B - P

    def witnesses(axiom, rows, cols, violations):
        # one gather per side: every record owns its rows of a fresh stack
        return AxiomCounterexample._records(repeat(axiom), xg[rows], yg[cols],
                                            violations.tolist())

    def convexity(rows):
        def fails(i, j, k):
            mid = rows[k]
            rhs = 0.5 * (rows[i] + rows[j])
            t, c = _nonzero(mid > rhs + tol)
            return t, c, mid[t, c] - rhs[t, c]
        return fails

    def closure(touch, loose, gaps):
        def fails(i, j, k):
            t, c = _nonzero(touch[i] & touch[j] & loose[k])
            return t, c, gaps[k[t], c]
        return fails

    bad = G < -tol
    counterexamples = witnesses("lower-bound", *_nonzero(bad), -G[bad])
    lower_ok = not counterexamples

    x_triples = _midpoint_triples(xg)
    # the triples read the probes' values alone (their keys meet -0.0 with 0.0)
    same = xg.shape == yg.shape and bool((xg == yg).all())
    y_triples = x_triples if same else _midpoint_triples(yg)
    n, m = B.shape
    k, c, v = _midpoint_failures(x_triples, m, convexity(B))
    conv = witnesses("convexity-x", k, c, v)
    k, r, v = _midpoint_failures(y_triples, n, convexity(B.T))
    conv += witnesses("convexity-y", r, k, v)
    convexity_ok = not conv
    counterexamples.extend(conv)

    touch = G <= tol
    loose = ~(G <= 2.0 * tol)
    ky, ry, vy = _midpoint_failures(y_triples, n, closure(touch.T, loose.T, G.T))
    kx, cx, vx = _midpoint_failures(x_triples, m, closure(touch, loose, G))
    gone = witnesses("graph-closure", np.concatenate([ry, kx]),
                     np.concatenate([ky, cx]), np.concatenate([vy, vx]))
    graph_ok = not gone
    counterexamples.extend(gone)

    row_min = G.min(axis=1)
    col_min = G.min(axis=0)
    rows = np.flatnonzero(~(row_min <= tol))
    cols = np.flatnonzero(~(col_min <= tol))
    no_contact = NoContactNote._records(repeat("primal"), xg[rows], row_min[rows].tolist())
    no_contact += NoContactNote._records(repeat("dual"), yg[cols], col_min[cols].tolist())

    return AxiomReport(lower_ok, convexity_ok, graph_ok, counterexamples, no_contact)


def graph_of_bipotential(b, x_grid, y_grid, tol=1e-9):
    """Law graph of the contact set {b(x, y) - <x, y> <= tol} on a product
    grid, pairs in row-major order. Raises when empty: a law graph cannot
    be."""
    return _contact_graph(_probe_table(b, x_grid, y_grid), tol)


def _contact_graph(table, tol):
    """:func:`graph_of_bipotential` over an evaluated probe table."""
    xg, yg, B, P = table
    i, j = _nonzero(B - P <= tol)
    if not i.size:
        raise ValueError("no contact point on the probe grids; "
                         "a law graph cannot be empty")
    return LawGraph._from_arrays(xg[i], yg[j])


# ---------------------------------------------------------------------------
# bi-implicit convexity screen


class BICCounterexample(Record):
    argument: str         # "first" or "second": the slot the mix happened in
    lam1: float
    z1: np.ndarray
    lam2: float
    z2: np.ndarray
    alpha: float
    fixed: np.ndarray     # the probe held fixed in the other slot
    deficit: float        # min over searched lambdas of lhs - rhs


class BICReport(Record):
    is_bic: bool
    counterexamples: list
    tuples_checked: int = 0


class BICProbePlan(Record):
    """Probe tuples for :func:`bic_check`: ordered parameter pairs, mixing
    weights, and the point stacks mixed in each argument slot."""

    lam_pairs: tuple
    alphas: tuple
    primal_points: tuple
    dual_points: tuple


def embed_primal(s, dim=1):
    """Scalar probe placed on the first axis."""
    return _embed_stack([float(s)], dim)[0]


def embed_dual(t, dim=1):
    """Scalar probe placed on the second axis (the first when dim == 1), so
    primal and dual probes are orthogonal in dimension two and up."""
    return _embed_stack([float(t)], dim, dual=True)[0]


def _embed_stack(values, dim, dual=False):
    """The (n, dim) stack of :func:`embed_primal` (or, when ``dual``,
    :func:`embed_dual`) of each scalar in ``values``."""
    values = np.asarray(values, dtype=np.float64)
    v = np.zeros((values.size, dim))
    v[:, min(1, dim - 1) if dual else 0] = values
    return v


def default_probe_plan(cover):
    """Probe tuples sized to the family: member parameters spanning two
    decades, the full [0, 1] mixing range, and probe points across [-2, 2].

    Quadratic and norm covers probe the members 0.5, 1, 2 and 4 that the
    domain holds; a domain that holds none of them gives four finite nodes
    of its sample grid at evenly spaced indices instead, so the plan is
    never empty. Other families probe their first eight grid nodes."""
    fam = cover.family
    dim = cover.dim
    xs = tuple(_embed_stack(np.linspace(-2.0, 2.0, 9), dim))
    ys = tuple(_embed_stack(np.linspace(-2.0, 2.0, 5), dim, dual=True))
    alphas = (0.0, 0.25, 0.5, 1.0)
    if isinstance(fam, (QuadraticFamily, NormFamily)):
        lams = [lam for lam in (0.5, 1.0, 2.0, 4.0) if cover.domain.contains(lam)]
        if not lams:
            # a domain away from [0.5, 4]: four finite nodes of its own grid
            grid = cover.domain.sample_grid
            grid = grid[np.isfinite(grid)]
            at = sorted(set(np.linspace(0, grid.size - 1, 4).round().astype(int).tolist()))
            lams = grid[at].tolist()
    else:
        lams = [float(lam) for lam in cover.domain.sample_grid[:8]]
    pairs = tuple((a, b) for a in lams for b in lams)
    return BICProbePlan(pairs, alphas, xs, ys)


def _bic_screen(cover, lams, alphas, zs, fixed, first, tol):
    """Failing mask, of shape (len(lams), len(alphas), len(zs), len(zs),
    len(fixed)), of the tuples (lams[p, 0], zs[a], lams[p, 1], zs[b],
    alphas[k], fixed[c]) mixed in the first slot, or in the second when
    ``first`` is false; and the least deficits of the failing tuples, in
    the mask's row-major order.

    What the searches share is computed once for the slot: the right-side
    terms f(lam, z, fixed) of every plan parameter and their Fenchel gaps
    (the subgradient preconditions of the candidate rules), the candidates
    of each (lam1, lam2, alpha) block, the mixed points of each alpha, and
    a table of f at every (alpha, z_a, z_b, fixed) point, filled by one
    ``f_many`` call, over the plan's distinct parameters that the domain
    holds and the family's special parameters at that point (phi over the
    mixed points and phi* over the fixed probes, the other way round in the
    second slot). A tuple thus meets f once per parameter it can use.

    The blocks are then screened in order, in chunks of whole blocks of at
    most about ``SWEEP_CHUNK`` tuples, one search stage after another: the
    candidate, lam1 and lam2 stages with one parameter per block, then the
    special parameters with one per tuple. A stage offers the tuples still
    undecided that it applies to, validates its parameters on them, and
    accepts those whose parameter the domain holds and whose f lies within
    ``tol`` of the right side. The candidate stage evaluates f at its
    offered tuples alone; the others read the table, block by block. The
    tuples none of them accepted take the grid infimum (``Cover._sweep``),
    ``SWEEP_CHUNK / grid size`` tuples at a time; its finiteness boundaries
    add nothing, since the special stage tried them with the same bits.

    The stages update a verdict only. A tuple that fails was offered by
    every stage that applies to it, so its deficit, the least lhs - rhs
    over those stages in order and then the grid (the first of equal
    values, never a NaN), is computed for the failing tuples alone, from
    the same entries.
    """
    fam, dom = cover.family, cover.domain
    n, m, dim = zs.shape[0], fixed.shape[0], zs.shape[1]
    shape = (lams.shape[0], len(alphas), n, n, m)
    fails = np.zeros(shape, dtype=bool)
    deficits = [np.empty(0)]
    nblocks = shape[0] * shape[1]
    if not nblocks:
        return fails, deficits[0]
    alphas = np.array([float(alpha) for alpha in alphas])
    betas = 1.0 - alphas

    def slot(mix, fix):
        # f's (x, y) for points mixed in this slot against fixed probes
        return (mix, fix) if first else (fix, mix)

    def check(stage_lams, offered):
        # a NaN or -inf parameter raises for the first tuple it is offered to
        bad = ~(stage_lams > -INF)
        if bad.any() and (bad & offered).any():
            ensure_extended(np.broadcast_to(stage_lams, offered.shape)[bad & offered][0], "lambda")

    # terms[2p + i, a, c] = f(lams[p, i]) at (zs[a], fixed[c]) in this slot,
    # evaluated once per distinct parameter in order of first appearance (a
    # key keeps its first sign: -0.0 meets 0.0), so the first one f refuses
    # raises first
    flat = lams.reshape(-1).tolist()
    distinct = {lam: k for k, lam in enumerate(dict.fromkeys(flat))}
    terms = fam.f_many(np.array(list(distinct)), *slot(zs[:, None, None, :], fixed[None, :, None, :]))
    terms = terms[..., [distinct[lam] for lam in flat]]
    gaps = terms - _batch_inner(zs[:, None, :], fixed[None, :, :])[..., None]
    held = (gaps <= tol if first else ~(gaps > tol)).transpose(2, 0, 1)
    terms = terms.transpose(2, 0, 1)

    # cands[p * len(alphas) + k], one per block since the rules read no
    # point; a block whose rule is barred or finds no candidate skips that
    # stage
    rule = fam.candidate if first else fam.candidate_dual
    cands = np.zeros(nblocks)
    ruled = np.zeros(nblocks, dtype=bool)
    for p, (lam1, lam2) in enumerate(lams.tolist()):
        in_domain = not first or (dom.contains(lam1) and dom.contains(lam2))
        for k, alpha in enumerate(alphas.tolist()):
            if first and not (0.0 <= alpha <= 1.0 and in_domain):
                continue
            try:
                cands[p * shape[1] + k] = rule(lam1, lam2, alpha, None)
            except CandidateNotFoundError:
                continue
            ruled[p * shape[1] + k] = True

    # mixed[k, ab, 0] = alphas[k] zs[a] + betas[k] zs[b] with ab = a * n + b,
    # shaped to broadcast against the fixed probes
    mixed = (alphas[:, None, None, None] * zs[None, :, None, :]
             + betas[:, None, None, None] * zs[None, None, :, :]).reshape(len(alphas), n * n, 1, dim)
    points = slot(mixed, fixed[None, None])

    def tuples(k, i):
        # f's (x, y) at the chunk's tuples of index arrays i = (block, ab, c)
        return slot(mixed[k[i[0]], i[1], 0], fixed[i[2]])

    # table[j, k, ab, c] = f(table_lams[j, k, ab, c]) at (mixed[k, ab, 0],
    # fixed[c]): first a row per distinct plan parameter (-0.0 meets 0.0)
    # that the domain holds, lams[p, i] at row rows[p, i] where member[p,
    # i] (elsewhere rows[p, i] is some row, which the stage masks out);
    # then a row per special parameter, with the points it applies to and,
    # where some are NaN or -inf, the points it is present at
    members = np.sort(lams.reshape(-1))
    members = members[_run_starts(members)]
    members = members[dom.contains_many(members)]
    member = dom.contains_many(lams)
    rows = np.minimum(np.searchsorted(members, lams), max(members.size - 1, 0))
    specials = fam.special_lams_many(*points)
    table_lams = np.empty((members.size + len(specials), len(alphas), n * n, m))
    table_lams[:members.size] = members[:, None, None, None]
    special_rows = []
    for row, (lam, present) in enumerate(specials, members.size):
        table_lams[row] = lam
        present = np.broadcast_to(present, table_lams.shape[1:])
        valid = (table_lams[row] > -INF).all()
        special_rows.append((row, present & dom.contains_many(table_lams[row]),
                             None if valid else present))
    table = fam.f_many(table_lams, *points)

    step = max(1, SWEEP_CHUNK // max(1, n * n * m))
    sweep = max(1, SWEEP_CHUNK // dom.sample_grid.size)
    for start in range(0, nblocks, step):
        # the chunk's tuples, by (block, ab, c)
        blocks = np.arange(start, min(start + step, nblocks))
        p, k = np.divmod(blocks, shape[1])
        chunk = (blocks.size, n * n, m)
        al, be = alphas[k, None, None, None], betas[k, None, None, None]
        # a zero-weight member drops out, even where its term is inf
        with np.errstate(invalid="ignore"):  # 0 * inf, and inf - inf under weights outside [0, 1]
            rhs = (np.where(al == 0.0, 0.0, al * terms[2 * p, :, None, :])
                   + np.where(be == 0.0, 0.0, be * terms[2 * p + 1, None, :, :])).reshape(chunk)
        undecided = rhs != INF  # an infinite right side holds vacuously
        rtol = rhs + tol

        # the candidate stage evaluates f at its offered tuples alone
        cand = cands[blocks]
        cand_on = (held[2 * p, :, None, :] & held[2 * p + 1, None, :, :]
                   & ruled[blocks, None, None, None]).reshape(chunk)
        offered = undecided & cand_on
        check(cand[:, None, None], offered)
        inside = dom.contains_many(cand)[:, None, None]
        cand_on &= inside
        at = np.flatnonzero(offered & inside)
        if at.size:
            i = np.unravel_index(at, chunk)
            lhs = fam.f_many(cand[i[0]], *tuples(k, i))
            np.put(undecided, at, ~(lhs <= rtol[i]))

        # the lam1, lam2 and special stages read the table block by block:
        # (table row per block, tuples it applies to, tuples to validate);
        # a tuple is accepted when one of them accepts it, so their hits
        # are gathered first and the verdict updated once
        stages = [(rows[p, s], member[p, s, None, None], None) for s in (0, 1) if members.size]
        stages += [(np.full(blocks.size, row), on[k], None if present is None else present[k])
                   for row, on, present in special_rows]
        hit = np.zeros(chunk, dtype=bool)
        for row, on, present in stages:
            if present is not None:
                check(table_lams[row[0], k], undecided & ~hit & present)
            hit |= on & (table[row, k] <= rtol)
        undecided &= ~hit

        left = np.flatnonzero(undecided)
        vals = np.empty(left.size)
        for s in range(0, left.size, sweep):
            i = np.unravel_index(left[s:s + sweep], chunk)
            vals[s:s + sweep] = cover._sweep(*tuples(k, i))[0]
        failing = ~(vals <= np.take(rtol, left))
        np.put(undecided, left, failing)
        fails[p, k] = undecided.reshape(chunk[:1] + shape[2:])
        if not failing.any():
            continue

        # the failing tuples' deficits: d < low over the stages in order
        i = np.unravel_index(left[failing], chunk)
        b, r = i[0], rhs[i]
        on = cand_on[i]
        lhs = np.full(r.size, INF)
        if on.any():
            lhs[on] = fam.f_many(cand[b[on]], *tuples(k, tuple(j[on] for j in i)))
        entries = [(on, lhs)] + [(np.broadcast_to(on, chunk)[i], table[row[b], k[b], i[1], i[2]])
                                 for row, on, _ in stages]
        low = np.full(r.size, INF)
        with np.errstate(invalid="ignore"):  # -inf - -inf, only at entries a stage skips
            for on, lhs in entries:
                d = lhs - r
                low = np.where(on & (d < low), d, low)
        d = vals[failing] - r
        deficits.append(np.where(d < low, d, low))
    return fails, np.concatenate(deficits)


def bic_check(cover, plan=None, tol=1e-9):
    """Screen the cover for bi-implicit convexity over a probe plan.

    Each tuple demands a parameter whose member dominates the mixed point:
    f(lam, mix, fixed) <= alpha f(lam1, ., .) + beta f(lam2, ., .) + tol,
    and symmetrically for mixes in the second argument. Infinite right
    sides hold vacuously. The search tries the family's candidate rule
    first, then the member parameters themselves, the exact per-probe
    minimizers and finiteness boundaries, then the whole parameter grid in
    ascending order; a failure records the tuple with its least deficit.
    Each argument slot is screened once over every (lam1, lam2, alpha)
    block of the plan, in chunks of whole blocks, with the same values,
    verdicts and errors as searching tuple by tuple in plan order; a mixing
    weight that is not finite is a ``ValueError`` of its own block.
    """
    if plan is None:
        plan = default_probe_plan(cover)
    dim = cover.dim
    xs = [as_vector(p, dim) for p in plan.primal_points]
    ys = [as_vector(p, dim) for p in plan.dual_points]
    x_stack = np.array(xs).reshape(len(xs), dim)
    y_stack = np.array(ys).reshape(len(ys), dim)
    slots = ((True, xs, ys, x_stack, y_stack), (False, ys, xs, y_stack, x_stack))

    def screen(lam_pairs, alphas):
        lams = np.array([(ensure_extended(lam1, "lambda1"), ensure_extended(lam2, "lambda2"))
                         for lam1, lam2 in lam_pairs]).reshape(-1, 2)
        alphas = [ensure_finite(alpha, "alpha") for alpha in alphas]
        return [_bic_screen(cover, lams, alphas, z, f, first, tol)
                for first, _, _, z, f in slots]

    try:
        screens = screen(plan.lam_pairs, plan.alphas)
    except Exception:
        # a stacked stage raises for whichever of its tuples fails first;
        # block by block, the first failing block of the plan raises instead
        for pair in plan.lam_pairs:
            for alpha in plan.alphas:
                screen([pair], [alpha])
        raise

    found = []
    for s, ((first, zs, fixed, _, _), (fails, deficits)) in enumerate(zip(slots, screens)):
        argument = "first" if first else "second"
        for p, k, a, b, c, d in zip(*_nonzero(fails), deficits.tolist()):
            (lam1, lam2), alpha = plan.lam_pairs[p], plan.alphas[k]
            found.append(((p, k, s), (argument, lam1, zs[a], lam2, zs[b], alpha, fixed[c], d)))
    found.sort(key=lambda f: f[0])  # stable: (a, b, c) order within a block
    checked = sum(fails.size for fails, _ in screens)
    # one trusted record per sorted row, its fields taken as they are
    witnesses = BICCounterexample._records(*zip(*[row for _, row in found]))
    return BICReport(not found, witnesses, checked)


# ---------------------------------------------------------------------------
# certification pipeline


class CertificationReport(Record):
    """Stage reports of :func:`certify` and the bipotential it built;
    ``coverage`` is None when no law was given. ``table`` is the probe
    table (xg, yg, B, P) the axioms were checked on, kept for the run's
    other consumers and left out of :meth:`reports`, repr and comparison."""

    coverage: Optional[CoverageReport]
    bic: BICReport
    axioms: AxiomReport
    bipotential: Bipotential
    table: tuple
    _hidden = ("table",)

    @property
    def ok(self):
        covered = self.coverage is None or self.coverage.covered
        return covered and self.bic.is_bic and self.axioms.is_bipotential

    def reports(self):
        """The stage reports by name, without the absent coverage."""
        out = {"bic": self.bic, "axioms": self.axioms}
        if self.coverage is not None:
            out["coverage"] = self.coverage
        return out


def certify(cover, x_probes, y_probes, *, law=None, mode, tol):
    """Certify a cover's infimum bipotential end to end.

    Builds the bipotential first, so an unavailable mode fails before any
    screening; then checks that the member graphs cover ``law`` (at no less
    than ``GRID_TOL``), screens bi-implicit convexity over the default probe
    plan, and verifies the axioms on the probe grids at ``tol``. The probe
    table is evaluated once and returned on the report.
    """
    b = build_inf(cover, mode=mode)
    coverage = None
    if law is not None:
        coverage = coverage_check(cover, law, tol=max(tol, GRID_TOL))
    bic = bic_check(cover, default_probe_plan(cover))
    table = _probe_table(b, x_probes, y_probes)
    return CertificationReport(coverage, bic, _axiom_report(table, tol), b, table)
