"""Bipotential construction, axiom verification, and graph extraction.

A bipotential b(x, y) is convex and lsc separately in each argument,
dominates the duality pairing everywhere, and touches it exactly on the
graph of the law it represents. Three constructions are provided: the
separable bipotential phi(x) + phi*(y), the infimum of a convex lagrangian
cover (closed form where the family admits one, or a parameter-grid sweep),
and the support-style extension that equals the pairing on a BB-graph and
+inf off it. The closed forms live on the families in :mod:`covers`, the
quadratic and norm families' ``infimum``; this module only chooses between
them and the sweep.

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
    CandidateNotFoundError,
    CoverageReport,
    FiniteSet,
    SeparableFamily,
    TabulatedFamily,
    _ScaleFamily,
    coverage_check,
)
from .laws import LawGraph, NotBBGraphError, bb_check
from .numerics import (
    DEFAULT_TOL,
    INF,
    Record,
    _batch_inner,
    _batch_norm,
    _chunks,
    _nonzero,
    _row_keys,
    _run_starts,
    as_vector,
    ensure_dimension,
    ensure_extended,
    ensure_finite,
    ensure_tol,
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
        self.dim = ensure_dimension(dim)
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
        if isinstance(fam, _ScaleFamily):
            return fam.infimum
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
            return float(_batch_inner(x, y)[()])
        return INF

    def _table(self, xg, yg):
        member = self.law._membership(xg, yg, self.snap)
        return np.where(member, kernels.pairing_matrix(xg, yg), INF)


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


def build_b_infinity(law, tol=DEFAULT_TOL, snap=0.0):
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
    hits = [(i[:0],) * 3]
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
    ``numerics.SWEEP_CHUNK / width`` triples to (triple, column, violation)
    arrays of their failing entries, in row-major order."""
    i, j, k = triples
    ks, cols, violations = [k[:0]], [k[:0]], [np.empty(0)]
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


def verify_axioms(b, x_grid, y_grid, tol=DEFAULT_TOL):
    """Check the bipotential axioms on a finite product grid.

    Domination of the pairing is checked pointwise; separate convexity
    through on-grid midpoints along each axis; and the graph axiom through
    its grid shadow: the contact set {gap <= tol} must be midpoint-closed in
    every slice, since slices of a true contact graph are convex (2 tol
    absorbs the two endpoints' own slack). Slices with no contact at all go
    to ``no_contact``, diagnostics rather than failures. Every check runs
    over all midpoint triples at once, in chunks of about
    ``numerics.SWEEP_CHUNK`` entries.
    """
    ensure_tol(tol)
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


def graph_of_bipotential(b, x_grid, y_grid, tol=DEFAULT_TOL):
    """Law graph of the contact set {b(x, y) - <x, y> <= tol} on a product
    grid, pairs in row-major order. Raises when empty: a law graph cannot
    be."""
    ensure_tol(tol)
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
    v = np.zeros((values.size, ensure_dimension(dim)))
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
    if isinstance(fam, _ScaleFamily):
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


# the errors a plan value, the family's f or a candidate rule raises for one
# block: the screen places them in plan order; any other exception propagates
_BLOCK_FAULTS = (ArithmeticError, TypeError, ValueError)


def _checked(values, check):
    """``check`` of each value in order, up to the first it refuses: the
    results before it and its error (None when every value passes)."""
    out = []
    for v in values:
        try:
            out.append(check(v))
        except _BLOCK_FAULTS as exc:
            return out, exc
    return out, None


def _plan_pair(pair):
    """A plan pair's parameters, unpacked as ``for lam1, lam2 in`` would
    and checked in order."""
    lam1, lam2 = pair
    return ensure_extended(lam1, "lambda1"), ensure_extended(lam2, "lambda2")


def _bic_screen(cover, lam_pairs, alphas, xs, ys, tol):
    """Failing mask, of shape (len(lam_pairs), len(alphas), width), and the
    least deficits of the failing tuples in its row-major order. Block (p, k)
    pairs lam_pairs[p] with alphas[k]; its tuple axis holds the first slot's
    tuples (lams[p, 0], xs[a], lams[p, 1], xs[b], alphas[k], ys[c]), then
    the second slot's, mixing ys[a] and ys[b] against xs[c], each in
    (a, b, c) order: width = n^2 m + m^2 n for n xs and m ys.

    A prelude walks the plan once, in plan order, and stops at the first
    block with a fault it can name: a parameter that is NaN or -inf (checked
    once per pair) or a weight that is not finite (once per weight), a
    parameter the family's f refuses, or a candidate rule that raises. It
    computes, once: the right-side terms of each distinct parameter and
    their Fenchel gaps (the candidate rules' preconditions), which the
    second slot reads transposed; each slot's candidate per block; one
    ``f_many`` table of f at every (alpha, tuple) point over the distinct
    plan parameters the domain holds and the family's special parameters.
    Chunks of whole blocks before that stop, of at most about
    ``numerics.SWEEP_CHUNK`` tuples, then take the stages in order, each
    accepting where the domain holds its parameter and f is within ``tol``
    of the right side: candidate (f at its offered tuples alone), lam1 (the
    table over the chunk), lam2 and the special parameters (table values
    only at the tuples still undecided), then the grid infimum
    (``Cover._sweep``). A NaN or -inf parameter raises for the first (block,
    slot, stage) offered one; past the chunks, the prelude's fault raises. A
    failing tuple's deficit is the least lhs - rhs over its stages and the
    grid (the first of equal values, never a NaN).
    """
    fam, dom = cover.family, cover.domain
    n, m, dim = xs.shape[0], ys.shape[0], xs.shape[1]
    split, width, nalpha = n * n * m, n * n * m + m * m * n, len(alphas)
    fails = np.zeros((len(lam_pairs), nalpha, width), dtype=bool)
    deficits = [np.empty(0)]

    def along(op, first, second, dtype):
        # op(u[:, a, c], v[:, b, c]) at each slot's (a, b, c) tuples from its
        # per-block (u, v), u repeated over b so each a runs over (b, c) at once
        out = np.empty((first[0].shape[0], width), dtype)
        for (u, v), lo, z, f in ((first, 0, n, m), (second, split, m, n)):
            op(u.repeat(z, axis=1).reshape(-1, z, z * f), v.reshape(-1, 1, z * f),
               out=out[:, lo:lo + z * z * f].reshape(-1, z, z * f))
        return out

    def first_fault(stage, at, lams, offered=True):
        # [(block, slot, stage, lam)] of the first NaN or -inf lam offered at flat tuples at
        bad = np.flatnonzero(~(lams > -INF) & offered)[:1]
        return [(at[j] // width, at[j] % width >= split, stage, lams[j]) for j in bad]

    # the prelude: the first fault it names (error) ends the plan that the
    # chunks screen. A weight's fault sits in the first pair's row and a
    # pair's at its first block, so past a faulty weight only the first pair
    # can hold an earlier fault; the chunks then screen the first pair by
    # the weights before the faulty one, or else the pairs before the
    # faulty one by every weight
    alphas, error = _checked(alphas, lambda alpha: ensure_finite(alpha, "alpha"))
    lams, pair_error = _checked(lam_pairs if error is None else lam_pairs[:1], _plan_pair)
    error = error if pair_error is None else pair_error
    alphas, nalpha = np.array(alphas), len(alphas)
    if len(lams) and nalpha:
        # terms[2p + i, a, c] = f(lams[p, i]) at (xs[a], ys[c]), in one call
        # over the distinct parameters in first-appearance order (-0.0 meets
        # 0.0); if f refuses one, the pairs are tried one at a time, and the
        # first refused is the fault that ends the plan screened. f is
        # elementwise and pairings commute, so the second slot's terms and
        # gaps are these transposed, to the bit
        lams = np.array(lams).reshape(-1, 2)
        flat = lams.reshape(-1).tolist()
        distinct = {lam: k for k, lam in enumerate(dict.fromkeys(flat))}
        points = xs[:, None, None, :], ys[None, :, None, :]
        try:
            terms = fam.f_many(np.array(list(distinct)), *points)[..., [distinct[lam] for lam in flat]]
        except _BLOCK_FAULTS:
            terms, refused = _checked(lams, lambda pair: fam.f_many(pair, *points))
            lams, error = lams[:len(terms)], error if refused is None else refused
            terms = np.concatenate([np.empty((n, m, 0)), *terms], axis=-1)
        terms = terms.transpose(2, 0, 1)
    if not ((stop := len(lams) * nalpha) and width):
        if error is not None:
            raise error
        return fails, deficits[0]
    gaps = terms - _batch_inner(xs[:, None, :], ys[None, :, :])
    held = (gaps <= tol, ~(gaps > tol).transpose(0, 2, 1))

    # cands[s, p * nalpha + k] in slot s, one per block as the rules read no
    # point; a block whose rule is barred or finds none skips that stage, and
    # the first whose rule raises is the prelude's fault
    member = dom.contains_many(lams)
    cands, ruled = np.zeros((2, stop)), np.zeros((2, stop), dtype=bool)
    try:
        for p, ((lam1, lam2), in_domain) in enumerate(zip(lams.tolist(), member.all(axis=1).tolist())):
            for i, alpha in enumerate(alphas.tolist(), p * nalpha):
                for s, rule in enumerate((fam.candidate, fam.candidate_dual)):
                    if s or (0.0 <= alpha <= 1.0 and in_domain):
                        try:
                            cands[s, i], ruled[s, i] = rule(lam1, lam2, alpha, None), True
                        except CandidateNotFoundError:
                            pass
    except _BLOCK_FAULTS as exc:
        stop, error = i, exc

    # f's (x, y) at kt = k * width + t: the mixes alphas[k] xs[a] +
    # betas[k] xs[b] against ys[c], then xs[c] against the mixes of ys
    w = alphas[:, None, None, None]
    mx, my = ((w * z[:, None] + (1.0 - w) * z[None, :]).reshape(nalpha, -1, dim) for z in (xs, ys))
    px = np.concatenate([mx.repeat(m, axis=1), np.tile(xs, (nalpha, m * m, 1))], axis=1)
    py = np.concatenate([np.tile(ys, (nalpha, n * n, 1)), my.repeat(n, axis=1)], axis=1)

    # table[j, kt] = f(table_lams[j, kt]) at (px[kt], py[kt]): a row per
    # distinct plan parameter (-0.0 meets 0.0) the domain holds, lams[p, i]
    # at rows[p, i] where member[p, i] (elsewhere any row, masked out); then
    # a row per special parameter, with where it applies and is present
    members = np.sort(lams.reshape(-1))
    members = members[_run_starts(members)]
    members = members[dom.contains_many(members)]
    rows = np.minimum(np.searchsorted(members, lams), max(members.size - 1, 0))
    specials = fam.special_lams_many(px, py)
    table_lams = np.empty((members.size + len(specials), nalpha * width))
    table_lams[:members.size] = members[:, None]
    special_rows = []
    for row, (lam, present) in enumerate(specials, members.size):
        table_lams[row] = np.reshape(lam, -1)
        present = np.broadcast_to(present, (nalpha, width)).reshape(-1)
        special_rows.append((row, present & dom.contains_many(table_lams[row]), present))
    px, py = px.reshape(-1, dim), py.reshape(-1, dim)
    table = fam.f_many(table_lams, px, py)

    # per block and slot, the right side's weighted terms (a zero-weight member
    # drops out, even where its term is inf) and the candidate's preconditions
    p, k = np.divmod(np.arange(stop), nalpha)
    with np.errstate(invalid="ignore"):  # 0 * inf
        weighted = [np.where(weight == 0.0, 0.0, weight * terms[2 * p + i])
                    for i, weight in enumerate((alphas[k, None, None], (1.0 - alphas)[k, None, None]))]
    weighted = (weighted, [w.transpose(0, 2, 1) for w in weighted])
    held = [(h[2 * p] & ruled[s, :stop, None, None], h[2 * p + 1]) for s, h in enumerate(held)]

    for part in _chunks(stop, width):
        # the chunk's tuples (b, t), at flat index b * width + t
        blocks = np.arange(stop)[part]
        p, k = np.divmod(blocks, nalpha)
        # the right sides plus tol, in place: one chunk-sized float array
        # fewer keeps a chunk's pages in the heap between calls
        with np.errstate(invalid="ignore"):  # inf - inf under weights outside [0, 1]
            rtol = along(np.add, *[(u[part], v[part]) for u, v in weighted], float)
        undecided = rtol != INF  # an infinite right side holds vacuously
        rtol += tol
        flat_rtol = rtol.reshape(-1)

        # each stage keeps (its tuples or None for all, where it applies, f)
        offered = along(np.logical_and, *[(u[part], v[part]) for u, v in held], bool)
        at = np.flatnonzero(undecided & offered)
        b, t = np.divmod(at, width)
        lam = cands[(t >= split).astype(np.intp), blocks[b]]
        faults = first_fault(0, at, lam)
        on = dom.contains_many(lam)
        kept = []
        if on.any():
            at, kt = at[on], (k[b] * width + t)[on]
            lhs = fam.f_many(lam[on], px[kt], py[kt])
            np.put(undecided, at[lhs <= flat_rtol[at]], False)
            kept.append((at, np.ones(at.size, dtype=bool), lhs))
        if members.size:
            lhs = table.reshape(-1, nalpha, width)[rows[p, 0], k]
            undecided &= ~((lhs <= rtol) & member[p, 0, None])
            kept.append((None, member[p, 0], lhs.reshape(-1)))
        # the later stages at the tuples still undecided; per block, base and
        # row2 turn a flat index into kt and into lam2's flat table index
        at = np.flatnonzero(undecided)
        base = (k - np.arange(blocks.size)) * width
        row2 = rows[p, 1] * table.shape[1] + base
        b = at // width
        kt = base[b] + at
        for stage in [None] * bool(members.size) + special_rows:
            if stage is None:  # lam2, its row and membership per block
                lhs, on = table.reshape(-1)[row2[b] + at], member[p, 1][b]
            else:
                row, on, present = stage
                faults += first_fault(1 + row, at, table_lams[row, kt], present[kt])
                lhs, on = table[row, kt], on[kt]
            kept.append((at, on, lhs))
            keep = ~(on & (lhs <= flat_rtol[at]))
            at, b, kt = at[keep], b[keep], kt[keep]
        if faults:  # the first by (block, slot, stage), once the stages have run
            ensure_extended(min(faults)[3], "lambda")

        # the tuples no stage accepted, if any, take the grid infimum
        vals = cover._sweep(px[kt], py[kt])[0] if at.size else np.empty(0)
        failing = ~(vals <= flat_rtol[at])
        if not failing.any():
            continue
        at = at[failing]
        np.put(fails, blocks[0] * width + at, True)

        # their deficits against their right sides, summed again as above:
        # d < low over the stages in order, then the grid
        blk, t = np.divmod(at, width)
        r, low = np.empty(at.size), np.full(at.size, INF)
        with np.errstate(invalid="ignore"):  # inf - inf, and -inf - -inf where a stage skips
            for (u, v), lo, z, f in zip(weighted, (0, split), (n, m), (m, n)):
                sel = (lo <= t) & (t < lo + z * z * f)
                a, bc = np.divmod(t[sel] - lo, z * f)
                r[sel] = u[blocks[blk[sel]], a, bc % f] + v[blocks[blk[sel]], bc // f, bc % f]
            for where, on, lhs in kept:
                if where is None:
                    on, lhs = on[at // width], lhs[at]
                else:
                    i = np.minimum(np.searchsorted(where, at), where.size - 1)
                    on, lhs = on[i] & (where[i] == at), lhs[i]
                d = lhs - r
                low = np.where(on & (d < low), d, low)
        d = vals[failing] - r
        deficits.append(np.where(d < low, d, low))
    if error is not None:
        raise error
    return fails, np.concatenate(deficits)


def bic_check(cover, plan=None, tol=DEFAULT_TOL):
    """Screen the cover for bi-implicit convexity over a probe plan.

    Each tuple demands a parameter whose member dominates the mixed point:
    f(lam, mix, fixed) <= alpha f(lam1, ., .) + beta f(lam2, ., .) + tol,
    and symmetrically for mixes in the second argument. Infinite right
    sides hold vacuously. The search tries the family's candidate rule
    first, then the member parameters themselves, the exact per-probe
    minimizers and finiteness boundaries, then the whole parameter grid in
    ascending order; a failure records the tuple with its least deficit.
    One screen covers both argument slots of every (lam1, lam2, alpha)
    block of the plan, in chunks of whole blocks, with the same values,
    verdicts and counterexample order (pair, weight, slot, z1, z2, fixed)
    as searching tuple by tuple in plan order.

    Errors come in plan order too: the first faulty block raises. Within a
    block its parameters (NaN or -inf) come first, then its weight (not
    finite), then a parameter the family's f refuses, then a candidate rule
    that raises, then a NaN or -inf parameter a stage is offered, by slot
    and stage. A parameter's or a weight's fault raises even when the other
    axis of the plan is empty.
    """
    ensure_tol(tol)
    plan = default_probe_plan(cover) if plan is None else plan
    xs, ys = ([as_vector(p, cover.dim) for p in points] for points in (plan.primal_points, plan.dual_points))
    x_stack, y_stack = (np.array(v).reshape(len(v), cover.dim) for v in (xs, ys))
    fails, deficits = _bic_screen(cover, plan.lam_pairs, plan.alphas, x_stack, y_stack, tol)

    # one trusted record per failing tuple, in the mask's (plan) order
    slots, split, found = (("first", xs, ys), ("second", ys, xs)), len(xs) ** 2 * len(ys), []
    for p, k, t, d in zip(*(i.tolist() for i in _nonzero(fails)), deficits.tolist()):
        argument, zs, fixed = slots[t >= split]
        a, bc = divmod(t - split * (t >= split), len(zs) * len(fixed))
        b, c = divmod(bc, len(fixed))
        (lam1, lam2), alpha = plan.lam_pairs[p], plan.alphas[k]
        found.append((argument, lam1, zs[a], lam2, zs[b], alpha, fixed[c], d))
    return BICReport(not found, BICCounterexample._records(*zip(*found)), fails.size)


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
    screening; then checks that the member graphs cover ``law`` at
    max(tol, ``GRID_TOL``), screens bi-implicit convexity over the default
    probe plan at ``DEFAULT_TOL`` whatever ``tol`` is, and verifies the
    axioms on the probe grids at ``tol``. The probe table is evaluated once
    and returned on the report.
    """
    ensure_tol(tol)
    b = build_inf(cover, mode=mode)
    coverage = None
    if law is not None:
        coverage = coverage_check(cover, law, tol=max(tol, GRID_TOL))
    bic = bic_check(cover, default_probe_plan(cover))
    table = _probe_table(b, x_probes, y_probes)
    return CertificationReport(coverage, bic, _axiom_report(table, tol), b, table)
