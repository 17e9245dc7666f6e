"""Sampled multivalued laws and their graph-level tests.

A law is a finite set of pairs (x, y). Its primal slices m(x) and dual
slices m*(y) decide whether the law can carry a bipotential at all: every
slice must be convex and closed. Finite slices can only witness convexity
through midpoints, so laws whose true slices are continua carry declarative
slice hints (segment, ball, ray, singleton) that a finite sample cannot
express on its own.

Cyclic monotonicity is decided on the complete digraph over the sample
indices with edge weight w(i, j) = <x_j - x_i, y_i>: the samples are
cyclically monotone iff no directed cycle has positive weight. Detection
negates the weights and runs Bellman-Ford sweeps, which stop at their fixed
point (monotone samples reach it early) or at the first check, after sweeps
1, 2, 4, 8, ..., whose predecessors close a cycle with sum above tol;
otherwise a relaxation that still succeeds after n-1 sweeps keeps the
verdict open until the last one. The witness is read from the predecessors
of the sweep where the run ended.

Both tests work on whole arrays: slices are grouped by exact row keys and
screened through all their midpoints at once, and the cycles of the
predecessors are found by pointer doubling.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import kernels
from .kernels import cycle_sum
from .convex import MaxAffine
from .numerics import (
    DEFAULT_TOL,
    Record,
    _batch_inner,
    _batch_norm,
    _chunks,
    _diff_inner,
    _row_keys,
    _run_starts,
    as_vector,
    ensure_tol,
    norm,
    vec_key,
)


class NotCyclicallyMonotoneError(ValueError):
    """Raised when an operation requires cyclically monotone samples."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"samples are not cyclically monotone: cycle {report.witness_cycle} "
            f"has sum {report.cycle_sum}")


class NotBBGraphError(ValueError):
    """Raised when an operation requires a BB-graph."""

    def __init__(self, report):
        self.report = report
        fs = report.failing_slice
        super().__init__(
            f"not a BB-graph: {fs.which} slice at {fs.at.tolist()} is not convex "
            f"(midpoint {fs.witness_midpoint.tolist()} missing)")


# ---------------------------------------------------------------------------
# slice hints


def _clip_low(t):
    # max(0.0, t) as Python evaluates it, nan included
    return np.where(t > 0.0, t, 0.0)


class _SliceHint(Record):
    """A declared slice shape. ``_holds(vs, tol, *params)`` decides each row
    of a trusted (n, dim) stack against shape parameters given per row or
    once for all, in field order; ``contains_many`` is that test with the
    hint's own parameters, and ``contains`` the same on one vector."""

    def contains(self, v, tol):
        return bool(self.contains_many(as_vector(v, self.dim)[None], tol)[0])

    def contains_many(self, vs, tol):
        return self._holds(vs, tol, *self._params())

    def _params(self):
        return [getattr(self, name) for name in self._fields]


class Singleton(_SliceHint):
    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", as_vector(self.point))

    @property
    def dim(self):
        return self.point.size

    @staticmethod
    def _holds(vs, tol, point):
        return _batch_norm(vs - point) <= tol


class Segment(_SliceHint):
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a))
        object.__setattr__(self, "b", as_vector(self.b, self.a.size))

    @property
    def dim(self):
        return self.a.size

    @staticmethod
    def _holds(vs, tol, a, b):
        d = b - a
        dd = _batch_inner(d, d)
        # a degenerate segment (dd = 0) is its end a; the projection below
        # is then 0 / 0 and is not used
        with np.errstate(divide="ignore", invalid="ignore"):
            t = _clip_low(_batch_inner(vs - a, d) / dd)
            t = np.where(t < 1.0, t, 1.0)  # min(1.0, t) as Python evaluates it
            near = _batch_norm(vs - (a + t[..., None] * d)) <= tol
        return np.where(dd == 0.0, _batch_norm(vs - a) <= tol, near)


class Ball(_SliceHint):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        r = float(self.radius)
        if not r >= 0:
            raise ValueError(f"ball radius must be nonnegative, got {r}")
        object.__setattr__(self, "radius", r)

    @property
    def dim(self):
        return self.center.size

    @staticmethod
    def _holds(vs, tol, center, radius):
        return (radius == np.inf) | (_batch_norm(vs - center) <= radius + tol)


class HalfLineRay(_SliceHint):
    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", as_vector(self.origin))
        d = as_vector(self.direction, self.origin.size)
        if norm(d) == 0.0:
            raise ValueError("ray direction must be nonzero")
        object.__setattr__(self, "direction", d)

    @property
    def dim(self):
        return self.origin.size

    @staticmethod
    def _holds(vs, tol, origin, direction):
        t = _clip_low(_batch_inner(vs - origin, direction) / _batch_inner(direction, direction))
        return _batch_norm(vs - (origin + t[..., None] * direction)) <= tol


# ---------------------------------------------------------------------------
# reports


class FailingSlice(Record):
    which: str            # "primal" or "dual"
    at: np.ndarray        # the slice coordinate
    witness_midpoint: np.ndarray


class BBReport(Record):
    is_bb_graph: bool
    failing_slice: Optional[FailingSlice] = None


class CycleReport(Record):
    cyclically_monotone: bool
    witness_cycle: Optional[tuple] = None
    cycle_sum: float = 0.0


# ---------------------------------------------------------------------------
# the law graph


class LawGraph:
    """Nonempty finite sample of a multivalued law, with optional slice hints.

    ``primal_hints`` maps an x-coordinate to the declared shape of m(x);
    ``dual_hints`` maps a y-coordinate to the declared shape of m*(y). Every
    stored pair must sit inside the hints that mention it.
    """

    def __init__(self, pairs, primal_hints=None, dual_hints=None, hint_tol=DEFAULT_TOL):
        pairs = list(pairs)
        if not pairs:
            raise ValueError("a law graph needs at least one pair")
        xs = [as_vector(x) for x, _ in pairs]
        dim = xs[0].size
        xs = [as_vector(x, dim) for x in xs]
        ys = [as_vector(y, dim) for _, y in pairs]
        self._assign(np.array(xs), np.array(ys),
                     {vec_key(at): hint for at, hint in dict(primal_hints or {}).items()},
                     {vec_key(at): hint for at, hint in dict(dual_hints or {}).items()},
                     float(ensure_tol(hint_tol, "hint_tol")))

    @classmethod
    def _from_arrays(cls, xs, ys, primal_hints=None, dual_hints=None):
        """A law over trusted (m, dim) float64 stacks, taken as they are.
        Hints come keyed by exact coordinate tuples, as :func:`vec_key`
        makes them, and are validated against the pairs."""
        law = cls.__new__(cls)
        law._assign(xs, ys, primal_hints or {}, dual_hints or {}, DEFAULT_TOL)
        return law

    def _assign(self, xs, ys, primal_hints, dual_hints, hint_tol):
        self.xs, self.ys, self.dim = xs, ys, xs.shape[1]
        self.hint_tol = hint_tol
        self.primal_hints, self.dual_hints = primal_hints, dual_hints
        self._validate_hints()

    def _validate_hints(self):
        if not (self.primal_hints or self.dual_hints):
            return
        sides = (("primal", self.primal_hints, self.xs, self.ys, "x", "y"),
                 ("dual", self.dual_hints, self.ys, self.xs, "y", "x"))
        # every anchor needs a pair before any pair is checked
        hints, which, rows, vs = [], [], [], []
        for side, side_hints, at, others, a, _ in sides:
            anchor = _anchor_index(at, list(side_hints))
            held = np.flatnonzero(anchor >= 0)
            missing = np.ones(len(side_hints), dtype=bool)
            missing[anchor[held]] = False
            if missing.any():
                raise ValueError(f"{side} hint anchored at {list(side_hints)[missing.argmax()]} "
                                 f"but no pair has that {a}")
            which.append(anchor[held] + len(hints))
            rows.append(held)
            vs.append(others[held])
            hints += side_hints.values()
        # each pair against the hints at its x (primal) and at its y (dual);
        # the lowest failing pair index wins, primal before dual at the same
        # index (a hint of another dimension fails at its first pair)
        which, rows = np.concatenate(which), np.concatenate(rows)
        fail = np.flatnonzero(~_hints_hold(hints, which, np.concatenate(vs), self.hint_tol))
        if fail.size:
            f = fail[np.argmin(rows[fail])]  # the first minimum: primal rows come first
            i, hint = rows[f], hints[which[f]]
            side, _, at, others, a, o = sides[int(which[f] >= len(self.primal_hints))]
            hint.contains(others[i], self.hint_tol)  # raises for a hint of another dimension
            raise ValueError(f"pair {i}: {o} {others[i].tolist()} lies outside the "
                             f"declared {side} slice hint at {a} {at[i].tolist()}")

    def __len__(self):
        return self.xs.shape[0]

    @property
    def pairs(self):
        return list(zip(self.xs.copy(), self.ys.copy()))

    def pair_keys(self):
        """Set of exact-coordinate pair keys, for set-level comparisons."""
        return set(zip(map(tuple, self.xs.tolist()), map(tuple, self.ys.tolist())))

    def slice(self, x):
        """All y with (x, y) stored, by exact coordinate match."""
        return list(self.ys[(self.xs == as_vector(x, self.dim)).all(axis=1)])

    def dual_slice(self, y):
        """All x with (x, y) stored, by exact coordinate match."""
        return list(self.xs[(self.ys == as_vector(y, self.dim)).all(axis=1)])

    def domain(self):
        """Distinct x coordinates in first-appearance order."""
        return _distinct_rows(self.xs)

    def image(self):
        """Distinct y coordinates in first-appearance order."""
        return _distinct_rows(self.ys)

    def contains(self, x, y, snap=0.0):
        """Membership of (x, y) in the law: a stored pair up to ``snap``, or a
        point of a declared slice hint."""
        xv = as_vector(x, self.dim)
        yv = as_vector(y, self.dim)
        return bool(self._membership(xv[None], yv[None], snap)[0, 0])

    def _membership(self, xg, yg, snap):
        """:meth:`contains` for every pair of two trusted probe stacks, as a
        (len(xg), len(yg)) boolean matrix. A stored pair matches exactly, or
        within ``snap`` in both coordinates when ``snap > 0``; each hint is
        evaluated only on the rows (primal) or columns (dual) at its anchor.
        Distances and equalities are taken one coordinate plane at a time."""
        if snap > 0.0:
            near_x = np.sqrt(_diff_inner(self.xs[None], xg[:, None])) <= snap
            near_y = np.sqrt(_diff_inner(self.ys[None], yg[:, None])) <= snap
        else:
            near_x = np.ones((len(xg), len(self)), dtype=bool)
            near_y = np.ones((len(yg), len(self)), dtype=bool)
            for k in range(self.dim):
                near_x &= self.xs[None, :, k] == xg[:, None, k]
                near_y &= self.ys[None, :, k] == yg[:, None, k]
        # some stored pair i near both: a product of 0/1 matrices, exact in floats
        member = near_x.astype(np.float64) @ near_y.T.astype(np.float64) > 0.0
        # primal hints fill rows, dual hints columns (rows of the transpose):
        # the hint at each anchored probe, over every probe of the other side
        for hints, at, others, view in ((self.primal_hints, xg, yg, member),
                                        (self.dual_hints, yg, xg, member.T)):
            anchor = _anchor_index(at, list(hints))
            rows = np.flatnonzero(anchor >= 0)
            shapes = list(hints.values())
            n = len(others)
            holds = _hints_hold([shapes[h] for h in anchor[rows]], np.repeat(np.arange(rows.size), n),
                                np.tile(others, (rows.size, 1)), self.hint_tol)
            view[rows] |= holds.reshape(rows.size, n)
        return member


def _anchor_index(at, keys):
    """For each row of the (m, dim) stack ``at``, the index of the anchor key
    it equals, or -1: the rows looked up as the hint dictionaries key them
    (exact coordinate tuples, -0.0 meeting 0.0)."""
    index = {key: k for k, key in enumerate(keys)}
    return np.array([index.get(row, -1) for row in map(tuple, at.tolist())], dtype=np.intp)


def _hints_hold(hints, which, vs, tol):
    """Whether each row of the trusted (n, dim) stack ``vs`` lies in the hint
    ``hints[which[r]]``: one ``_holds`` call per shape, over the rows of its
    hints with each hint's fields gathered per row. A hint of another
    dimension holds nowhere."""
    out = np.zeros(which.size, dtype=bool)
    groups = {}
    for h, hint in enumerate(hints):
        if hint.dim == vs.shape[1]:
            groups.setdefault(type(hint), []).append(h)
    kind = np.full(len(hints), -1)
    for k, group in enumerate(groups.values()):
        kind[group] = k
    kind = kind[which]
    for k, (shape, group) in enumerate(groups.items()):
        rows = np.flatnonzero(kind == k)
        at = np.searchsorted(group, which[rows])  # the group ascends
        fields = zip(*[hints[h]._params() for h in group])
        out[rows] = shape._holds(vs[rows], tol, *[np.array(f)[at] for f in fields])
    return out


def _distinct_rows(a):
    """Copies of the first row at each distinct coordinate of a (m, dim)
    stack (-0.0 meets 0.0), in first-appearance order."""
    keys = _row_keys(a)
    rows = np.argsort(keys, kind="stable")  # equal keys keep storage order
    return [a[i].copy() for i in np.sort(rows[_run_starts(keys[rows])])]


# ---------------------------------------------------------------------------
# BB-graph test


def _midpoint_failure(members, tol):
    """First midpoint not within tol of some member, or None.

    Finite sets are closed, so closedness holds vacuously; convexity of a
    finite sample is testable only through midpoint membership. The
    midpoints of the pairs i < j of the (k, dim) stack ``members`` are
    screened in row-major order, about ``numerics.SWEEP_CHUNK`` distances at
    a time.
    """
    k = members.shape[0]
    i, j = np.triu_indices(k, 1)
    for part in _chunks(i.size, k):
        mids = 0.5 * (members[i[part]] + members[j[part]])
        far = np.flatnonzero((np.sqrt(_diff_inner(mids[:, None], members[None])) > tol).all(axis=1))
        if far.size:
            return mids[far[0]].copy()
    return None


def bb_check(law, tol=DEFAULT_TOL):
    """Decide whether the sampled law is a BB-graph.

    Every primal and dual slice must be convex and closed. Hinted slices
    pass by construction (the hint shapes are convex and closed, and pair
    membership was validated when the law was built); unhinted slices are
    screened by the midpoint test at tolerance tol.
    """
    ensure_tol(tol)
    sides = (("primal", law.xs, law.ys, law.primal_hints),
             ("dual", law.ys, law.xs, law.dual_hints))
    for which, coords, others, hints in sides:
        for at, members in _slices(coords, others):
            if tuple(at.tolist()) in hints:
                continue
            mid = _midpoint_failure(members, tol)
            if mid is not None:
                return BBReport(False, FailingSlice(which, at.copy(), mid))
    return BBReport(True, None)


def _slices(coords, others):
    """Every slice with two or more members (a single point is convex), in
    first-appearance order: the first row of ``coords`` at each distinct
    coordinate (-0.0 meets 0.0) and the rows of ``others`` paired with it,
    in storage order."""
    keys = _row_keys(coords)
    rows = np.argsort(keys, kind="stable")  # each coordinate's rows side by side
    starts = np.flatnonzero(_run_starts(keys[rows]))
    counts = np.diff(starts, append=rows.size)
    first = rows[starts]
    order = np.argsort(first)
    return [(coords[first[g]], others[rows[starts[g]:starts[g] + counts[g]]])
            for g in order[counts[order] >= 2]]


# ---------------------------------------------------------------------------
# cyclic monotonicity


def weight_matrix(law):
    """Dense w[i, j] = <x_j - x_i, y_i> over the sample indices.

    Accumulated coordinate by coordinate in the same order as
    :func:`bipotkit.numerics.inner` applied to (x_j - x_i, y_i), so scalar
    re-checks reproduce the matrix entries bit for bit. The differences are
    paired one coordinate plane at a time (:func:`numerics._diff_inner`),
    so the matrix is built in two n x n planes.
    """
    return _diff_inner(law.xs[None], law.xs[:, None], law.ys[:, None])


def cyclic_monotonicity_check(law, tol=DEFAULT_TOL):
    """Bellman-Ford screen for positive cycles in the sample weights.

    Cycle sums in (0, tol] are treated as zero: floating chain sums of
    genuinely monotone data land there. The sweeps stop at the first check,
    after sweeps 1, 2, 4, 8, ..., whose predecessors close a cycle with sum
    above tol, so a refusal runs at most twice the sweeps that close its
    cycle, and a monotone law pays at most ceil(log2 n) checks. The
    witness is the first cycle with the largest sum among the distinct
    cycles of the predecessors where the run ended, taken in order of their
    smallest index and rotated so that index leads.
    """
    ensure_tol(tol)
    return _cycle_report(weight_matrix(law), tol)


def _cycle_report(w, tol):
    """:func:`cyclic_monotonicity_check` on a weight matrix. A run that
    reached its fixed point is monotone; otherwise each cycle of the
    predecessors is summed once and the first with the largest sum wins.

    The negated weights go to the sweeps in Fortran order, whose transpose
    the kernel reads as a view, so the screen holds three n x n planes: w,
    its negation and the sweeps' one candidate buffer."""
    m = w.shape[0]
    if m < 2:
        return CycleReport(True, None, 0.0)
    pred, improvement = kernels.bellman_ford(np.negative(w, order="F"), tol)
    best_cycle, best_sum = None, 0.0
    if improvement.any():
        for cyc in kernels.pred_cycles(pred):
            s = cycle_sum(w, cyc)
            if s > best_sum:
                best_cycle, best_sum = cyc, s
    if best_cycle is not None and best_sum > tol:
        return CycleReport(False, best_cycle, best_sum)
    return CycleReport(True, None, 0.0)


# ---------------------------------------------------------------------------
# reconstruction of a convex potential from cyclically monotone samples


def rockafellar_reconstruct(law, base=0, tol=DEFAULT_TOL):
    """Max-affine potential whose subdifferential passes through the samples.

    Offsets come from maximal chain sums c_i out of the base sample; the
    result is phi_hat(x) = max_i (c_i + <x - x_i, y_i>), normalized so
    phi_hat(x_base) = 0 (up to tol for borderline cycle sums). Refuses
    non-monotone samples with the witness cycle attached.
    """
    ensure_tol(tol)
    m = len(law)
    if not 0 <= base < m:
        raise ValueError(f"base index {base} out of range for {m} samples")
    w = weight_matrix(law)
    report = _cycle_report(w, tol)
    if not report.cyclically_monotone:
        raise NotCyclicallyMonotoneError(report)
    c = kernels.longest_path(w, base)
    return MaxAffine(law.ys.copy(), c - _batch_inner(law.xs, law.ys))
