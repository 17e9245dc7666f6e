"""Slow, independent reference implementations used only by the tests.

Everything here trades speed for obviousness: exhaustive enumeration and
plain python loops, no shared code with the package internals beyond numpy.
"""

import json
import math
from itertools import permutations

import numpy as np


def simple_cycles(m):
    """Yield every directed simple cycle over indices 0..m-1.

    Each cycle appears once, rotated so it starts at its smallest index.
    Both traversal directions are distinct cycles (the weights are not
    symmetric). Counts grow as sum_k C(m,k)(k-1)!, e.g. 2365 for m = 7.
    """
    nodes = list(range(m))
    for first in nodes:
        rest = [n for n in nodes if n > first]
        for k in range(1, len(rest) + 1):
            for tail in permutations(rest, k):
                yield (first,) + tail


def oracle_cycle_sum(w, cycle):
    s = 0.0
    for a, b in zip(cycle, cycle[1:] + (cycle[0],)):
        s += w[a, b]
    return s


def exhaustive_cycle_check(w, tol):
    """Max cycle sum by enumeration; monotone iff it stays at or below tol."""
    m = w.shape[0]
    best_sum = -np.inf
    best_cycle = None
    for cycle in simple_cycles(m):
        s = oracle_cycle_sum(w, cycle)
        if s > best_sum:
            best_sum = s
            best_cycle = cycle
    return best_sum <= tol, best_cycle, best_sum


def bruteforce_chain_offsets(w, base):
    """Max chain sums from ``base`` by enumerating every simple path."""
    m = w.shape[0]
    best = np.full(m, -np.inf)
    best[base] = 0.0
    others = [n for n in range(m) if n != base]
    for k in range(1, m):
        for path in permutations(others, k):
            s = 0.0
            prev = base
            for node in path:
                s += w[prev, node]
                prev = node
            if s > best[path[-1]]:
                best[path[-1]] = s
    return best


def python_conjugate(grid, values, dual_grid):
    """Discrete Legendre transform as a bare double loop."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    dual_grid = np.asarray(dual_grid, dtype=float)
    out = np.empty(dual_grid.shape[0])
    for t in range(dual_grid.shape[0]):
        best = -np.inf
        for i in range(grid.shape[0]):
            if values[i] == np.inf:
                continue
            s = 0.0
            for k in range(grid.shape[1]):
                s += grid[i, k] * dual_grid[t, k]
            cand = s - values[i]
            if cand > best:
                best = cand
        out[t] = best
    return out


def oracle_bic_check(cover, plan=None, tol=1e-9):
    """The bi-implicit convexity screen searched tuple by tuple.

    Written against the public API only, as plain loops: per tuple the right
    side, then the candidate (once both subgradient gaps hold: the family's
    ``candidate`` rule in the first slot, or the first tabulated member
    accepting the mixed point, and ``candidate_dual`` in the second), the
    member parameters, the family's exact minimizers and finiteness
    boundaries, and finally the whole parameter grid, one
    :func:`_oracle_member` per parameter. A block whose parameters are NaN
    or -inf, or then whose mixing weight is not finite, raises before any of
    its tuples.
    """
    from bipotkit import (
        INF,
        BICCounterexample,
        BICReport,
        CandidateNotFoundError,
        MinusInfinityError,
        default_probe_plan,
        inner,
    )

    if plan is None:
        plan = default_probe_plan(cover)
    fam = cover.family
    xs = [np.asarray(p, dtype=np.float64).reshape(cover.dim) for p in plan.primal_points]
    ys = [np.asarray(p, dtype=np.float64).reshape(cover.dim) for p in plan.dual_points]

    def mix_values(alpha, v1, beta, v2):
        t1 = 0.0 if alpha == 0.0 else alpha * v1
        t2 = 0.0 if beta == 0.0 else beta * v2
        return t1 + t2

    def candidate(lam1, z1, lam2, z2, alpha, fixed, first):
        if first and not (0.0 <= alpha <= 1.0 and cover.domain.contains(lam1)
                          and cover.domain.contains(lam2)):
            return None
        for lam, z in ((lam1, z1), (lam2, z2)):
            point = (z, fixed) if first else (fixed, z)
            gap = _oracle_member(cover, lam, *point) - inner(z, fixed)
            if not (gap <= tol if first else not gap > tol):
                return None
        if first and type(fam).__name__ == "TabulatedFamily":
            mixed = alpha * z1 + (1.0 - alpha) * z2
            return next((lam for lam in fam.lams()
                         if _oracle_member(cover, lam, mixed, fixed) - inner(mixed, fixed) <= tol),
                        None)
        try:
            return (fam.candidate if first else fam.candidate_dual)(lam1, lam2, alpha, fixed)
        except CandidateNotFoundError:
            return None

    def deficit(lam1, z1, lam2, z2, alpha, fixed, first):
        beta = 1.0 - alpha

        def f(lam, z):
            return _oracle_member(cover, lam, *((z, fixed) if first else (fixed, z)))

        rhs = mix_values(alpha, f(lam1, z1), beta, f(lam2, z2))
        if rhs == INF:
            return None
        mix = alpha * z1 + beta * z2
        point = (mix, fixed) if first else (fixed, mix)
        lams = []
        cand = candidate(lam1, z1, lam2, z2, alpha, fixed, first)
        if cand is not None:
            lams.append(cand)
        lams.extend((lam1, lam2))
        lams.extend(_oracle_special_lams(cover, *point))
        best = INF
        for lam in lams:
            if not cover.domain.contains(lam):
                continue
            lhs = _oracle_member(cover, lam, *point)
            if lhs <= rhs + tol:
                return None
            best = min(best, lhs - rhs)
        vals = [_oracle_member(cover, lam, *point) for lam in cover.domain.sample_grid]
        if any(val <= rhs + tol for val in vals):
            return None
        return min(best, min(vals) - rhs)

    counterexamples = []
    checked = 0
    for lam1, lam2 in plan.lam_pairs:
        for alpha in plan.alphas:
            for name, lam in (("lambda1", lam1), ("lambda2", lam2)):
                if math.isnan(lam) or lam == -INF:
                    raise MinusInfinityError(
                        f"{name} is {float(lam)}; only finite values and +inf are allowed")
            if not math.isfinite(alpha):
                raise ValueError(f"alpha must be finite, got {float(alpha)}")
            for first, zs, fixeds in ((True, xs, ys), (False, ys, xs)):
                for z1 in zs:
                    for z2 in zs:
                        for fixed in fixeds:
                            checked += 1
                            d = deficit(lam1, z1, lam2, z2, alpha, fixed, first)
                            if d is not None:
                                counterexamples.append(BICCounterexample(
                                    "first" if first else "second",
                                    lam1, z1, lam2, z2, alpha, fixed, d))
    return BICReport(not counterexamples, counterexamples, checked)


def _square_sum(v):
    s = 0.0
    for c in v:
        s += c * c
    return s


def _pairing(x, y):
    s = 0.0
    for a, b in zip(x, y):
        s += a * b
    return s


def oracle_form_value(phi, x):
    """phi(x) at one point, read off the form's parameters: sums accumulated
    coordinate by coordinate, the first maximal max-affine piece, the first
    sampled node equal to x."""
    kind = type(phi).__name__
    x = [float(c) for c in x]
    if kind in ("Quadratic", "ScaledNorm") and phi.scale == 0.0:
        return 0.0  # the zero function, even where the square sum overflows
    if kind == "Quadratic":
        return 0.5 * phi.scale * _square_sum(x)
    if kind == "ScaledNorm":
        return phi.scale * math.sqrt(_square_sum(x))
    if kind == "IndicatorBall":
        return 0.0 if math.sqrt(_square_sum(x)) <= phi.radius else np.inf
    if kind == "IndicatorPoint":
        return phi.offset if x == phi.point.tolist() else np.inf
    if kind == "Affine":
        return _pairing(phi.slope.tolist(), x) + phi.offset
    if kind == "MaxAffine":
        best = -np.inf
        for slope, offset in zip(phi.slopes.tolist(), phi.offsets.tolist()):
            v = _pairing(slope, x) + offset
            if v > best:
                best = v
        return best
    assert kind == "Sampled"
    for node, v in zip(phi.grid.tolist(), phi.values.tolist()):
        if node == x:
            return v
    return np.inf


def _oracle_member(cover, lam, x, y):
    """f(lam, x, y) of the cover's family, written out per family; a phi
    term of -inf against a phi* term of +inf (or the other way round) gives
    +inf."""
    kind = type(cover.family).__name__
    if kind in ("QuadraticFamily", "NormFamily"):
        if lam == 0.0:
            return 0.0 if all(c == 0.0 for c in y) else np.inf
        if lam == np.inf:
            return 0.0 if all(c == 0.0 for c in x) else np.inf
        nx2, ny2 = _square_sum(x), _square_sum(y)
        if kind == "QuadraticFamily":
            return 0.5 * lam * nx2 + 0.5 * ny2 / lam
        return lam * math.sqrt(nx2) + (0.0 if math.sqrt(ny2) <= lam else np.inf)
    if kind == "SeparableFamily":
        phi, phi_star = cover.family.potential, cover.family.potential_star
    elif lam in cover.family.table:
        phi, phi_star = cover.family.table[lam]
    else:
        raise ValueError(f"lambda {lam} is not tabulated")
    p, d = oracle_form_value(phi, x), oracle_form_value(phi_star, y)
    if (p, d) in ((-np.inf, np.inf), (np.inf, -np.inf)):
        return np.inf
    return p + d


def _oracle_special_lams(cover, x, y):
    """The family's exact per-probe minimizers of f(., x, y), then its
    finiteness boundaries: ||y||/||x|| for quadratics (inf when x = 0, 0
    when y = 0, none when both are), ||y|| twice for norms, none otherwise."""
    kind = type(cover.family).__name__
    nx, ny = math.sqrt(_square_sum(x)), math.sqrt(_square_sum(y))
    if kind == "NormFamily":
        return [ny, ny]
    if kind != "QuadraticFamily" or (nx == 0.0 and ny == 0.0):
        return []
    if nx == 0.0:
        return [np.inf]
    return [0.0] if ny == 0.0 else [ny / nx]


def oracle_sweep(cover, x, y):
    """(value, attaining lambda) of the minimum of f over the sample grid
    plus, for norms, the boundary ||y|| where the parameter set holds it:
    the first minimum in ascending grid order, which the boundary replaces
    when lower, or equal at a smaller lambda."""
    dom = cover.domain
    lams = [float(lam) for lam in dom.sample_grid]
    if type(cover.family).__name__ == "NormFamily":
        edge = math.sqrt(_square_sum(y))
        if hasattr(dom, "values"):
            held = edge in dom.values
        elif edge == np.inf:
            held = dom.includes_infinity
        else:
            held = dom.lo <= edge <= dom.hi
        if held:
            lams.append(edge)
    best, best_lam = np.inf, lams[0]
    for lam in lams:
        val = _oracle_member(cover, lam, x, y)
        if val < best or (val == best and lam < best_lam):
            best, best_lam = val, lam
    return best, best_lam


def _oracle_analytic(cover, x, y):
    """Closed-form infimum over an interval [lo, hi], plus inf when held."""
    dom = cover.domain
    lo, hi = dom.lo, dom.hi
    nx2, ny2 = _square_sum(x), _square_sum(y)
    nx, ny = math.sqrt(nx2), math.sqrt(ny2)
    if type(cover.family).__name__ == "NormFamily":
        if nx == 0.0:
            return 0.0 if ny <= hi or dom.includes_infinity else np.inf
        if ny > hi:
            return np.inf
        if ny < lo:
            return lo * nx
        # the 0 member admits y = 0 alone and gives 0 there, whatever x
        return 0.0 if ny == 0.0 else nx * ny
    if nx == 0.0:
        if ny == 0.0 or dom.includes_infinity:
            return 0.0
        if hi == np.inf:
            return 0.0  # ||y||^2 / (2 lam) tends to 0, even from an overflowed norm
        return np.inf if hi == 0.0 else 0.5 * ny2 / hi
    if ny == 0.0:
        return 0.0 if lo == 0.0 else 0.5 * lo * nx2
    if nx == np.inf and ny == np.inf:
        return np.inf  # both norms overflowed: every member is +inf
    lam = ny / nx
    if lo <= lam <= hi:
        return nx * ny
    lam = lo if lam < lo else hi
    return np.inf if lam == 0.0 else 0.5 * lam * nx2 + 0.5 * ny2 / lam


def _distance(u, v):
    return math.sqrt(_square_sum([a - b for a, b in zip(u, v)]))


def oracle_hint_holds(hint, v, tol):
    """Whether the point v lies in a declared slice shape, read off the
    shape's parameters: the projection onto a segment or ray, clamped to
    its parameter range, within tol; a ball's radius plus tol."""
    kind = type(hint).__name__
    if kind == "Singleton":
        return _distance(v, hint.point.tolist()) <= tol
    if kind == "Ball":
        return hint.radius == np.inf or _distance(v, hint.center.tolist()) <= hint.radius + tol
    if kind == "Segment":
        a, b = hint.a.tolist(), hint.b.tolist()
        d = [q - p for p, q in zip(a, b)]
        dd = _square_sum(d)
        if dd == 0.0:
            return _distance(v, a) <= tol
        t = min(1.0, max(0.0, _pairing([c - p for c, p in zip(v, a)], d) / dd))
    else:
        assert kind == "HalfLineRay"
        a, d = hint.origin.tolist(), hint.direction.tolist()
        t = max(0.0, _pairing([c - p for c, p in zip(v, a)], d) / _square_sum(d))
    return _distance(v, [p + t * q for p, q in zip(a, d)]) <= tol


def oracle_law_member(law, x, y, snap=0.0):
    """(x, y) is a stored pair (within snap in both coordinates when snap is
    positive), or a point of the hint anchored at x or at y."""
    for sx, sy in zip(law.xs.tolist(), law.ys.tolist()):
        if snap > 0.0:
            if _distance(sx, x) <= snap and _distance(sy, y) <= snap:
                return True
        elif sx == x and sy == y:
            return True
    for hints, at, point in ((law.primal_hints, x, y), (law.dual_hints, y, x)):
        for anchor, hint in hints.items():
            if list(anchor) == at and oracle_hint_holds(hint, point, law.hint_tol):
                return True
    return False


def _oracle_number(c, what):
    """The float of a file's number, or the message that refuses it."""
    if isinstance(c, bool) or not isinstance(c, (int, float)):
        return f"{what} must be a number, got {c!r}"
    if isinstance(c, int) and abs(c) >= 2 ** 1024 - 2 ** 970:  # float() rounds it to 2**1024
        return f"{what} must be finite, got an integer beyond the float range"
    return float(c)


def _oracle_vector(v, what, dim):
    """The message of the first fault of a file's vector, or None."""
    if not isinstance(v, (list, tuple)) or len(v) == 0:
        return f"{what} must be a nonempty list of numbers"
    for c in v:
        f = _oracle_number(c, f"{what} coordinate")
        if isinstance(f, str):
            return f
        if not math.isfinite(f):
            return f"{what} coordinate must be finite, got {c!r}"
    if len(v) != dim:
        return f"{what} has {len(v)} coordinates, expected {dim}"
    return None


HINT_FIELDS = {"singleton": [("point", "singleton point")],
               "segment": [("a", "segment end a"), ("b", "segment end b")],
               "ball": [("center", "ball center"), ("radius", "ball radius")],
               "ray": [("origin", "ray origin"), ("direction", "ray direction")]}


def _oracle_hint(k, h, dim):
    """The message of the first fault of slice hint k, or None: its side,
    anchor, shape and params, then its fields in order, then the shape's own
    rules (a nonnegative radius, a nonzero direction)."""
    if not isinstance(h, dict):
        return f"slice hint {k} must be an object"
    side = h.get("side", "primal")
    if side not in ("primal", "dual"):
        return f"slice hint side must be primal or dual, got {side!r}"
    fault = _oracle_vector(h.get("at"), f"slice hint {k} anchor", dim)
    if fault:
        return fault
    shape = h.get("shape")
    if not isinstance(shape, str) or shape not in HINT_FIELDS:
        return f"hint shape must be one of {sorted(HINT_FIELDS)}, got {shape!r}"
    params = h.get("params")
    if not isinstance(params, dict):
        return "hint needs a params object"
    for name, what in HINT_FIELDS[shape]:
        v = params.get(name)
        if name != "radius":
            fault = _oracle_vector(v, what, dim)
        elif v == "inf":
            fault = None
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            fault = f'{what} must be a number or "inf", got {v!r}'
        elif isinstance(_oracle_number(v, what), str):
            fault = _oracle_number(v, what)
        elif not math.isfinite(v):
            fault = f'{what} must be finite or the "inf" sentinel, got {v!r}'
        elif v < 0:
            fault = f"{what} must be nonnegative, got {float(v)}"
        if fault:
            return fault
    if shape == "ray" and _square_sum([float(c) for c in params["direction"]]) == 0.0:
        return "ray direction must be nonzero"
    return None


def oracle_law_fault(data):
    """The message of the first fault among a law document's pairs and then
    its slice hints, each item checked alone in file order, or None."""
    dim = data["dimension"]
    for k, pair in enumerate(data["pairs"]):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            return f"pair {k} must be [[x...], [y...]]"
        for v, side in zip(pair, "xy"):
            fault = _oracle_vector(v, f"pair {k} {side}", dim)
            if fault:
                return fault
    hints = data.get("slice_hints", [])
    if not isinstance(hints, list):
        return "slice_hints must be a list"
    for k, h in enumerate(hints):
        fault = _oracle_hint(k, h, dim)
        if fault:
            return fault
    return None


def oracle_table(cover_or_kind, xs, ys, mode="analytic", snap=0.0):
    """b over the product of two probe stacks, one pair at a time.

    ``cover_or_kind`` is "cauchy" (||x|| ||y||), a law graph (b-infinity:
    the pairing where :func:`oracle_law_member` holds, +inf elsewhere) or a
    cover. A cover's infimum takes the closed forms above for quadratic and
    norm families over an interval in analytic mode, and the sweep over the
    sample grid otherwise (exact for finite sets and for separable families).
    """
    xs = [[float(c) for c in x] for x in np.asarray(xs, dtype=np.float64)]
    ys = [[float(c) for c in y] for y in np.asarray(ys, dtype=np.float64)]

    def value(x, y):
        if isinstance(cover_or_kind, str):
            assert cover_or_kind == "cauchy"
            nx, ny = math.sqrt(_square_sum(x)), math.sqrt(_square_sum(y))
            return 0.0 if nx == 0.0 or ny == 0.0 else nx * ny
        if hasattr(cover_or_kind, "pairs"):
            if not oracle_law_member(cover_or_kind, x, y, snap):
                return np.inf
            return _pairing(x, y)
        cover = cover_or_kind
        closed = (mode == "analytic" and hasattr(cover.domain, "lo")
                  and type(cover.family).__name__ in ("QuadraticFamily", "NormFamily"))
        return _oracle_analytic(cover, x, y) if closed else oracle_sweep(cover, x, y)[0]

    return np.array([[value(x, y) for y in ys] for x in xs])


def oracle_fmt(v):
    """The CSV number: 12 significant digits, -0.0 printed as 0."""
    v = float(v)
    if v == 0.0:
        v = 0.0
    return f"{v:.12g}"


def _lists(points):
    return [[float(c) for c in p] for p in np.asarray(points, dtype=np.float64)]


def oracle_key_exponent(g):
    """The exponent e of the exact scaling by 2**-e at which a grid rounds
    its midpoint keys: 0 when its largest magnitude s is 0 or lies in
    [2**-10, 2**16], else the e with 0.5 <= s / 2**e < 1."""
    s = max(abs(c) for p in g for c in p)
    if s == 0.0 or 2.0 ** -10 <= s <= 2.0 ** 16:
        return 0
    return math.frexp(s)[1]


def oracle_midpoint_triples(g):
    """(i, j, k) for i < j in order, k the first point whose coordinates,
    scaled by 2**-e (:func:`oracle_key_exponent`) and rounded to 9
    decimals, equal those of the scaled and rounded midpoint of g[i] and
    g[j]; dropped when that first k is i or j. When rounding would give two
    distinct points one key, every key is the point itself."""
    g = _lists(g)
    e = oracle_key_exponent(g)
    g = [[math.ldexp(c, -e) for c in p] for p in g]

    def rounded(p):
        return [float(np.round(c, 9)) for c in p]

    if len({tuple(rounded(p)) for p in g}) < len({tuple(p) for p in g}):
        def rounded(p):
            return list(p)

    keys = [rounded(p) for p in g]
    out = []
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            mid = rounded([0.5 * (a + b) for a, b in zip(g[i], g[j])])
            k = next((k for k in range(len(g)) if keys[k] == mid), None)
            if k is not None and k != i and k != j:
                out.append((i, j, k))
    return out


def oracle_verify_axioms(B, xs, ys, tol):
    """The axiom screen of a table B over probes xs (rows) and ys (columns),
    entry by entry: (lower_ok, convexity_ok, graph_ok, counterexamples,
    no_contact), counterexamples as (axiom, x, y, violation) in the order
    lower bound, convexity in x, convexity in y, closure over y midpoints,
    closure over x midpoints; no-contact notes as (side, point, min gap),
    rows first."""
    xs, ys = _lists(xs), _lists(ys)
    B = [[float(v) for v in row] for row in np.asarray(B)]
    G = [[B[r][c] - _pairing(x, y) for c, y in enumerate(ys)] for r, x in enumerate(xs)]
    rows, cols = range(len(xs)), range(len(ys))
    tx, ty = oracle_midpoint_triples(xs), oracle_midpoint_triples(ys)

    lower = [("lower-bound", xs[r], ys[c], -G[r][c])
             for r in rows for c in cols if G[r][c] < -tol]
    convex = []
    for i, j, k in tx:
        for c in cols:
            rhs = 0.5 * (B[i][c] + B[j][c])
            if B[k][c] > rhs + tol:
                convex.append(("convexity-x", xs[k], ys[c], B[k][c] - rhs))
    for i, j, k in ty:
        for r in rows:
            rhs = 0.5 * (B[r][i] + B[r][j])
            if B[r][k] > rhs + tol:
                convex.append(("convexity-y", xs[r], ys[k], B[r][k] - rhs))
    closure = []
    for i, j, k in ty:
        for r in rows:
            if G[r][i] <= tol and G[r][j] <= tol and not G[r][k] <= 2.0 * tol:
                closure.append(("graph-closure", xs[r], ys[k], G[r][k]))
    for i, j, k in tx:
        for c in cols:
            if G[i][c] <= tol and G[j][c] <= tol and not G[k][c] <= 2.0 * tol:
                closure.append(("graph-closure", xs[k], ys[c], G[k][c]))

    def least(values):
        m = values[0]
        for v in values[1:]:
            if v < m:
                m = v
        return m

    no_contact = [("primal", xs[r], least(G[r])) for r in rows
                  if not least(G[r]) <= tol]
    no_contact += [("dual", ys[c], least([G[r][c] for r in rows])) for c in cols
                   if not least([G[r][c] for r in rows]) <= tol]
    return (not lower, not convex, not closure, lower + convex + closure, no_contact)


def oracle_contacts(B, xs, ys, tol):
    """The pairs (x, y), rows first, whose gap B - <x, y> is at most tol."""
    xs, ys = _lists(xs), _lists(ys)
    B = np.asarray(B)
    return [(x, y) for r, x in enumerate(xs) for c, y in enumerate(ys)
            if float(B[r, c]) - _pairing(x, y) <= tol]


# ---------------------------------------------------------------------------
# law layer: the full-sweep kernels and the per-node cycle extraction, as
# they stood before the sweeps learned to stop, and the checked sweeps that
# stop at a closed cycle, one sweep at a time


def _oracle_sweep(w, dist, pred):
    """One column sweep: (dist, pred, improvement) after it."""
    cand = dist[:, None] + w
    best = cand.min(axis=0)
    arg = cand.argmin(axis=0)
    improved = best < dist
    return (np.where(improved, best, dist), np.where(improved, arg, pred),
            np.where(improved, dist - best, 0.0))


def oracle_bellman_ford(w):
    """n-1 shortest-walk sweeps from a virtual zero source plus one check
    sweep, every sweep run. Returns (pred, improvement)."""
    n = w.shape[0]
    dist = np.zeros(n)
    pred = np.full(n, -1, dtype=np.int64)
    for _ in range(n):
        dist, pred, improvement = _oracle_sweep(w, dist, pred)
    return pred, improvement


def oracle_pred_cycles(pred):
    """Distinct cycles of ``pred`` (pred[v] = u is the edge u -> v) by one
    walk per node: n steps back from every node end on a cycle unless they
    meet a -1. Each cycle is in edge order from its smallest node, and the
    cycles come in order of that node."""
    m = len(pred)
    found = {_oracle_cycle_from_pred(pred, j, m) for j in range(m)}
    return sorted(found - {None})


def oracle_checked_bellman_ford(w, tol=0.0, every_sweep=False):
    """The column sweeps one at a time, checking the predecessors after
    sweeps 1, 2, 4, 8, ... (after every sweep with ``every_sweep``). The run
    ends at the first sweep that improves no node, at the first check that
    finds a cycle of ``pred`` weighing below -tol, or after sweep n.
    Returns (pred, improvement, last sweep, whether a check stopped it)."""
    n = w.shape[0]
    dist = np.zeros(n)
    pred = np.full(n, -1, dtype=np.int64)
    for sweep in range(1, n + 1):
        dist, pred, improvement = _oracle_sweep(w, dist, pred)
        if not (improvement > 0.0).any():
            break
        checked = every_sweep or math.log2(sweep).is_integer()
        if sweep < n and checked and any(oracle_cycle_sum(w, c) < -tol
                                         for c in oracle_pred_cycles(pred)):
            return pred, improvement, sweep, True
    return pred, improvement, sweep, False


def oracle_longest_path(w, base):
    """Maximal chain sums from ``base`` after all n-1 max-plus sweeps."""
    n = w.shape[0]
    c = np.full(n, -np.inf)
    c[base] = 0.0
    for _ in range(n - 1):
        with np.errstate(invalid="ignore"):
            cand = (c[:, None] + w).max(axis=0)
        c = np.maximum(c, cand)
    return c


def _oracle_canonical_cycle(cycle):
    k = int(np.argmin(cycle))
    return tuple(cycle[k:] + cycle[:k])


def _oracle_cycle_from_pred(pred, start, m):
    u = int(start)
    for _ in range(m):
        if pred[u] < 0:
            return None
        u = int(pred[u])
    seq = [u]
    v = int(pred[u])
    steps = 0
    while v != u:
        if v < 0 or steps > m:
            return None
        seq.append(v)
        v = int(pred[v])
        steps += 1
    return _oracle_canonical_cycle(list(reversed(seq)))


def oracle_cycle_witness(w, tol):
    """(cyclically monotone, witness cycle, cycle sum) of the weights w: the
    checked sweeps on -w, then every cycle of their last predecessors unless
    they reached a fixed point; the first cycle with the largest sum above
    tol, in order of smallest node, is the witness."""
    m = w.shape[0]
    if m < 2:
        return True, None, 0.0
    pred, improvement, _, _ = oracle_checked_bellman_ford(-w, tol)
    best_cycle, best_sum = None, 0.0
    if (improvement > 0.0).any():
        for cyc in oracle_pred_cycles(pred):
            s = oracle_cycle_sum(w, cyc)
            if s > best_sum:
                best_cycle, best_sum = cyc, s
    if best_cycle is not None and best_sum > tol:
        return False, best_cycle, best_sum
    return True, None, 0.0


def oracle_full_sweep_verdict(w, tol):
    """Cyclic monotonicity as the full sweeps decide it: one predecessor walk
    from each node that still improves in the check sweep, and monotone
    unless one of those cycles sums above tol."""
    m = w.shape[0]
    if m < 2:
        return True
    pred, improvement = oracle_bellman_ford(-w)
    cycles = {_oracle_cycle_from_pred(pred, j, m) for j in np.nonzero(improvement > 0.0)[0]}
    return not any(oracle_cycle_sum(w, cyc) > tol for cyc in cycles - {None})


def oracle_bb_check(law, tol):
    """(is BB-graph, which, at, witness midpoint) from plain loops: slices
    gathered by coordinate equality in first-appearance order, each unhinted
    one tested pair by pair (i < j) for a midpoint within tol of a member."""
    sides = (("primal", law.xs.tolist(), law.ys.tolist(), law.primal_hints),
             ("dual", law.ys.tolist(), law.xs.tolist(), law.dual_hints))
    for which, coords, others, hints in sides:
        slices = []
        for c, o in zip(coords, others):
            for at, members in slices:
                if at == c:
                    members.append(o)
                    break
            else:
                slices.append((c, [o]))
        for at, members in slices:
            if tuple(at) in hints:
                continue
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    mid = [0.5 * (a + b) for a, b in zip(members[i], members[j])]
                    if min(_distance(mid, mem) for mem in members) > tol:
                        return False, which, at, mid
    return True, None, None, None


# ---------------------------------------------------------------------------
# canonical JSON


def reference_to_jsonable(obj):
    """Element-by-element conversion: every array entry and container item
    goes through the full chain of type tests. A record's hidden fields are
    left out."""
    from bipotkit.numerics import Record

    if isinstance(obj, Record):
        return {name: reference_to_jsonable(getattr(obj, name)) for name in obj._fields
                if name not in obj._hidden}
    if isinstance(obj, np.ndarray):
        return [reference_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [reference_to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): reference_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if v == math.inf:
            return "inf"
        if v == -math.inf:
            return "-inf"
        if v != v:
            return "nan"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


def oracle_dumps(obj):
    """The canonical text of a report, as the standard library's encoder
    prints the reference conversion."""
    return json.dumps(reference_to_jsonable(obj), indent=2, sort_keys=True)
