"""Slow, independent reference implementations used only by the tests.

Everything here trades speed for obviousness: exhaustive enumeration and
plain python loops, no shared code with the package internals beyond numpy.
"""

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
    side, then the candidate (``p1_candidate`` in the first slot, the
    subgradient gaps and ``candidate_dual`` in the second), the member
    parameters, the family's exact minimizers and finiteness boundaries, and
    finally the whole parameter grid, one scalar ``f`` per parameter.
    """
    from bipotkit import (
        INF,
        BICCounterexample,
        BICReport,
        CandidateNotFoundError,
        PreconditionError,
        default_probe_plan,
        inner,
        p1_candidate,
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
        try:
            if first:
                return p1_candidate(cover, lam1, lam2, alpha, z1, z2, fixed, tol=tol)
            for lam, z in ((lam1, z1), (lam2, z2)):
                if fam.f(lam, fixed, z) - inner(fixed, z) > tol:
                    return None
            return fam.candidate_dual(lam1, lam2, alpha, fixed)
        except (PreconditionError, CandidateNotFoundError):
            return None

    def deficit(lam1, z1, lam2, z2, alpha, fixed, first):
        beta = 1.0 - alpha
        if first:
            rhs = mix_values(alpha, fam.f(lam1, z1, fixed), beta, fam.f(lam2, z2, fixed))
        else:
            rhs = mix_values(alpha, fam.f(lam1, fixed, z1), beta, fam.f(lam2, fixed, z2))
        if rhs == INF:
            return None
        mix = alpha * z1 + beta * z2
        point = (mix, fixed) if first else (fixed, mix)
        lams = []
        cand = candidate(lam1, z1, lam2, z2, alpha, fixed, first)
        if cand is not None:
            lams.append(cand)
        lams.extend((lam1, lam2))
        lams.extend(fam.exact_minimizer_lams(*point))
        lams.extend(fam.finite_boundary_lams(*point))
        best = INF
        for lam in lams:
            if not cover.domain.contains(lam):
                continue
            lhs = fam.f(lam, *point)
            if lhs <= rhs + tol:
                return None
            best = min(best, lhs - rhs)
        vals = np.array([fam.f(lam, *point) for lam in cover.domain.sample_grid])
        if bool(np.any(vals <= rhs + tol)):
            return None
        return min(best, float(np.min(vals) - rhs))

    counterexamples = []
    checked = 0
    for lam1, lam2 in plan.lam_pairs:
        for alpha in plan.alphas:
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
