"""Hot numeric kernels: dense pairings, discrete Legendre transforms,
and Bellman-Ford and max-plus sweeps.

Each kernel has one numpy implementation and accumulates every scalar in a
fixed order, so routes that promise bit-identical results (the merge and
brute-force conjugates, for one) can rely on it. ``BACKEND`` names that
implementation for benchmark records.

The sweeps are synchronous: each one reads only the previous sweep's
distances. Both therefore stop at the first sweep that changes nothing,
since every later sweep would repeat it, and return exactly what the full
n - 1 sweeps return. Bellman-Ford also stops on data with a negative cycle:
after sweeps 1, 2, 4, 8, ... it checks whether its predecessors close a
cycle that weighs below -tol, and returns at the first check that finds one.
That is at most ceil(log2 n) checks on data that converges, and a stop at
most twice as late as the first sweep that closes such a cycle; data that
neither converges nor shows such a cycle at a check runs all n - 1 sweeps
and the check sweep.

Both sweeps reduce along the contiguous axis of a C-ordered array.
Bellman-Ford reads the weights transposed, so that row j lists the edges
into node j (a view of Fortran-ordered weights, one copy of any other), and
takes each sweep's minimum along rows. The sums are the
same floats as dist[i] + w[i, j], since IEEE addition is commutative, and
``argmin`` keeps the first minimal index and stops at the first NaN either
way. The max-plus sweep keeps ``max(axis=0)``, which numpy already
computes as a pairwise reduction over contiguous rows.
"""

from __future__ import annotations

import numpy as np

from .numerics import _batch_inner

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# pairing matrix


def pairing_matrix(xs, ys):
    """Matrix of pairings P[i, j] = <xs[i], ys[j]> for stacked vectors,
    accumulated in the coordinate order of :func:`numerics.inner`."""
    return _batch_inner(xs[:, None], ys[None])


# ---------------------------------------------------------------------------
# discrete Legendre transform, O(Gx * Gy) brute force

def conjugate_bruteforce(pairings, values):
    """Per-column sup of pairings[i, j] - values[i].

    ``values`` may contain +inf (excluded points); a column where every term
    is -inf means an empty effective domain and comes back as -inf for the
    caller to reject.
    """
    with np.errstate(invalid="ignore"):
        terms = pairings - values[:, None]
    return np.max(terms, axis=0)


# ---------------------------------------------------------------------------
# discrete Legendre transform, 1-d monotone merge (linear time)
#
# Valid because the sup only sees the lower convex hull of (x_i, v_i):
# along the hull the argmax index is nondecreasing in y, so one pointer
# sweep over ascending y suffices.


def _lower_hull_indices_py(x, v):
    hull = []
    for i in range(x.size):
        while len(hull) >= 2:
            a = hull[-2]
            b = hull[-1]
            if (v[b] - v[a]) * (x[i] - x[a]) - (v[i] - v[a]) * (x[b] - x[a]) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull, dtype=np.int64)


def conjugate_merge(x, v, y):
    """Linear-time conjugate of finite samples (x, v), x strictly increasing,
    evaluated on ascending y. Bit-identical to the brute force on the same
    inputs as long as the samples are not degenerate at rounding scale."""
    hull = _lower_hull_indices_py(x, v)
    hx = x[hull]
    hv = v[hull]
    out = np.empty(y.size)
    j = 0
    for t in range(y.size):
        yt = y[t]
        while j + 1 < hx.size and hx[j + 1] * yt - hv[j + 1] >= hx[j] * yt - hv[j]:
            j += 1
        out[t] = hx[j] * yt - hv[j]
    return out


# ---------------------------------------------------------------------------
# Bellman-Ford sweeps (synchronous updates: every node relaxes against the
# previous sweep's distances)


def cycle_sum(w, cycle):
    """Weight of a directed cycle, accumulated in traversal order."""
    s = 0.0
    for t in range(len(cycle)):
        s += w[cycle[t], cycle[(t + 1) % len(cycle)]]
    return s


def pred_cycles(pred):
    """The distinct cycles of a predecessor array (pred[v] = u is the edge
    u -> v, -1 none), each in edge order and led by its smallest node, in
    order of that node.

    The nodes on cycles come from pointer doubling: ceil(log2 n) gathers of
    the array into itself, with a sink appended at index n (which -1 also
    indexes), move every node 2^k >= n steps back, which ends on a cycle or
    in the sink, and the cycle nodes are what the nodes land on. Only those
    are walked, one cycle each.
    """
    n = pred.size
    jump = np.empty(n + 1, dtype=np.int64)
    jump[:n] = pred
    jump[n] = n
    for _ in range((n - 1).bit_length()):
        jump = jump[jump]
    if jump.min() == n:  # every walk ended in the sink
        return []
    on = np.zeros(n + 1, dtype=bool)
    on[jump] = True
    back = pred.tolist()
    cycles, seen = [], set()
    for u in np.flatnonzero(on[:n]).tolist():
        if u not in seen:
            seq = [u]  # u, pred[u], pred[pred[u]], ...: the edges reversed
            while back[seq[-1]] != u:
                seq.append(back[seq[-1]])
            seen.update(seq)
            cycles.append((u, *seq[:0:-1]))
    return cycles


def bellman_ford(w, tol=0.0):
    """Shortest-walk sweeps from a virtual zero source: n - 1 sweeps plus
    one check sweep at most. Returns (pred, improvement) of the sweep that
    ends the run: improvement[j] > 0 means node j still relaxes, i.e. a
    negative cycle feeds it.

    The sweeps read ``w.T`` in C order, which is a view when ``w`` is
    Fortran-ordered and one copy otherwise, and every sweep writes its
    candidates into the same n x n buffer, so a run holds at most the
    weights, that transpose and one candidate plane.

    The run ends at the first sweep in which no node strictly improves
    (a fixed point, which stands for the check sweep), at the first check
    after sweeps 1, 2, 4, 8, ... in which ``pred`` closes a cycle whose
    :func:`cycle_sum` lies below -tol, or after sweep n. Each distinct
    cycle is summed once per run.
    """
    n = w.shape[0]
    wt = np.ascontiguousarray(w.T)  # row j: the weights of the edges into j
    dist = np.zeros(n)
    pred = np.full(n, -1, dtype=np.int64)
    cand = np.empty((n, n))
    rows = np.arange(n)
    sums = {}
    for sweep in range(1, n + 1):
        np.add(wt, dist, out=cand)
        arg = cand.argmin(axis=1)
        best = cand[rows, arg]
        improved = best < dist
        pred = np.where(improved, arg, pred)
        if sweep == n or not improved.any() or (
                sweep & (sweep - 1) == 0 and _closes_cycle(w, pred, tol, sums)):
            return pred, np.where(improved, dist - best, 0.0)
        dist = np.where(improved, best, dist)


def _closes_cycle(w, pred, tol, sums):
    """Whether a cycle of ``pred`` weighs below -tol; ``sums`` keeps the
    weight of every cycle seen in the run."""
    for cycle in pred_cycles(pred):
        if cycle not in sums:
            sums[cycle] = cycle_sum(w, cycle)
        if sums[cycle] < -tol:
            return True
    return False


def longest_path(w, base):
    """Maximal chain sums from ``base`` under weights w, via at most n - 1
    max-plus sweeps, stopping at the first that leaves the sums unchanged.

    Requires no positive cycle; on a complete digraph every node is reached.
    """
    n = w.shape[0]
    c = np.full(n, -np.inf)
    c[base] = 0.0
    for _ in range(n - 1):
        with np.errstate(invalid="ignore"):
            cand = (c[:, None] + w).max(axis=0)
        grown = np.maximum(c, cand)
        # a NaN never compares equal, so sums that went NaN keep sweeping
        if np.array_equal(grown, c):
            break
        c = grown
    return c
