"""Independent re-checks of bipotkit outputs.

Nothing here imports bipotkit: every value the harness compares against is
recomputed from the job's inputs with plain loops or numpy. Where the
library promises bit-identical results (closed-form tables, exact dyadic
laws), the recomputation follows the library's documented operation order
(pairings accumulated coordinate by coordinate from 0.0) so the comparison
can be exact. Each function returns a list of problems; empty means the
output passed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

INF = math.inf


# ---------------------------------------------------------------------------
# scalar arithmetic in the library's documented order


def pair(x, y):
    s = 0.0
    for k in range(len(x)):
        s += x[k] * y[k]
    return s


def norm(x):
    return math.sqrt(pair(x, x))


def fmt(v):
    """The CSV number format: 12 significant digits, -0 printed as 0."""
    v = float(v)
    if v == 0.0:
        v = 0.0
    return f"{v:.12g}"


def embed(s, dim, dual):
    v = np.zeros(dim)
    v[min(1, dim - 1) if dual else 0] = float(s)
    return v


def probe_stacks(lo, hi, count, dim):
    g = np.linspace(lo, hi, count)
    return (np.array([embed(s, dim, False) for s in g]),
            np.array([embed(t, dim, True) for t in g]))


def pairing_matrix(xs, ys):
    out = np.zeros((xs.shape[0], ys.shape[0]))
    for k in range(xs.shape[1]):
        out += xs[:, k, None] * ys[None, :, k]
    return out


def sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def parse_ext(v):
    return INF if v == "inf" else float(v)


# ---------------------------------------------------------------------------
# member functions of the generated covers


def member_value(member, x, y):
    """phi_lam(x) + phi*_lam(y) for a tabulated member (kind, lam, slope):
    scaled quadratics, scaled norms with their ball indicators, and affine
    functions with their point indicators."""
    kind, lam, slope = member
    if kind == "quadratic":
        return (0.5 * lam) * pair(x, x) + (0.5 * (1.0 / lam)) * pair(y, y)
    if kind == "norm":
        return lam * norm(x) + (0.0 if norm(y) <= lam else INF)
    if kind == "affine":
        hit = all(a == b for a, b in zip(y, slope))
        return (pair(slope, x) + 0.0) + (0.0 if hit else INF)
    raise ValueError(kind)


def tabulated_value(members, x, y):
    return min(member_value(m, x, y) for m in members)


def cauchy_value(x, y):
    return norm(x) * norm(y)


def table(fn, xs, ys):
    return np.array([[fn(x, y) for y in ys] for x in xs])


# ---------------------------------------------------------------------------
# CSV tables


def csv_text(dim, xs, ys, B):
    """The exact CSV a build over these probes must print."""
    if dim == 1:
        head = "x,y,b,pairing"
    else:
        head = ",".join([f"x{k + 1}" for k in range(dim)]
                        + [f"y{k + 1}" for k in range(dim)] + ["b", "pairing"])
    lines = [head]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            coords = [fmt(c) for c in x] + [fmt(c) for c in y]
            lines.append(",".join(coords + [fmt(B[i, j]), fmt(pair(x, y))]))
    return "\n".join(lines) + "\n"


def parse_csv(text, dim):
    lines = text.strip().split("\n")
    rows = [[parse_ext(c) for c in line.split(",")] for line in lines[1:]]
    arr = np.array(rows)
    return arr[:, :dim], arr[:, dim:2 * dim], arr[:, 2 * dim]


def check_exact_csv(text, expected):
    if text == expected:
        return []
    got, want = text.split("\n"), expected.split("\n")
    for k, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return [f"csv line {k} is {a!r}, expected {b!r}"]
    return [f"csv has {len(got)} lines, expected {len(want)}"]


def check_bounded_csv(text, dim, xs, ys, grid_lo, grid_hi, points):
    """Grid-mode Cauchy table over a log grid [grid_lo, grid_hi] that also
    holds the 0 and inf members. Where the minimizer ||y||/||x|| lies inside
    the grid, exact <= b <= exact * (1 + cosh(h/2) - 1); outside it the sweep
    clamps, and b only lies between the exact value and the better grid end."""
    _, _, b = parse_csv(text, dim)
    nx = np.array([norm(x) for x in xs])[:, None]
    ny = np.array([norm(y) for y in ys])[None, :]
    exact = (nx * ny).reshape(-1)
    if b.size != exact.size:
        return [f"csv has {b.size} rows, expected {exact.size}"]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (ny / nx).reshape(-1)
    inside = (exact == 0.0) | ((ratio >= grid_lo) & (ratio <= grid_hi))
    ends = np.minimum(0.5 * grid_lo * nx ** 2 + 0.5 * ny ** 2 / grid_lo,
                      0.5 * grid_hi * nx ** 2 + 0.5 * ny ** 2 / grid_hi).reshape(-1)
    upper = np.where(inside, exact * (1.0 + log_grid_bound(grid_lo, grid_hi, points)), ends)
    # the CSV prints 12 significant digits
    slack = 1e-11 * np.maximum(1.0, exact)
    probs = []
    low = b < exact - slack
    if low.any():
        k = int(np.nonzero(low)[0][0])
        probs.append(f"grid value {b[k]} below the exact infimum {exact[k]}")
    high = b > upper + slack
    if high.any():
        k = int(np.nonzero(high)[0][0])
        probs.append(f"grid value {b[k]} above its bound {upper[k]} (exact {exact[k]})")
    return probs


def log_grid_bound(grid_lo, grid_hi, points):
    h = math.log(grid_hi / grid_lo) / (points - 1)
    return math.cosh(h / 2.0) - 1.0


# ---------------------------------------------------------------------------
# axiom screen on a product grid


def midpoint_triples(g):
    index = {}
    for k in range(g.shape[0]):
        index.setdefault(tuple(np.round(g[k], 9)), k)
    out = []
    for i in range(g.shape[0]):
        for j in range(i + 1, g.shape[0]):
            k = index.get(tuple(np.round(0.5 * (g[i] + g[j]), 9)))
            if k is not None and k != i and k != j:
                out.append((i, j, k))
    return out


def axiom_counts(B, P, xg, yg, tol):
    """Per-axiom violation counts of the sampled axiom screen."""
    G = B - P
    counts = {"lower-bound": int(np.count_nonzero(G < -tol)),
              "convexity-x": 0, "convexity-y": 0, "graph-closure": 0}
    xt, yt = midpoint_triples(xg), midpoint_triples(yg)
    for i, j, k in xt:
        counts["convexity-x"] += int(np.count_nonzero(B[k, :] > 0.5 * (B[i, :] + B[j, :]) + tol))
    for i, j, k in yt:
        counts["convexity-y"] += int(np.count_nonzero(B[:, k] > 0.5 * (B[:, i] + B[:, j]) + tol))
    contact = G <= tol
    for i, j, k in yt:
        counts["graph-closure"] += int(np.count_nonzero(
            contact[:, i] & contact[:, j] & ~(G[:, k] <= 2.0 * tol)))
    for i, j, k in xt:
        counts["graph-closure"] += int(np.count_nonzero(
            contact[i, :] & contact[j, :] & ~(G[k, :] <= 2.0 * tol)))
    return counts


def check_axiom_report(report, B, P, xg, yg, tol):
    """An AxiomReport (as JSON data) against the harness's own screen."""
    want = axiom_counts(B, P, xg, yg, tol)
    got = {k: 0 for k in want}
    for c in report["counterexamples"]:
        got[c["axiom"]] = got.get(c["axiom"], 0) + 1
    probs = []
    if got != want:
        probs.append(f"axiom counterexamples {got}, expected {want}")
    flags = {"lower_bound_ok": want["lower-bound"] == 0,
             "separate_convexity_ok": want["convexity-x"] + want["convexity-y"] == 0,
             "graph_equivalence_ok": want["graph-closure"] == 0}
    for key, val in flags.items():
        if report[key] != val:
            probs.append(f"{key} is {report[key]}, expected {val}")
    return probs + recheck_axiom_witnesses(report["counterexamples"], B, P, xg, yg)


def recheck_axiom_witnesses(counterexamples, B, P, xg, yg):
    """Each reported violation must be reproduced at its probe by some
    on-grid midpoint triple (or pointwise, for the lower bound)."""
    xidx = {tuple(v): i for i, v in enumerate(np.asarray(xg).tolist())}
    yidx = {tuple(v): j for j, v in enumerate(np.asarray(yg).tolist())}
    xt, yt = {}, {}
    for i, j, k in midpoint_triples(xg):
        xt.setdefault(k, []).append((i, j))
    for i, j, k in midpoint_triples(yg):
        yt.setdefault(k, []).append((i, j))
    G = B - P
    probs = []
    for c in counterexamples:
        r = xidx.get(tuple(parse_ext(v) for v in c["x"]))
        s = yidx.get(tuple(parse_ext(v) for v in c["y"]))
        v = parse_ext(c["violation"])
        if r is None or s is None:
            probs.append(f"{c['axiom']} witness is off the probe grids")
            continue
        if c["axiom"] == "lower-bound":
            cands = [-G[r, s]]
        elif c["axiom"] == "convexity-x":
            cands = [B[r, s] - 0.5 * (B[i, s] + B[j, s]) for i, j in xt.get(r, ())]
        elif c["axiom"] == "convexity-y":
            cands = [B[r, s] - 0.5 * (B[r, i] + B[r, j]) for i, j in yt.get(s, ())]
        else:
            cands = [G[r, s]]
        if not any(abs(w - v) <= 1e-9 * max(1.0, abs(w)) for w in cands):
            probs.append(f"{c['axiom']} violation {v} not reproduced at its probe")
        if len(probs) > 3:
            break
    return probs


def contact_count(B, P, tol):
    return int(np.count_nonzero(B - P <= tol))


# ---------------------------------------------------------------------------
# BIC deficits


def recheck_bic_deficits(counterexamples, members, tol):
    """Each deficit equals min over the members of f(lam, mixed point) minus
    the mixed right side, and exceeds tol. A finite parameter set is swept
    whole, so the minimum runs over every member."""
    by_lam = {m[1]: m for m in members}
    probs = []
    for c in counterexamples:
        lam1, lam2 = parse_ext(c["lam1"]), parse_ext(c["lam2"])
        alpha = float(c["alpha"])
        beta = 1.0 - alpha
        z1 = [float(v) for v in c["z1"]]
        z2 = [float(v) for v in c["z2"]]
        fixed = [float(v) for v in c["fixed"]]
        first = c["argument"] == "first"
        mix = [alpha * a + beta * b for a, b in zip(z1, z2)]

        def val(m, z):
            return member_value(m, z, fixed) if first else member_value(m, fixed, z)

        t1 = 0.0 if alpha == 0.0 else alpha * val(by_lam[lam1], z1)
        t2 = 0.0 if beta == 0.0 else beta * val(by_lam[lam2], z2)
        rhs = t1 + t2
        want = min(val(m, mix) for m in members) - rhs
        got = parse_ext(c["deficit"])
        close = got == want or abs(got - want) <= 1e-9 * max(1.0, abs(want))
        if not (want > tol and close):
            probs.append(f"BIC deficit {got} at {c['argument']} tuple "
                         f"({lam1}, {lam2}, {alpha}) recomputes to {want}")
            if len(probs) > 3:
                break
    return probs


# ---------------------------------------------------------------------------
# law witnesses


def recheck_cycle(xs, ys, cycle, reported, tol):
    """Recompute a witness cycle's sum from the weights <x_j - x_i, y_i>."""
    if not cycle:
        return ["negative cycle verdict without a witness cycle"]
    s = 0.0
    m = len(cycle)
    for t in range(m):
        i, j = cycle[t], cycle[(t + 1) % m]
        s += pair([a - b for a, b in zip(xs[j], xs[i])], ys[i])
    probs = []
    if not s > tol:
        probs.append(f"witness cycle {cycle} sums to {s}, not above tol")
    if abs(s - float(reported)) > 1e-9 * max(1.0, abs(s)):
        probs.append(f"witness cycle sum reported {reported}, recomputed {s}")
    return probs


def recheck_bb_witness(xs, ys, failing, tol):
    """The witness midpoint lies between two members of its slice and farther
    than tol from every member."""
    which = failing["which"]
    at = tuple(float(v) for v in failing["at"])
    mid = np.array([float(v) for v in failing["witness_midpoint"]])
    if which == "primal":
        members = [np.array(y) for x, y in zip(xs, ys) if tuple(x) == at]
    else:
        members = [np.array(x) for x, y in zip(xs, ys) if tuple(y) == at]
    if len(members) < 2:
        return [f"{which} slice at {at} has {len(members)} members; no midpoint"]
    probs = []
    if min(norm(mid - m) for m in members) <= tol:
        probs.append(f"witness midpoint {mid.tolist()} lies on its slice")
    if not any(np.array_equal(0.5 * (members[i] + members[j]), mid)
               for i in range(len(members)) for j in range(i + 1, len(members))):
        probs.append(f"witness {mid.tolist()} is no midpoint of slice members")
    return probs


def check_max_affine(xs, ys, pieces, base, tol):
    """Subgradient inequalities of phi(x) = max_k <s_k, x> + o_k at the
    samples: phi(x_j) >= phi(x_i) + <y_i, x_j - x_i> for all i, j, and
    phi(x_base) = 0."""
    S = np.array([p["slope"] for p in pieces], dtype=float)
    o = np.array([p["offset"] for p in pieces], dtype=float)
    X = np.asarray(xs, dtype=float)
    Y = np.asarray(ys, dtype=float)
    phi = (X @ S.T + o).max(axis=1)
    scale = 1.0 + np.abs(phi).max() + np.abs(X).max() * np.abs(Y).max()
    gap = phi[None, :] - phi[:, None] - ((X[None, :, :] - X[:, None, :]) * Y[:, None, :]).sum(axis=2)
    probs = []
    if gap.min() < -tol * scale:
        i, j = np.unravel_index(int(np.argmin(gap)), gap.shape)
        probs.append(f"subgradient inequality fails from sample {i} to {j} by {-gap[i, j]}")
    if abs(phi[base]) > tol * scale:
        probs.append(f"reconstruction is {phi[base]} at the base sample, not 0")
    if S.shape[0] != X.shape[0]:
        probs.append(f"{S.shape[0]} pieces for {X.shape[0]} samples")
    return probs


def check_conjugate(primal, phi_vals, dual, got, tol):
    """Discrete conjugate sup_i <x_i, y> - phi(x_i) by brute force."""
    want = (np.asarray(dual) @ np.asarray(primal).T - phi_vals[None, :]).max(axis=1)
    err = np.abs(np.asarray(got) - want)
    if err.max() > tol * (1.0 + np.abs(want).max()):
        k = int(np.argmax(err))
        return [f"conjugate at dual point {k} is {got[k]}, brute force gives {want[k]}"]
    return []
