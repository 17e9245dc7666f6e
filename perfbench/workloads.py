"""Seeded inputs and the fixed job list of each workload.

A job is one user-level call into bipotkit: ``bipotkit.cli.main([...])``
with standard output captured, or a public library function. ``run`` is the
timed call and returns the raw output; ``check`` re-checks that output with
the harness's own code (``checks.py``) and returns a list of problems.

Job counts and sizes are fixed per workload; the seed draws only values
(dimensions by permutation, parameter ranges, slopes, kinks, members), so
every seed asks for the same amount of work. Sizes are listed in
``SIZES``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

import numpy as np

import checks

DEMOS = ("cauchy-quadratic", "cauchy-norm", "plasticity", "separable")
ARTIFACTS = ("law.json", "cover.json", "build.csv", "reports.json")
PROBE_LAMS = (0.5, 1.0, 2.0, 4.0)
TOL = 1e-9
GRID_TOL = 1e-3

SIZES = {
    "certify": {"jobs": 10, "demos": 4, "verify_cover_jobs": 6,
                "bic_tuples": 2 * 40320 + 2 * 2520 + 6 * 10080},
    "table": {"jobs": 5, "probe_grid": {"analytic": "61x61", "grid": "41x41"},
              "lambda_points": "512-768"},
    "law": {"jobs": 9, "pairs": {"check_reconstruct": [149, 200, 120],
                                 "verify_law": [29, 30, 30]},
            "conjugate_points": {"1d": "201 primal x 201 dual", "2d": "169 x 169"}},
    "refute": {"jobs": 8, "bic_tuples": 22680 + 22680 + 10080,
               "pairs": {"non_bb": "148-149", "non_monotone": [149, 200]}},
}


class Job:
    def __init__(self, name, run, check, out_dir=None):
        self.name = name
        self.run = run
        self.check = check
        self.out_dir = out_dir

    def bytes_written(self, output):
        """Bytes the job printed, plus the artifacts of a demo."""
        n = len(output[1].encode())
        if self.out_dir is not None:
            n += sum(os.path.getsize(os.path.join(self.out_dir, a)) for a in ARTIFACTS)
        return n


def invoke(argv):
    """``bipotkit.cli.main(argv)`` with standard output and error captured;
    returns (exit code, stdout text)."""
    import bipotkit.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bipotkit.cli.main(argv)
    return code, out.getvalue()


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def expect_code(code, want):
    return [] if code == want else [f"exit code {code}, expected {want}"]


def grid_spec(lo, hi, count):
    return f"{lo!r}:{hi!r}:{count}"


# ---------------------------------------------------------------------------
# certify: the four demos plus seeded interval covers


def demo_job(name, out_dir, pins):
    def run():
        return invoke(["demo", name, "--out-dir", out_dir])

    def check(output):
        code, text = output
        probs = expect_code(code, 0)
        digests = demo_digests(text, out_dir)
        for key, want in pins[name].items():
            if digests.get(key) != want:
                probs.append(f"{key} digest {digests.get(key)} differs from the pinned {want}")
        probs += demo_values(name, out_dir)
        return probs

    return Job(f"demo:{name}", run, check, out_dir)


def demo_digests(transcript, out_dir):
    """sha256 of the transcript (with the output directory replaced by a
    placeholder, so the pin holds wherever the benchmark runs) and of each
    artifact."""
    out = {"transcript": checks.sha256(transcript.replace(out_dir, "<out-dir>"))}
    for name in ARTIFACTS:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = checks.sha256(fh.read())
    return out


def demo_values(name, out_dir):
    """Closed-form comparison of the demo's build.csv."""
    with open(os.path.join(out_dir, "build.csv")) as fh:
        text = fh.read()
    if name in ("cauchy-quadratic", "cauchy-norm"):
        xs, ys = checks.probe_stacks(-2.0, 2.0, 41, 2)
        return checks.check_bounded_csv(text, 2, xs, ys, 1e-4, 1e4, 512)
    if name == "separable":
        g = np.linspace(-2.0, 2.0, 21)[:, None]
        B = checks.table(lambda x, y: 0.5 * checks.pair(x, x) + 0.5 * checks.pair(y, y), g, g)
        return checks.check_exact_csv(text, checks.csv_text(1, g, g, B))
    return []


def interval_cover(rng, family, dim, k):
    """An interval cover holding the BIC probe parameters k and k + 1 and no
    other, so its screen runs 4 parameter pairs (10,080 tuples)."""
    a, b = PROBE_LAMS[k], PROBE_LAMS[k + 1]
    prev = PROBE_LAMS[k - 1] if k else 0.0
    lo = a - (a - prev) * 0.99 * rng.random()
    include_inf = False
    if k == 2 and rng.random() < 0.5:
        hi = math.inf
        include_inf = rng.random() < 0.5
    else:
        nxt = PROBE_LAMS[k + 2] if k < 2 else 16.0
        hi = b + (nxt - b) * 0.99 * rng.random()
    cover = {"family": family, "dimension": dim,
             "lambda_domain": {"lo": lo, "hi": "inf" if hi == math.inf else hi,
                               "includes_infinity": include_inf, "grid_points": 512}}
    lam_grid = grid_spec(10 ** rng.uniform(-4, -2), 10 ** rng.uniform(2, 4),
                         rng.randrange(384, 641))
    return cover, lam_grid


def verify_cover_job(path, lam_grid, tuples):
    def run():
        return invoke(["verify", "--cover", path, "--lambda-grid", lam_grid])

    def check(output):
        code, text = output
        probs = expect_code(code, 0)
        rep = json.loads(text)
        bic, ax = rep["bic"], rep["axioms"]
        if not bic["is_bic"] or bic["counterexamples"]:
            probs.append("accepting cover reported as not BIC")
        if bic["tuples_checked"] != tuples:
            probs.append(f"{bic['tuples_checked']} BIC tuples, expected {tuples}")
        if ax["counterexamples"] or not (ax["lower_bound_ok"] and ax["separate_convexity_ok"]
                                         and ax["graph_equivalence_ok"]):
            probs.append("accepting cover failed the axiom screen")
        return probs

    return Job(f"verify-cover:{os.path.basename(path)}", run, check)


def certify(seed, workdir, pins):
    rng = random.Random(f"certify:{seed}")
    jobs = [demo_job(name, os.path.join(workdir, f"demo-{name}"), pins) for name in DEMOS]
    for family in ("quadratic", "norm"):
        # one cover per pair of neighbouring probe parameters, whose screens
        # differ in cost; the seed assigns the dimensions and draws the rest
        for k, dim in enumerate(rng.sample((1, 2, 3), 3)):
            cover, lam_grid = interval_cover(rng, family, dim, k)
            path = os.path.join(workdir, f"{family}-{dim}.json")
            write_json(path, cover)
            jobs.append(verify_cover_job(path, lam_grid, 10080))
    return jobs


# ---------------------------------------------------------------------------
# table: builds and direct table consumers, no BIC


def axiom_data(report):
    return {"lower_bound_ok": report.lower_bound_ok,
            "separate_convexity_ok": report.separate_convexity_ok,
            "graph_equivalence_ok": report.graph_equivalence_ok,
            "counterexamples": [{"axiom": c.axiom, "x": c.x.tolist(), "y": c.y.tolist(),
                                 "violation": c.violation}
                                for c in report.counterexamples]}


def table_job(path, dim, mode, span, count, value, points=None):
    """``value(x, y)`` is the exact infimum the CSV must print bit for bit;
    None means a quadratic sweep over the default grid of ``points`` values,
    checked against its error bound instead."""
    import bipotkit

    spec = grid_spec(-span, span, count)
    xs, ys = checks.probe_stacks(-span, span, count, dim)
    tol = GRID_TOL if mode == "grid" else TOL

    def run():
        code, text = invoke(["build", path, "--mode", mode, "--probe-grid", spec])
        b = bipotkit.build_inf(bipotkit.load_cover(path), mode=mode)
        report = bipotkit.verify_axioms(b, xs, ys, tol=tol)
        graph = bipotkit.graph_of_bipotential(b, xs, ys, tol=tol)
        return code, text, report, len(graph)

    def check(output):
        code, text, report, contacts = output
        probs = expect_code(code, 0)
        if value is None:
            probs += checks.check_bounded_csv(text, dim, xs, ys, 1e-4, 1e4, points)
            B = checks.table(checks.cauchy_value, xs, ys)
        else:
            B = checks.table(value, xs, ys)
            probs += checks.check_exact_csv(text, checks.csv_text(dim, xs, ys, B))
        P = checks.pairing_matrix(xs, ys)
        probs += checks.check_axiom_report(axiom_data(report), B, P, xs, ys, tol)
        want = checks.contact_count(B, P, tol)
        if contacts != want:
            probs.append(f"graph has {contacts} contact pairs, expected {want}")
        return probs

    return Job(f"table:{os.path.basename(path)}:{mode}", run, check)


def full_cover(family, dim, points):
    return {"family": family, "dimension": dim,
            "lambda_domain": {"lo": 0.0, "hi": "inf", "includes_infinity": True,
                              "grid_points": points}}


def tabulated_cover(members, dim):
    def fn(member):
        kind, lam, slope = member
        if kind == "quadratic":
            return ({"form": "quadratic", "scale": lam, "dimension": dim},
                    {"form": "quadratic", "scale": 1.0 / lam, "dimension": dim})
        if kind == "norm":
            return ({"form": "scaled-norm", "scale": lam, "dimension": dim},
                    {"form": "indicator-ball", "radius": lam, "dimension": dim})
        return ({"form": "affine", "slope": list(slope), "offset": 0.0},
                {"form": "indicator-point", "point": list(slope), "offset": 0.0})

    entries = []
    for m in members:
        phi, star = fn(m)
        entries.append({"lambda": m[1], "potential": phi, "conjugate": star})
    return {"family": "tabulated", "entries": entries}


def table(seed, workdir, pins):
    rng = random.Random(f"table:{seed}")
    dims = rng.sample((1, 2, 3), 3) + rng.sample((1, 2, 3), 2)
    jobs = []
    specs = [("quadratic", "analytic"), ("norm", "analytic"), ("quadratic", "grid"),
             ("norm", "grid"), ("tabulated", "grid")]
    for (family, mode), dim in zip(specs, dims):
        span = rng.uniform(1.5, 2.0)
        count = 61 if mode == "analytic" else 41
        path = os.path.join(workdir, f"{family}-{mode}-{dim}.json")
        points = None
        if family == "tabulated":
            lams = sorted(rng.sample((0.25, 0.5, 1.0, 2.0, 4.0, 8.0), 4))
            members = [("quadratic", lam, None) for lam in lams]
            write_json(path, tabulated_cover(members, dim))

            def value(x, y, members=members):
                return checks.tabulated_value(members, x, y)
        else:
            points = rng.randrange(512, 769)
            write_json(path, full_cover(family, dim, points))
            value = None if (family, mode) == ("quadratic", "grid") else checks.cauchy_value
        jobs.append(table_job(path, dim, mode, span, count, value, points))
    return jobs


# ---------------------------------------------------------------------------
# sampled laws: subdifferentials of separable piecewise-linear potentials


def piecewise(rng, pieces):
    """Slopes a_1 < ... < a_K, kinks c_1 < ... < c_{K-1} and one interior
    point per piece, all dyadic so pairings and cycle sums are exact."""
    slopes = [v / 8 for v in sorted(rng.sample(range(-48, 49), pieces))]
    kinks = [v / 2 for v in sorted(rng.sample(range(-40, 41), pieces - 1))]
    inner = [0.5 * (kinks[k - 1] + kinks[k]) for k in range(1, pieces - 1)]
    first = kinks[0] - rng.choice((0.5, 1.0, 1.5))
    last = kinks[-1] + rng.choice((0.5, 1.0, 1.5))
    return slopes, kinks, [first] + inner + [last]


class Law:
    """Pairs plus primal segment hints, kept as plain lists."""

    def __init__(self, dim):
        self.dim = dim
        self.n_base = 0
        self.xs, self.ys, self.hints = [], [], []

    def add(self, x, y):
        self.xs.append(list(x))
        self.ys.append(list(y))

    def data(self):
        out = {"dimension": self.dim, "pairs": [[x, y] for x, y in zip(self.xs, self.ys)]}
        if self.hints:
            out["slice_hints"] = [{"at": at, "side": "primal", "shape": "segment",
                                   "params": {"a": a, "b": b}} for at, a, b in self.hints]
        return out


def separable_law(rng, dim, pairs):
    """Subdifferential samples of phi(x) = sum_d phi_d(x_d), phi_d
    piecewise linear. Base samples sit inside pieces (single-valued); kink
    samples put one coordinate on a kink, where the slice is a segment of
    slopes, sampled at 1/4, 1/2 and 3/4 and declared as a hint. Every dual
    slice is a single point, so the law is a BB-graph."""
    law = Law(dim)
    if dim == 1:
        pieces = (pairs + 3) // 4
        axes = [piecewise(rng, pieces)]
        bases = [(k,) for k in range(pieces)]
        kinks = [(0, k, ()) for k in range(pieces - 1)]
    else:
        n_kink = pairs // 6
        n_base = pairs - 3 * n_kink
        per_axis = 12 if dim == 2 else 7
        axes = [piecewise(rng, per_axis) for _ in range(dim)]
        combos = [tuple(rng.randrange(per_axis) for _ in range(dim)) for _ in range(4 * n_base)]
        bases = list(dict.fromkeys(combos))[:n_base]
        kinks, seen = [], set()
        while len(kinks) < n_kink:
            d = rng.randrange(dim)
            k = rng.randrange(per_axis - 1)
            rest = tuple(rng.randrange(per_axis) for _ in range(dim - 1))
            if (d, k, rest) not in seen:
                seen.add((d, k, rest))
                kinks.append((d, k, rest))
    law.n_base = len(bases)
    for combo in bases:
        law.add([axes[d][2][k] for d, k in enumerate(combo)],
                 [axes[d][0][k] for d, k in enumerate(combo)])
    for d, k, rest in kinks:
        others = iter(rest)
        x, y = [], []
        for e in range(dim):
            if e == d:
                x.append(axes[e][1][k])
                y.append(None)
            else:
                j = next(others)
                x.append(axes[e][2][j])
                y.append(axes[e][0][j])
        a, b = axes[d][0][k], axes[d][0][k + 1]
        for t in (0.25, 0.5, 0.75):
            law.add(x, [a + t * (b - a) if v is None else v for v in y])
        law.hints.append((x, [a if v is None else v for v in y],
                          [b if v is None else v for v in y]))
    return law


def check_law_job(path, law, want_code, want_bb, want_monotone):
    def run():
        return invoke(["check-law", path])

    def check(output):
        code, text = output
        probs = expect_code(code, want_code)
        rep = json.loads(text)
        bb, cyc = rep["bb_report"], rep["cycle_report"]
        if bb["is_bb_graph"] != want_bb:
            probs.append(f"is_bb_graph {bb['is_bb_graph']}, expected {want_bb}")
        elif not want_bb:
            probs += checks.recheck_bb_witness(law.xs, law.ys, bb["failing_slice"], TOL)
        if cyc["cyclically_monotone"] != want_monotone:
            probs.append(f"cyclically_monotone {cyc['cyclically_monotone']}, "
                         f"expected {want_monotone}")
        elif not want_monotone:
            probs += checks.recheck_cycle(law.xs, law.ys, cyc["witness_cycle"],
                                          cyc["cycle_sum"], TOL)
        return probs

    return Job(f"check-law:{os.path.basename(path)}", run, check)


def conjugate_grids(dim, law):
    lo = min(min(x) for x in law.xs) - 1.0
    hi = max(max(x) for x in law.xs) + 1.0
    ylo = min(min(y) for y in law.ys)
    yhi = max(max(y) for y in law.ys)
    if dim == 1:
        return np.linspace(lo, hi, 201)[:, None], np.linspace(ylo, yhi, 201)[:, None]
    g, h = np.linspace(lo, hi, 13), np.linspace(ylo, yhi, 13)
    return (np.array([[a, b] for a in g for b in g]),
            np.array([[a, b] for a in h for b in h]))


def reconstruct_job(path, law, base, conjugate):
    """``reconstruct`` through the CLI, then (dimensions 1 and 2) the
    conjugate of the returned max-affine potential on a grid."""
    import bipotkit

    grids = conjugate_grids(law.dim, law) if conjugate else None

    def run():
        code, text = invoke(["reconstruct", path, "--base", str(base)])
        if grids is None or code != 0:
            return code, text, None
        pieces = json.loads(text)["pieces"]
        phi = bipotkit.MaxAffine([p["slope"] for p in pieces], [p["offset"] for p in pieces])
        star = bipotkit.conjugate(phi, dual_grid=grids[1], primal_grid=grids[0])
        return code, text, star.values

    def check(output):
        code, text, star = output
        probs = expect_code(code, 0)
        pieces = json.loads(text)["pieces"]
        probs += checks.check_max_affine(law.xs, law.ys, pieces, base, TOL)
        if grids is not None:
            S = np.array([p["slope"] for p in pieces])
            o = np.array([p["offset"] for p in pieces])
            vals = (grids[0] @ S.T + o).max(axis=1)
            probs += checks.check_conjugate(grids[0], vals, grids[1], star, 1e-12)
        return probs

    return Job(f"reconstruct:{os.path.basename(path)}", run, check)


def verify_law_job(path, law):
    def run():
        return invoke(["verify", "--law", path])

    def check(output):
        code, text = output
        probs = expect_code(code, 0)
        rep = json.loads(text)
        if not rep["bb_report"]["is_bb_graph"] or not rep["cycle_report"]["cyclically_monotone"]:
            probs.append("accepting law refused")
        ax = rep.get("axioms")
        if ax is None or ax["counterexamples"]:
            probs.append("b-infinity failed the axiom screen")
        return probs

    return Job(f"verify-law:{os.path.basename(path)}", run, check)


def law(seed, workdir, pins):
    rng = random.Random(f"law:{seed}")
    jobs = []
    for dim, pairs in zip((1, 2, 3), SIZES["law"]["pairs"]["check_reconstruct"]):
        lw = separable_law(rng, dim, pairs)
        path = os.path.join(workdir, f"law-{dim}.json")
        write_json(path, lw.data())
        jobs.append(check_law_job(path, lw, 0, True, True))
        jobs.append(reconstruct_job(path, lw, rng.randrange(len(lw.xs)), dim < 3))
    for dim, pairs in zip((1, 2, 3), SIZES["law"]["pairs"]["verify_law"]):
        lw = separable_law(rng, dim, pairs)
        path = os.path.join(workdir, f"small-{dim}.json")
        write_json(path, lw.data())
        jobs.append(verify_law_job(path, lw))
    return jobs


# ---------------------------------------------------------------------------
# refute: negative verdicts, each with a witness


def refuse_cover_job(path, members, dim, span, tuples):
    def run():
        return invoke(["verify", "--cover", path, "--probe-grid", grid_spec(-span, span, 21)])

    def check(output):
        code, text = output
        probs = expect_code(code, 2)
        rep = json.loads(text)
        bic, ax = rep["bic"], rep["axioms"]
        if bic["is_bic"] or not bic["counterexamples"]:
            probs.append("BIC-failing cover passed the screen")
        if bic["tuples_checked"] != tuples:
            probs.append(f"{bic['tuples_checked']} BIC tuples, expected {tuples}")
        probs += checks.recheck_bic_deficits(bic["counterexamples"], members, TOL)
        xs, ys = checks.probe_stacks(-span, span, 21, dim)
        B = checks.table(lambda x, y: checks.tabulated_value(members, x, y), xs, ys)
        probs += checks.check_axiom_report(ax, B, checks.pairing_matrix(xs, ys), xs, ys, GRID_TOL)
        return probs

    return Job(f"refute-cover:{os.path.basename(path)}", run, check)


def reconstruct_refusal_job(path, law):
    def run():
        return invoke(["reconstruct", path])

    def check(output):
        code, text = output
        probs = expect_code(code, 2)
        rep = json.loads(text)
        if rep.get("error") != "not-cyclically-monotone":
            probs.append("reconstruct did not refuse")
            return probs
        return probs + checks.recheck_cycle(law.xs, law.ys, rep["witness_cycle"],
                                            rep["cycle_sum"], TOL)

    return Job(f"reconstruct-refusal:{os.path.basename(path)}", run, check)


def break_slice(rng, law):
    """Drop one kink's hint and its middle sample: the slice keeps the 1/4
    and 3/4 points with a gap between them."""
    k = rng.randrange(len(law.hints))
    at = law.hints.pop(k)[0]
    for i, x in enumerate(law.xs):
        if x == at:
            del law.xs[i + 1], law.ys[i + 1]
            return


def swap_base_pair(rng, law):
    """Swap the slopes of two base samples with a strictly monotone pair, which
    makes their 2-cycle positive."""
    while True:
        i, j = rng.sample(range(law.n_base), 2)
        gain = sum((a - b) * (c - d) for a, b, c, d in
                   zip(law.xs[j], law.xs[i], law.ys[j], law.ys[i]))
        if gain > 0.0:
            law.ys[i], law.ys[j] = law.ys[j], law.ys[i]
            return


def refute(seed, workdir, pins):
    rng = random.Random(f"refute:{seed}")
    jobs = []
    dims = rng.sample((1, 2, 3), 3)
    plans = [("quadratic", dims[0]), ("norm", dims[1])]
    for kind, dim in plans:
        # one member per scale band: below, inside and above the BIC probes'
        # radius 2, so mixes land between members and some tuples must fail
        lams = [rng.choice(band) for band in ((0.25, 0.5), (1.0, 2.0), (4.0, 8.0))]
        members = [(kind, lam, None) for lam in lams]
        path = os.path.join(workdir, f"tabulated-{kind}-{dim}.json")
        write_json(path, tabulated_cover(members, dim))
        jobs.append(refuse_cover_job(path, members, dim, rng.uniform(1.5, 2.5), 9 * 2520))
    nonbic = [("affine", 0.0, [0.0]), ("affine", 1.0, [-1.0])]
    path = os.path.join(workdir, "nonbic.json")
    write_json(path, tabulated_cover(nonbic, 1))
    jobs.append(refuse_cover_job(path, nonbic, 1, rng.uniform(1.5, 2.5), 4 * 2520))

    lw = separable_law(rng, dims[2], 149 if dims[2] == 1 else 150)
    break_slice(rng, lw)
    path = os.path.join(workdir, "non-bb.json")
    write_json(path, lw.data())
    jobs.append(check_law_job(path, lw, 2, False, True))

    for dim, pairs in ((1, 149), (2, 200)):
        lw = separable_law(rng, dim, pairs)
        swap_base_pair(rng, lw)
        path = os.path.join(workdir, f"non-monotone-{dim}.json")
        write_json(path, lw.data())
        jobs.append(check_law_job(path, lw, 0, True, False))
        jobs.append(reconstruct_refusal_job(path, lw))
    return jobs


BUILDERS = {"certify": certify, "table": table, "law": law, "refute": refute}
