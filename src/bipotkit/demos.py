"""Worked scenarios: curated laws, covers, and full pipeline runs.

Each demo wires the whole chain together: declare a sampled law, choose a
cover whose member graphs union to it, run :func:`certify` (build the
infimum bipotential, certify coverage, screen bi-implicit convexity, verify
the axioms on probe grids), and extract the contact graph back. The two
Cauchy demos reconstruct b(x, y) = ||x|| ||y|| from the quadratic and norm
covers; the plasticity demo drives a single-parameter norm cover against a
rigid-plastic yielding law; the separable demo closes the loop on an
ordinary potential.
"""

from __future__ import annotations

import os

import numpy as np

from .bipotentials import _contact_graph, _embed_stack, certify
from .convex import Affine, IndicatorPoint, Quadratic, graph_of
from .covers import (
    GRID_TOL,
    ClosedInterval,
    Cover,
    NormFamily,
    norm_cover,
    quadratic_cover,
    separable_cover,
    tabulated_cover,
)
from .formats import _probe_lines, csv_header, dumps, save_cover, save_law
from .laws import DEFAULT_TOL, Ball, HalfLineRay, LawGraph, Segment, Singleton
from .numerics import _batch_norm

DEMO_NAMES = ("cauchy-quadratic", "cauchy-norm", "plasticity", "separable")


# ---------------------------------------------------------------------------
# curated laws


def build_sign_law():
    """The sign law, the subdifferential of the absolute value: singletons
    off zero, the full interval [-1, 1] at zero, half-lines dually."""
    pairs = [([-1.0], [-1.0]), ([0.0], [-1.0]), ([0.0], [0.0]),
             ([0.0], [1.0]), ([1.0], [1.0])]
    primal = {(0.0,): Segment([-1.0], [1.0])}
    dual = {(-1.0,): HalfLineRay([0.0], [-1.0]),
            (1.0,): HalfLineRay([0.0], [1.0])}
    return LawGraph(pairs, primal_hints=primal, dual_hints=dual)


def build_antitone_law():
    """Two decreasing samples; a BB-graph, but not cyclically monotone."""
    return LawGraph([([0.0], [0.0]), ([1.0], [-1.0])])


def build_cauchy_law():
    """Positively-collinear samples in dimension two.

    The full law is {(x, y): y = mu x, mu >= 0} plus everything through the
    origin; slices are half-lines (the whole space at zero), declared as
    hints since no finite sample can witness a continuum.
    """
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    diag = np.array([1.0, 1.0])
    zero = np.zeros(2)
    pairs = [(e1, 2 * e1), (2 * e1, e1), (diag, diag), (e2, 3 * e2), (zero, zero)]
    primal = {
        (1.0, 0.0): HalfLineRay(zero, e1),
        (2.0, 0.0): HalfLineRay(zero, e1),
        (1.0, 1.0): HalfLineRay(zero, diag),
        (0.0, 1.0): HalfLineRay(zero, e2),
        (0.0, 0.0): Ball(zero, np.inf),
    }
    dual = {
        (2.0, 0.0): HalfLineRay(zero, e1),
        (1.0, 0.0): HalfLineRay(zero, e1),
        (1.0, 1.0): HalfLineRay(zero, diag),
        (0.0, 3.0): HalfLineRay(zero, e2),
        (0.0, 0.0): Ball(zero, np.inf),
    }
    return LawGraph(pairs, primal_hints=primal, dual_hints=dual)


def build_plasticity_law():
    """Rigid-plastic yielding law at unit threshold, dimension two.

    x = 0 while ||y|| < 1 (the elastic ball); once ||y|| = 1 the flow x runs
    along the outward ray through y.
    """
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    zero = np.zeros(2)
    pairs = [(zero, zero), (zero, 0.5 * e1), (e1, e1), (2 * e1, e1),
             (e2, e2), (3 * e2, e2), (-e1, -e1)]
    primal = {
        (0.0, 0.0): Ball(zero, 1.0),
        (1.0, 0.0): Singleton(e1),
        (2.0, 0.0): Singleton(e1),
        (0.0, 1.0): Singleton(e2),
        (0.0, 3.0): Singleton(e2),
        (-1.0, 0.0): Singleton(-e1),
    }
    dual = {
        (0.0, 0.0): Singleton(zero),
        (0.5, 0.0): Singleton(zero),
        (1.0, 0.0): HalfLineRay(zero, e1),
        (0.0, 1.0): HalfLineRay(zero, e2),
        (-1.0, 0.0): HalfLineRay(zero, -e1),
    }
    return LawGraph(pairs, primal_hints=primal, dual_hints=dual)


# ---------------------------------------------------------------------------
# the negative control


def nonbic_cover():
    """Tabulated cover derived from the antitone law; not a BIC-cover.

    One affine member per antitone pair. Mixing the two conjugate domains
    {0} and {-1} in the second argument lands between the indicators, where
    every member is infinite while the mixed right side stays finite.
    """
    return tabulated_cover([
        (0.0, Affine(np.zeros(1)), IndicatorPoint(np.zeros(1))),
        (1.0, Affine(np.array([-1.0])), IndicatorPoint(np.array([-1.0]))),
    ])


# ---------------------------------------------------------------------------
# demo setups


def _axis_grid(lo=-2.0, hi=2.0, count=41):
    return np.linspace(lo, hi, count)


def demo_setup(name):
    """Law, cover, mode, probe stacks, and tolerances for a named demo."""
    if name in ("cauchy-quadratic", "cauchy-norm"):
        law = build_cauchy_law()
        cover = (quadratic_cover if name == "cauchy-quadratic" else norm_cover)(dim=2)
        xg = _embed_stack(_axis_grid(), 2)
        yg = _embed_stack(_axis_grid(), 2, dual=True)
        return {"law": law, "cover": cover, "mode": "grid", "tol": GRID_TOL,
                "x_probes": xg, "y_probes": yg, "reference": "cauchy"}
    if name == "plasticity":
        law = build_plasticity_law()
        dom = ClosedInterval(1.0, 1.0)
        cover = Cover(dom, NormFamily(2))
        # probe y along the same axis as x, so the yielding rays are in contact
        xg = yg = _embed_stack(_axis_grid(), 2)
        return {"law": law, "cover": cover, "mode": "analytic", "tol": DEFAULT_TOL,
                "x_probes": xg, "y_probes": yg, "reference": None}
    if name == "separable":
        phi = Quadratic(1.0, 1)
        grid = _axis_grid(-2.0, 2.0, 21)
        law = graph_of(phi, grid, grid)
        cover = separable_cover(phi)
        xg = yg = grid[:, None]
        return {"law": law, "cover": cover, "mode": "analytic", "tol": DEFAULT_TOL,
                "x_probes": xg, "y_probes": yg, "reference": "separable"}
    raise KeyError(f"unknown demo {name!r}; known: {', '.join(DEMO_NAMES)}")


def _reference_line(kind, table, setup):
    """The demo's closing comparison of the probe table of b against its
    closed-form target; NaN differences (inf against inf) are skipped."""
    xg, yg, B, _ = table
    if kind == "cauchy":
        target = np.multiply.outer(_batch_norm(xg), _batch_norm(yg))
        label = "||x|| ||y||"
    elif kind == "separable":
        fam = setup["cover"].family
        target = np.add.outer(fam.potential.value_many(xg), fam.potential_star.value_many(yg))
        label = "(phi(x) + phi*(y))"
    else:
        return None
    with np.errstate(invalid="ignore"):
        diff = np.abs(B - target)
    worst = float(np.fmax.reduce(diff, axis=None, initial=0.0))
    return f"max |b - {label}| = {worst:.6g}"


def run_demo(name, out_dir, stream):
    """Full pipeline for one demo; writes artifacts, prints a transcript,
    returns the exit code (0 all checks pass, 2 otherwise)."""
    try:
        setup = demo_setup(name)
    except KeyError as exc:
        print(exc.args[0], file=stream)
        return 1
    law, cover = setup["law"], setup["cover"]
    xg, yg, tol = setup["x_probes"], setup["y_probes"], setup["tol"]
    os.makedirs(out_dir, exist_ok=True)
    save_law(law, os.path.join(out_dir, "law.json"))
    save_cover(cover, os.path.join(out_dir, "cover.json"))

    print(f"demo {name}: dimension {law.dim}, {len(law)} sampled pairs", file=stream)
    report = certify(cover, xg, yg, law=law, mode=setup["mode"], tol=tol)
    coverage, bic, axioms, b = report.coverage, report.bic, report.axioms, report.bipotential
    print(f"coverage: {'covered' if coverage.covered else 'FAILED'} "
          f"(missed {len(coverage.missed_pairs)}, "
          f"spurious {len(coverage.spurious_pairs)})", file=stream)
    print(f"bic: {'pass' if bic.is_bic else 'FAILED'} "
          f"({bic.tuples_checked} tuples, "
          f"{len(bic.counterexamples)} counterexamples)", file=stream)
    print(f"bipotential: {b.provenance}", file=stream)
    print(f"axioms: lower-bound {'ok' if axioms.lower_bound_ok else 'FAILED'}, "
          f"convexity {'ok' if axioms.separate_convexity_ok else 'FAILED'}, "
          f"graph {'ok' if axioms.graph_equivalence_ok else 'FAILED'} "
          f"(no-contact slices {len(axioms.no_contact)})", file=stream)

    # the table certify checked the axioms on: graph, CSV and reference
    # line read it instead of evaluating b again
    graph = _contact_graph(report.table, tol)
    print(f"graph: {len(graph)} contact pairs on the probe grids", file=stream)

    with open(os.path.join(out_dir, "build.csv"), "w") as fh:
        fh.write("\n".join([csv_header(law.dim), *_probe_lines(report.table), ""]))
    with open(os.path.join(out_dir, "reports.json"), "w") as fh:
        fh.write(dumps(report.reports()))
        fh.write("\n")

    line = _reference_line(setup["reference"], report.table, setup)
    if line is not None:
        print(line, file=stream)
    print(f"artifacts written to {out_dir}", file=stream)
    return 0 if report.ok else 2
