"""The array-level axiom screen and contact graph against the scalar oracles.

``verify_axioms`` and ``graph_of_bipotential`` work on whole probe tables;
their reports must equal the triple-by-triple and pair-by-pair searches in
``tests/oracles.py`` field for field, counterexample order included.
"""

import math
import tracemalloc

import numpy as np
import pytest

from bipotkit import (
    BInfinityBipotential,
    Bipotential,
    CauchyProduct,
    ClosedInterval,
    Cover,
    NormFamily,
    build_inf,
    graph_of_bipotential,
    quadratic_cover,
    verify_axioms,
)
from bipotkit import bipotentials
from bipotkit.bipotentials import _midpoint_triples
from bipotkit.laws import LawGraph

from .oracles import (
    oracle_contacts,
    oracle_midpoint_triples,
    oracle_table,
    oracle_verify_axioms,
)

rng = np.random.default_rng(5)


class Formula(Bipotential):
    """b from a plain function of coordinate lists, tabulated through the
    base class's per-pair fallback."""

    def __init__(self, dim, fn):
        self.dim = dim
        self.fn = fn

    def value(self, x, y):
        return self.fn(x.tolist(), y.tolist())


def _norm(v):
    return math.sqrt(sum(c * c for c in v))


def bumpy(x, y):
    # convex in neither argument, below the pairing near ||x|| = ||y|| = 1,
    # +inf far out
    v = (_norm(x) * _norm(y) + (_norm(x) ** 2 - 1.0) ** 2
         + 0.5 * (_norm(y) ** 2 - 1.0) ** 2 - 0.3)
    return math.inf if v > 3.0 else v


def line(s, dim):
    """Points s * (1, 2, 3)[:dim] / dim: collinear, uniform when s is."""
    return np.stack([s * (k + 1) / dim for k in range(dim)], axis=1)


def grids(dim):
    uniform = line(np.linspace(-2.0, 2.0, 13), dim)
    signed_zeros = line(np.linspace(-1.5, 1.5, 7), dim)
    signed_zeros[3] = -0.0
    return {
        "uniform": uniform,
        "geomspace": line(np.geomspace(0.1, 2.0, 15), dim),
        "shuffled": uniform[rng.permutation(13)],
        "duplicates": np.concatenate([uniform[4:9], uniform[5:7], uniform[:4]]),
        "signed-zeros": np.concatenate([signed_zeros, 0.0 * signed_zeros[:1]]),
        "random": np.round(rng.uniform(-2.0, 2.0, size=(14, dim)), 1),
    }


def cases(dim):
    """(name, bipotential, its table by the oracle or the formula)."""
    bounded = Cover(ClosedInterval(0.0, 1.5), NormFamily(dim))  # +inf past ||y|| = 1.5
    return [
        ("cauchy", CauchyProduct(dim), lambda xs, ys: oracle_table("cauchy", xs, ys)),
        ("bounded-norm", build_inf(bounded), lambda xs, ys: oracle_table(bounded, xs, ys)),
        ("bumpy", Formula(dim, bumpy),
         lambda xs, ys: np.array([[bumpy(x, y) for y in ys.tolist()] for x in xs.tolist()])),
    ]


def report_fields(r):
    return (r.lower_bound_ok, r.separate_convexity_ok, r.graph_equivalence_ok,
            [(c.axiom, c.x.tolist(), c.y.tolist(), c.violation) for c in r.counterexamples],
            [(n.side, n.at.tolist(), n.min_gap) for n in r.no_contact])


GRIDS = ["uniform", "geomspace", "shuffled", "duplicates", "signed-zeros", "random"]
# the default chunk holds these probes whole; 7 entries split every stage
CHUNKS = [bipotentials.SWEEP_CHUNK, 7]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("grid", GRIDS)
def test_midpoint_triples_match_oracle(dim, grid, chunk, monkeypatch):
    monkeypatch.setattr(bipotentials, "SWEEP_CHUNK", chunk)
    g = grids(dim)[grid]
    got = [tuple(t) for t in np.stack(_midpoint_triples(g), axis=1).tolist()]
    assert got == oracle_midpoint_triples(g)


def test_midpoint_triples_keep_the_first_match_and_drop_the_ends():
    # 0 is the midpoint of (-1, 1); its first copy sits at index 1
    g = np.array([[-1.0], [0.0], [1.0], [-0.0], [0.5]])
    assert oracle_midpoint_triples(g) == [(0, 2, 1), (1, 2, 4), (2, 3, 4)]
    assert np.stack(_midpoint_triples(g), axis=1).tolist() == [[0, 2, 1], [1, 2, 4], [2, 3, 4]]
    # a single probe has no pairs
    assert [a.size for a in _midpoint_triples(np.zeros((1, 2)))] == [0, 0, 0]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("tol", [1e-9, 0.5])
def test_verify_axioms_matches_oracle(dim, grid, tol, chunk, monkeypatch):
    monkeypatch.setattr(bipotentials, "SWEEP_CHUNK", chunk)
    g = grids(dim)[grid]
    xs, ys = g, g[::-1] + 0.25
    for name, b, table in cases(dim):
        got = report_fields(verify_axioms(b, xs, ys, tol=tol))
        want = oracle_verify_axioms(table(xs, ys), xs, ys, tol)
        assert got == want, name


def test_oracle_cases_reach_every_axiom():
    # the comparison above is only as strong as the failures it sees
    g = grids(2)["uniform"]
    seen = set()
    for _, b, table in cases(2):
        for tol in (1e-9, 0.5):
            _, _, _, found, no_contact = oracle_verify_axioms(table(g, g), g, g, tol)
            seen |= {c[0] for c in found}
            if no_contact:
                seen.add("no-contact")
    assert seen == {"lower-bound", "convexity-x", "convexity-y", "graph-closure", "no-contact"}
    b = Formula(2, bumpy)
    assert np.isinf(b.table(g, g)).any()


def test_verify_axioms_on_a_b_infinity_table_matches_oracle():
    # a two-point slice with no hint: contact at y = -1 and y = 1, not at 0
    law = LawGraph([([0.0], [-1.0]), ([0.0], [1.0]), ([1.0], [1.0])])
    g = np.linspace(-1.0, 1.0, 5)[:, None]
    got = report_fields(verify_axioms(BInfinityBipotential(law), g, g))
    want = oracle_verify_axioms(oracle_table(law, g, g), g, g, 1e-9)
    assert got == want
    assert "graph-closure" in [c[0] for c in want[3]]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("grid", ["uniform", "duplicates", "signed-zeros", "random"])
def test_graph_of_bipotential_matches_oracle(dim, grid):
    g = grids(dim)[grid]
    xs, ys = g, g[::-1]
    for name, b, table in cases(dim):
        for tol in (1e-9, 0.5):
            want = oracle_contacts(table(xs, ys), xs, ys, tol)
            if not want:
                with pytest.raises(ValueError, match="no contact"):
                    graph_of_bipotential(b, xs, ys, tol=tol)
                continue
            law = graph_of_bipotential(b, xs, ys, tol=tol)
            assert [(x.tolist(), y.tolist()) for x, y in law.pairs] == want, name
            assert law.dim == dim and not law.primal_hints and not law.dual_hints
            assert law.xs.flags.c_contiguous and law.ys.flags.c_contiguous


def test_verify_axioms_peak_memory_is_chunked():
    # 201 collinear probes have about 10,000 midpoint triples per axis:
    # unchunked, each gathered stack of rows would hold 10,000 x 201 floats
    # (16 MB); chunked, a few stacks of SWEEP_CHUNK floats
    s = np.linspace(-2.0, 2.0, 201)
    xs = np.stack([s, 0.5 * s, -s], axis=1)
    ys = np.stack([-s, s, 0.25 * s], axis=1)
    b = build_inf(quadratic_cover(dim=3))
    tracemalloc.start()
    try:
        report = verify_axioms(b, xs, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.is_bipotential
    table_bytes = 201 * 201 * 8
    assert peak < 6 * table_bytes + 4 * 2 ** 20
