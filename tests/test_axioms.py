"""The array-level axiom screen and contact graph against the scalar oracles.

``verify_axioms`` and ``graph_of_bipotential`` work on whole probe tables;
their reports must equal the triple-by-triple and pair-by-pair searches in
``tests/oracles.py`` field for field, counterexample order included.
"""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    tabulated_cover,
    verify_axioms,
)
from bipotkit import numerics
from bipotkit.bipotentials import _midpoint_triples
from bipotkit.convex import Quadratic
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
        "dense": line(np.linspace(-2.0, 2.0, 31), dim),
    }


def cases(dim):
    """(name, bipotential, its table by the oracle or the formula)."""
    bounded = Cover(ClosedInterval(0.0, 1.5), NormFamily(dim))  # +inf past ||y|| = 1.5
    # the least of three quadratic members: convex in neither argument
    members = tabulated_cover([(lam, Quadratic(lam, dim), Quadratic(1.0 / lam, dim))
                               for lam in (0.25, 2.0, 8.0)])
    return [
        ("cauchy", CauchyProduct(dim), lambda xs, ys: oracle_table("cauchy", xs, ys)),
        ("bounded-norm", build_inf(bounded), lambda xs, ys: oracle_table(bounded, xs, ys)),
        ("bumpy", Formula(dim, bumpy),
         lambda xs, ys: np.array([[bumpy(x, y) for y in ys.tolist()] for x in xs.tolist()])),
        ("tabulated", build_inf(members, mode="grid"),
         lambda xs, ys: oracle_table(members, xs, ys, mode="grid")),
    ]


def report_fields(r):
    return (r.lower_bound_ok, r.separate_convexity_ok, r.graph_equivalence_ok,
            [(c.axiom, c.x.tolist(), c.y.tolist(), c.violation) for c in r.counterexamples],
            [(n.side, n.at.tolist(), n.min_gap) for n in r.no_contact])


def assert_records_own_their_rows(report, xs, ys):
    """No witness row shares memory with the probe stacks or with any other
    witness row (rows are contiguous, so disjoint byte ranges suffice)."""
    rows = [a for c in report.counterexamples for a in (c.x, c.y)]
    rows += [n.at for n in report.no_contact]
    for a in rows:
        assert not np.shares_memory(a, xs) and not np.shares_memory(a, ys)
        assert a.flags.c_contiguous
    spans = sorted((a.__array_interface__["data"][0], a.nbytes) for a in rows)
    assert all(lo + size <= hi for (lo, size), (hi, _) in zip(spans, spans[1:]))


GRIDS = ["uniform", "geomspace", "shuffled", "duplicates", "signed-zeros", "random", "dense"]
# the default chunk holds these probes whole; 7 entries split every stage
CHUNKS = [numerics.SWEEP_CHUNK, 7]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("grid", GRIDS)
def test_midpoint_triples_match_oracle(dim, grid, chunk, monkeypatch):
    monkeypatch.setattr(numerics, "SWEEP_CHUNK", chunk)
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


def triples(g):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return [tuple(t) for t in np.stack(_midpoint_triples(g), axis=1).tolist()]


@pytest.mark.parametrize("scale", [2.0 ** -40, 1e-12, 1e12, 2.0 ** 990, 1e300])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_midpoint_triples_match_oracle_at_every_scale(dim, scale):
    for name, g in grids(dim).items():
        assert triples(g * scale) == oracle_midpoint_triples(g * scale), name


def test_midpoint_keys_follow_the_grid_scale():
    # at an absolute 1e-9 these probes all keyed as 0 (or overflowed to inf)
    assert triples(np.array([[0.0], [1e-12], [2e-12]])) == [(0, 2, 1)]
    assert triples(np.array([[1e300], [2e300], [3e300], [5e300]])) == [(0, 2, 1), (0, 3, 2)]
    report = verify_axioms(CauchyProduct(1), [[-3e-12], [-2e-12], [-1e-12]], [[1e12], [2e12]])
    assert report.is_bipotential and not report.counterexamples


def exact_midpoint_triples(g):
    """(i, j, k) for i < j in order, k the first point exactly equal to the
    midpoint of g[i] and g[j]; dropped when that first k is i or j."""
    points = [tuple(Fraction(c) for c in p) for p in g.tolist()]
    out = []
    for i, p in enumerate(points):
        for j in range(i + 1, len(points)):
            mid = tuple((a + b) / 2 for a, b in zip(p, points[j]))
            k = next((k for k, q in enumerate(points) if q == mid), None)
            if k is not None and k != i and k != j:
                out.append((i, j, k))
    return out


DYADIC_GRIDS = st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.lists(st.integers(-16, 16), min_size=dim, max_size=dim), min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(DYADIC_GRIDS, st.sampled_from([-40, 0, 990]))
def test_midpoint_triples_on_dyadic_grids_are_exact(points, exponent):
    # multiples of 1/8 scaled by 2**exponent: every midpoint is exact
    g = np.ldexp(np.array(points, dtype=np.float64) / 8.0, exponent)
    want = exact_midpoint_triples(g)
    assert triples(g) == want
    assert oracle_midpoint_triples(g) == want


def test_a_grid_too_fine_for_its_key_rounding_is_keyed_exactly():
    # at 9 decimals all three probes keyed as 1.0, which gave (1, 2, 0); the
    # float midpoint of the ends is the middle probe exactly (the exact one
    # is not a float)
    g = np.array([[1.0], [1.0 + 1e-12], [1.0 + 2e-12]])
    assert 0.5 * (g[0, 0] + g[2, 0]) == g[1, 0]
    assert triples(g) == oracle_midpoint_triples(g) == [(0, 2, 1)]


@settings(max_examples=200, deadline=None)
@given(DYADIC_GRIDS)
def test_midpoint_triples_on_grids_finer_than_the_key_rounding_are_exact(points):
    # 1 + m * 2**-40: probes 9.1e-13 apart, every midpoint exact in floats
    g = 1.0 + np.ldexp(np.array(points, dtype=np.float64), -40)
    want = exact_midpoint_triples(g)
    assert triples(g) == want
    assert oracle_midpoint_triples(g) == want


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("tol", [1e-9, 0.5])
def test_verify_axioms_matches_oracle(dim, grid, tol, chunk, monkeypatch):
    monkeypatch.setattr(numerics, "SWEEP_CHUNK", chunk)
    g = grids(dim)[grid]
    xs, ys = g, g[::-1] + 0.25
    for name, b, table in cases(dim):
        report = verify_axioms(b, xs, ys, tol=tol)
        want = oracle_verify_axioms(table(xs, ys), xs, ys, tol)
        assert report_fields(report) == want, name
        assert_records_own_their_rows(report, xs, ys)


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
    # the tabulated cover on the dense grid fails more than 1,000 entries
    g = grids(2)["dense"]
    name, b, _ = cases(2)[3]
    assert name == "tabulated"
    assert len(verify_axioms(b, g, g[::-1] + 0.25).counterexamples) > 1000


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
