import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipotkit.bipotentials import (
    AnalyticFormUnavailableError,
    BInfinityBipotential,
    Bipotential,
    CauchyProduct,
    InfOfCoverBipotential,
    SeparableBipotential,
    bic_check,
    build_b_infinity,
    build_inf,
    build_separable,
    certify,
    default_probe_plan,
    embed_dual,
    embed_primal,
    graph_of_bipotential,
    verify_axioms,
)
from bipotkit import bipotentials, kernels
from bipotkit.convex import MaxAffine, Quadratic, ScaledNorm, conjugate
from bipotkit.covers import (
    ClosedInterval,
    Cover,
    NormFamily,
    QuadraticFamily,
    norm_cover,
    quadratic_cover,
    separable_cover,
    tabulated_cover,
)
from bipotkit.demos import build_antitone_law, build_sign_law, nonbic_cover
from bipotkit.laws import LawGraph, NotBBGraphError
from bipotkit.numerics import INF, DimensionMismatchError, inner, norm


def v(*coords):
    return np.array([float(c) for c in coords])


class Probe(Bipotential):
    """Ad-hoc bipotential wrapper around a plain function of (x, y)."""

    provenance = "test-probe"

    def __init__(self, fn, dim=1):
        self.fn = fn
        self.dim = dim

    def value(self, x, y):
        return self.fn(x, y)


# ---------------------------------------------------------------------------
# closed forms


def test_cauchy_product_values():
    b = CauchyProduct(2)
    assert b(v(3, 0), v(0, 4)) == 12.0
    assert b.gap(v(1, 0), v(1, 0)) == 0.0
    # sqrt(2)*sqrt(2) rounds up a hair; aligned pairs still sit within tol
    assert 0.0 <= b.gap(v(1, 1), v(1, 1)) <= 1e-9
    assert b.gap(v(1, 0), v(0, 1)) == 1.0


def test_cauchy_graph_on_three_point_grid():
    g = np.array([[-1.0], [0.0], [1.0]])
    law = graph_of_bipotential(CauchyProduct(1), g, g)
    assert len(law) == 7
    assert ((1.0,), (-1.0,)) not in law.pair_keys()


def test_separable_bipotential_is_exact():
    phi = Quadratic(1.0, 1)
    b = build_separable(phi)
    assert b(v(1), v(2)) == phi.value(v(1)) + conjugate(phi).value(v(2))
    assert b(v(1), v(2)) == 2.5


# ---------------------------------------------------------------------------
# infimum of a cover


def test_quadratic_analytic_infimum_is_product():
    b = build_inf(quadratic_cover(dim=2))
    assert b(v(3, 0), v(0, 4)) == 12.0
    val, lam = b.infimum(v(3, 0), v(0, 4))
    assert val == 12.0 and lam == 4.0 / 3.0


def test_norm_analytic_infimum_is_product():
    b = build_inf(norm_cover(dim=2))
    assert b(v(3, 0), v(0, 4)) == 12.0
    assert b.argmin_lambda(v(3, 0), v(0, 4)) == 4.0


def test_grid_mode_tracks_analytic_within_tolerance():
    for factory in (quadratic_cover, norm_cover):
        cover = factory(dim=2)
        analytic = build_inf(cover, mode="analytic")
        grid = build_inf(cover, mode="grid")
        for s, t in [(1.0, 1.0), (-2.0, 1.5), (0.5, -0.25), (0.0, 2.0)]:
            x, y = embed_primal(s, 2), embed_dual(t, 2)
            assert abs(grid(x, y) - analytic(x, y)) <= 1e-3


def test_degenerate_domain_clamps():
    # parameter frozen at 1: the infimum is just the single member
    cover = Cover(ClosedInterval(1.0, 1.0), QuadraticFamily(1))
    b = build_inf(cover)
    assert b(v(3), v(0)) == (0.5 * 1.0) * 9.0
    assert b(v(0), v(4)) == (0.5 * 16.0) / 1.0


def test_restricted_interval_clamps_to_ends():
    cover = Cover(ClosedInterval(2.0, 5.0), QuadraticFamily(1))
    b = build_inf(cover)
    # unconstrained minimizer for (1, 8) is lam = 8, clamped to 5
    assert b(v(1), v(8)) == (0.5 * 5.0) * 1.0 + (0.5 * 64.0) / 5.0


def test_analytic_mode_refuses_tabulated_covers():
    cover = tabulated_cover([(1.0, Quadratic(1.0, 1), Quadratic(1.0, 1))])
    with pytest.raises(AnalyticFormUnavailableError):
        build_inf(cover, mode="analytic")
    assert build_inf(cover, mode="grid")(v(1), v(1)) == 1.0


def test_separable_cover_infimum_matches_direct_build():
    phi = ScaledNorm(1.0, 1)
    via_cover = build_inf(separable_cover(phi))
    direct = build_separable(phi)
    for s, t in [(0, 0), (1, 1), (2, 0.5), (-1, -1)]:
        assert via_cover(v(s), v(t)) == direct(v(s), v(t))


def test_provenance_labels():
    assert build_inf(quadratic_cover()).provenance == "inf-of-cover/analytic"
    assert CauchyProduct().provenance == "closed-form"


# ---------------------------------------------------------------------------
# b-infinity


def test_b_infinity_round_trip():
    law = build_sign_law()
    b = build_b_infinity(law)
    xs = np.array(law.domain())
    ys = np.array(law.image())
    back = graph_of_bipotential(b, xs, ys)
    assert back.pair_keys() == law.pair_keys()


def test_b_infinity_values():
    law = build_sign_law()
    b = BInfinityBipotential(law)
    assert b(v(1), v(1)) == 1.0
    assert b(v(1), v(-1)) == INF
    # hinted continuum points count as on-graph
    assert b(v(0), v(0.25)) == 0.0


@pytest.mark.parametrize("make", [
    lambda: CauchyProduct(1),
    lambda: build_b_infinity(build_sign_law()),
], ids=["cauchy", "b-infinity"])
def test_value_takes_plain_lists(make):
    assert make().value([1.0], [1.0]) == 1.0


@pytest.mark.parametrize("make", [
    lambda: CauchyProduct(1),
    lambda: SeparableBipotential(Quadratic(1.0, 1), Quadratic(1.0, 1)),
], ids=["cauchy", "separable"])
def test_value_refuses_a_wrong_dimension(make):
    # value validates as __call__ does, not reading a 2-vector as dimension 1
    with pytest.raises(DimensionMismatchError):
        make().value(np.array([3.0, 4.0]), np.array([1.0]))


def test_b_infinity_refuses_non_bb():
    law = LawGraph([(v(0), v(-1)), (v(0), v(1))])
    with pytest.raises(NotBBGraphError) as exc:
        build_b_infinity(law)
    assert exc.value.report.failing_slice.witness_midpoint.tolist() == [0.0]


# ---------------------------------------------------------------------------
# axiom verification


def symmetric_grid(dim, count=9):
    s = np.linspace(-2, 2, count)
    return np.array([embed_primal(t, dim) for t in s])


def test_cauchy_product_passes_axioms():
    g = symmetric_grid(1)
    report = verify_axioms(CauchyProduct(1), g, g)
    assert report.is_bipotential
    assert not report.counterexamples


def test_degenerate_pairing_probe_passes_sampled_checks():
    # b = <x, y> fails convexity in each argument off the grid, but on any
    # sampled product grid each slice is affine, so the necessary checks
    # all come back clean; sampled verification cannot refute this one
    b = Probe(lambda x, y: inner(x, y))
    g = symmetric_grid(1)
    report = verify_axioms(b, g, g)
    assert report.lower_bound_ok
    assert report.separate_convexity_ok
    assert report.graph_equivalence_ok


def test_lower_bound_violation_reported():
    b = Probe(lambda x, y: -1.0)
    g = symmetric_grid(1, 5)
    report = verify_axioms(b, g, g)
    assert not report.lower_bound_ok
    assert any(c.axiom == "lower-bound" for c in report.counterexamples)


def test_convexity_violation_reported():
    # concave in x along the sampled slice
    b = Probe(lambda x, y: 10.0 - inner(x, x))
    g = symmetric_grid(1, 5)
    report = verify_axioms(b, g, g)
    assert not report.separate_convexity_ok
    axes = {c.axiom for c in report.counterexamples}
    assert "convexity-x" in axes


def test_contact_closure_violation_reported():
    # contact at x in {-1, 1} but not at the midpoint 0 on the same slice:
    # the represented set cannot be a closed convex slice
    def fn(x, y):
        return inner(x, y) if abs(x[0]) == 1.0 else inner(x, y) + 1.0

    b = Probe(fn)
    g = np.array([[-1.0], [0.0], [1.0]])
    report = verify_axioms(b, g, np.array([[0.0]]))
    assert not report.graph_equivalence_ok
    assert any(c.axiom == "graph-closure" for c in report.counterexamples)


def test_no_contact_slices_are_notes_not_failures():
    b = Probe(lambda x, y: inner(x, y) + 1.0)
    g = symmetric_grid(1, 3)
    report = verify_axioms(b, g, g)
    assert report.is_bipotential
    assert report.no_contact


def test_infinite_values_respect_convexity_semantics():
    # +inf at the midpoint with finite ends is a genuine convexity breach
    def fn(x, y):
        return INF if x[0] == 0.0 else inner(x, x)

    report = verify_axioms(Probe(fn), np.array([[-1.0], [0.0], [1.0]]),
                           np.array([[0.0]]))
    assert not report.separate_convexity_ok


def test_equal_probe_stacks_find_their_midpoints_once(monkeypatch):
    calls = []
    triples = bipotentials._midpoint_triples
    monkeypatch.setattr(bipotentials, "_midpoint_triples",
                        lambda g: calls.append(g.shape) or triples(g))
    grid = symmetric_grid(2)
    same = verify_axioms(CauchyProduct(2), grid, grid.copy())
    assert len(calls) == 1
    other = verify_axioms(CauchyProduct(2), grid, grid[::-1].copy())
    assert len(calls) == 3
    # the triples of a stack in another order find the same violations
    assert same.is_bipotential and other.is_bipotential


def test_graph_of_bipotential_requires_contact():
    b = Probe(lambda x, y: inner(x, y) + 1.0)
    g = symmetric_grid(1, 3)
    with pytest.raises(ValueError):
        graph_of_bipotential(b, g, g)


# ---------------------------------------------------------------------------
# implicit convexity of covers


def test_probe_plans_pass_for_builtin_families():
    for cover in (quadratic_cover(dim=1), norm_cover(dim=1)):
        report = bic_check(cover, default_probe_plan(cover))
        assert report.is_bic, report.counterexamples[:3]
        assert report.tuples_checked > 0
        assert not report.counterexamples


def test_probe_plans_pass_in_two_dimensions():
    report = bic_check(quadratic_cover(dim=2), default_probe_plan(quadratic_cover(dim=2)))
    assert report.is_bic


def test_tabulated_negative_control_fails_with_deficits():
    cover = nonbic_cover()
    report = bic_check(cover, default_probe_plan(cover))
    assert not report.is_bic
    assert report.counterexamples
    assert all(c.deficit > 0 for c in report.counterexamples)
    assert any(c.deficit == INF for c in report.counterexamples)
    assert all(c.argument == "second" for c in report.counterexamples)


def test_embeddings():
    assert embed_primal(1.5, 2).tolist() == [1.5, 0.0]
    assert embed_dual(1.5, 2).tolist() == [0.0, 1.5]
    assert embed_primal(2.0, 1).tolist() == [2.0]
    assert embed_dual(2.0, 1).tolist() == [2.0]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_embedded_stacks_equal_the_embedded_probes_bit_for_bit(dim):
    values = [-2.0, -0.0, 0.0, 5e-324, 1.5, 1e308]
    for dual, embed in ((False, embed_primal), (True, embed_dual)):
        got = bipotentials._embed_stack(values, dim, dual=dual)
        assert got.tobytes() == np.array([embed(s, dim) for s in values]).tobytes()
    plan = default_probe_plan(quadratic_cover(dim=dim))
    assert np.array(plan.primal_points).tobytes() == np.array(
        [embed_primal(s, dim) for s in np.linspace(-2.0, 2.0, 9)]).tobytes()
    assert np.array(plan.dual_points).tobytes() == np.array(
        [embed_dual(t, dim) for t in np.linspace(-2.0, 2.0, 5)]).tobytes()


# scalar entry points against one-row tables, at the ends of the float range
EDGE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-170, 1.5e154, -1.5e154, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False))


def bits(value):
    return np.float64(value).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(EDGE, min_size=d, max_size=d).map(np.array), min_size=3, max_size=3)))
def test_gap_and_b_infinity_values_equal_their_tables_bit_for_bit(points):
    x, y, z = points
    dim = x.size
    with np.errstate(invalid="ignore"):  # inf - inf where products overflow both ways
        pairing = kernels.pairing_matrix(x[None], y[None])[0, 0]
        cauchy = CauchyProduct(dim)
        assert bits(cauchy.gap(x, y)) == bits(cauchy.table(x[None], y[None])[0, 0] - pairing)
        b = BInfinityBipotential(LawGraph([(x, y)]))
        got = b.value(x, y)
        assert type(got) is float and bits(got) == bits(pairing)
        assert bits(got) == bits(b.table(x[None], y[None])[0, 0])
        assert bits(b.value(x, z)) == bits(b.table(x[None], z[None])[0, 0])


# ---------------------------------------------------------------------------
# certification pipeline


def test_certify_without_law_skips_coverage():
    grid = np.linspace(-1.0, 1.0, 5)[:, None]
    report = certify(quadratic_cover(dim=1), grid, grid, mode="analytic", tol=1e-9)
    assert report.coverage is None
    assert report.ok and report.bic.is_bic and report.axioms.is_bipotential
    assert set(report.reports()) == {"bic", "axioms"}
    assert report.bipotential.provenance == "inf-of-cover/analytic"


def test_certify_builds_before_screening():
    grid = np.zeros((1, 1))
    with pytest.raises(AnalyticFormUnavailableError):
        certify(nonbic_cover(), grid, grid, mode="analytic", tol=1e-9)
