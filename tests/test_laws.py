import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipotkit.convex import MaxAffine, Quadratic, graph_of, subdifferential_contains
from bipotkit.laws import (
    Ball,
    HalfLineRay,
    LawGraph,
    NotCyclicallyMonotoneError,
    Segment,
    Singleton,
    bb_check,
    cycle_sum,
    cyclic_monotonicity_check,
    rockafellar_reconstruct,
    _distinct_rows,
    weight_matrix,
)

from bipotkit import kernels, numerics
from bipotkit.numerics import _batch_inner, _batch_norm2, _diff_inner, inner

from .exact import exact_cycle_sum
from .oracles import (
    exhaustive_cycle_check,
    oracle_bb_check,
    oracle_bellman_ford,
    oracle_checked_bellman_ford,
    oracle_cycle_witness,
    oracle_full_sweep_verdict,
    oracle_hint_holds,
    oracle_law_member,
    oracle_longest_path,
    oracle_pred_cycles,
)


def v(*coords):
    return np.array([float(c) for c in coords])


def law_1d(pairs, **kw):
    return LawGraph([(np.array([x]), np.array([y])) for x, y in pairs], **kw)


def assert_refusal_is_exact(law, report, tol):
    """A refusal ships a cycle whose float sum lies above tol and whose
    exact sum lies above 0."""
    assert not report.cyclically_monotone
    assert report.cycle_sum > tol
    assert exact_cycle_sum(law.xs, law.ys, report.witness_cycle) > 0


# ---------------------------------------------------------------------------
# hint shapes


def test_singleton_contains():
    s = Singleton(np.array([1.0, 2.0]))
    assert s.contains(np.array([1.0, 2.0]), 1e-9)
    assert not s.contains(np.array([1.0, 2.1]), 1e-9)


def test_segment_contains_interior_and_rejects_offline():
    seg = Segment(np.array([-1.0]), np.array([1.0]))
    assert seg.contains(np.array([0.25]), 1e-9)
    assert not seg.contains(np.array([1.5]), 1e-9)
    seg2 = Segment(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert seg2.contains(np.array([0.5, 0.5]), 1e-9)
    assert not seg2.contains(np.array([0.5, 0.6]), 1e-9)


def test_ball_contains_and_whole_space():
    assert Ball(np.array([0.0, 0.0]), 1.0).contains(np.array([0.6, 0.8]), 1e-9)
    assert not Ball(np.array([0.0, 0.0]), 1.0).contains(np.array([0.8, 0.8]), 1e-9)
    assert Ball(np.array([0.0, 0.0]), np.inf).contains(np.array([9.0, 9.0]), 1e-9)


def test_ray_contains_forward_only():
    ray = HalfLineRay(np.array([1.0]), np.array([1.0]))
    assert ray.contains(np.array([3.0]), 1e-9)
    assert not ray.contains(np.array([0.5]), 1e-9)
    skew = HalfLineRay(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert skew.contains(np.array([2.0, 2.0]), 1e-9)
    assert not skew.contains(np.array([2.0, 1.0]), 1e-9)


def test_ray_rejects_zero_direction():
    with pytest.raises(ValueError):
        HalfLineRay(np.array([0.0]), np.array([0.0]))


# ---------------------------------------------------------------------------
# law graph container


def test_law_requires_pairs():
    with pytest.raises(ValueError):
        LawGraph([])


def test_domain_image_first_appearance_order():
    law = law_1d([(1, 5), (0, 5), (1, 6)])
    assert [v[0] for v in law.domain()] == [1.0, 0.0]
    assert [v[0] for v in law.image()] == [5.0, 6.0]


def loop_distinct_rows(a):
    """First row at each distinct coordinate, by pairwise float comparison."""
    out = []
    for row in a:
        if not any(np.array_equal(row, seen) for seen in out):
            out.append(row.copy())
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_distinct_rows_match_a_plain_loop(dim):
    rng = np.random.default_rng(dim)
    values = np.array([0.0, -0.0, 1.5, -2.0])
    for _ in range(20):
        a = rng.choice(values, size=(int(rng.integers(1, 30)), dim))
        got, want = _distinct_rows(a), loop_distinct_rows(a)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            # the first row itself, its zero signs included
            assert g.tolist() == w.tolist() and np.array_equal(np.signbit(g), np.signbit(w))
        got[0][0] = 7.0
        assert 7.0 not in a


def test_domain_and_image_keep_the_first_signed_zero():
    law = LawGraph([(v(-0.0, 1.0), v(0.0, 0.0)), (v(0.0, 1.0), v(-0.0, -0.0)),
                    (v(2.0, 0.0), v(0.0, 0.0))])
    assert [x.tolist() for x in law.domain()] == [[-0.0, 1.0], [2.0, 0.0]]
    assert np.signbit(law.domain()[0][0])
    assert [y.tolist() for y in law.image()] == [[0.0, 0.0]]
    assert not np.signbit(law.image()[0]).any()


def test_slices():
    law = law_1d([(0, -1), (0, 1), (1, 1)])
    assert sorted(v[0] for v in law.slice([0.0])) == [-1.0, 1.0]
    assert sorted(v[0] for v in law.dual_slice([1.0])) == [0.0, 1.0]


def test_contains_stored_pairs_and_snap():
    law = law_1d([(0.5, 1.0)])
    assert law.contains([0.5], [1.0])
    assert not law.contains([0.5 + 1e-12], [1.0])
    assert law.contains([0.5 + 1e-12], [1.0], snap=2 ** -20)


def test_contains_through_hints():
    law = law_1d([(0, -1), (0, 1)],
                 primal_hints={(0.0,): Segment(np.array([-1.0]), np.array([1.0]))})
    assert law.contains([0.0], [0.25])
    assert not law.contains([0.0], [1.25])


def test_hint_anchor_must_be_in_domain():
    with pytest.raises(ValueError):
        law_1d([(0, 0)], primal_hints={(3.0,): Singleton(np.array([0.0]))})


def test_stored_pair_must_sit_inside_hint():
    with pytest.raises(ValueError):
        law_1d([(0, -1), (0, 1)],
               primal_hints={(0.0,): Singleton(np.array([-1.0]))})


def long_hinted_law(bad_primal=None, bad_dual=None):
    """300 pairs: x = 0 for the even indices, hinted by the segment [0, 2]
    of y; y = 5 for the odd ones, hinted by the segment [1, 3] of x. A bad
    index moves its pair outside the hint on its side."""
    pairs = [(0.0, (k % 20) / 10) if k % 2 == 0 else (1.0 + (k % 20) / 10, 5.0)
             for k in range(300)]
    if bad_primal is not None:
        pairs[bad_primal] = (0.0, 2.5)
    if bad_dual is not None:
        pairs[bad_dual] = (0.5, 5.0)
    return law_1d(pairs, primal_hints={(0.0,): Segment(np.array([0.0]), np.array([2.0]))},
                  dual_hints={(5.0,): Segment(np.array([1.0]), np.array([3.0]))})


def test_long_hinted_law_reports_its_first_bad_pair():
    assert len(long_hinted_law()) == 300
    with pytest.raises(ValueError) as exc:
        long_hinted_law(bad_primal=288)
    assert str(exc.value) == ("pair 288: y [2.5] lies outside the declared "
                              "primal slice hint at x [0.0]")
    with pytest.raises(ValueError) as exc:
        long_hinted_law(bad_dual=291)
    assert str(exc.value) == ("pair 291: x [0.5] lies outside the declared "
                              "dual slice hint at y [5.0]")
    # the lowest index wins, whichever side it is on
    with pytest.raises(ValueError, match="^pair 291: x"):
        long_hinted_law(bad_primal=298, bad_dual=291)
    with pytest.raises(ValueError, match="^pair 296: y"):
        long_hinted_law(bad_primal=296, bad_dual=299)


def test_hint_failures_at_one_pair_report_the_primal_side_first():
    pairs = [(0.0, 0.0)] * 50 + [(0.0, 3.0)]
    with pytest.raises(ValueError, match="^pair 50: y \\[3.0\\] .* primal"):
        law_1d(pairs, primal_hints={(0.0,): Singleton(np.array([0.0]))},
               dual_hints={(3.0,): Singleton(np.array([1.0]))})


HINT_COORDS = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def hinted_pairs(draw):
    """1-12 pairs in dims 1-3, and hints of every shape (degenerate
    segments, zero and infinite radii among them) anchored at some of the
    stored x and y coordinates."""
    dim = draw(st.integers(1, 3))
    vec = st.lists(HINT_COORDS, min_size=dim, max_size=dim).map(np.array)
    pairs = draw(st.lists(st.tuples(vec, vec), min_size=1, max_size=12))

    def hint():
        shape = draw(st.sampled_from([Singleton, Segment, Ball, HalfLineRay]))
        if shape is Singleton:
            return Singleton(draw(vec))
        if shape is Segment:
            return Segment(draw(vec), draw(vec))
        if shape is Ball:
            return Ball(draw(vec), draw(st.sampled_from([0.0, 0.5, 1.5, np.inf])))
        return HalfLineRay(draw(vec), draw(vec.filter(lambda d: d.any())))

    def hints(points):
        keys = {tuple(p.tolist()): None for p in points}
        return {key: hint() for key in draw(st.lists(st.sampled_from(list(keys)), unique=True))}

    return pairs, hints([x for x, _ in pairs]), hints([y for _, y in pairs])


@settings(max_examples=150, deadline=None)
@given(hinted_pairs())
def test_hint_validation_reports_the_oracles_first_bad_pair(data):
    # pair by pair, primal before dual: the first stored pair outside a
    # hint that mentions it
    pairs, primal, dual = data
    want = None
    for i, (x, y) in enumerate(pairs):
        for side, hints, at, other, a, o in (("primal", primal, x, y, "x", "y"),
                                              ("dual", dual, y, x, "y", "x")):
            held = hints.get(tuple(at.tolist()))
            if want is None and held is not None and not oracle_hint_holds(held, other.tolist(), 1e-9):
                want = (f"pair {i}: {o} {other.tolist()} lies outside the declared "
                        f"{side} slice hint at {a} {at.tolist()}")
    if want is None:
        LawGraph(pairs, primal_hints=primal, dual_hints=dual)
    else:
        with pytest.raises(ValueError) as exc:
            LawGraph(pairs, primal_hints=primal, dual_hints=dual)
        assert str(exc.value) == want


# ---------------------------------------------------------------------------
# BB screen


def test_two_point_slice_without_hint_fails_at_midpoint():
    report = bb_check(law_1d([(0, -1), (0, 1)]))
    assert not report.is_bb_graph
    assert report.failing_slice.which == "primal"
    assert report.failing_slice.at.tolist() == [0.0]
    assert report.failing_slice.witness_midpoint.tolist() == [0.0]


def test_hinted_slice_passes():
    law = law_1d([(0, -1), (0, 1)],
                 primal_hints={(0.0,): Segment(np.array([-1.0]), np.array([1.0]))})
    assert bb_check(law).is_bb_graph


def test_dual_slice_failure_detected():
    report = bb_check(law_1d([(-1, 0), (1, 0)]))
    assert not report.is_bb_graph
    assert report.failing_slice.which == "dual"
    assert report.failing_slice.at.tolist() == [0.0]


def test_singleton_slices_always_pass():
    assert bb_check(law_1d([(0, 0), (1, 1), (2, 4)])).is_bb_graph


def test_slice_gathers_non_adjacent_repeats_in_storage_order():
    # x = 0 recurs around x = 1; its slice is [2, 0, 1] in storage order, so
    # the first missing midpoint is (2 + 1) / 2, not (0 + 1) / 2
    report = bb_check(law_1d([(0, 2), (1, 5), (0, 0), (1, 5), (0, 1)]))
    assert not report.is_bb_graph
    assert report.failing_slice.which == "primal"
    assert report.failing_slice.at.tolist() == [0.0]
    assert report.failing_slice.witness_midpoint.tolist() == [1.5]


# ---------------------------------------------------------------------------
# cyclic monotonicity


def test_weight_matrix_formula():
    law = law_1d([(0, 1), (2, 3)])
    w = weight_matrix(law)
    assert w[0, 0] == 0.0 and w[1, 1] == 0.0
    assert w[0, 1] == (2.0 - 0.0) * 1.0
    assert w[1, 0] == (0.0 - 2.0) * 3.0


def test_antitone_pair_is_rejected_with_cycle():
    law = law_1d([(0, 0), (1, -1)])
    report = cyclic_monotonicity_check(law)
    assert_refusal_is_exact(law, report, 1e-9)
    assert report.witness_cycle == (0, 1)
    assert report.cycle_sum == 1.0


def test_monotone_chain_accepted():
    report = cyclic_monotonicity_check(law_1d([(0, 0), (1, 1), (2, 2)]))
    assert report.cyclically_monotone and report.witness_cycle is None


def test_borderline_cycle_counts_as_monotone():
    tol = 1e-9
    report = cyclic_monotonicity_check(law_1d([(0, 0), (1, -tol / 2)]), tol=tol)
    assert report.cyclically_monotone
    law = law_1d([(0, 0), (1, -2 * tol)])
    assert_refusal_is_exact(law, cyclic_monotonicity_check(law, tol=tol), tol)


def test_detector_agrees_with_exhaustive_enumeration():
    rng = np.random.default_rng(2024)
    tol = 1e-9
    for _ in range(150):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 3))
        law = LawGraph([(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
                        for _ in range(m)])
        report = cyclic_monotonicity_check(law, tol=tol)
        w = weight_matrix(law)
        ok, _, best = exhaustive_cycle_check(w, tol)
        assert report.cyclically_monotone == ok, (law.pairs, best)
        if not ok:
            assert cycle_sum(w, report.witness_cycle) > tol
            assert_refusal_is_exact(law, report, tol)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the cycle screen's tolerance per "
                   "relaxation and the oracle's tolerance per cycle disagree")
def test_repeated_pairs_cycle_agrees_with_exhaustive_enumeration():
    # each two-pair cycle sums 1e-9, inside tol; the oracle finds the cycle
    # (0, 2, 1, 3) through both copies of each pair, which sums 2e-9
    law = law_1d([(0, 1e-9), (0, 1e-9), (1, 0), (1, 0)])
    ok, _, _ = exhaustive_cycle_check(weight_matrix(law), 1e-9)
    assert cyclic_monotonicity_check(law).cyclically_monotone == ok


def test_exhaustive_enumeration_finds_the_repeated_pairs_cycle():
    law = law_1d([(0, 1e-9), (0, 1e-9), (1, 0), (1, 0)])
    ok, cycle, best = exhaustive_cycle_check(weight_matrix(law), 1e-9)
    assert (bool(ok), cycle, float(best)) == (False, (0, 2, 1, 3), 2e-9)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                min_size=1, max_size=5))
def test_detector_agreement_property(pairs):
    law = law_1d(pairs)
    report = cyclic_monotonicity_check(law)
    ok, _, _ = exhaustive_cycle_check(weight_matrix(law), 1e-9)
    assert report.cyclically_monotone == ok
    if not ok:
        assert_refusal_is_exact(law, report, 1e-9)


def test_gradient_samples_are_cyclically_monotone():
    # subgradient pairs of a convex function can never fail the screen
    g = np.linspace(-2, 2, 9)
    law = graph_of(Quadratic(1.0, 1), g, g)
    assert cyclic_monotonicity_check(law).cyclically_monotone


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_identity_samples():
    law = law_1d([(0, 0), (1, 1), (2, 2)])
    phi = rockafellar_reconstruct(law, base=0)
    assert isinstance(phi, MaxAffine)
    got = sorted((s[0], o) for s, o in phi.pieces)
    assert got == [(0.0, 0.0), (1.0, -1.0), (2.0, -3.0)]


def test_reconstruct_normalizes_base_to_zero():
    law = law_1d([(0, 0), (1, 1), (2, 2)])
    for base in range(3):
        phi = rockafellar_reconstruct(law, base=base)
        assert phi.value(law.xs[base]) == 0.0


def test_reconstruct_single_pair():
    phi = rockafellar_reconstruct(law_1d([(1.5, 2.0)]))
    assert [(tuple(s), o) for s, o in phi.pieces] == [((2.0,), 0.0 - 1.5 * 2.0)]


def test_reconstruct_rejects_antitone():
    law = law_1d([(0, 0), (1, -1)])
    with pytest.raises(NotCyclicallyMonotoneError) as exc:
        rockafellar_reconstruct(law)
    assert exc.value.report.witness_cycle == (0, 1)
    assert_refusal_is_exact(law, exc.value.report, 1e-9)


def test_reconstruct_interpolates_subgradients():
    # every sample must be a subgradient pair of the rebuilt function
    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(-2, 2, 6))
    ys = np.sort(rng.uniform(-2, 2, 6))  # sorted pairs are monotone in 1-d
    law = LawGraph([(np.array([x]), np.array([y])) for x, y in zip(xs, ys)])
    phi = rockafellar_reconstruct(law)
    for x, y in law.pairs:
        assert subdifferential_contains(phi, x, y, tol=1e-9, primal_grid=law.xs)


# ---------------------------------------------------------------------------
# oracle parity: the sweeps that stop at their fixed point or at a closed
# cycle, the doubling cycle extraction and the array slice screen against
# the one-sweep-at-a-time, per-node and pair-by-pair originals, bit for bit

DYADIC = st.integers(-8, 8).map(lambda k: k / 4)


@st.composite
def oracle_laws(draw):
    """Small laws over dyadic coordinates, so weights tie and cycle sums are
    exact: monotone (a nondecreasing map per coordinate), arbitrary, or
    monotone with a tiny noise that leaves cycle sums in (0, tol]."""
    m = draw(st.integers(1, 9))
    dim = draw(st.integers(1, 3))
    xs = np.array(draw(st.lists(st.lists(DYADIC, min_size=dim, max_size=dim),
                                min_size=m, max_size=m)))
    kind = draw(st.sampled_from(["monotone", "arbitrary", "arbitrary", "borderline", "borderline"]))
    if kind == "arbitrary":
        ys = np.array(draw(st.lists(st.lists(DYADIC, min_size=dim, max_size=dim),
                                    min_size=m, max_size=m)))
    else:
        # y_d = slope_d * x_d rounded down to a step: nondecreasing in x_d
        slopes = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=dim, max_size=dim))
        steps = draw(st.lists(st.sampled_from([0.25, 1.0]), min_size=dim, max_size=dim))
        ys = np.floor(xs * slopes / steps) * steps
        if kind == "borderline":
            noise = draw(st.lists(st.floats(-2e-10, 2e-10), min_size=m * dim, max_size=m * dim))
            ys = ys + np.array(noise).reshape(m, dim)
    return LawGraph(list(zip(xs, ys)))


def assert_reports_match_oracles(law, tol):
    w = weight_matrix(law)
    pred, improvement = kernels.bellman_ford(-w, tol)
    want_pred, want_improvement, _, stopped = oracle_checked_bellman_ford(-w, tol)
    assert pred.tobytes() == want_pred.tobytes()
    assert improvement.tobytes() == want_improvement.tobytes()
    if not stopped:
        want_pred, want_improvement = oracle_bellman_ford(-w)
        assert pred.tobytes() == want_pred.tobytes()
        assert improvement.tobytes() == want_improvement.tobytes()
    for base in range(len(law)):
        assert kernels.longest_path(w, base).tobytes() == oracle_longest_path(w, base).tobytes()
    report = cyclic_monotonicity_check(law, tol)
    ok, cycle, total = oracle_cycle_witness(w, tol)
    assert (report.cyclically_monotone, report.witness_cycle) == (ok, cycle)
    assert np.float64(report.cycle_sum).tobytes() == np.float64(total).tobytes()
    if not ok:
        assert_refusal_is_exact(law, report, tol)
    # the full sweeps may miss a cycle a check found, never the reverse, and
    # then the cycle found must sum exactly above tol
    if oracle_full_sweep_verdict(w, tol) != ok:
        assert not ok
        assert exact_cycle_sum(law.xs, law.ys, cycle) > Fraction(tol)
    if ok:
        phi = rockafellar_reconstruct(law, base=len(law) - 1, tol=tol)
        c = oracle_longest_path(w, len(law) - 1)
        want = [c[i] - sum([a * b for a, b in zip(x, y)], 0.0)
                for i, (x, y) in enumerate(zip(law.xs.tolist(), law.ys.tolist()))]
        assert phi.offsets.tobytes() == np.array(want).tobytes()


@settings(max_examples=150, deadline=None)
@given(oracle_laws(), st.sampled_from([0.0, 1e-9]))
def test_sweeps_and_witness_match_the_full_sweep_oracles(law, tol):
    assert_reports_match_oracles(law, tol)


def test_oracle_parity_on_edge_laws():
    tol = 1e-9
    cases = [
        law_1d([(0.5, 2.0)]),                          # n = 1
        law_1d([(0, 0), (1, -1)]),                     # n = 2, refuting
        law_1d([(0, 0), (1, 1)]),                      # n = 2, monotone
        law_1d([(0, 0), (1, -tol / 2)]),               # cycle sum in (0, tol]
        law_1d([(0, 0), (0, 0), (1, 0), (1, 0)]),      # every weight tied at 0
        law_1d([(0, 1), (1, 0), (2, -1), (0, 1)]),     # repeated pairs, refuting
    ]
    for law in cases:
        assert_reports_match_oracles(law, tol)


def test_tied_cycles_keep_the_first_found_witness():
    # expectations from the oracle: the first law stops after sweep 1 with
    # one cycle closed; in the second, the predecessors at the stop close two
    # cycles of sum 9, and the one with the smaller lead node wins
    law = law_1d([(-1, 1), (0, -2), (1, -1), (-2, 0), (-1, 0), (-2, -2)])
    assert_reports_match_oracles(law, 1e-9)
    report = cyclic_monotonicity_check(law)
    assert (report.witness_cycle, report.cycle_sum) == ((0, 1), 3.0)
    law = LawGraph([(np.array(x), np.array(y)) for x, y in zip(
        [[1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [-1.0, -1.0], [-1.0, 2.0], [2.0, -1.0]],
        [[1.0, 0.0], [-2.0, -2.0], [2.0, -2.0], [0.0, 1.0], [-1.0, -2.0], [1.0, 2.0]])])
    w = weight_matrix(law)
    pred, _, sweeps, stopped = oracle_checked_bellman_ford(-w, 1e-9)
    assert (sweeps, stopped) == (1, True)
    assert [(c, exact_cycle_sum(law.xs, law.ys, c)) for c in oracle_pred_cycles(pred)] == [((2, 5), 9), ((3, 4), 9)]
    assert_reports_match_oracles(law, 1e-9)
    assert cyclic_monotonicity_check(law).witness_cycle == (2, 5)


def test_a_swapped_pair_among_200_stops_after_sweep_1(pred_checks):
    # y = 2x on dyadic x, with the slopes of the two end samples swapped:
    # each is the other's best predecessor from the first sweep on
    x = (np.arange(200) - 100) / 64
    y = 2 * x
    y[[0, 199]] = y[[199, 0]]
    law = law_1d(list(zip(x, y)))
    w = weight_matrix(law)
    _, _, sweeps, stopped = oracle_checked_bellman_ford(-w, 1e-9)
    assert (sweeps, stopped) == (1, True)
    report = cyclic_monotonicity_check(law)
    assert len(pred_checks) == 2  # the check after sweep 1, then the witness
    assert report.witness_cycle == (0, 199)
    assert_refusal_is_exact(law, report, 1e-9)
    assert_reports_match_oracles(law, 1e-9)


def test_a_cycle_summing_within_tol_runs_every_sweep(pred_checks):
    # 40 samples of y = 2x away from [0, 1], and (0, 0), (1, -tol/2): their
    # 2-cycle sums to tol/2, so no check stops the run and the law passes
    tol = 1e-9
    x = np.concatenate([np.arange(-20, 0), np.arange(9, 29)]) / 8
    law = law_1d(list(zip(x, 2 * x)) + [(0.0, 0.0), (1.0, -tol / 2)])
    n = len(law)
    w = weight_matrix(law)
    assert 0 < exact_cycle_sum(law.xs, law.ys, (40, 41)) <= Fraction(tol)
    _, _, sweeps, stopped = oracle_checked_bellman_ford(-w, tol)
    assert (sweeps, stopped) == (n, False)
    report = cyclic_monotonicity_check(law, tol)
    assert report.cyclically_monotone
    # checks after sweeps 1, 2, 4, 8, 16, 32, then the final predecessors
    assert len(pred_checks) == 7
    assert_reports_match_oracles(law, tol)


def assert_bb_matches_oracle(law, tol):
    report = bb_check(law, tol)
    ok, which, at, mid = oracle_bb_check(law, tol)
    assert report.is_bb_graph == ok
    if not ok:
        fs = report.failing_slice
        assert fs.which == which
        assert fs.at.tobytes() == np.array(at).tobytes()
        assert fs.witness_midpoint.tobytes() == np.array(mid).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), min_size=2, max_size=2),
                          st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0]), min_size=2, max_size=2)),
                min_size=1, max_size=12),
       st.sampled_from([0.0, 0.3, 1.0]))
def test_bb_check_matches_the_midpoint_oracle(pairs, tol):
    assert_bb_matches_oracle(LawGraph([(np.array(x), np.array(y)) for x, y in pairs]), tol)


def test_bb_check_signed_zero_slices_match_the_oracle():
    # -0.0 and 0.0 share a slice, led by the first stored row
    law = law_1d([(-0.0, 1.0), (0.0, -1.0), (0.0, 0.5), (2.0, -0.0), (3.0, 0.0)])
    assert_bb_matches_oracle(law, 1e-9)
    report = bb_check(law)
    assert report.failing_slice.at.tobytes() == np.array([-0.0]).tobytes()
    assert report.failing_slice.witness_midpoint.tolist() == [0.0]
    assert_bb_matches_oracle(law_1d([(1.0, -0.0), (1.0, 0.0), (2.0, 1.0)]), 0.0)
    hinted = law_1d([(-0.0, 1.0), (0.0, -1.0), (1.0, 3.0), (1.0, 5.0)],
                    primal_hints={(0.0,): Segment(np.array([-1.0]), np.array([1.0]))})
    assert_bb_matches_oracle(hinted, 1e-9)
    assert bb_check(hinted).failing_slice.at.tolist() == [1.0]


def test_bb_check_large_slice_matches_the_oracle():
    # 120 members on one slice: the midpoints span several chunks
    ys = list(np.linspace(0.0, 1.0, 119)) + [3.0]
    assert_bb_matches_oracle(law_1d([(0.0, y) for y in ys]), 1e-9)
    assert_bb_matches_oracle(law_1d([(0.0, y) for y in ys[:-1]]), 1e-3)


# ---------------------------------------------------------------------------
# plane-wise pairing: weights, snap distances and midpoint distances against
# scalar pairings, bit for bit

WIDE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1e-150, 1e150)).map(lambda t: t[0] * t[1]))


@st.composite
def wide_laws(draw):
    """Laws in dims 1-3 with coordinates of magnitude 1e-150 to 1e150 or
    signed zeros, some pairs repeating the x of one drawn pair and the y
    of another (or of the same one)."""
    dim = draw(st.integers(1, 3))
    row = st.lists(WIDE, min_size=dim, max_size=dim)
    pairs = draw(st.lists(st.tuples(row, row), min_size=1, max_size=8))
    index = st.integers(0, len(pairs) - 1)
    pairs += [(pairs[a][0], pairs[b][1])
              for a, b in draw(st.lists(st.tuples(index, index), max_size=4))]
    return LawGraph([(np.array(x), np.array(y)) for x, y in pairs])


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@settings(max_examples=200, deadline=None)
@given(wide_laws())
def test_plane_wise_pairings_equal_scalar_pairings_bit_for_bit(law):
    xs, ys = law.xs, law.ys
    rows = range(len(law))
    w = weight_matrix(law)
    d2 = _diff_inner(xs[None], xs[:, None])
    assert bits(w) == bits([[inner(xs[j] - xs[i], ys[i]) for j in rows] for i in rows])
    assert bits(d2) == bits([[inner(xs[j] - xs[i], xs[j] - xs[i]) for j in rows] for i in rows])
    assert bits(w) == bits(_batch_inner(xs[None] - xs[:, None], ys[:, None]))
    assert bits(d2) == bits(_batch_norm2(xs[None] - xs[:, None]))


QUARTERS = st.one_of(DYADIC, st.just(-0.0))


def quarter_hint(draw, row, point):
    """A hint of a drawn shape through ``point``: the singleton, a segment
    from it, a ball around it or a ray out of it."""
    shape = draw(st.sampled_from([Singleton, Segment, Ball, HalfLineRay]))
    if shape is Singleton:
        return Singleton(point)
    if shape is Segment:
        return Segment(point, np.array(draw(row)))
    if shape is Ball:
        return Ball(point, draw(st.sampled_from([0.0, 0.5, np.inf])))
    return HalfLineRay(point, np.array(draw(row.filter(any))))


def hinted_law(draw, row, pairs):
    """The pairs under hints of drawn shapes, at some of their x and y: a
    hint passes through the first pair at its anchor, and only the pairs
    inside every hint that mentions them are kept (the first one always)."""
    def hints(at, other):
        firsts = {}
        for a, o in zip(at, other):
            firsts.setdefault(tuple(a), o)
        keys = draw(st.lists(st.sampled_from(list(firsts)), unique=True))
        return {key: quarter_hint(draw, row, np.array(firsts[key])) for key in keys}

    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    primal, dual = hints(xs, ys), hints(ys, xs)
    kept = [(x, y) for x, y in pairs
            if (tuple(x) not in primal or oracle_hint_holds(primal[tuple(x)], y, 1e-9))
            and (tuple(y) not in dual or oracle_hint_holds(dual[tuple(y)], x, 1e-9))]
    primal = {k: h for k, h in primal.items() if any(tuple(x) == k for x, _ in kept)}
    dual = {k: h for k, h in dual.items() if any(tuple(y) == k for _, y in kept)}
    return LawGraph([(np.array(x), np.array(y)) for x, y in kept],
                    primal_hints=primal, dual_hints=dual)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_membership_matches_the_oracle(data):
    dim = data.draw(st.integers(1, 3))
    row = st.lists(QUARTERS, min_size=dim, max_size=dim)
    pairs = data.draw(st.lists(st.tuples(row, row), min_size=1, max_size=6))
    if data.draw(st.booleans()):
        # hints of mixed shapes on either side
        law = hinted_law(data.draw, row, pairs)
    else:
        law = LawGraph([(np.array(x), np.array(y)) for x, y in pairs])
    # probes: stored coordinates and free points
    stored_x = st.sampled_from([x for x, _ in pairs])
    stored_y = st.sampled_from([y for _, y in pairs])
    xg = data.draw(st.lists(st.one_of(stored_x, row), min_size=1, max_size=6))
    yg = data.draw(st.lists(st.one_of(stored_y, row), min_size=1, max_size=6))
    snap = data.draw(st.sampled_from([0.0, 0.25, 0.3, 1.0]))
    got = law._membership(np.array(xg), np.array(yg), snap)
    assert got.tolist() == [[oracle_law_member(law, x, y, snap) for y in yg] for x in xg]


def test_membership_reads_two_shapes_on_each_side():
    law = LawGraph(
        [(v(0, 0), v(0.5, 0)), (v(1, 0), v(1, 0)), (v(2, 0), v(1, 0)), (v(0, 1), v(0, 1))],
        primal_hints={(0.0, 0.0): Ball(v(0, 0), 1.0), (1.0, 0.0): Singleton(v(1, 0)),
                      (0.0, 1.0): Segment(v(0, 1), v(0, 2))},
        dual_hints={(1.0, 0.0): HalfLineRay(v(1, 0), v(1, 0)), (0.0, 1.0): Singleton(v(0, 1))})
    grid = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 0.0], [0.0, 1.5], [-0.0, 1.0]])
    got = law._membership(grid, grid, 0.0)
    want = [[oracle_law_member(law, x, y) for y in grid.tolist()] for x in grid.tolist()]
    assert got.tolist() == want
    assert got[:, 4].tolist() == [False, False, True, False, False, True]  # the segment's interior
    assert got[3, 1] and not got[3, 0]  # x = (3, 0) on the dual ray at y = (1, 0)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_slices_and_pair_keys_match_a_brute_force(data):
    dim = data.draw(st.integers(1, 3))
    row = st.lists(QUARTERS, min_size=dim, max_size=dim)
    pairs = data.draw(st.lists(st.tuples(row, row), min_size=1, max_size=8))
    law = LawGraph([(np.array(x), np.array(y)) for x, y in pairs])
    probe = data.draw(st.one_of(st.sampled_from([c for pair in pairs for c in pair]), row))

    def signed(vectors):
        return [(c.tolist(), np.signbit(c).tolist()) for c in vectors]

    assert signed(law.slice(probe)) == signed(np.array(y) for x, y in pairs if x == probe)
    assert signed(law.dual_slice(probe)) == signed(np.array(x) for x, y in pairs if y == probe)
    assert law.pair_keys() == {(tuple(map(float, x)), tuple(map(float, y))) for x, y in pairs}
    got = law.slice(probe)
    if got:
        got[0][0] = 7.0
        assert 7.0 not in law.ys


@pytest.mark.parametrize("chunk", [numerics.SWEEP_CHUNK, 7])
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), min_size=2, max_size=2),
                          st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0]), min_size=2, max_size=2)),
                min_size=1, max_size=12),
       st.sampled_from([0.0, 0.3, 1.0]))
def test_bb_check_midpoints_match_the_oracle_in_any_chunk(chunk, pairs, tol):
    law = LawGraph([(np.array(x), np.array(y)) for x, y in pairs])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "SWEEP_CHUNK", chunk)
        assert_bb_matches_oracle(law, tol)


def traced_peak(fn):
    fn()  # first calls allocate once-only caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_law_screen_peak_memory_stays_under_four_weight_planes():
    # the screen holds three n x n planes (w, its negation and the sweeps'
    # candidates) and a few vectors
    n = 200
    rng = np.random.default_rng(5)
    xs = rng.uniform(-2.0, 2.0, size=(n, 2))
    ys = xs @ np.array([[2.0, 0.5], [0.5, 1.0]])  # the gradient of a convex quadratic
    monotone = LawGraph._from_arrays(xs, ys)
    swapped = LawGraph._from_arrays(xs, ys[::-1].copy())
    plane = n * n * 8
    assert traced_peak(lambda: cyclic_monotonicity_check(monotone)) < 4 * plane
    assert traced_peak(lambda: rockafellar_reconstruct(monotone)) < 4 * plane
    assert traced_peak(lambda: cyclic_monotonicity_check(swapped)) < 4 * plane
    assert cyclic_monotonicity_check(monotone).cyclically_monotone
    assert not cyclic_monotonicity_check(swapped).cyclically_monotone
