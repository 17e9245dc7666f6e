"""The stacked BIC screen against the tuple-by-tuple oracle.

Reports must agree exactly: verdict, tuple count, and every counterexample
field in order, deficits to the bit; errors must match in type and message.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipotkit import (
    INF,
    Affine,
    BICProbePlan,
    ClosedInterval,
    Cover,
    FiniteSet,
    IndicatorBall,
    IndicatorPoint,
    MinusInfinityError,
    NormFamily,
    Quadratic,
    QuadraticFamily,
    ScaledNorm,
    TabulatedFamily,
    bic_check,
    default_probe_plan,
    embed_dual,
    embed_primal,
    norm_cover,
    quadratic_cover,
    separable_cover,
    tabulated_cover,
)
from bipotkit import bipotentials, numerics
from bipotkit.demos import nonbic_cover

from .oracles import oracle_bic_check


def assert_same_report(got, want):
    assert got.is_bic == want.is_bic
    assert got.tuples_checked == want.tuples_checked
    assert len(got.counterexamples) == len(want.counterexamples)
    for g, w in zip(got.counterexamples, want.counterexamples):
        assert (g.argument, g.lam1, g.lam2, g.alpha) == (w.argument, w.lam1, w.lam2, w.alpha)
        for name in ("z1", "z2", "fixed"):
            assert getattr(g, name).tolist() == getattr(w, name).tolist()
        assert float(g.deficit).hex() == float(w.deficit).hex()


def check_against_oracle(cover, plan=None):
    want = oracle_bic_check(cover, plan)
    got = bic_check(cover, plan)
    assert_same_report(got, want)
    return got


def interval_cover(family, dim, lo, hi, includes_infinity=False, **grid):
    fam = QuadraticFamily(dim) if family == "quadratic" else NormFamily(dim)
    return Cover(ClosedInterval(lo, hi, includes_infinity=includes_infinity, **grid), fam)


def tabulated(kind, lams, dim):
    if kind == "quadratic":
        return tabulated_cover([(lam, Quadratic(lam, dim), Quadratic(1.0 / lam, dim))
                                for lam in lams])
    return tabulated_cover([(lam, ScaledNorm(lam, dim), IndicatorBall(lam, dim))
                            for lam in lams])


@pytest.mark.parametrize("make", [quadratic_cover, norm_cover])
def test_full_covers_match_oracle(make):
    report = check_against_oracle(make(dim=1))
    assert report.is_bic and report.tuples_checked == 40320


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("make", [quadratic_cover, norm_cover])
def test_full_covers_match_oracle_in_higher_dimensions(make, dim):
    # equal, ascending and descending member pairs of the default plan
    cover = make(dim=dim)
    plan = default_probe_plan(cover)
    pairs = ((0.5, 0.5), (0.5, 4.0), (4.0, 1.0), (2.0, 1.0))
    assert set(pairs) <= set(plan.lam_pairs)
    check_against_oracle(cover, BICProbePlan(pairs, plan.alphas, plan.primal_points,
                                             plan.dual_points))


@pytest.mark.parametrize("family", ["quadratic", "norm"])
@pytest.mark.parametrize("lo, hi, inf_member, grid", [
    (0.31, 1.7, False, {"grid_points": 200}),
    (0.9, 3.3, False, {"grid_points": 450, "grid_lo": 3e-4, "grid_hi": 250.0}),
    (1.5, INF, False, {"grid_points": 384}),
    (1.5, INF, True, {"grid_points": 512, "grid_lo": 1e-3, "grid_hi": 5e3}),
])
def test_interval_covers_match_oracle(family, lo, hi, inf_member, grid):
    for dim in (1, 3):
        check_against_oracle(interval_cover(family, dim, lo, hi, inf_member, **grid))


def test_separable_covers_match_oracle():
    check_against_oracle(separable_cover(Quadratic(2.0, 1)))
    check_against_oracle(separable_cover(ScaledNorm(1.5, 2)))


def test_nonbic_cover_matches_oracle():
    report = check_against_oracle(nonbic_cover())
    assert not report.is_bic
    assert any(c.deficit == INF for c in report.counterexamples)


@pytest.mark.parametrize("kind, lams, dim", [
    ("quadratic", (0.25, 2.0, 8.0), 2),
    ("quadratic", (0.5, 1.0, 4.0), 1),
    ("norm", (0.5, 1.0, 4.0), 3),
    ("norm", (0.25, 2.0, 8.0), 1),
])
def test_three_member_tabulated_covers_match_oracle(kind, lams, dim):
    report = check_against_oracle(tabulated(kind, lams, dim))
    assert not report.is_bic
    assert {c.argument for c in report.counterexamples} <= {"first", "second"}


def small_plan(dim, lam_pairs, alphas):
    xs = tuple(embed_primal(s, dim) for s in (-1.5, 0.0, 0.5, 2.0))
    ys = tuple(embed_dual(t, dim) for t in (-1.0, 0.0, 1.25))
    return BICProbePlan(tuple(lam_pairs), tuple(alphas), xs, ys)


def test_plan_outside_the_domain_matches_oracle():
    # members outside [lo, hi] and weights outside [0, 1] leave no candidate;
    # the members still enter the right side
    pairs = [(0.1, 2.0), (5.0, 0.5), (-1.0, 1.0), (2.0, 2.0)]
    alphas = (-0.5, 0.0, 0.3, 1.0, 1.5)
    for family in ("quadratic", "norm"):
        for dim in (1, 2):
            cover = interval_cover(family, dim, 0.4, 3.0, grid_points=64)
            check_against_oracle(cover, small_plan(dim, pairs, alphas))
    for make in (quadratic_cover, norm_cover):
        check_against_oracle(make(dim=2, grid_points=64), small_plan(2, pairs, alphas))


def test_untabulated_member_raises_like_oracle():
    cover = tabulated("quadratic", (0.5, 1.0, 4.0), 1)
    plan = small_plan(1, [(0.5, 1.0), (1.0, 3.0)], (0.5,))
    with pytest.raises(ValueError) as want:
        oracle_bic_check(cover, plan)
    with pytest.raises(ValueError) as got:
        bic_check(cover, plan)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_errors_come_in_plan_order():
    # the NaN in the later pair is rejected by validation, which would run
    # first if the whole plan were validated up front
    cover = tabulated("quadratic", (0.5, 1.0, 4.0), 1)
    plan = small_plan(1, [(0.5, 3.0), (1.0, np.nan)], (0.5, 1.0))
    with pytest.raises(ValueError) as want:
        oracle_bic_check(cover, plan)
    with pytest.raises(ValueError) as got:
        bic_check(cover, plan)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value) == "lambda 3.0 is not tabulated"


def test_errors_come_in_plan_order_across_slots():
    # the first block's candidate is NaN in its second slot alone and a
    # later block's is -inf in its first slot alone: like the tuple-by-tuple
    # search, the screen raises the first block's error, whatever its slot
    def candidate(self, lam1, lam2, alpha, y):
        return -INF if lam1 == 2.0 else QuadraticFamily.candidate(self, lam1, lam2, alpha, y)

    def candidate_dual(self, lam1, lam2, alpha, x):
        return np.nan if lam1 == 1.0 else QuadraticFamily.candidate_dual(self, lam1, lam2, alpha, x)

    # named after the family it extends, whose members the oracle evaluates
    family = type("QuadraticFamily", (QuadraticFamily,),
                  {"candidate": candidate, "candidate_dual": candidate_dual})(1)
    cover = Cover(ClosedInterval(0.25, 8.0, grid_points=64), family)
    plan = small_plan(1, [(1.0, 2.0), (2.0, 4.0)], (0.5,))
    message = "lambda is nan; only finite values and +inf are allowed"
    with pytest.raises(MinusInfinityError) as want:
        oracle_bic_check(cover, plan)
    assert str(want.value) == message
    for chunk in (None, 1):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            if chunk is not None:
                mp.setattr(numerics, "SWEEP_CHUNK", chunk)
            with pytest.raises(MinusInfinityError) as got:
                bic_check(cover, plan)
        assert str(got.value) == message, chunk


def test_a_blocks_first_slot_errors_come_before_its_second_slots():
    # within a block the tuple-by-tuple search meets every first-slot tuple
    # before the second slot's: a special parameter that is NaN at a
    # first-slot point raises, though the second slot's candidate stage,
    # earlier in the stage order, is offered -inf
    def special_lams_many(self, x, y):
        (lam, _), = QuadraticFamily.special_lams_many(self, x, y)
        return [(np.where(x[..., 0] == 2.0, np.nan, lam), True)]  # only a first-slot mix is 2

    def candidate_dual(self, lam1, lam2, alpha, x):
        return -INF

    family = type("NaNSpecialFamily", (QuadraticFamily,),
                  {"special_lams_many": special_lams_many, "candidate_dual": candidate_dual})(2)
    # a domain without the plan's parameters: no first-slot candidate, no
    # lam1 or lam2 stage, so the first slot's tuples reach the special stage
    cover = Cover(ClosedInterval(5.0, 10.0, grid_points=32), family)
    plan = BICProbePlan(((1.0, 2.0),), (0.5,), tuple(embed_primal(s, 2) for s in (0.0, 1.0, 3.0)),
                        tuple(embed_dual(t, 2) for t in (0.0, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MinusInfinityError, match=r"^lambda is nan; "):
            bic_check(cover, plan)


def raises_like_oracle(cover, plan):
    """The error message of ``bic_check``, which must raise what the oracle
    raises, without a warning on the way."""
    with pytest.raises(ValueError) as want:
        oracle_bic_check(cover, plan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as got:
            bic_check(cover, plan)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    return str(got.value)


@pytest.mark.parametrize("alpha", [np.nan, INF, -INF])
def test_non_finite_weights_raise_from_their_own_block(alpha):
    cover = tabulated("quadratic", (0.5, 1.0, 4.0), 1)
    # an untabulated member in an earlier block still wins
    plan = small_plan(1, [(0.5, 3.0), (1.0, 1.0)], (0.5, alpha))
    assert raises_like_oracle(cover, plan) == "lambda 3.0 is not tabulated"
    # the weight's block comes before a later untabulated member
    plan = small_plan(1, [(0.5, 1.0), (1.0, 3.0)], (0.5, alpha))
    message = f"alpha must be finite, got {alpha}"
    assert raises_like_oracle(cover, plan) == message
    for make in (quadratic_cover, norm_cover):
        plan = small_plan(2, [(1.0, 2.0), (0.5, 4.0)], (0.25, alpha, 0.5))
        assert raises_like_oracle(make(dim=2, grid_points=32), plan) == message


@pytest.mark.parametrize("family", ["quadratic", "norm"])
@pytest.mark.parametrize("lo, hi, inf_member", [(10.0, 20.0, False), (5.0, INF, True)])
def test_default_plan_of_a_domain_without_the_probe_members(family, lo, hi, inf_member):
    # none of 0.5, 1, 2, 4 lies in the domain: the plan probes four finite
    # nodes of the domain's own grid, its first and last among them
    cover = interval_cover(family, 1, lo, hi, inf_member, grid_points=64)
    lams = sorted({lam for pair in default_probe_plan(cover).lam_pairs for lam in pair})
    finite = cover.domain.sample_grid[:-1] if inf_member else cover.domain.sample_grid
    assert len(lams) == 4 and set(lams) <= set(finite.tolist())
    assert (lams[0], lams[-1]) == (finite[0], finite[-1])
    report = check_against_oracle(cover)
    assert report.tuples_checked == 40320


def test_affine_tabulated_plan_matches_oracle():
    cover = tabulated_cover([
        (0.0, Affine(np.array([0.5])), IndicatorPoint(np.array([0.5]))),
        (1.0, Affine(np.array([-1.0])), IndicatorPoint(np.array([-1.0]))),
        (2.0, Affine(np.array([0.0])), IndicatorPoint(np.array([0.0]))),
    ])
    plan = default_probe_plan(cover)
    check_against_oracle(cover, BICProbePlan(plan.lam_pairs, plan.alphas,
                                             plan.primal_points, plan.dual_points
                                             + (np.array([0.5]), np.array([-1.0]))))


def test_nan_member_leaves_the_grid_deficit_to_the_others():
    # at lambda = 0 the mixed point's affine term overflows to -inf against
    # an infinite indicator, a NaN; weights outside [0, 1] make the tuples
    # fail, and their deficits come from the lambda = 2 member, which only
    # the grid stage tries
    cover = tabulated_cover([
        (0.0, Affine(np.array([1e308])), IndicatorPoint(np.array([1e308]))),
        (1.0, Quadratic(1.0, 1), Quadratic(1.0, 1)),
        (2.0, Quadratic(0.5, 1), Quadratic(2.0, 1)),
    ])
    plan = BICProbePlan(((1.0, 1.0),), (1.5,), (np.array([-1.0]), np.array([2.0])),
                        (np.array([0.0]),))
    report = check_against_oracle(cover, plan)
    deficits = {(c.z1[0], c.z2[0]): c.deficit for c in report.counterexamples}
    assert deficits[(-1.0, 2.0)] == 0.25 * 2.5 ** 2 + 0.25


def test_minus_inf_plus_inf_member_holds_vacuously():
    # at lambda = 0 the affine term of a probe with |x| >= 2 overflows to
    # -inf against an infinite indicator: f is +inf there, so every right
    # side through that member is +inf and its tuple holds vacuously, with
    # no counterexample and no warning
    cover = tabulated_cover([
        (0.0, Affine(np.array([1e308])), IndicatorPoint(np.array([1e308]))),
        (1.0, Quadratic(1.0, 1), Quadratic(1.0, 1)),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = check_against_oracle(cover)
    assert report.is_bic and not report.counterexamples


COORDS = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])


@st.composite
def tabulated_covers_and_plans(draw):
    """A tabulated cover of 2-4 quadratic, scaled-norm or affine members in
    dims 1-3 whose domain may hold only some of them, and a small plan over
    all members (so some lambdas lie outside the domain) with weights inside
    and outside [0, 1]."""
    dim = draw(st.integers(1, 3))
    lams = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
                         min_size=2, max_size=4, unique=True))
    rows = []
    for lam in lams:
        kind = draw(st.sampled_from(["quadratic", "norm", "affine"]))
        if kind == "quadratic":
            rows.append((lam, Quadratic(lam, dim), Quadratic(1.0 / lam, dim)))
        elif kind == "norm":
            rows.append((lam, ScaledNorm(lam, dim), IndicatorBall(lam, dim)))
        else:
            a = np.array(draw(st.lists(COORDS, min_size=dim, max_size=dim)))
            rows.append((lam, Affine(a), IndicatorPoint(a)))
    family = TabulatedFamily(rows)
    domain = draw(st.lists(st.sampled_from(lams), min_size=1, unique=True))
    cover = Cover(FiniteSet(tuple(domain)), family)
    vectors = st.lists(COORDS, min_size=dim, max_size=dim).map(np.array)
    plan = BICProbePlan(
        tuple(draw(st.lists(st.tuples(st.sampled_from(lams), st.sampled_from(lams)),
                            min_size=1, max_size=3))),
        tuple(draw(st.lists(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5]),
                            min_size=1, max_size=3))),
        tuple(draw(st.lists(vectors, min_size=1, max_size=3))),
        tuple(draw(st.lists(vectors, min_size=1, max_size=3))))
    return cover, plan


@settings(max_examples=40, deadline=None)
@given(tabulated_covers_and_plans())
def test_random_tabulated_covers_match_oracle(cover_and_plan):
    # tabulated covers have no candidate rule: the screen searches the
    # members and the domain, the oracle scans members for a candidate first
    check_against_oracle(*cover_and_plan)


def report_bytes(report):
    """A report as comparable values: the counterexamples in order, their
    points and deficits as raw bytes."""
    rows = [(c.argument, c.lam1, c.lam2, c.alpha, c.z1.tobytes(), c.z2.tobytes(),
             c.fixed.tobytes()) for c in report.counterexamples]
    deficits = np.array([c.deficit for c in report.counterexamples], dtype=np.float64)
    return report.is_bic, report.tuples_checked, rows, deficits.tobytes()


PLAN_LAMS = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 7.5, INF]


@st.composite
def covers_and_plans(draw):
    """A quadratic, norm or tabulated cover in dims 1-3 and a plan of 1-12
    parameter pairs (0 and inf among them, some outside the domain), 1-5
    weights inside and outside [0, 1], and 1-3 points per slot."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["quadratic", "norm", "tabulated"]))
    if kind == "tabulated":
        lams = draw(st.lists(st.sampled_from(PLAN_LAMS), min_size=1, max_size=4, unique=True))
        families = [QuadraticFamily(dim), NormFamily(dim)]
        rows = []
        for lam in lams:
            fam = draw(st.sampled_from(families))
            rows.append((lam, fam.phi(lam), fam.phi_star(lam)))
        domain = FiniteSet(tuple(draw(st.lists(st.sampled_from(lams), min_size=1, unique=True))))
        cover = Cover(domain, TabulatedFamily(rows))
    else:
        lams = PLAN_LAMS
        lo, hi, inf_member = draw(st.sampled_from([(0.0, INF, True), (0.4, 5.0, False),
                                                   (0.5, INF, False)]))
        cover = interval_cover(kind, dim, lo, hi, inf_member, grid_points=48)
    vectors = st.lists(COORDS, min_size=dim, max_size=dim).map(np.array)
    plan = BICProbePlan(
        tuple(draw(st.lists(st.tuples(st.sampled_from(lams), st.sampled_from(lams)),
                            min_size=1, max_size=12))),
        tuple(draw(st.lists(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5]),
                            min_size=1, max_size=5))),
        tuple(draw(st.lists(vectors, min_size=1, max_size=3))),
        tuple(draw(st.lists(vectors, min_size=1, max_size=3))))
    return cover, plan


@settings(max_examples=30, deadline=None)
@given(covers_and_plans())
def test_chunk_edges_match_oracle(cover_and_plan):
    # chunks of one block each, and chunks that hold a whole number of
    # blocks but not of the first slot's block size, split the plan
    # unevenly; every split must give the oracle's report
    cover, plan = cover_and_plan
    want = report_bytes(oracle_bic_check(cover, plan))
    block = len(plan.primal_points) ** 2 * len(plan.dual_points)
    for chunk in (None, 1, 3 * block - 1):
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(numerics, "SWEEP_CHUNK", chunk)
            assert report_bytes(bic_check(cover, plan)) == want, chunk


SPLIT_LAMS = [0.0, 0.25, 0.4, 1.0, 2.5, 5.0, 6.0, INF]


@st.composite
def interval_covers_and_split_plans(draw):
    """A quadratic or norm interval cover in dims 1-3 and a plan whose
    parameters lie inside and outside its domain, with weights inside and
    outside [0, 1] (the second slot's rule then extrapolates below lo), and
    a chunk size in tuples that may split either slot between blocks."""
    dim = draw(st.integers(1, 3))
    family = draw(st.sampled_from(["quadratic", "norm"]))
    lo, hi, inf_member = draw(st.sampled_from([(0.4, 5.0, False), (0.0, INF, True),
                                               (0.0, INF, False), (1.0, INF, True)]))
    cover = interval_cover(family, dim, lo, hi, inf_member, grid_points=24)
    vectors = st.lists(COORDS, min_size=dim, max_size=dim).map(np.array)
    plan = BICProbePlan(
        tuple(draw(st.lists(st.tuples(st.sampled_from(SPLIT_LAMS), st.sampled_from(SPLIT_LAMS)),
                            min_size=1, max_size=8))),
        tuple(draw(st.lists(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5]),
                            min_size=1, max_size=4))),
        tuple(draw(st.lists(vectors, min_size=1, max_size=3))),
        tuple(draw(st.lists(vectors, min_size=1, max_size=3))))
    n, m = len(plan.primal_points), len(plan.dual_points)
    chunk = draw(st.integers(1, 4 * max(n * n * m, m * m * n)))
    return cover, plan, chunk


@settings(max_examples=40, deadline=None)
@given(interval_covers_and_split_plans())
def test_split_stages_match_oracle(case):
    # the candidate, lam1 and lam2 stages evaluate phi and phi* per block;
    # blocks whose parameter lies outside the domain, in one chunk or split
    # across chunks, must leave the oracle's report and raise no warning
    cover, plan, chunk = case
    want = report_bytes(oracle_bic_check(cover, plan))
    for size in (None, chunk):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            if size is not None:
                mp.setattr(numerics, "SWEEP_CHUNK", size)
            assert report_bytes(bic_check(cover, plan)) == want, size


@pytest.mark.parametrize("make, dim, budget", [(quadratic_cover, 1, 13200),
                                               (norm_cover, 2, 13800)])
def test_default_plan_screen_evaluates_each_usable_entry_once(make, dim, budget):
    # one table of f at the 4 weights x (n^2 m + m^2 n) tuples of both slots
    # over the 4 plan members and the one special parameter (12,600
    # entries), the right-side terms both slots share (180), the offered
    # candidates and the grid sweeps of the few tuples left; a stage that
    # evaluated f over whole blocks took 120,870 and 103,410
    cover = make(dim=dim)
    fam = type(cover.family)
    f_many, entries = fam.f_many, []

    def counted(self, lams, x, y):
        out = f_many(self, lams, x, y)
        entries.append(out.size)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fam, "f_many", counted)
        report = bic_check(cover)
    assert report.is_bic and report.tuples_checked == 40320
    assert sum(entries) <= budget


@pytest.mark.parametrize("make, dim, pinned", [(quadratic_cover, 1, 13148),
                                               (norm_cover, 2, 13732)])
def test_right_side_terms_evaluate_each_distinct_parameter_once(make, dim, pinned):
    # the 32 plan parameters hold 4 distinct values: 45 x 4 right-side terms
    # that both slots read, not 2 x 45 x 4 (13,328 and 13,912 entries) nor
    # 2 x 45 x 32 (15,848 and 16,432)
    cover = make(dim=dim)
    fam = type(cover.family)
    f_many, entries, terms = fam.f_many, [], []

    def counted(self, lams, x, y):
        out = f_many(self, lams, x, y)
        entries.append(out.size)
        if not terms:
            terms.append(np.asarray(lams).tolist())
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fam, "f_many", counted)
        report = bic_check(cover)
    assert report.is_bic and sum(entries) == pinned
    assert terms == [[0.5, 1.0, 2.0, 4.0]]  # in order of first appearance


def test_right_side_terms_raise_for_the_first_untabulated_parameter():
    cover = tabulated_cover([(1.0, Quadratic(1.0, 1), Quadratic(1.0, 1)),
                             (2.0, Quadratic(2.0, 1), Quadratic(0.5, 1))])
    pairs = ((1.0, 1.0), (1.0, 3.0), (-0.0, 5.0), (0.0, 3.0))
    for xs, ys in ((np.ones((2, 1)), np.ones((1, 1))), (np.ones((1, 1)), np.ones((2, 1)))):
        with pytest.raises(ValueError, match="^lambda 3.0 is not tabulated$"):
            bipotentials._bic_screen(cover, np.array(pairs), [0.5], xs, ys, 1e-9)
    plan = BICProbePlan(pairs, (0.5,), (np.ones(1),), (np.ones(1),))
    with pytest.raises(ValueError, match="^lambda 3.0 is not tabulated$"):
        bic_check(cover, plan)


@pytest.mark.parametrize("make", [quadratic_cover, norm_cover])
def test_signed_zero_parameters_match_oracle(make):
    # -0.0 and 0.0 share one right-side term, evaluated at the first's sign
    plan = small_plan(2, [(-0.0, 1.0), (0.0, -0.0), (1.0, 0.0), (2.0, -0.0)], (0.0, 0.5, 1.0))
    check_against_oracle(make(dim=2), plan)


LAYOUT_COORDS = [-2.0, -0.5, -0.0, 0.0, 1e-170, 0.75, 3.0, 1e200, -1e308]


def layout_cases():
    """(family, parameters its domain may hold, dim): quadratic and norm
    with their 0 and inf members, separable, and the tabulated cover whose
    lambda = 0 member meets -inf + inf."""
    v = np.array
    return [
        (QuadraticFamily(2), [0.0, 1e-3, 0.5, 1.0, 4.0, 1e300, INF], 2),
        (NormFamily(3), [0.0, 1e-3, 0.5, 1.0, 4.0, 1e300, INF], 3),
        (separable_cover(Quadratic(2.0, 1)).family, [0.0], 1),
        (tabulated_cover([(0.0, Affine(v([1e308])), IndicatorPoint(v([1e308]))),
                          (1.0, Quadratic(1.0, 1), Quadratic(1.0, 1))]).family, [0.0, 1.0], 1),
    ]


@pytest.mark.parametrize("case", range(4))
def test_f_many_gives_the_same_bits_in_any_layout(case):
    # the screen's table evaluates f over broadcast (blocks, n * n, m)
    # stacks and its candidate stage over flat gathers; each entry must
    # not depend on the layout it was computed in
    fam, lams, dim = layout_cases()[case]
    rng = np.random.default_rng(case)
    blocks, nn, m = 3, 9, 4
    mixed = rng.choice(LAYOUT_COORDS, size=(blocks, nn, 1, dim))
    fixed = rng.choice(LAYOUT_COORDS, size=(1, 1, m, dim))
    at = rng.choice(lams, size=(blocks, nn, m))
    order = rng.permutation(at.size)
    b, ab, c = np.unravel_index(order, at.shape)
    for x, y, xi, yi in ((mixed, fixed, mixed[b, ab, 0], fixed[0, 0, c]),
                         (fixed, mixed, fixed[0, 0, c], mixed[b, ab, 0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = fam.f_many(at, x, y)
            flat = fam.f_many(at[b, ab, c], xi, yi)
        assert table.shape == at.shape
        assert [float(t).hex() for t in table.reshape(-1)[order]] == [float(t).hex() for t in flat]


# ---------------------------------------------------------------------------
# faults: the first faulty block raises, found by the screen's one pass


def raised(fn):
    """(type, message) of what ``fn()`` raises, with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn()
        except Exception as exc:  # any error, compared by type and message
            return type(exc), str(exc)
    return None


def refusing(base, refused):
    """``base`` whose candidate rule of slot s raises at each (s, lam1, lam2,
    alpha) in ``refused``; named after the family it extends, whose members
    the oracle evaluates."""
    def rule(slot, name):
        def call(self, lam1, lam2, alpha, z):
            if (slot, lam1, lam2, alpha) in refused:
                raise ValueError(f"slot {slot} refuses ({lam1}, {lam2}, {alpha})")
            return getattr(base, name)(self, lam1, lam2, alpha, z)
        return call

    return type(base.__name__, (base,), {"candidate": rule(0, "candidate"),
                                         "candidate_dual": rule(1, "candidate_dual")})


MEMBERS = (0.5, 1.0, 2.0, 4.0)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_seeded_faults_raise_like_oracle(data):
    # 1-3 faults at random blocks: an untabulated parameter (tabulated covers),
    # a NaN or -inf parameter, a weight that is not finite, a candidate rule
    # that raises (only the second slot's on a tabulated cover, whose first
    # slot the oracle searches itself); the probes hold 0, where every member
    # meets its gap, so the oracle reaches each block's rules
    tabulated = data.draw(st.booleans(), "tabulated")
    dim = data.draw(st.sampled_from([1, 2]), "dim")
    pairs = [list(p) for p in data.draw(st.lists(st.tuples(*[st.sampled_from(MEMBERS)] * 2),
                                                 min_size=1, max_size=4), "pairs")]
    alphas = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]), min_size=1,
                                max_size=3), "alphas")
    kinds = ["untabulated"] * tabulated + ["lambda", "alpha", "rule"]
    faults = data.draw(st.lists(st.tuples(st.sampled_from(kinds),
                                          st.integers(0, len(pairs) * len(alphas) - 1),
                                          st.integers(0, 1)), min_size=1, max_size=3), "faults")
    rules = []
    for kind, block, i in faults:
        p, k = divmod(block, len(alphas))
        if kind == "untabulated":
            pairs[p][i] = 3.0
        elif kind == "lambda":
            pairs[p][i] = data.draw(st.sampled_from([np.nan, -INF]))
        elif kind == "alpha":
            alphas[k] = data.draw(st.sampled_from([np.nan, INF, -INF]))
        else:
            rules.append((p, k, 1 if tabulated else i))
    refused = {(s, *pairs[p], alphas[k]) for p, k, s in rules}
    if tabulated:
        family = refusing(TabulatedFamily, refused)(
            [(lam, Quadratic(lam, dim), Quadratic(1.0 / lam, dim)) for lam in MEMBERS])
        cover = Cover(FiniteSet(MEMBERS), family)
    else:
        family = refusing(QuadraticFamily, refused)(dim)
        cover = Cover(ClosedInterval(0.25, 8.0, grid_points=16), family)
    plan = BICProbePlan(tuple(map(tuple, pairs)), tuple(alphas),
                        tuple(embed_primal(s, dim) for s in (-1.0, 0.0, 1.0)),
                        tuple(embed_dual(t, dim) for t in (-1.0, 0.0, 1.0)))
    # a first-slot rule seeded where it is barred (a weight outside [0, 1])
    # is never called, and then both return
    want = raised(lambda: oracle_bic_check(cover, plan))
    for chunk in (None, 1):
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(numerics, "SWEEP_CHUNK", chunk)
            assert raised(lambda: bic_check(cover, plan)) == want, chunk


def test_faults_of_a_plan_with_an_empty_axis():
    # a parameter's or a weight's fault raises without a block to hold it;
    # the right-side terms run only for a pair with a block
    cover = tabulated("quadratic", (0.5, 1.0, 4.0), 1)
    xs, ys = (embed_primal(0.0),), (embed_dual(1.0),)
    with pytest.raises(MinusInfinityError, match=r"^lambda2 is nan; "):
        bic_check(cover, BICProbePlan(((0.5, 1.0), (1.0, np.nan)), (), xs, ys))
    report = bic_check(cover, BICProbePlan(((0.5, 1.0), (1.0, 3.0)), (), xs, ys))
    assert report == bipotentials.BICReport(True, [], 0)
    with pytest.raises(ValueError, match=r"^lambda 3\.0 is not tabulated$"):
        bic_check(cover, BICProbePlan(((0.5, 1.0), (1.0, 3.0)), (0.5,), (), ys))
    with pytest.raises(ValueError, match=r"^alpha must be finite, got nan$"):
        bic_check(cover, BICProbePlan((), (0.5, np.nan), xs, ys))


@pytest.mark.parametrize("lam_pairs, alphas, message", [
    # the weight's block (pair 0, weight 1) comes before the NaN pair's (1, 0)
    ([(0.5, 1.0), (np.nan, 1.0)], (0.5, np.nan), "alpha must be finite, got nan"),
    # a faulty first pair holds the first block, its parameter before its weight
    ([(np.nan, 1.0), (0.5, 1.0)], (np.nan, 0.5), "lambda1 is nan; "),
    ([(1.0, -INF), (0.5, 1.0)], (0.5, INF), "lambda2 is -inf; "),
])
def test_a_weights_fault_and_a_pairs_fault_raise_in_plan_order(lam_pairs, alphas, message):
    for cover in (quadratic_cover(dim=1, grid_points=32), tabulated("quadratic", (0.5, 1.0, 4.0), 1)):
        plan = small_plan(1, lam_pairs, alphas)
        assert raised(lambda: oracle_bic_check(cover, plan))[1].startswith(message)
        assert raised(lambda: bic_check(cover, plan)) == raised(lambda: oracle_bic_check(cover, plan))


def test_a_blocks_raising_rule_comes_before_its_own_stage_faults():
    # block 1's first-slot candidate is NaN and its second-slot rule raises:
    # the rules run once per block before its tuples are screened, so the
    # rule's error wins (the tuple-by-tuple oracle, which calls a rule only
    # at a tuple whose gaps hold, meets the NaN candidate first)
    def candidate(self, lam1, lam2, alpha, y):
        return np.nan if lam1 == 2.0 else QuadraticFamily.candidate(self, lam1, lam2, alpha, y)

    def candidate_dual(self, lam1, lam2, alpha, x):
        if lam1 == 2.0:
            raise ValueError("the rule refuses")
        return QuadraticFamily.candidate_dual(self, lam1, lam2, alpha, x)

    family = type("QuadraticFamily", (QuadraticFamily,),
                  {"candidate": candidate, "candidate_dual": candidate_dual})(1)
    cover = Cover(ClosedInterval(0.25, 8.0, grid_points=16), family)
    plan = small_plan(1, [(1.0, 1.0), (2.0, 4.0)], (0.5,))
    for chunk in (None, 1):
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(numerics, "SWEEP_CHUNK", chunk)
            assert raised(lambda: bic_check(cover, plan)) == (ValueError, "the rule refuses"), chunk


def test_the_screen_runs_once_on_a_faulty_plan():
    # 21 pairs by 3 weights whose last pair holds an untabulated parameter
    cover = tabulated("quadratic", (0.5, 1.0, 4.0), 1)
    pairs = [(a, b) for a in (0.5, 1.0, 4.0) for b in (0.5, 1.0, 4.0)] * 2
    plan = small_plan(1, pairs + [(0.5, 1.0), (1.0, 4.0), (4.0, 3.0)], (0.0, 0.5, 1.0))
    calls = []
    screen = bipotentials._bic_screen
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bipotentials, "_bic_screen", lambda *args: calls.append(1) or screen(*args))
        with pytest.raises(ValueError, match=r"^lambda 3\.0 is not tabulated$"):
            bic_check(cover, plan)
    assert len(plan.lam_pairs) == 21 and calls == [1]
