import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipotkit.bipotentials import build_inf, build_separable
from bipotkit.convex import (
    Affine,
    IndicatorBall,
    IndicatorPoint,
    Quadratic,
    ScaledNorm,
    conjugate,
    graph_of,
)
from bipotkit.covers import (
    CandidateNotFoundError,
    ClosedInterval,
    Cover,
    FiniteSet,
    NormFamily,
    PreconditionError,
    QuadraticFamily,
    SeparableFamily,
    TabulatedFamily,
    coverage_check,
    norm_cover,
    p1_candidate,
    quadratic_cover,
    separable_cover,
    tabulated_cover,
)
from bipotkit import numerics
from bipotkit.laws import LawGraph
from bipotkit.numerics import INF, inner, norm

from .oracles import _oracle_member, oracle_sweep, oracle_table


def v(*coords):
    return np.array([float(c) for c in coords])


# ---------------------------------------------------------------------------
# parameter domains


def test_interval_validation():
    with pytest.raises(ValueError):
        ClosedInterval(2.0, 1.0)
    with pytest.raises(ValueError):
        ClosedInterval(0.0, 1.0, grid_points=1)


@pytest.mark.parametrize("kwargs, message", [
    ({"includes_infinity": "no"}, "includes_infinity must be a bool, got 'no'"),
    ({"includes_infinity": 1}, "includes_infinity must be a bool, got 1"),
    ({"grid_points": 2.7}, "grid_points must be an integer, got 2.7"),
    ({"grid_points": True}, "grid_points must be an integer, got True"),
    ({"grid_points": 1}, "grid_points must be at least 2"),
    # the ends are checked once clamped into [lo, hi]
    ({"grid_lo": 3.0, "grid_hi": 4.0}, "log grid needs 0 < grid_lo <= grid_hi < inf, got [3.0, 2.0]"),
])
def test_interval_refuses_a_bad_flag_count_or_grid_end(kwargs, message):
    with pytest.raises(ValueError) as exc:
        ClosedInterval(1.0, 2.0, **kwargs)
    assert str(exc.value) == message


def test_interval_takes_numpy_flags_and_counts_as_python_values():
    dom = ClosedInterval(0.0, INF, includes_infinity=np.bool_(True), grid_points=np.int64(8))
    assert dom == ClosedInterval(0.0, INF, includes_infinity=True, grid_points=8)
    assert type(dom.includes_infinity) is bool and type(dom.grid_points) is int


def test_zero_interval_has_no_log_grid():
    # [0, 0] holds no positive parameter: the sweep runs over 0 (and inf) alone
    for dom in (ClosedInterval(0.0, 0.0), ClosedInterval(0.0, 0.0, grid_lo=1.0, grid_hi=1.0)):
        assert dom == ClosedInterval(0.0, 0.0) and dom.sample_grid.tolist() == [0.0]
        assert Cover(dom, QuadraticFamily(1)).grid_infimum([1.0], [0.0]) == (0.0, 0.0)


def test_interval_contains_and_infinity():
    dom = ClosedInterval(0.0, INF, includes_infinity=True)
    assert dom.contains(0.0) and dom.contains(1e9) and dom.contains(INF)
    finite = ClosedInterval(1.0, 2.0)
    assert not finite.contains(0.5) and not finite.contains(INF)


def test_interval_sample_grid_covers_ends():
    dom = ClosedInterval(0.0, INF, includes_infinity=True,
                         grid_points=16, grid_lo=1e-2, grid_hi=1e2)
    g = dom.sample_grid
    assert g[0] == 0.0 and g[-1] == INF
    core = g[(g > 0) & (g < INF)]
    assert np.all(np.diff(core) > 0)


def test_sample_grids_are_cached_and_read_only():
    dom = ClosedInterval(0.0, INF, includes_infinity=True,
                         grid_points=16, grid_lo=1e-2, grid_hi=1e2)
    core = np.logspace(-2.0, 2.0, 16)
    fresh = np.append(np.unique(np.concatenate([core, [0.0]])), INF)
    assert dom.sample_grid is dom.sample_grid
    assert dom.sample_grid.tolist() == fresh.tolist()
    finite = FiniteSet((2.0, 0.0, INF))
    assert finite.sample_grid is finite.sample_grid
    for grid in (dom.sample_grid, finite.sample_grid):
        with pytest.raises(ValueError):
            grid[0] = 1.0


def test_sample_grid_stays_inside_the_interval():
    # 10 ** log10(0.3) is 0.29999999999999993, below lo
    dom = ClosedInterval(0.3, INF, includes_infinity=True)
    assert dom.sample_grid[0] == 0.3
    cover = Cover(dom, QuadraticFamily(1))
    assert cover.grid_infimum([1.0], [0.0]) == (0.15, 0.3)
    for lo, hi in ((0.3, INF), (0.0, INF), (0.1, 7.0), (1e-3, 0.7), (0.7, 0.7),
                   (0.007, 30.0), (2.9, 300.0)):
        dom = ClosedInterval(lo, hi, includes_infinity=hi == INF)
        assert dom.contains_many(dom.sample_grid).all(), (lo, hi)


def test_degenerate_interval():
    dom = ClosedInterval(1.0, 1.0)
    assert dom.sample_grid.tolist() == [1.0]


def test_finite_set():
    dom = FiniteSet((2.0, 0.0, INF))
    assert dom.sample_grid.tolist() == [0.0, 2.0, INF]
    assert dom.contains(2.0) and not dom.contains(1.0)


# ---------------------------------------------------------------------------
# built-in families


def test_quadratic_family_finite_values():
    cover = quadratic_cover(1)
    assert cover.f_eval(2.0, v(1), v(3)) == (0.5 * 2.0) * 1.0 + (0.5 * 9.0) / 2.0


def test_quadratic_family_end_members():
    cover = quadratic_cover(1)
    assert cover.f_eval(0.0, v(5), v(0)) == 0.0
    assert cover.f_eval(0.0, v(5), v(1)) == INF
    assert cover.f_eval(INF, v(0), v(7)) == 0.0
    assert cover.f_eval(INF, v(1), v(7)) == INF


def test_quadratic_f_many_matches_scalar():
    cover = quadratic_cover(2)
    lams = np.array([0.0, 1e-3, 1.0, 42.0, INF])
    for x, y in [(v(1, 2), v(3, -1)), (v(0, 0), v(1, 1)), (v(2, 0), v(0, 0))]:
        many = cover.family.f_many(lams, x, y)
        assert many.tolist() == [_oracle_member(cover, l, x, y) for l in lams]


def test_f_many_sentinels_use_exact_zero_vectors():
    # ||y||^2 underflows to 0 while y != 0: f(0, x, y) and f(inf, y, x) are
    # +inf, and a grid sweep must not report a finite value at those ends
    x, tiny = v(1.0), v(1e-200)
    ends = np.array([0.0, INF])
    for cover in (quadratic_cover(1), norm_cover(1)):
        fam = cover.family
        assert fam.f_many(ends, x, tiny).tolist() == [INF, INF]
        assert fam.f_many(ends, tiny, x).tolist() == [INF, INF]
        assert fam.f_many(ends, x, tiny).tolist() == [_oracle_member(cover, l, x, tiny)
                                                      for l in ends]
        assert cover.f_eval(0.0, x, tiny) == INF and cover.f_eval(INF, tiny, x) == INF
    for cover in (quadratic_cover(1), norm_cover(1)):
        val, lam = cover.grid_infimum(x, tiny)
        assert lam > 0.0 and val == cover.f_eval(lam, x, tiny)
        assert cover.grid_infimum_values(x[None], tiny[None]).tolist() == [val]
        assert (val, lam) == oracle_sweep(cover, x.tolist(), tiny.tolist())


def test_f_many_broadcasts_over_point_stacks():
    lams = np.array([0.0, 0.5, 2.0, INF])
    xs = np.array([[1.0, 2.0], [0.0, 0.0], [-1.0, 0.5]])
    ys = np.array([[0.0, 0.0], [3.0, -1.0], [0.25, 1.0]])
    for cover in (quadratic_cover(2), norm_cover(2),
                  separable_cover(Quadratic(1.0, 2))):
        fam = cover.family
        grid = fam.f_many(lams, xs[:, None, :], ys[:, None, :])
        assert grid.shape == (3, 4)
        for i in range(3):
            assert grid[i].tolist() == fam.f_many(lams, xs[i], ys[i]).tolist()
        each = fam.f_many(lams[:3], xs, ys)
        assert each.tolist() == [_oracle_member(cover, lams[i], xs[i], ys[i]) for i in range(3)]


def test_separable_and_tabulated_f_many_match_oracle():
    from .test_convex import bits, seven_forms

    rng = np.random.default_rng(4)
    for dim in (1, 2, 3):
        forms = seven_forms(dim)
        grid = np.round(rng.uniform(-2, 2, size=(9, dim)), 1)
        grid = np.unique(grid, axis=0)
        covers = [separable_cover(phi, dual_grid=grid, primal_grid=grid) for phi in forms]
        covers.append(tabulated_cover([(float(k), phi, phi) for k, phi in enumerate(forms)]))
        xs = np.concatenate([grid, rng.choice([-0.0, 0.0, 0.5, 1.0], size=(6, dim))])
        ys = xs[::-1].copy()
        for cover in covers:
            lams = cover.domain.sample_grid
            table = cover.family.f_many(lams, xs[:, None], ys[:, None])
            want = [[_oracle_member(cover, lam, x, y) for lam in lams] for x, y in zip(xs, ys)]
            assert bits(table) == bits(want)
            paired = cover.family.f_many(lams[np.arange(xs.shape[0]) % lams.size], xs, ys)
            assert bits(paired) == bits([want[k][k % lams.size] for k in range(xs.shape[0])])


def test_quadratic_exact_minimizer_closes_the_product():
    fam = QuadraticFamily(2)
    x, y = v(1, 2), v(-2, 1)
    ((lam, present),) = fam.special_lams_many(x, y)
    assert present and lam == norm(y) / norm(x)
    assert abs(fam.f_many(lam, x, y) - norm(x) * norm(y)) < 1e-12


def test_quadratic_members_conjugate_pairwise():
    fam = QuadraticFamily(1)
    assert conjugate(fam.phi(2.0)) == fam.phi_star(2.0)


def test_norm_family_values():
    cover = norm_cover(2)
    assert cover.f_eval(1.0, v(3, 4), v(0.6, 0.8)) == 5.0
    assert cover.f_eval(1.0, v(3, 4), v(0.8, 0.8)) == INF
    assert cover.family.finite_boundary_lams(v(1, 0), v(0, 2)) == [2.0]


def test_norm_f_many_matches_scalar():
    cover = norm_cover(2)
    lams = np.array([0.0, 0.5, 2.0, INF])
    for x, y in [(v(1, 1), v(1, 0)), (v(0, 0), v(0, 3))]:
        assert cover.family.f_many(lams, x, y).tolist() == [
            _oracle_member(cover, l, x, y) for l in lams]


def test_norm_members_conjugate_pairwise():
    fam = NormFamily(2)
    assert conjugate(fam.phi(1.5)) == IndicatorBall(1.5, 2)
    assert fam.phi_star(1.5) == IndicatorBall(1.5, 2)


def test_separable_family_ignores_lambda():
    fam = SeparableFamily(Quadratic(1.0, 1), Quadratic(1.0, 1))
    assert fam.f_many(np.array([0.0, 7.0]), v(1), v(2)).tolist() == [0.5 + 2.0] * 2


def test_tabulated_family_lookup():
    fam = TabulatedFamily([(1.0, Quadratic(1.0, 1), Quadratic(1.0, 1)),
                           (3.0, Quadratic(3.0, 1), Quadratic(1 / 3, 1))])
    assert fam.lams() == [1.0, 3.0]
    assert fam.f_many(np.array(3.0), v(1), v(3)) == 1.5 + 1.5
    with pytest.raises(ValueError, match="lambda 2.0 is not tabulated"):
        fam.f_many(np.array([1.0, 2.0, 5.0]), v(1), v(1))


# ---------------------------------------------------------------------------
# grid infimum


def test_quadratic_grid_infimum_near_product():
    cover = quadratic_cover(dim=2)
    x, y = v(1, 0), v(0, 1)
    val, lam = cover.grid_infimum(x, y)
    assert abs(val - 1.0) < 1e-3
    assert cover.domain.contains(lam)


def test_quadratic_grid_resolution_limits_large_products():
    # log-grid spacing costs about 1.6e-4 relative error at the minimum
    cover = quadratic_cover(dim=2)
    val, _ = cover.grid_infimum(v(3, 0), v(0, 4))
    assert 0 < val - 12.0 < 3e-3


def test_norm_grid_infimum_exact_through_boundary_lambda():
    # the sweep includes lam = |y| where the indicator switches on, so the
    # grid value lands exactly on |x||y|
    cover = norm_cover(dim=2)
    x, y = v(1.1, 0), v(0, 1.7)
    val, lam = cover.grid_infimum(x, y)
    assert val == norm(x) * norm(y)
    assert lam == norm(y)


def test_grid_infimum_values_match_scalar_loop():
    rng = np.random.default_rng(11)
    for cover in (quadratic_cover(dim=2), norm_cover(dim=2)):
        xs = rng.uniform(-2, 2, size=(23, 2))
        ys = rng.uniform(-2, 2, size=(23, 2))
        xs[0] = 0.0
        ys[1] = 0.0
        batched = cover.grid_infimum_values(xs, ys)
        scalar = np.array([oracle_table(cover, [x], [y], "grid")[0, 0] for x, y in zip(xs, ys)])
        assert np.array_equal(batched, scalar)


def test_grid_infimum_reports_the_first_minimum_in_ascending_lambda():
    # the sweep over the sample grid merged with the boundary ||y||, scanned
    # in ascending order: x = 0 ties every admitted norm member at 0, so the
    # boundary wins over the grid points above it
    assert norm_cover(1).grid_infimum(v(0), v(0.3)) == (0.0, 0.3)
    rng = np.random.default_rng(12)
    covers = (quadratic_cover(2, grid_points=40), norm_cover(2, grid_points=40),
              Cover(ClosedInterval(0.5, 3.0, grid_points=20), NormFamily(2)),
              Cover(FiniteSet((0.0, 0.5, 2.0, INF)), NormFamily(2)))
    for cover in covers:
        xs = rng.choice([0.0, 0.3, 1.0, -2.0], size=(25, 2))
        ys = rng.choice([0.0, 0.4, 1.0, -1.5], size=(25, 2))
        for x, y in zip(xs, ys):
            lams = sorted(set(cover.domain.sample_grid.tolist())
                          | ({norm(y)} if cover.domain.contains(norm(y))
                             and isinstance(cover.family, NormFamily) else set()))
            vals = [_oracle_member(cover, lam, x, y) for lam in lams]
            k = vals.index(min(vals))
            assert cover.grid_infimum(x, y) == (vals[k], lams[k])


def test_degenerate_probes():
    cover = quadratic_cover(dim=1)
    assert cover.grid_infimum(v(0), v(0))[0] == 0.0
    assert cover.grid_infimum(v(0), v(3))[0] == 0.0  # lam = inf member
    assert cover.grid_infimum(v(3), v(0))[0] == 0.0  # lam = 0 member


def test_separable_cover_is_constant_in_lambda():
    cover = separable_cover(Quadratic(1.0, 1))
    val, lam = cover.grid_infimum(v(1), v(2))
    assert val == 2.5 and lam == 0.0


SWEEP_COORDS = st.one_of(
    st.sampled_from([-1e200, -1.5, -1e-200, 0.0, 0.25, 1.0, 1e-200, 1e200]),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0), st.integers(-160, 160)))
MEMBER_LAMS = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, INF]


@st.composite
def irregular_lams(draw):
    """1-8 parameters from [1e-3, 1e3] and the members above, sometimes
    with a run of 1-6 adjacent floats after one, which a quadratic pair
    near them sweeps as one run."""
    lams = draw(st.lists(st.one_of(st.floats(1e-3, 1e3), st.sampled_from(MEMBER_LAMS)),
                         min_size=1, max_size=8, unique=True))
    if draw(st.booleans()):
        lam = draw(st.floats(1e-3, 1e3))
        for _ in range(draw(st.integers(1, 6))):
            lams.append(lam)
            lam = float(np.nextafter(lam, INF))
    return tuple(set(lams))


@st.composite
def covers_and_probes(draw):
    """A quadratic, norm, separable or tabulated cover in dims 1-3 (interval
    domains on two log grids of 2 to 5000 points, finite ones with regular
    and irregular parameters, with and without the 0 and inf members) and
    two probe stacks of 1-6 vectors with zero coordinates, magnitudes from
    1e-160 to 1e160 and 1e-200 or 1e200, or a y stack that puts the
    quadratic minimizers midway between two grid nodes; the stacks are of
    equal length when ``paired`` is drawn."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["quadratic", "norm", "separable", "tabulated"]))
    if kind == "separable":
        form = draw(st.sampled_from([Quadratic, ScaledNorm, IndicatorBall]))
        cover = separable_cover(form(draw(st.sampled_from([0.5, 1.0, 3.0])), dim))
    elif kind == "tabulated":
        lams = draw(st.lists(st.sampled_from(MEMBER_LAMS), min_size=1, max_size=5, unique=True))
        families = [QuadraticFamily(dim), NormFamily(dim)]
        rows = []
        for lam in lams:
            fam = draw(st.sampled_from(families))
            rows.append((lam, fam.phi(lam), fam.phi_star(lam)))
        cover = tabulated_cover(rows)
    else:
        fam = QuadraticFamily(dim) if kind == "quadratic" else NormFamily(dim)
        domain = draw(st.sampled_from(["interval", "members", "irregular"]))
        if domain == "members":
            domain = FiniteSet(tuple(draw(st.lists(st.sampled_from(MEMBER_LAMS),
                                                   min_size=1, unique=True))))
        elif domain == "irregular":
            domain = FiniteSet(draw(irregular_lams()))
        else:
            lo, hi, inf_member = draw(st.sampled_from([(0.0, INF, True), (0.0, 5.0, False),
                                                       (0.4, 5.0, False), (0.5, INF, True)]))
            grid_lo, grid_hi = draw(st.sampled_from([(1e-2, 1e2), (1e-4, 1e4)]))
            domain = ClosedInterval(lo, hi, includes_infinity=inf_member,
                                    grid_points=draw(st.one_of(st.integers(2, 41),
                                                               st.sampled_from([512, 5000]))),
                                    grid_lo=grid_lo, grid_hi=grid_hi)
        cover = Cover(domain, fam)
    paired = draw(st.booleans())
    vectors = st.lists(SWEEP_COORDS, min_size=dim, max_size=dim)
    xs = draw(st.lists(vectors, min_size=1, max_size=6))
    ys = draw(st.lists(vectors, min_size=len(xs) if paired else 1,
                       max_size=len(xs) if paired else 6))
    xs, ys = np.array(xs), np.array(ys)
    nodes = cover.domain.sample_grid[1:-1]
    if nodes.size >= 2 and draw(st.booleans()):
        # y = c x with c the geometric mean of two adjacent nodes: quadratic
        # members tie there up to rounding
        k = draw(st.integers(0, nodes.size - 2))
        with np.errstate(over="ignore"):
            tied = xs * math.sqrt(nodes[k] * nodes[k + 1])
        if np.isfinite(tied).all():
            ys = tied
    return cover, xs, ys, paired


def gathered_runs(cover, x, y):
    """``cover._sweep(x, y)``, and the (start, width) of each run of grid
    nodes it gathered for one pair, sorted; a gather hands ``f_many`` one
    row of nodes per pair, where the finiteness boundaries and the
    separable and tabulated families' shared run are one node per entry."""
    fam, grid = type(cover.family), cover.domain.sample_grid
    f_many, runs = fam.f_many, []

    def recorded(self, lams, xs, ys):
        if np.ndim(lams) == 2:
            for row in lams.tolist():
                s = int(np.searchsorted(grid, row[0]))
                assert row == grid[s:s + len(row)].tolist()
                runs.append((s, len(row)))
        return f_many(self, lams, xs, ys)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fam, "f_many", recorded)
        out = cover._sweep(x, y)
    return out, sorted(runs)


def window_runs(cover, x, y):
    """The (start, width) that ``sweep_windows`` names for each pair of the
    broadcast stacks, sorted; none for a family with one run for all."""
    start, width = cover.family.sweep_windows(cover.domain.sample_grid, x, y)
    if np.ndim(start) == np.ndim(width) == 0:
        return []
    shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    return sorted(zip(*(np.broadcast_to(w, shape).reshape(-1).tolist() for w in (start, width))))


@settings(max_examples=150, deadline=None)
@given(covers_and_probes())
def test_sweep_matches_the_scalar_sweep(case):
    # the default chunk, then chunks that split the grid into parameter
    # blocks and the probes into slabs along the first axis: 1 evenly, the
    # others with uneven edges on one or both (2 on paired stacks); each
    # pair is gathered on exactly the run its window names
    cover, xs, ys, paired = case
    if paired:
        x, y = xs, ys
        pairs = list(zip(xs, ys))
    else:
        x, y = xs[:, None, :], ys[None, :, :]
        pairs = [(a, b) for a in xs for b in ys]
    want = [oracle_sweep(cover, a.tolist(), b.tolist()) for a, b in pairs]
    want_vals = np.array([val for val, _ in want])
    want_lams = np.array([lam for _, lam in want])
    probes = xs.shape[0] + ys.shape[0]
    for chunk in (None, 1, 2, 3 * probes - 1, 2 * cover.domain.sample_grid.size + 1):
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(numerics, "SWEEP_CHUNK", chunk)
            (vals, lams), runs = gathered_runs(cover, x, y)
        assert runs == window_runs(cover, x, y), chunk
        assert vals.reshape(-1).tobytes() == want_vals.tobytes(), chunk
        assert lams.reshape(-1).tobytes() == want_lams.tobytes(), chunk


def test_windowed_sweep_evaluates_a_few_parameters_per_pair():
    # a 41 x 41 table over the default 512-point grid, with an exact zero
    # probe row and column: the sweep hands ``f_many`` at most 4 grid nodes
    # per quadratic pair and 2 per norm pair (plus each pair's finiteness
    # boundary), each pair exactly its own run, never the whole grid; a
    # separable cover one node per pair, a tabulated one its members
    rng = np.random.default_rng(41)
    xs, ys = rng.uniform(-2, 2, size=(2, 41, 2))
    xs[1] = ys[1] = 0.0
    tabulated = tabulated_cover([(lam, Quadratic(lam, 2), Quadratic(1.0 / lam, 2))
                                 for lam in (0.5, 1.0, 4.0)])
    for cover, per_pair in ((quadratic_cover(2), 4), (norm_cover(2), 2),
                            (separable_cover(ScaledNorm(1.5, 2)), 1), (tabulated, 3)):
        fam = type(cover.family)
        f_many, seen = fam.f_many, []

        def counted(self, lams, x, y):
            seen.append(np.broadcast_shapes(np.shape(lams), x.shape[:-1], y.shape[:-1]))
            return f_many(self, lams, x, y)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fam, "f_many", counted)
            vals = cover.grid_infimum_values(xs[:, None], ys[None])
        boundaries = len(cover.family.finite_boundary_lams(xs, ys))
        assert sum(math.prod(shape) for shape in seen) <= 41 * 41 * (per_pair + boundaries), fam
        runs = gathered_runs(cover, xs[:, None], ys[None])[1]
        assert runs == window_runs(cover, xs[:, None], ys[None]), fam
        assert all(width <= per_pair for _, width in runs), fam
        want = [oracle_sweep(cover, x.tolist(), y.tolist())[0] for x in xs[:3] for y in ys]
        assert vals[:3].reshape(-1).tolist() == want
    assert quadratic_cover(2).domain.sample_grid.size > 500


def test_sweep_windows_hold_ties_and_clusters():
    # y = c x with c the geometric mean of adjacent nodes puts the minimizer
    # midway between them, where the two quadratic members tie up to
    # rounding: both are in the window. A run of 5 adjacent floats around
    # the minimizer is a window of its own, swept as 5 nodes.
    rng = np.random.default_rng(43)
    cover = quadratic_cover(2)
    nodes = cover.domain.sample_grid
    k = rng.integers(1, nodes.size - 2, size=30)
    xs = rng.uniform(0.5, 2.0, size=(30, 2))
    ys = xs * np.sqrt(nodes[k] * nodes[k + 1])[:, None]
    start, width = cover.family.sweep_windows(nodes, xs, ys)
    assert start.tolist() == k.tolist() and (width == 2).all()
    lam, cluster = 1.5, []
    for _ in range(5):
        cluster.append(lam)
        lam = float(np.nextafter(lam, INF))
    clustered = Cover(FiniteSet(tuple(cluster) + (0.0, 0.25, 9.0, INF)), QuadraticFamily(2))
    xs[:, 1] = 0.0
    ys = np.stack([1.5 * xs[:, 0], np.zeros(30)], axis=1)
    start, width = clustered.family.sweep_windows(clustered.domain.sample_grid, xs, ys)
    assert (start == 2).all() and (width == 5).all()
    for c, y in ((cover, xs * np.sqrt(nodes[k] * nodes[k + 1])[:, None]), (clustered, ys)):
        (vals, lams), runs = gathered_runs(c, xs, y)
        assert runs == window_runs(c, xs, y)
        want = [oracle_sweep(c, a.tolist(), b.tolist()) for a, b in zip(xs, y)]
        assert list(zip(vals.tolist(), lams.tolist())) == want


def test_sweep_counts_a_nan_sum_as_inf():
    # at lambda = 0 the affine term overflows to -inf and the indicator is
    # +inf, a NaN sum; the minimum is the quadratic member's 50 at lambda = 1
    cover = tabulated_cover([(0.0, Affine(v(1e308)), IndicatorPoint(v(1e308))),
                             (1.0, Quadratic(1.0, 1), Quadratic(1.0, 1))])
    assert cover.grid_infimum(v(-10), v(0)) == oracle_sweep(cover, [-10.0], [0.0]) == (50.0, 1.0)
    table = build_inf(cover, mode="grid").table(np.array([[-10.0], [0.0]]), np.array([[0.0]]))
    assert table.tolist() == [[50.0], [0.0]]


def test_minus_inf_plus_inf_evaluates_to_inf():
    # every evaluation of f counts -inf + inf as +inf, with no warning: the
    # scalar entry point, a 0-d call of the family, the separable
    # bipotential of the same member, and the oracle
    cover = tabulated_cover([(0.0, Affine(v(1e308)), IndicatorPoint(v(1e308))),
                             (1.0, Quadratic(1.0, 1), Quadratic(1.0, 1))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cover.f_eval(0.0, [-10], [0]) == INF
        scalar = cover.family.f_many(np.array(0.0), v(-10), v(0))
        assert scalar.shape == () and scalar == INF
        assert cover.family.f_many(np.array([0.0, 1.0]), v(-10), v(0)).tolist() == [INF, 50.0]
        separable = build_separable(Affine(v(1e308)))
        assert separable.value(v(-10), v(0)) == INF
        assert separable.table([[-10.0], [1.0]], [[0.0], [1e308]]).tolist() == [[INF, -INF],
                                                                               [INF, 1e308]]
    assert _oracle_member(cover, 0.0, [-10.0], [0.0]) == INF


# ---------------------------------------------------------------------------
# coverage against sampled laws


def test_quadratic_cover_covers_aligned_pairs():
    # the union of the quadratic members touches exactly the aligned pairs,
    # the seven of which live on the {-1, 0, 1} product grid
    pairs = [(v(a), v(b)) for a in (-1, 0, 1) for b in (-1, 0, 1)
             if a * b == abs(a) * abs(b)]
    assert len(pairs) == 7
    report = coverage_check(quadratic_cover(dim=1), LawGraph(pairs))
    assert report.covered


def test_coverage_reports_missed_pairs():
    # an antitone pair has |x||y| strictly above <x, y>, so no member touches
    law = LawGraph([(v(1), v(-1))])
    report = coverage_check(quadratic_cover(dim=1), law)
    assert not report.covered
    assert len(report.missed_pairs) == 1 and not report.spurious_pairs


def test_coverage_reports_spurious_pairs():
    # the cover touches (0, 1) and (1, 0) at zero pairing, but this law
    # omits them, so the union of member graphs is strictly larger
    law = LawGraph([(v(0), v(0)), (v(1), v(1))])
    report = coverage_check(quadratic_cover(dim=1), law)
    assert not report.covered
    assert not report.missed_pairs
    touched = {(x[0], y[0]) for _, x, y in report.spurious_pairs}
    assert touched == {(0.0, 1.0), (1.0, 0.0)}


def test_coverage_dimension_mismatch():
    with pytest.raises(ValueError):
        coverage_check(quadratic_cover(dim=2), LawGraph([(v(0), v(0))]))


# ---------------------------------------------------------------------------
# candidate parameter selection


def test_quadratic_candidate_is_harmonic():
    cover = quadratic_cover(dim=1)
    lam = p1_candidate(cover, 1.0, 3.0, 0.5, x1=v(3), x2=v(1), y=v(3))
    assert lam == 1.5


def test_candidate_weight_edge_cases():
    cover = quadratic_cover(dim=1)
    assert p1_candidate(cover, 1.0, 3.0, 1.0, x1=v(3), x2=v(1), y=v(3)) == 1.0
    assert p1_candidate(cover, 1.0, 3.0, 0.0, x1=v(3), x2=v(1), y=v(3)) == 3.0


def test_quadratic_candidate_infinite_member():
    # lam = inf carries the indicator at zero; harmonic mixing drops its term
    cover = quadratic_cover(dim=1)
    lam = p1_candidate(cover, 2.0, INF, 0.5, x1=v(2), x2=v(0), y=v(4))
    assert lam == 4.0


def test_norm_candidate_is_minimum():
    cover = norm_cover(dim=2)
    x = v(0.6, 0.8)
    lam = p1_candidate(cover, 1.0, 2.0, 0.25, x1=x, x2=v(0, 0), y=v(0.6, 0.8))
    assert lam == 1.0


def test_candidate_rejects_bad_alpha():
    cover = quadratic_cover(dim=1)
    with pytest.raises(PreconditionError):
        p1_candidate(cover, 1.0, 3.0, 1.5, x1=v(3), x2=v(1), y=v(3))


def test_candidate_rejects_lambda_outside_domain():
    cover = Cover(ClosedInterval(1.0, 2.0), QuadraticFamily(1))
    with pytest.raises(PreconditionError):
        p1_candidate(cover, 0.5, 2.0, 0.5, x1=v(2), x2=v(0.5), y=v(1))


def test_candidate_rejects_broken_subgradient_link():
    cover = quadratic_cover(dim=1)
    with pytest.raises(PreconditionError):
        p1_candidate(cover, 1.0, 3.0, 0.5, x1=v(2.9), x2=v(1), y=v(3))


def test_tabulated_candidate_scans_entries():
    cover = tabulated_cover([(1.0, Quadratic(1.0, 1), Quadratic(1.0, 1))])
    lam = p1_candidate(cover, 1.0, 1.0, 0.5, x1=v(2), x2=v(2), y=v(2))
    assert lam == 1.0


def test_tabulated_candidate_not_found():
    cover = tabulated_cover([(1.0, Quadratic(1.0, 1), Quadratic(1.0, 1)),
                             (3.0, Quadratic(3.0, 1), Quadratic(1 / 3, 1))])
    with pytest.raises(CandidateNotFoundError):
        p1_candidate(cover, 1.0, 3.0, 0.5, x1=v(3), x2=v(1), y=v(3))


@settings(max_examples=120)
@given(st.floats(1e-2, 1e2), st.floats(1e-2, 1e2), st.floats(0, 1),
       st.floats(-2, 2))
def test_harmonic_candidate_satisfies_mix_inequality(lam1, lam2, alpha, s):
    # mixing subgradient points of the quadratic members keeps the mixed
    # point subgradient-linked at the interpolated parameter
    cover = quadratic_cover(1)
    y = v(s)
    x1, x2 = y / lam1, y / lam2
    lam = cover.family.candidate(lam1, lam2, alpha, y)
    mixed = alpha * x1 + (1 - alpha) * x2
    lhs = cover.f_eval(lam, mixed, y)
    rhs = alpha * cover.f_eval(lam1, x1, y) + (1 - alpha) * cover.f_eval(lam2, x2, y)
    assert lhs <= rhs + 1e-9


def test_uniform_runs_evaluate_each_probe_once():
    # separable and tabulated families name one run for every pair, so a
    # 41 x 41 table evaluates each member's forms once per x probe and once
    # per y probe, not once per pair
    rng = np.random.default_rng(5)
    xs, ys = rng.uniform(-2, 2, size=(2, 41, 2))
    tabulated = tabulated_cover([(lam, Quadratic(lam, 2), Quadratic(1.0 / lam, 2))
                                 for lam in (0.5, 1.0, 2.0, 4.0)])
    for cover, members in ((separable_cover(Quadratic(2.0, 2)), 1), (tabulated, 4)):
        value_many, rows = Quadratic.value_many, []

        def counted(self, v):
            rows.append(v.shape[0])
            return value_many(self, v)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Quadratic, "value_many", counted)
            vals = cover.grid_infimum_values(xs[:, None], ys[None])
        assert sum(rows) == members * (41 + 41)
        want = [oracle_sweep(cover, x.tolist(), y.tolist())[0] for x in xs[:3] for y in ys]
        assert vals[:3].reshape(-1).tolist() == want
