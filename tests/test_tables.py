"""Batched bipotential tables against the pair-by-pair oracle.

``Bipotential.table`` evaluates whole probe products at once (closed forms
over arrays, a chunked parameter sweep in grid mode); every entry must equal
the oracle's scalar evaluation bit for bit, inf included.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from bipotkit import (
    INF,
    BInfinityBipotential,
    Bipotential,
    CauchyProduct,
    ClosedInterval,
    Cover,
    FiniteSet,
    NormFamily,
    QuadraticFamily,
    build_inf,
    build_separable,
    norm_cover,
    quadratic_cover,
    separable_cover,
    tabulated_cover,
)
from bipotkit.bipotentials import _probe_table
from bipotkit.cli import main
from bipotkit.convex import IndicatorBall, Quadratic, ScaledNorm
from bipotkit.demos import _reference_line, build_cauchy_law, build_sign_law, nonbic_cover
from bipotkit.formats import probe_rows, save_cover
from bipotkit.laws import Ball, HalfLineRay, LawGraph, Segment, Singleton
from bipotkit.numerics import SWEEP_CHUNK, inner, norm

from .oracles import oracle_fmt, oracle_table

rng = np.random.default_rng(2024)


def probes(n, dim):
    """Random probes with the zero vector, a coordinate axis point and an
    exact repeat among them."""
    p = np.round(rng.uniform(-2.0, 2.0, size=(n, dim)), 3)
    p[0] = 0.0
    p[1] = 0.0
    p[1, -1] = 1.5
    p[2] = p[3]
    return p


def tabulated(kind, lams, dim):
    if kind == "quadratic":
        return tabulated_cover([(lam, Quadratic(lam, dim), Quadratic(1.0 / lam, dim))
                                for lam in lams])
    return tabulated_cover([(lam, ScaledNorm(lam, dim), IndicatorBall(lam, dim))
                            for lam in lams])


def interval(lo, hi, inf, points=37, **grid):
    return ClosedInterval(lo, hi, includes_infinity=inf, grid_points=points, **grid)


COVERS = {
    **{f"{fam.__name__}-{dim}": make(dim) for dim in (1, 2, 3)
       for fam, make in ((QuadraticFamily, quadratic_cover), (NormFamily, norm_cover))},
    **{f"{fam.__name__}-[{lo},{hi}]{'+inf' if inf else ''}": Cover(interval(lo, hi, inf), fam(2))
       for fam in (QuadraticFamily, NormFamily)
       for lo, hi, inf in ((0.3, 2.5, False), (0.3, 2.5, True), (0.7, INF, False),
                           (0.7, INF, True), (0.0, 3.0, False))},
    **{f"{fam.__name__}-finite": Cover(FiniteSet((0.0, 0.5, 1.5, 2.0, INF)), fam(1))
       for fam in (QuadraticFamily, NormFamily)},
    "separable-quadratic": separable_cover(Quadratic(2.0, 1)),
    "separable-norm": separable_cover(ScaledNorm(1.5, 2)),
}
TABULATED = {
    "tabulated-quadratic": tabulated("quadratic", (0.5, 1.0, 4.0), 2),
    "tabulated-norm": tabulated("norm", (0.25, 2.0, 8.0), 1),
    "tabulated-affine": nonbic_cover(),
}


@pytest.mark.parametrize("mode", ["analytic", "grid"])
@pytest.mark.parametrize("name", list(COVERS))
def test_inf_of_cover_table_matches_oracle(name, mode):
    cover = COVERS[name]
    # 11 x 7 probes against a 37- or 514-point grid: neither fills whole chunks
    xs, ys = probes(11, cover.dim), probes(7, cover.dim)
    got = build_inf(cover, mode=mode).table(xs, ys)
    assert np.array_equal(got, oracle_table(cover, xs, ys, mode))


def overflowing(dim):
    """Probes whose squared norms overflow to inf, next to 0, 1 and 1e-200."""
    p = np.zeros((6, dim))
    p[1, 0], p[2, -1], p[3], p[4, 0], p[5, -1] = 1e200, -1e200, 1e200, 1.0, 1e-200
    return p


@pytest.mark.parametrize("mode", ["analytic", "grid"])
@pytest.mark.parametrize("name", list(COVERS))
def test_overflowing_probes_give_no_nan(name, mode):
    # an overflowed norm against a zero one is inf * 0 in a product or a
    # ratio; the infimum is still an extended real with a parameter
    cover = COVERS[name]
    ps = overflowing(cover.dim)
    b = build_inf(cover, mode=mode)
    with np.errstate(over="ignore"):
        got = b.table(ps, ps)
        pairs = [b.infimum(x, y) for x in ps for y in ps]
    assert np.array_equal(got, oracle_table(cover, ps, ps, mode))
    assert [val for val, _ in pairs] == got.ravel().tolist()
    assert not np.isnan([lam for _, lam in pairs]).any()


def test_overflow_cases_match_grid_mode():
    big, zero = np.array([1e200]), np.array([0.0])
    with np.errstate(over="ignore"):
        for cover, x, y, want in ((quadratic_cover(1), big, big, (INF, 0.0)),
                                  (quadratic_cover(1), big, zero, (0.0, 0.0)),
                                  (norm_cover(1), big, zero, (0.0, 0.0))):
            assert build_inf(cover).infimum(x, y) == want
            assert build_inf(cover, mode="grid").infimum(x, y) == want
        assert CauchyProduct(1).value(big, zero) == 0.0
        assert CauchyProduct(1).table([big], [zero]).tolist() == [[0.0]]
        assert np.array_equal(CauchyProduct(2).table(overflowing(2), overflowing(2)),
                              oracle_table("cauchy", overflowing(2), overflowing(2)))


@pytest.mark.parametrize("name", list(TABULATED))
def test_tabulated_table_matches_oracle(name):
    cover = TABULATED[name]
    xs, ys = probes(9, cover.dim), probes(8, cover.dim)
    got = build_inf(cover, mode="grid").table(xs, ys)
    assert np.array_equal(got, oracle_table(cover, xs, ys, "grid"))


@pytest.mark.parametrize("inf", [False, True])
def test_interval_with_zero_top_matches_oracle(inf):
    # [0, 0] has no log grid, only the closed form
    for fam in (QuadraticFamily, NormFamily):
        cover = Cover(interval(0.0, 0.0, inf, grid_hi=1.0), fam(2))
        xs, ys = probes(6, 2), probes(5, 2)
        got = build_inf(cover, mode="analytic").table(xs, ys)
        assert np.array_equal(got, oracle_table(cover, xs, ys, "analytic"))


def test_grid_larger_than_a_chunk_matches_oracle():
    cover = quadratic_cover(dim=1, grid_points=SWEEP_CHUNK + 7)
    xs, ys = probes(4, 1), probes(4, 1)
    got = build_inf(cover, mode="grid").table(xs, ys)
    assert np.array_equal(got, oracle_table(cover, xs, ys, "grid"))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cauchy_and_separable_tables_match_oracle(dim):
    xs, ys = probes(10, dim), probes(6, dim)
    assert np.array_equal(CauchyProduct(dim).table(xs, ys), oracle_table("cauchy", xs, ys))
    cover = separable_cover(ScaledNorm(0.75, dim))
    b = build_separable(cover.family.potential)
    assert np.array_equal(b.table(xs, ys), oracle_table(cover, xs, ys))


@pytest.mark.parametrize("law", [build_sign_law(), build_cauchy_law()],
                         ids=["sign", "cauchy"])
def test_b_infinity_table_matches_oracle(law):
    xs, ys = np.array(law.domain()), np.array(law.image())
    assert np.array_equal(BInfinityBipotential(law).table(xs, ys), oracle_table(law, xs, ys))


def hinted_law(dim):
    """Stored pairs with a hint of every shape: primal segment, ball and
    singleton slices, a dual ray and an unbounded dual ball."""
    def v(*c):
        return np.array(c[:dim], dtype=np.float64)

    pairs = [(v(0, 0, 0), v(-1, 0, 0)), (v(0, 0, 0), v(1, 0, 0)), (v(1, 1, 1), v(2, 0, 1)),
             (v(2, 0, 0), v(2, 0, 1)), (v(-1, 0.5, 0), v(-1, -1, 0)), (v(0.5, 0, 2), v(0, 0, 0))]
    primal = {tuple(v(0, 0, 0)): Segment(v(-1, 0, 0), v(1, 0, 0)),
              tuple(v(1, 1, 1)): Ball(v(2, 0, 1), 0.5),
              tuple(v(-1, 0.5, 0)): Singleton(v(-1, -1, 0))}
    dual = {tuple(v(2, 0, 1)): HalfLineRay(v(2, 0, 0), v(-1, 1, 1)),
            tuple(v(0, 0, 0)): Ball(v(0.5, 0, 2), INF)}
    return LawGraph(pairs, primal_hints=primal, dual_hints=dual, hint_tol=1e-6)


def law_probes(law):
    """The law's own points, points on and beside its hints, near misses
    within and beyond a snap radius, and a signed zero."""
    near = np.concatenate([law.xs, law.ys])
    return np.concatenate([near, 0.5 * (near[:-1] + near[1:]), near + 1e-4, near - 0.2,
                           probes(6, law.dim), -0.0 * near[:1]])


@pytest.mark.parametrize("snap", [0.0, 1e-3, 0.3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_b_infinity_table_with_hints_and_snap_matches_oracle(dim, snap):
    law = hinted_law(dim)
    pts = law_probes(law)
    got = BInfinityBipotential(law, snap=snap).table(pts, pts)
    want = oracle_table(law, pts, pts, snap=snap)
    assert np.array_equal(got, want)
    # every kind of membership occurs: stored, hinted only, and off the law
    stored = oracle_table(LawGraph(law.pairs), pts, pts, snap=snap)
    assert np.isfinite(want).sum() > np.isfinite(stored).sum() > 0
    assert np.isinf(want).any()


@pytest.mark.parametrize("snap", [0.0, 0.3])
def test_law_contains_agrees_with_the_b_infinity_table(snap):
    law = hinted_law(2)
    pts = law_probes(law)
    finite = np.isfinite(BInfinityBipotential(law, snap=snap).table(pts, pts))
    assert [[law.contains(x, y, snap=snap) for y in pts] for x in pts] == finite.tolist()


@pytest.mark.parametrize("make", [
    lambda: CauchyProduct(2),
    lambda: build_separable(ScaledNorm(1.5, 2)),
    lambda: build_inf(quadratic_cover(dim=2), mode="analytic"),
    lambda: build_inf(norm_cover(dim=2, grid_points=40), mode="grid"),
    lambda: build_inf(TABULATED["tabulated-quadratic"], mode="grid"),
    lambda: BInfinityBipotential(hinted_law(2), snap=0.3),
], ids=["cauchy", "separable", "inf-analytic", "inf-grid", "tabulated", "b-infinity"])
def test_built_in_tables_do_not_call_value(make, monkeypatch):
    b = make()

    def refuse(*args, **kwargs):
        raise AssertionError("table fell back to per-pair value")

    monkeypatch.setattr(type(b), "value", refuse)
    monkeypatch.setattr(LawGraph, "contains", refuse)
    xs, ys = probes(5, 2), probes(4, 2)
    assert b.table(xs, ys).shape == (5, 4)


def test_grid_infimum_values_on_paired_and_product_stacks_agree():
    cover = norm_cover(dim=2, grid_points=101)
    xs, ys = probes(7, 2), probes(5, 2)
    product = cover.grid_infimum_values(xs[:, None], ys[None])
    paired = cover.grid_infimum_values(np.repeat(xs, 5, axis=0), np.tile(ys, (7, 1)))
    assert np.array_equal(product.reshape(-1), paired)


def test_huge_probes_overflow_to_inf_without_warnings(tmp_path, capsys):
    # squared norms, pairings and member sums beyond the float range are
    # +inf or -inf, their intended values, and warn nothing
    big = np.array([-1e200, -1e154, 0.0, 1e154, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dim in (1, 2):
            xs = np.stack([big] * dim, axis=1)
            ys = xs[::-1] * 0.5
            for cover in (quadratic_cover(dim), norm_cover(dim)):
                for mode in ("grid", "analytic"):
                    got = build_inf(cover, mode=mode).table(xs, ys)
                    assert np.array_equal(got, oracle_table(cover, xs, ys, mode))
                paired = cover.grid_infimum_values(xs, ys)
                want = [oracle_table(cover, [x], [y], "grid")[0, 0] for x, y in zip(xs, ys)]
                assert np.array_equal(paired, want)
        save_cover(quadratic_cover(1), tmp_path / "quad.json")
        assert main(["build", str(tmp_path / "quad.json"), "--mode", "grid",
                     "--probe-grid=-1e200:1e200:3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "x,y,b,pairing",
        "-1e+200,-1e+200,inf,inf", "-1e+200,0,0,0", "-1e+200,1e+200,inf,-inf",
        "0,-1e+200,0,0", "0,0,0,0", "0,1e+200,0,0",
        "1e+200,-1e+200,inf,-inf", "1e+200,0,0,0", "1e+200,1e+200,inf,inf"]


# ---------------------------------------------------------------------------
# table consumers


def old_probe_rows(b, xs, ys):
    return [",".join([oracle_fmt(c) for c in x] + [oracle_fmt(c) for c in y]
                     + [oracle_fmt(b.value(x, y)), oracle_fmt(inner(x, y))])
            for x in xs for y in ys]


@pytest.mark.parametrize("make", [
    lambda: build_inf(quadratic_cover(dim=2), mode="grid"),
    lambda: build_inf(norm_cover(dim=2), mode="analytic"),
    lambda: build_inf(TABULATED["tabulated-affine"], mode="grid"),
    lambda: build_inf(separable_cover(ScaledNorm(1.5, 2)), mode="analytic"),
    lambda: CauchyProduct(2),
    lambda: BInfinityBipotential(build_cauchy_law()),
], ids=["quadratic-grid", "norm-analytic", "affine-grid", "separable", "cauchy", "b-infinity"])
def test_probe_rows_match_per_pair_formatting(make):
    b = make()
    xs, ys = probes(6, b.dim), probes(5, b.dim)
    if isinstance(b, BInfinityBipotential):
        xs, ys = np.array(b.law.domain()), np.array(b.law.image())
    rows = probe_rows(b, xs, ys)
    assert isinstance(rows, list)
    assert rows == old_probe_rows(b, xs, ys)


class _Stub(Bipotential):
    """|x||y| off the axis x = 0, NaN on it, 0.25 above it past x = 1."""

    dim = 1

    def value(self, x, y):
        if x[0] == 0.0:
            return float("nan")
        return norm(x) * norm(y) + (0.25 if x[0] > 1.0 else 0.0)


def python_fold(b, setup, target):
    worst = 0.0
    for x in setup["x_probes"]:
        for y in setup["y_probes"]:
            worst = max(worst, abs(b.value(x, y) - target(x, y)))
    return worst


def test_reference_line_skips_nan_like_the_python_fold():
    grid = np.linspace(-2.0, 2.0, 9)[:, None]
    setup = {"x_probes": grid, "y_probes": grid}
    worst = python_fold(_Stub(), setup, lambda x, y: norm(x) * norm(y))
    assert worst == 0.25
    table = _probe_table(_Stub(), grid, grid)
    assert _reference_line("cauchy", table, setup) == f"max |b - ||x|| ||y||| = {worst:.6g}"


def test_reference_line_skips_inf_against_inf():
    # phi* is the indicator of [-1, 1]: b and the target are both +inf past it
    cover = separable_cover(ScaledNorm(1.0, 1))
    setup = {"x_probes": np.linspace(-2.0, 2.0, 9)[:, None],
             "y_probes": np.linspace(-2.0, 2.0, 9)[:, None], "cover": cover}
    b = build_inf(cover)
    fam = cover.family
    worst = python_fold(b, setup, lambda x, y: fam.potential.value(x) + fam.potential_star.value(y))
    table = _probe_table(b, setup["x_probes"], setup["y_probes"])
    line = _reference_line("separable", table, setup)
    assert line == f"max |b - (phi(x) + phi*(y))| = {worst:.6g}" == "max |b - (phi(x) + phi*(y))| = 0"
    assert _reference_line(None, table, setup) is None


# ---------------------------------------------------------------------------
# memory


def test_grid_table_peak_memory_is_chunked():
    # unchunked, the sweep would hold 201 x 201 x 770 floats (about 250 MB)
    # several times over; chunked, a few temporaries of SWEEP_CHUNK floats
    cover = quadratic_cover(dim=3, grid_points=768)
    b = build_inf(cover, mode="grid")
    s = np.linspace(-2.0, 2.0, 201)
    xs = np.stack([s, 0.5 * s, -s], axis=1)
    ys = np.stack([-s, s, 0.25 * s], axis=1)
    cover.domain.sample_grid  # built once per domain, outside the sweep
    tracemalloc.start()
    try:
        out = b.table(xs, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (201, 201)
    assert peak < out.nbytes + 2 * 2 ** 20
