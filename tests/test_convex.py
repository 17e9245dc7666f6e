import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipotkit import kernels
from bipotkit.convex import (
    Affine,
    ConjugateDomainError,
    IndicatorBall,
    IndicatorPoint,
    MaxAffine,
    NegativeFenchelGapError,
    Quadratic,
    Sampled,
    ScaledNorm,
    conjugate,
    default_tol,
    discrete_conjugate_values,
    fenchel_gap,
    graph_of,
    subdifferential_contains,
)
from bipotkit.numerics import INF, MinusInfinityError

from .oracles import oracle_form_value, python_conjugate


def seven_forms(dim):
    """One instance of every form: a sign-carrying -0.0 offset, two tied
    maximal max-affine pieces, a sampled grid with a node repeated (dims 2
    and 3) and a -0.0 coordinate."""
    rng = np.random.default_rng(dim)
    e = np.eye(dim)[0]
    grid = np.round(rng.uniform(-2, 2, size=(7, dim)), 1)
    grid[0] = -0.0
    if dim == 1:
        grid = np.unique(grid + 0.0, axis=0)
    else:
        grid[5] = grid[2]
    return [
        Quadratic(0.75, dim),
        ScaledNorm(1.25, dim),
        IndicatorBall(1.5, dim),
        IndicatorPoint(0.5 * e, offset=-0.0),
        Affine(np.linspace(-1.0, 1.0, dim), 0.25),
        MaxAffine(np.array([e, e, -e, np.zeros(dim)]), np.array([0.5, 0.5, 0.5, -1.0])),
        Sampled(grid, rng.uniform(-1, 1, size=grid.shape[0])),
    ]


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_value_many_and_value_match_the_oracle(dim):
    rng = np.random.default_rng(10 + dim)
    for phi in seven_forms(dim):
        probes = np.concatenate([
            np.round(rng.uniform(-2, 2, size=(20, dim)), 1),      # mostly sampled misses
            rng.choice([-0.0, 0.0, 0.5, 1.0], size=(12, dim)),     # signed zeros, ties
            phi.grid + 0.0 if isinstance(phi, Sampled) else np.zeros((1, dim)),  # hits
            np.zeros((1, dim)), -np.zeros((1, dim)),
        ])
        want = [oracle_form_value(phi, p) for p in probes]
        assert bits(phi.value_many(probes)) == bits(want), phi
        assert bits([phi.value(p) for p in probes]) == bits(want), phi
        assert bits([phi(p.tolist()) for p in probes]) == bits(want), phi
        assert phi.value_many(probes[:0]).shape == (0,)


@pytest.mark.parametrize("form", [Quadratic, ScaledNorm])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_zero_scale_forms_are_zero_where_the_squared_norm_overflows(form, dim):
    # scale 0 is the zero function; 0 * inf would make these rows NaN
    phi = form(0.0, dim)
    probes = np.array([[1e200] * dim, [-1e300] + [0.0] * (dim - 1), [0.0] * dim, [1.5] * dim])
    with np.errstate(all="raise"):
        got = phi.value_many(probes)
        one = [phi.value(p) for p in probes]
    assert bits(got) == bits(one) == bits(np.zeros(4))
    assert bits([oracle_form_value(phi, p) for p in probes]) == bits(np.zeros(4))


@pytest.mark.parametrize("form, scale, big", [(Quadratic, 4.0, -1e154), (ScaledNorm, 1e200, 1e150)])
def test_values_beyond_the_float_range_are_inf_without_a_warning(form, scale, big):
    # 2 * 1e308 and 1e200 * 1e150 overflow: the value is +inf, as a squared
    # norm beyond the float range is
    phi = form(scale, 1)
    probes = np.array([[big], [1.5]])
    with np.errstate(all="raise"):
        got = phi.value_many(probes)
    assert got[0] == INF
    assert bits(got) == bits([oracle_form_value(phi, p) for p in probes])


# ---------------------------------------------------------------------------
# closed conjugate table


def test_quadratic_conjugate_inverts_scale():
    assert conjugate(Quadratic(2.0, 1)) == Quadratic(0.5, 1)
    assert conjugate(conjugate(Quadratic(2.0, 1))) == Quadratic(2.0, 1)


def test_degenerate_quadratic_conjugates_to_point_indicator():
    assert conjugate(Quadratic(0.0, 2)) == IndicatorPoint(np.zeros(2))


def test_norm_ball_pair():
    assert conjugate(ScaledNorm(1.5, 2)) == IndicatorBall(1.5, 2)
    assert conjugate(IndicatorBall(1.5, 2)) == ScaledNorm(1.5, 2)


def test_whole_space_indicator_conjugates_to_origin():
    assert conjugate(IndicatorBall(INF, 1)) == IndicatorPoint(np.zeros(1))


def test_affine_point_pair_round_trips():
    aff = Affine(np.array([2.0, -1.0]), 0.5)
    point = conjugate(aff)
    assert point == IndicatorPoint(np.array([2.0, -1.0]), -0.5)
    assert conjugate(point) == aff


def test_sampled_conjugate_needs_dual_grid():
    phi = Sampled(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ConjugateDomainError):
        conjugate(phi)


# ---------------------------------------------------------------------------
# discrete transform


def test_parabola_samples_conjugate_at_two():
    phi = Sampled(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0]))
    star = conjugate(phi, dual_grid=np.array([[2.0]]))
    assert star.values.tolist() == [1.0]


def test_discrete_conjugate_methods_agree_exactly():
    rng = np.random.default_rng(7)
    grid = np.sort(rng.uniform(-2, 2, size=30))
    values = rng.uniform(-1, 1, size=30)
    dual = np.sort(rng.uniform(-3, 3, size=17))
    got = discrete_conjugate_values(grid, values, dual[:, None])
    brute = kernels.conjugate_bruteforce(kernels.pairing_matrix(grid[:, None], dual[:, None]),
                                         values)
    assert np.array_equal(got, brute)
    assert np.array_equal(got, python_conjugate(grid[:, None], values, dual[:, None]))


@pytest.mark.parametrize("dim, ascending, path", [
    (1, True, "conjugate_merge"),
    (1, False, "conjugate_bruteforce"),
    (2, True, "conjugate_bruteforce"),
])
def test_discrete_conjugate_path_is_chosen_by_the_input(monkeypatch, dim, ascending, path):
    rng = np.random.default_rng(11)
    grid = rng.uniform(-2, 2, size=(25, dim))
    if dim == 1:
        grid = np.sort(grid, axis=0)
    values = rng.uniform(-1, 1, size=25)
    values[3] = INF
    dual = rng.uniform(-3, 3, size=(13, dim))
    order = np.argsort(dual[:, 0])
    dual = dual[order if ascending else order[::-1]]
    calls = []
    for name in ("conjugate_merge", "conjugate_bruteforce"):
        kernel = getattr(kernels, name)
        monkeypatch.setattr(kernels, name,
                            lambda *a, name=name, kernel=kernel: calls.append(name) or kernel(*a))
    got = discrete_conjugate_values(grid, values, dual)
    assert calls == [path]
    assert np.array_equal(got, python_conjugate(grid, values, dual))


def test_discrete_conjugate_rejects_all_infinite():
    with pytest.raises(ConjugateDomainError):
        discrete_conjugate_values(np.array([0.0, 1.0]), np.array([INF, INF]),
                                  np.array([[0.0]]))


def test_infinite_samples_are_skipped():
    grid = np.array([0.0, 1.0])
    values = np.array([0.0, INF])
    out = discrete_conjugate_values(grid, values, np.array([[3.0]]))
    assert out.tolist() == [0.0]


# ---------------------------------------------------------------------------
# Fenchel gap


def test_quadratic_gap_closed_form():
    rep = fenchel_gap(Quadratic(1.0, 1), 1.0, 3.0)
    assert rep.gap == 2.0 and not rep.at_equality


def test_subdifferential_by_equality():
    assert subdifferential_contains(Quadratic(1.0, 1), 1.0, 1.0)
    assert not subdifferential_contains(Quadratic(1.0, 1), 1.0, 1.1)


def test_norm_subdifferential_at_origin_is_unit_ball():
    phi = ScaledNorm(1.0, 2)
    assert subdifferential_contains(phi, [0.0, 0.0], [0.6, 0.8])
    assert not subdifferential_contains(phi, [0.0, 0.0], [0.8, 0.8])


def test_undersampled_max_affine_conjugate_raises_on_negative_gap():
    # the sampled sup misses the active piece, so the gap drops below zero
    phi = MaxAffine(np.array([[2.0]]), np.array([0.0]))
    with pytest.raises(NegativeFenchelGapError):
        fenchel_gap(phi, 1.0, 1.0, primal_grid=np.array([[5.0]]))


def test_default_tol_split():
    assert default_tol(Quadratic(1.0, 1)) == 1e-9
    assert default_tol(Sampled(np.array([0.0]), np.array([0.0]))) == 1e-6


@settings(max_examples=200)
@given(st.floats(-100, 100), st.floats(-100, 100))
def test_fenchel_young_quadratic(x, y):
    rep = fenchel_gap(Quadratic(1.0, 1), x, y)
    assert rep.gap >= -1e-9


@settings(max_examples=100)
@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=12, unique=True),
    st.data(),
)
def test_fenchel_young_sampled(xs, data):
    xs = sorted(xs)
    values = [data.draw(st.floats(-100, 100)) for _ in xs]
    phi = Sampled(np.array(xs), np.array(values))
    x = data.draw(st.sampled_from(xs))
    y = data.draw(st.floats(-100, 100))
    rep = fenchel_gap(phi, x, y)
    assert rep.gap >= -default_tol(phi)


@settings(max_examples=50)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=10, unique=True),
    st.lists(st.floats(-50, 50), min_size=2, max_size=10, unique=True),
    st.data(),
)
def test_biconjugate_dominated_by_original(xs, ys, data):
    xs = sorted(xs)
    values = np.array([data.draw(st.floats(-50, 50)) for _ in xs])
    dual = np.array(sorted(ys))[:, None]
    star = discrete_conjugate_values(np.array(xs), values, dual)
    back = discrete_conjugate_values(dual[:, 0], star, np.array(xs)[:, None])
    assert np.all(back <= values + 1e-9)


# ---------------------------------------------------------------------------
# contact graphs


def test_norm_graph_on_small_grid():
    law = graph_of(ScaledNorm(1.0, 1), np.array([0.0, 1.0]), np.array([-1.0, 0.0, 1.0]))
    assert law.pair_keys() == {((0.0,), (-1.0,)), ((0.0,), (0.0,)),
                               ((0.0,), (1.0,)), ((1.0,), (1.0,))}


def test_quadratic_graph_is_diagonal():
    g = np.array([-1.0, 0.0, 1.0])
    law = graph_of(Quadratic(1.0, 1), g, g)
    assert law.pair_keys() == {((-1.0,), (-1.0,)), ((0.0,), (0.0,)), ((1.0,), (1.0,))}


def test_graph_of_raises_when_no_contact():
    with pytest.raises(ValueError):
        graph_of(Quadratic(1.0, 1), np.array([-2.0]), np.array([2.0]))


EDGE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-170, 1.5e154, -1.5e154, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.tuples(*[st.lists(EDGE, min_size=d, max_size=d).map(np.array)] * 2)))
def test_fenchel_gap_pairs_like_the_pairing_matrix(xy):
    # phi(x) + phi*(y) - <x, y>, with the pairing of the batched kernel
    x, y = xy
    phi = Quadratic(1.0, x.size)
    with np.errstate(invalid="ignore"):  # inf - inf where values overflow
        want = (phi.value(x) + conjugate(phi).value(y)
                - kernels.pairing_matrix(x[None], y[None])[0, 0])
        if np.isnan(want):
            with pytest.raises(MinusInfinityError):
                fenchel_gap(phi, x, y)
        elif want < -default_tol(phi):
            with pytest.raises(NegativeFenchelGapError):
                fenchel_gap(phi, x, y)
        else:
            assert np.float64(fenchel_gap(phi, x, y).gap).tobytes() == np.float64(want).tobytes()
