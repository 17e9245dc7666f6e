import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipotkit import numerics
from bipotkit.bipotentials import (
    CauchyProduct,
    bic_check,
    build_b_infinity,
    build_inf,
    certify,
    graph_of_bipotential,
    verify_axioms,
)
from bipotkit.convex import Quadratic, fenchel_gap, graph_of, subdifferential_contains
from bipotkit.covers import QuadraticFamily, coverage_check, p1_candidate, quadratic_cover
from bipotkit.demos import build_cauchy_law, build_plasticity_law, build_sign_law, nonbic_cover
from bipotkit.formats import dumps
from bipotkit.laws import (
    LawGraph,
    bb_check,
    cyclic_monotonicity_check,
    rockafellar_reconstruct,
)
from bipotkit.numerics import (
    DEFAULT_TOL,
    INF,
    DimensionMismatchError,
    MinusInfinityError,
    as_vector,
    ensure_extended,
    ensure_finite,
    inner,
    norm,
    vec_key,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_inf_is_float_infinity():
    assert INF == math.inf and isinstance(INF, float)


def test_ensure_extended_accepts_plus_infinity():
    assert ensure_extended(INF) == INF
    assert ensure_extended(2) == 2.0


@pytest.mark.parametrize("bad", [-math.inf, math.nan])
def test_ensure_extended_rejects(bad):
    with pytest.raises(MinusInfinityError):
        ensure_extended(bad)


def test_ensure_finite_rejects_infinity():
    with pytest.raises(ValueError):
        ensure_finite(INF)


def test_as_vector_shapes():
    v = as_vector([1, 2])
    assert v.dtype == np.float64 and v.shape == (2,)
    assert as_vector(3.0).shape == (1,)


def test_as_vector_rejects_wrong_dim():
    with pytest.raises(DimensionMismatchError):
        as_vector([1.0, 2.0], dim=3)


def test_as_vector_rejects_nonfinite_coordinates():
    with pytest.raises(ValueError):
        as_vector([1.0, INF])


def test_as_vector_rejects_high_dimension():
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0, 3.0, 4.0])


def test_inner_small_cases():
    assert inner(as_vector([2.0]), as_vector([3.0])) == 6.0
    x = as_vector([1.0, 2.0])
    y = as_vector([3.0, 4.0])
    # left-to-right coordinate accumulation, the order every kernel copies
    assert inner(x, y) == (1.0 * 3.0) + (2.0 * 4.0)


@given(finite_floats, finite_floats, finite_floats, finite_floats)
def test_inner_symmetric_in_floats(a, b, c, d):
    x = as_vector([a, b])
    y = as_vector([c, d])
    # a*c and c*a are the same float, and the sum order is fixed
    assert inner(x, y) == inner(y, x)


def test_norm_matches_hypot():
    v = as_vector([3.0, 4.0])
    assert norm(v) == 5.0


def test_vec_key_round_trip():
    key = vec_key(as_vector([1.5, -2.0]))
    assert key == (1.5, -2.0)
    assert isinstance(key, tuple)


def test_trusted_pairing_matches_the_checked_one():
    from bipotkit.numerics import _batch_inner, _batch_norm

    x = np.array([0.1, -2.5, 3.0])
    y = np.array([7.0, 0.3, -1e-3])
    # coordinate by coordinate from 0.0, in index order
    assert _batch_inner(x, y)[()] == ((0.0 + 0.1 * 7.0) + -2.5 * 0.3) + 3.0 * -1e-3 == inner(x, y)
    assert float(_batch_norm(x)) == math.sqrt(((0.0 + 0.1 * 0.1) + 2.5 * 2.5) + 3.0 * 3.0) == norm(x)
    stack = np.stack([x, y])
    assert _batch_inner(stack, stack[::-1]).tolist() == [inner(x, y), inner(y, x)]
    assert _batch_norm(stack).tolist() == [norm(x), norm(y)]


# coordinates at the ends of the float range: signed zeros, subnormals, and
# magnitudes whose products overflow
EDGE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-170, 1.5e154, -1.5e154,
                     1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


def edge_vectors(dim):
    return st.lists(EDGE, min_size=dim, max_size=dim).map(np.array)


def bits(v):
    return np.float64(v).tobytes()


@settings(max_examples=300)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(edge_vectors(d), edge_vectors(d))))
def test_inner_and_norm_are_one_row_batched_calls(xy):
    from bipotkit.kernels import pairing_matrix
    from bipotkit.numerics import _batch_inner, _batch_norm

    x, y = xy
    with np.errstate(invalid="ignore"):  # inf - inf where products overflow both ways
        got, want = inner(x, y), pairing_matrix(x[None], y[None])[0, 0]
        table = _batch_inner(np.stack([x, y, x]), np.stack([y, y, x]))
    assert type(got) is np.float64 and bits(got) == bits(want) == bits(table[0])
    assert type(norm(x)) is float and bits(norm(x)) == bits(np.sqrt(table[2]))
    assert bits(norm(y)) == bits(_batch_norm(np.stack([x, y]))[1])



def test_one_chunk_budget_splits_every_batched_loop_alike(monkeypatch):
    # numerics.SWEEP_CHUNK alone bounds every batched loop: at 7 entries
    # the BIC screen, the sweep, the axiom triples, the coverage scan and
    # the BB midpoints run in many more, smaller chunks, with the same results
    law = build_cauchy_law()
    split_law = LawGraph([([0.0], [-1.0]), ([0.0], [1.0]), ([1.0], [2.0])])
    g = np.linspace(-1.0, 1.0, 5)
    probes = np.stack(np.meshgrid(g, g[:3]), axis=-1).reshape(-1, 2)
    f_many, calls = QuadraticFamily.f_many, []

    def counted(self, lams, x, y):
        calls.append(1)
        return f_many(self, lams, x, y)

    def results():
        calls.clear()
        report = certify(quadratic_cover(1, grid_points=24), g, g, mode="analytic",
                         tol=DEFAULT_TOL)
        table = build_inf(quadratic_cover(2, grid_points=64), mode="grid").table(probes, probes[::-1])
        coverage = coverage_check(quadratic_cover(2, grid_points=32), law)
        out = (dumps(report.reports()), table.tobytes(), dumps(coverage),
               dumps(bb_check(law)), dumps(bb_check(split_law)))
        return out, len(calls)

    monkeypatch.setattr(QuadraticFamily, "f_many", counted)
    default, default_calls = results()
    monkeypatch.setattr(numerics, "SWEEP_CHUNK", 7)
    split, split_calls = results()
    assert split == default
    assert split_calls > 10 * default_calls
    assert '"is_bb_graph": false' in default[4]


# ---------------------------------------------------------------------------
# one tolerance rule for every public screen


def _tol_calls():
    """Each public function that takes a tolerance, as a call of one tol on
    a small valid input."""
    g = np.linspace(-1.0, 1.0, 3)
    law = LawGraph([(np.array([0.0]), np.array([0.0])), (np.array([1.0]), np.array([1.0]))])
    return {
        "verify_axioms": lambda tol: verify_axioms(CauchyProduct(1), g, g, tol=tol),
        "graph_of_bipotential": lambda tol: graph_of_bipotential(CauchyProduct(1), g, g, tol=tol),
        "bic_check": lambda tol: bic_check(nonbic_cover(), tol=tol),
        "certify": lambda tol: certify(quadratic_cover(1), g, g, mode="analytic", tol=tol),
        "coverage_check": lambda tol: coverage_check(quadratic_cover(2), build_plasticity_law(),
                                                     tol=tol),
        "p1_candidate": lambda tol: p1_candidate(quadratic_cover(1), 1.0, 2.0, 0.5, [1.0],
                                                 [0.5], [1.0], tol=tol),
        "bb_check": lambda tol: bb_check(law, tol=tol),
        "cyclic_monotonicity_check": lambda tol: cyclic_monotonicity_check(law, tol=tol),
        "rockafellar_reconstruct": lambda tol: rockafellar_reconstruct(law, tol=tol),
        "build_b_infinity": lambda tol: build_b_infinity(build_sign_law(), tol=tol),
        "fenchel_gap": lambda tol: fenchel_gap(Quadratic(1.0, 1), [1.0], [1.0], tol=tol),
        "subdifferential_contains": lambda tol: subdifferential_contains(
            Quadratic(1.0, 1), [1.0], [1.0], tol=tol),
        "graph_of": lambda tol: graph_of(Quadratic(1.0, 1), g, g, tol=tol),
        "LawGraph": lambda tol: LawGraph([(np.zeros(1), np.zeros(1))], hint_tol=tol),
    }


TOL_FUNCTIONS = sorted(_tol_calls())


@pytest.mark.parametrize("name", TOL_FUNCTIONS)
@pytest.mark.parametrize("tol", [math.nan, INF, -1.0])
def test_public_functions_refuse_a_nan_infinite_or_negative_tol(name, tol):
    with pytest.raises(ValueError, match="must be finite and nonnegative"):
        _tol_calls()[name](tol)


@pytest.mark.parametrize("name", TOL_FUNCTIONS)
def test_public_functions_accept_a_zero_tol(name):
    _tol_calls()[name](0.0)


def test_ensure_tol_names_what_it_checks():
    assert numerics.ensure_tol(0.0) == 0.0
    with pytest.raises(ValueError, match=r"^--tol must be finite and nonnegative, got nan$"):
        numerics.ensure_tol(math.nan, "--tol")
