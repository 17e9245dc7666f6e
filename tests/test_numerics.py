import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bipotkit.numerics import (
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
    from bipotkit.numerics import _batch_inner, _inner, _norm

    x = np.array([0.1, -2.5, 3.0])
    y = np.array([7.0, 0.3, -1e-3])
    assert _inner(x, y) == inner(x, y)
    assert _norm(x) == norm(x)
    stack = np.stack([x, y])
    assert _batch_inner(stack, stack[::-1]).tolist() == [inner(x, y), inner(y, x)]
