"""Kernel semantics against scalar loops and brute-force oracles.

Kernels must agree with the scalar definitions bit for bit, not just to
rounding, because downstream code promises exact equality between routes
that go through different kernels.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bipotkit import kernels

from .oracles import (
    bruteforce_chain_offsets,
    oracle_bellman_ford,
    oracle_checked_bellman_ford,
    oracle_longest_path,
    python_conjugate,
)

rng = np.random.default_rng(421)


def random_points(m, n):
    return rng.uniform(-1.0, 1.0, size=(m, n))


def test_pairing_matrix_matches_scalar_loop():
    xs = random_points(6, 3)
    ys = random_points(4, 3)
    got = kernels.pairing_matrix(xs, ys)
    assert got.shape == (6, 4)
    for i in range(6):
        for j in range(4):
            s = 0.0
            for k in range(3):
                s += xs[i, k] * ys[j, k]
            assert got[i, j] == s


def test_conjugate_bruteforce_matches_python():
    grid = random_points(8, 2)
    values = rng.uniform(-1.0, 1.0, size=8)
    values[3] = np.inf
    dual = random_points(5, 2)
    got = kernels.conjugate_bruteforce(kernels.pairing_matrix(grid, dual), values)
    want = python_conjugate(grid, values, dual)
    assert np.array_equal(got, want)


def test_conjugate_merge_equals_bruteforce_exactly():
    x = np.sort(rng.uniform(-2.0, 2.0, size=40))
    v = rng.uniform(-1.0, 1.0, size=40)
    y = np.sort(rng.uniform(-3.0, 3.0, size=25))
    fast = kernels.conjugate_merge(x, v, y)
    slow = kernels.conjugate_bruteforce(
        kernels.pairing_matrix(x[:, None], y[:, None]), v)
    assert np.array_equal(fast, slow)


def test_bellman_ford_quiet_without_negative_cycle():
    # w(i,j) = c(j) - c(i) has every cycle sum exactly zero
    c = rng.uniform(-1.0, 1.0, size=5)
    w = c[None, :] - c[:, None]
    _, improvement = kernels.bellman_ford(w)
    assert np.all(improvement == 0.0)


def test_bellman_ford_flags_negative_cycle():
    w = np.zeros((3, 3))
    w[0, 1] = -1.0
    w[1, 0] = 0.5
    pred, improvement = kernels.bellman_ford(w)
    assert improvement.max() > 0
    j = int(improvement.argmax())
    # walking predecessors from an improving node must reach the 0-1 loop
    seen = []
    for _ in range(4):
        seen.append(j)
        j = int(pred[j])
    assert {0, 1} <= set(seen)


def test_longest_path_matches_bruteforce_on_dyadic_weights():
    for _ in range(20):
        m = int(rng.integers(2, 7))
        w = rng.integers(-8, 9, size=(m, m)) / 8.0
        np.fill_diagonal(w, 0.0)
        # keep cycles nonpositive by subtracting a per-row potential shift
        c = rng.integers(0, 9, size=m) / 8.0
        w = w - w.max() + (c[None, :] - c[:, None])
        got = kernels.longest_path(w, 0)
        want = bruteforce_chain_offsets(w, 0)
        assert np.array_equal(got, want)


@st.composite
def square_weights(draw):
    n = draw(st.integers(1, 8))
    return draw(arrays(np.float64, (n, n), elements=st.integers(-3, 3).map(float)))


def assert_sweeps_match_the_oracles(w, tol):
    """The kernel equals the checked sweeps bit for bit, and the full sweeps
    wherever no check stopped the run. Returns the kernel's improvement and
    whether a check stopped it."""
    pred, improvement = kernels.bellman_ford(w, tol)
    want_pred, want_improvement, _, stopped = oracle_checked_bellman_ford(w, tol)
    assert pred.tobytes() == want_pred.tobytes()
    assert improvement.tobytes() == want_improvement.tobytes()
    if not stopped:
        want_pred, want_improvement = oracle_bellman_ford(w)
        assert pred.tobytes() == want_pred.tobytes()
        assert improvement.tobytes() == want_improvement.tobytes()
    return improvement, stopped


@settings(max_examples=200, deadline=None)
@given(square_weights(), st.sampled_from([0.0, 1.0, np.inf]))
def test_sweeps_that_stop_early_equal_the_full_sweeps(w, tol):
    # small integer weights: many ties, some negative cycles, n from 1; with
    # tol = inf no check stops, so every draw meets the full sweeps
    _, stopped = assert_sweeps_match_the_oracles(w, tol)
    assert not (stopped and tol == np.inf)
    for base in range(w.shape[0]):
        assert kernels.longest_path(w, base).tobytes() == oracle_longest_path(w, base).tobytes()


@st.composite
def weights_with_a_negative_cycle(draw):
    """n up to 40, integer weights, a planted cycle of negative sum, and on
    some draws a share of +-inf entries (which make NaN candidates)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 40))
    w = rng.integers(-3, 4, size=(n, n)).astype(np.float64)
    cycle = rng.permutation(n)[:draw(st.integers(2, n))]
    w[cycle, np.roll(cycle, -1)] = -1.0
    share = draw(st.sampled_from([0.0, 0.02, 0.2]))
    hit = rng.random((n, n)) < share
    w[hit] = rng.choice([np.inf, -np.inf], size=int(hit.sum()))
    return w


@settings(max_examples=100, deadline=None)
@given(weights_with_a_negative_cycle(), st.sampled_from([0.0, np.inf]))
def test_row_major_sweeps_equal_the_column_sweeps_at_scale(w, tol):
    # the oracle reduces down the columns of dist[:, None] + w; with
    # tol = inf no check stops, so the +-inf draws meet the full sweeps too
    with np.errstate(invalid="ignore"):
        improvement, stopped = assert_sweeps_match_the_oracles(w, tol)
    if np.isfinite(w).all():
        # the cycle still relaxes in the sweep that ends the run
        assert improvement.max() > 0.0
    assert not (stopped and tol == np.inf)


def test_a_cycle_closed_at_sweep_10_stops_at_the_sweep_16_check(pred_checks):
    # a chain 0 -> 1 -> ... -> 9 of weight -1 per edge brings node 9 to -9
    # after sweep 9; the edge 9 -> 0 of weight 8.5 then closes the cycle
    # (weight -0.5) at sweep 10, and the checks come after 1, 2, 4, 8, 16
    n = 24
    w = np.full((n, n), 10.0)
    np.fill_diagonal(w, 0.0)
    w[np.arange(9), np.arange(1, 10)] = -1.0
    w[9, 0] = 8.5
    closed = oracle_checked_bellman_ford(w, every_sweep=True)
    assert closed[2:] == (10, True)
    pred, improvement = kernels.bellman_ford(w)
    want_pred, want_improvement, sweeps, stopped = oracle_checked_bellman_ford(w)
    assert (sweeps, stopped, len(pred_checks)) == (16, True, 5)
    assert pred.tobytes() == want_pred.tobytes()
    assert improvement.tobytes() == want_improvement.tobytes()
    assert kernels.pred_cycles(pred) == [tuple(range(10))]


def test_pred_cycles_finds_each_cycle_once_from_its_smallest_node():
    # 0 -> 2 -> 5 -> 0, a self-loop at 3, 1 and 4 hanging off cycles, and
    # 6 -> 7 ending at a node with no predecessor
    pred = np.array([5, 0, 0, 3, 1, 2, -1, 6])
    assert kernels.pred_cycles(pred) == [(0, 2, 5), (3,)]
    assert kernels.pred_cycles(np.array([-1])) == []
    assert kernels.pred_cycles(np.array([1, 0])) == [(0, 1)]
    # a path through all n nodes ends in the sink, not on a cycle
    assert kernels.pred_cycles(np.array([-1, 0, 1, 2, 3])) == []


def test_longest_path_keeps_sweeping_through_nan():
    # an infinite weight makes -inf + inf = nan, which never settles
    w = np.array([[0.0, 1.0, -np.inf], [np.inf, 0.0, 1.0], [0.0, 2.0, 0.0]])
    with np.errstate(invalid="ignore"):
        got = kernels.longest_path(w, 0)
    assert got.tobytes() == oracle_longest_path(w, 0).tobytes()
