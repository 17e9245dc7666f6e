"""Sanity checks for the reference implementations themselves."""

import numpy as np

from bipotkit.laws import Ball, HalfLineRay, LawGraph, Segment, Singleton

from .oracles import (
    bruteforce_chain_offsets,
    exhaustive_cycle_check,
    oracle_contacts,
    oracle_cycle_sum,
    oracle_hint_holds,
    oracle_law_member,
    oracle_verify_axioms,
    python_conjugate,
    simple_cycles,
)


def test_cycle_count_seven_nodes():
    assert sum(1 for _ in simple_cycles(7)) == 2365


def test_cycle_count_small():
    assert sorted(simple_cycles(2)) == [(0, 1)]
    assert sorted(simple_cycles(3)) == [(0, 1), (0, 1, 2), (0, 2), (0, 2, 1), (1, 2)]


def test_cycle_sum_by_hand():
    w = np.array([[0.0, 1.0], [-0.25, 0.0]])
    assert oracle_cycle_sum(w, (0, 1)) == 0.75


def test_exhaustive_check_flags_positive_cycle():
    w = np.array([[0.0, 1.0], [-0.25, 0.0]])
    ok, cycle, s = exhaustive_cycle_check(w, 1e-9)
    assert not ok and cycle == (0, 1) and s == 0.75


def test_exhaustive_check_accepts_nonpositive():
    w = np.array([[0.0, -1.0], [-1.0, 0.0]])
    ok, _, s = exhaustive_cycle_check(w, 1e-9)
    assert ok and s == -2.0


def test_chain_offsets_by_hand():
    # edges: 0->1 = 1, 0->2 = 5, 1->2 = 3; everything else strongly negative
    w = np.array([
        [0.0, 1.0, 5.0],
        [-9.0, 0.0, 3.0],
        [-9.0, -9.0, 0.0],
    ])
    best = bruteforce_chain_offsets(w, 0)
    assert best.tolist() == [0.0, 1.0, 5.0]
    w[0, 2] = 2.0  # now the two-step chain 0->1->2 wins with 4
    assert bruteforce_chain_offsets(w, 0).tolist() == [0.0, 1.0, 4.0]


def test_python_conjugate_parabola():
    grid = np.array([[-1.0], [0.0], [1.0]])
    values = np.array([1.0, 0.0, 1.0])
    out = python_conjugate(grid, values, np.array([[2.0]]))
    assert out.tolist() == [1.0]


def test_python_conjugate_skips_infinite_values():
    grid = np.array([[0.0], [1.0]])
    values = np.array([0.0, np.inf])
    out = python_conjugate(grid, values, np.array([[3.0]]))
    assert out.tolist() == [0.0]


def v(*coords):
    return np.array(coords, dtype=float)


def test_hint_singleton_by_hand():
    s = Singleton(v(1.0, 2.0))
    assert oracle_hint_holds(s, [1.0, 2.0], 0.0)
    assert oracle_hint_holds(s, [1.0, 2.5], 0.5)
    assert not oracle_hint_holds(s, [1.0, 2.5], 0.25)


def test_hint_segment_by_hand():
    seg = Segment(v(0.0, 0.0), v(2.0, 0.0))
    assert oracle_hint_holds(seg, [1.0, 0.0], 0.0)
    assert oracle_hint_holds(seg, [1.0, 0.5], 0.5)        # projects inside
    assert not oracle_hint_holds(seg, [1.0, 0.5], 0.25)
    assert oracle_hint_holds(seg, [3.0, 0.0], 1.0)        # clamped to the end b
    assert not oracle_hint_holds(seg, [3.0, 0.0], 0.5)
    assert not oracle_hint_holds(seg, [-0.5, 0.0], 0.25)  # clamped to the end a
    point = Segment(v(1.0), v(1.0))                       # degenerate: a point
    assert oracle_hint_holds(point, [1.0], 0.0) and not oracle_hint_holds(point, [1.5], 0.25)


def test_hint_ball_by_hand():
    ball = Ball(v(0.0, 0.0), 1.0)
    assert oracle_hint_holds(ball, [0.0, 1.0], 0.0)
    assert oracle_hint_holds(ball, [0.0, 1.5], 0.5)
    assert not oracle_hint_holds(ball, [0.0, 1.5], 0.25)
    assert oracle_hint_holds(Ball(v(0.0), np.inf), [1e300], 0.0)


def test_hint_ray_by_hand():
    ray = HalfLineRay(v(1.0, 1.0), v(0.0, 2.0))
    assert oracle_hint_holds(ray, [1.0, 50.0], 0.0)
    assert oracle_hint_holds(ray, [1.5, 3.0], 0.5)
    assert not oracle_hint_holds(ray, [1.5, 3.0], 0.25)
    assert oracle_hint_holds(ray, [1.0, 0.0], 1.0)        # behind the origin
    assert not oracle_hint_holds(ray, [1.0, 0.0], 0.5)


def test_law_member_by_hand():
    law = LawGraph([(v(0.0), v(-1.0)), (v(0.0), v(1.0)), (v(2.0), v(3.0))],
                   primal_hints={(0.0,): Segment(v(-1.0), v(1.0))},
                   dual_hints={(3.0,): HalfLineRay(v(2.0), v(1.0))})
    assert oracle_law_member(law, [2.0], [3.0])
    assert oracle_law_member(law, [-0.0], [0.5])          # primal hint at x = 0
    assert oracle_law_member(law, [7.0], [3.0])           # dual ray at y = 3
    assert not oracle_law_member(law, [1.0], [3.0])       # behind the ray
    assert not oracle_law_member(law, [2.0], [3.1])
    assert oracle_law_member(law, [2.0], [3.1], snap=0.125)
    assert not oracle_law_member(law, [2.5], [3.1], snap=0.125)


def test_verify_axioms_oracle_by_hand():
    g = v(-1.0, 0.0, 1.0)[:, None]
    P = g * g.T
    # b = |x - y| + x y on {-1, 0, 1}^2: convex in each argument, in contact
    # with the pairing on the diagonal only
    B = np.abs(g - g.T) + P
    assert oracle_verify_axioms(B, g, g, 1e-9) == (True, True, True, [], [])
    assert oracle_contacts(B, g, g, 1e-9) == [([-1.0], [-1.0]), ([0.0], [0.0]), ([1.0], [1.0])]
    # the pairing with a bump at the origin: both slices through it lose
    # convexity and midpoint closure there
    B = P.copy()
    B[1, 1] = 1.0
    at = ([0.0], [0.0], 1.0)
    assert oracle_verify_axioms(B, g, g, 1e-9) == (
        True, False, False,
        [("convexity-x",) + at, ("convexity-y",) + at, ("graph-closure",) + at,
         ("graph-closure",) + at], [])
    assert len(oracle_contacts(B, g, g, 1e-9)) == 8
    # dipping below the pairing, and rows and columns with no contact
    B = P + 1.0
    B[0, 0] = 0.5
    lower, _, _, found, no_contact = oracle_verify_axioms(B, g, g, 1e-9)
    assert not lower and found[0] == ("lower-bound", [-1.0], [-1.0], 0.5)
    assert [c[0] for c in found[1:]] == ["convexity-x", "convexity-y"]
    assert no_contact == [("primal", [0.0], 1.0), ("primal", [1.0], 1.0),
                          ("dual", [0.0], 1.0), ("dual", [1.0], 1.0)]
