"""End-to-end acceptance checks.

Each test exercises one headline guarantee at its stated tolerance and
prints a single pass/fail line (run pytest with -s to watch them stream).
The random checks use fixed seeds so every run sees the same instances.
"""

import time

import numpy as np

from bipotkit import kernels
from bipotkit.bipotentials import (
    bic_check,
    build_b_infinity,
    build_inf,
    build_separable,
    default_probe_plan,
    embed_dual,
    embed_primal,
    graph_of_bipotential,
)
from bipotkit.convex import (
    Affine,
    IndicatorBall,
    MaxAffine,
    Quadratic,
    ScaledNorm,
    Sampled,
    conjugate,
    discrete_conjugate_values,
    fenchel_gap,
    graph_of,
    subdifferential_contains,
)
from bipotkit.covers import norm_cover, quadratic_cover, separable_cover
from bipotkit.demos import nonbic_cover
from bipotkit.laws import (
    LawGraph,
    NotBBGraphError,
    bb_check,
    cycle_sum,
    cyclic_monotonicity_check,
    rockafellar_reconstruct,
    weight_matrix,
)
from bipotkit.numerics import INF, inner

from .exact import exact_cycle_sum
from .oracles import bruteforce_chain_offsets, exhaustive_cycle_check

PROBE_41 = np.linspace(-2.0, 2.0, 41)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def orthogonal_probe_stacks():
    xs = np.array([embed_primal(s, 2) for s in PROBE_41])
    ys = np.array([embed_dual(t, 2) for t in PROBE_41])
    pairs_x = np.repeat(xs, 41, axis=0)
    pairs_y = np.tile(ys, (41, 1))
    products = np.abs(np.repeat(PROBE_41, 41)) * np.abs(np.tile(PROBE_41, 41))
    return pairs_x, pairs_y, products


def product_errors(cover):
    """Worst deviation from |x||y| for both construction modes, plus time."""
    pairs_x, pairs_y, products = orthogonal_probe_stacks()
    analytic = build_inf(cover, mode="analytic")
    start = time.perf_counter()
    analytic_vals = np.array([analytic.value(x, y) for x, y in zip(pairs_x, pairs_y)])
    grid_vals = cover.grid_infimum_values(pairs_x, pairs_y)
    elapsed = time.perf_counter() - start
    return (np.abs(analytic_vals - products).max(),
            np.abs(grid_vals - products).max(), elapsed)


def test_criterion_1_quadratic_cover_builds_the_product():
    err_analytic, err_grid, elapsed = product_errors(quadratic_cover(dim=2))
    ok = err_analytic <= 1e-9 and err_grid <= 1e-3 and elapsed < 5.0
    report(1, ok,
           f"quadratic cover on 41x41 probes: analytic err {err_analytic:.2e} "
           f"(tol 1e-9), grid err {err_grid:.2e} (tol 1e-3), {elapsed:.2f}s (< 5s)")


def test_criterion_2_norm_cover_builds_the_product():
    err_analytic, err_grid, elapsed = product_errors(norm_cover(dim=2))
    ok = err_analytic <= 1e-9 and err_grid <= 1e-3 and elapsed < 5.0
    report(2, ok,
           f"norm cover on 41x41 probes: analytic err {err_analytic:.2e} "
           f"(tol 1e-9), grid err {err_grid:.2e} (tol 1e-3), {elapsed:.2f}s (< 5s)")


def test_criterion_3_separable_covers_are_exact():
    grid = np.linspace(-2.0, 2.0, 21)[:, None]
    worst = 0.0
    checked = infinite = 0
    cases = [Quadratic(0.5, 1), Quadratic(2.0, 1), ScaledNorm(0.5, 1),
             ScaledNorm(3.0, 1),
             MaxAffine(np.array([[-1.0], [0.0], [2.0]]), np.array([0.0, 0.5, -1.0]))]
    for phi in cases:
        if isinstance(phi, MaxAffine):
            b = build_inf(separable_cover(phi, dual_grid=grid, primal_grid=grid))
            star = conjugate(phi, dual_grid=grid, primal_grid=grid)
        else:
            b = build_inf(separable_cover(phi))
            star = conjugate(phi)
        for x in grid:
            for y in grid:
                direct = phi.value(x) + star.value(y)
                got = b.value(x, y)
                # inf - inf is nan, which max() would drop: infinite
                # entries must agree exactly instead
                if np.isinf(direct) or np.isinf(got):
                    infinite += 1
                    if got != direct:
                        worst = np.inf
                else:
                    worst = max(worst, abs(got - direct))
                checked += 1
    ok = worst == 0.0 and infinite > 0
    report(3, ok, f"separable build matches phi(x) + phi*(y) on {checked} probes "
                  f"({infinite} of them infinite) with max error {worst} (required exactly 0)")


def test_criterion_4_harmonic_parameter_preserves_convex_mixes():
    rng = np.random.default_rng(20240817)
    cover = quadratic_cover(1)
    fam = cover.family
    grid = np.linspace(-2.0, 2.0, 41)
    worst = -np.inf
    for _ in range(1000):
        lam1, lam2 = 10.0 ** rng.uniform(-2, 2, size=2)
        alpha = rng.uniform(0.0, 1.0)
        y = np.array([rng.choice(grid)])
        x1, x2 = y / lam1, y / lam2
        lam = fam.candidate(lam1, lam2, alpha, y)
        mixed = alpha * x1 + (1.0 - alpha) * x2
        lhs = cover.f_eval(lam, mixed, y)
        rhs = alpha * cover.f_eval(lam1, x1, y) + (1.0 - alpha) * cover.f_eval(lam2, x2, y)
        worst = max(worst, lhs - rhs)
    ok = worst <= 1e-9
    report(4, ok, f"harmonic interpolation on 1000 random tuples: "
                  f"max f(mix) - mix(f) = {worst:.2e} (tol 1e-9)")


def test_criterion_5_cycle_detector_matches_enumeration():
    rng = np.random.default_rng(20240818)
    tol = 1e-9
    agreements = 0
    for _ in range(500):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 3))
        law = LawGraph([(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
                        for _ in range(m)])
        verdict = cyclic_monotonicity_check(law, tol=tol)
        w = weight_matrix(law)
        expected, _, _ = exhaustive_cycle_check(w, tol)
        if verdict.cyclically_monotone != expected:
            report(5, False,
                   f"disagreement on {m} pairs: detector said "
                   f"{verdict.cyclically_monotone}, enumeration said {expected}")
        if not expected:
            if not cycle_sum(w, verdict.witness_cycle) > tol:
                report(5, False, "witness cycle is not positive")
            if not (verdict.cycle_sum > tol
                    and exact_cycle_sum(law.xs, law.ys, verdict.witness_cycle) > 0):
                report(5, False, f"witness cycle {verdict.witness_cycle} does not "
                                 f"sum exactly above 0 with a reported sum above tol")
        agreements += 1
    antitone = LawGraph([(np.zeros(1), np.zeros(1)), (np.ones(1), -np.ones(1))])
    anti = cyclic_monotonicity_check(antitone)
    ok = (agreements == 500 and not anti.cyclically_monotone
          and anti.witness_cycle == (0, 1) and anti.cycle_sum == 1.0
          and exact_cycle_sum(antitone.xs, antitone.ys, anti.witness_cycle) == 1)
    report(5, ok, f"detector agreed with exhaustive enumeration on "
                  f"{agreements}/500 random laws; antitone witness cycle "
                  f"{anti.witness_cycle} with sum {anti.cycle_sum}")


def test_criterion_6_reconstruction_interpolates_and_matches_chains():
    worst_gap = 0.0
    pair_counts = []
    for phi, xg, yg in [
        (Quadratic(1.0, 1), np.linspace(-2, 2, 20), np.linspace(-2, 2, 20)),
        (ScaledNorm(1.0, 1), np.linspace(-2, 2, 9), np.linspace(-1, 1, 5)),
    ]:
        law = graph_of(phi, xg, yg)
        pair_counts.append(len(law))
        assert len(law) <= 20
        rebuilt = rockafellar_reconstruct(law)
        for x, y in law.pairs:
            gap = fenchel_gap(rebuilt, x, y, primal_grid=law.xs).gap
            worst_gap = max(worst_gap, abs(gap))

    rng = np.random.default_rng(20240819)
    exact_matches = 0
    for _ in range(50):
        m = int(rng.integers(1, 8))
        xs = np.sort(rng.choice(np.arange(-16, 17), size=m, replace=False)) / 8.0
        ys = np.sort(rng.choice(np.arange(-16, 17), size=m, replace=False)) / 8.0
        law = LawGraph([(np.array([x]), np.array([y])) for x, y in zip(xs, ys)])
        rebuilt = rockafellar_reconstruct(law, base=0)
        w = weight_matrix(law)
        chains = bruteforce_chain_offsets(w, 0)
        offsets = np.array([chains[i] - inner(law.xs[i], law.ys[i])
                            for i in range(m)])
        if np.array_equal(rebuilt.offsets, offsets):
            exact_matches += 1
    ok = worst_gap <= 1e-9 and exact_matches == 50
    report(6, ok, f"rebuilt potentials keep every sample subgradient "
                  f"(max gap {worst_gap:.2e}, tol 1e-9, {pair_counts} pairs); "
                  f"dyadic chain offsets matched enumeration exactly on "
                  f"{exact_matches}/50 laws")


def test_criterion_7_b_infinity_round_trips_bb_graphs():
    rng = np.random.default_rng(20240820)
    round_trips = 0
    for _ in range(100):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 3))
        law = LawGraph([(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
                        for _ in range(m)])
        if not bb_check(law).is_bb_graph:
            # random reals repeat a coordinate with probability zero, but
            # regenerate if it ever happens rather than fail spuriously
            continue
        b = build_b_infinity(law)
        back = graph_of_bipotential(b, np.array(law.domain()), np.array(law.image()))
        if back.pair_keys() == law.pair_keys():
            round_trips += 1
    refused = False
    witness = None
    try:
        build_b_infinity(LawGraph([(np.zeros(1), -np.ones(1)),
                                   (np.zeros(1), np.ones(1))]))
    except NotBBGraphError as exc:
        refused = True
        witness = exc.report.failing_slice.witness_midpoint.tolist()
    ok = round_trips == 100 and refused and witness == [0.0]
    report(7, ok, f"{round_trips}/100 random BB graphs round-tripped exactly; "
                  f"non-BB law refused with midpoint witness {witness}")


def test_criterion_8_fenchel_young_and_conjugation():
    rng = np.random.default_rng(20240821)
    min_gap = np.inf
    for _ in range(10_000):
        n = int(rng.integers(1, 3))
        kind = rng.integers(0, 4)
        scale = 10.0 ** rng.uniform(-1, 1)
        if kind == 0:
            phi = Quadratic(scale, n)
        elif kind == 1:
            phi = ScaledNorm(scale, n)
        elif kind == 2:
            phi = IndicatorBall(scale, n)
        else:
            phi = Affine(rng.uniform(-1, 1, n), rng.uniform(-1, 1))
        gap = fenchel_gap(phi, rng.uniform(-3, 3, n), rng.uniform(-3, 3, n)).gap
        if gap < min_gap:
            min_gap = gap

    nodes = np.sort(rng.uniform(-3, 3, 200))
    values = rng.uniform(-1, 1, 200)
    values[rng.uniform(size=200) < 0.05] = INF
    dual = np.sort(rng.uniform(-3, 3, 200))
    # ascending 1-d samples take the merge, the same bits as the brute force
    star = discrete_conjugate_values(nodes, values, dual[:, None])
    star_brute = kernels.conjugate_bruteforce(
        kernels.pairing_matrix(nodes[:, None], dual[:, None]), values)
    merge_exact = np.array_equal(star, star_brute)
    back = discrete_conjugate_values(dual, star, nodes[:, None])
    dominated = bool(np.all(back <= values + 1e-9))

    ok = min_gap >= -1e-9 and merge_exact and dominated
    report(8, ok, f"Fenchel-Young gap >= {min_gap:.2e} over 10000 analytic "
                  f"probes (tol -1e-9); merge conjugate identical to brute "
                  f"force: {merge_exact}; biconjugate dominated on 200 nodes: "
                  f"{dominated}")


def test_criterion_9_implicit_convexity_verdicts():
    quad = bic_check(quadratic_cover(dim=1), default_probe_plan(quadratic_cover(dim=1)))
    norm = bic_check(norm_cover(dim=1), default_probe_plan(norm_cover(dim=1)))
    control = bic_check(nonbic_cover(), default_probe_plan(nonbic_cover()))
    deficits_explicit = bool(control.counterexamples) and all(
        c.deficit > 0 for c in control.counterexamples)
    ok = quad.is_bic and norm.is_bic and not control.is_bic and deficits_explicit
    report(9, ok, f"quadratic plan {quad.tuples_checked} tuples pass, norm "
                  f"plan {norm.tuples_checked} tuples pass; tabulated control "
                  f"fails with {len(control.counterexamples)} deficit "
                  f"counterexamples")
