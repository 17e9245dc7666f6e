"""Exact rational judges for floating-point results.

Every float is a dyadic rational, so ``fractions.Fraction`` converts it
without rounding, and sums and products of those fractions are exact.
"""

from fractions import Fraction


def exact_cycle_sum(xs, ys, cycle):
    """Exact weight of a directed cycle over the samples (xs, ys): the sum
    of <x_j - x_i, y_i> over its edges i -> j, in rationals."""
    total = Fraction(0)
    for i, j in zip(cycle, cycle[1:] + cycle[:1]):
        for a, b, c in zip(xs[j], xs[i], ys[i]):
            total += (Fraction(float(a)) - Fraction(float(b))) * Fraction(float(c))
    return total
