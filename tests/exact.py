"""Exact oracles: kernels that are rational functions of their float inputs,
computed over fractions.Fraction, each float taken as the rational it is."""

from fractions import Fraction


def waterfill(gains, budget) -> list:
    """The exact optimal power split of one row of mode gains at a budget, as
    numerics.waterfill defines it: over the k strongest modes of positive
    gain, the most whose water level mu = (budget + sum 1/g_i) / k covers
    1/g of its weakest, p_i = mu - 1/g_i; every other mode gets 0."""
    order = sorted((i for i, g in enumerate(gains) if g > 0.0), key=lambda i: -gains[i])
    inv = [1 / Fraction(gains[i]) for i in order]
    powers = [Fraction(0)] * len(gains)
    for k in range(len(inv), 0, -1):  # at k = 1 the level covers the strongest mode
        mu = (Fraction(budget) + sum(inv[:k])) / k
        if mu >= inv[k - 1]:
            for i, x in zip(order, inv[:k]):
                powers[i] = mu - x
            return powers
    return powers
