"""Hypothesis strategies shared by the property tests."""

from fractions import Fraction

from hypothesis import strategies as st


def fractions(min_value, max_value, max_denominator):
    """The values of ``st.fractions(min_value, max_value, max_denominator=...)``,
    each drawn as an integer numerator and denominator.

    Both integer strategies are built once.  A denominator that puts its
    numerator out of range moves to the nearest denominator that brings
    it in, so the value set is exactly that of ``st.fractions``.
    """
    lo, hi = Fraction(min_value), Fraction(max_value)
    numerators = range(int(min(lo, lo * max_denominator)) - 1,
                       int(max(hi, hi * max_denominator)) + 2)
    # numerator -> (least, greatest) denominator that keeps it in range
    bounds = {}
    for p in numerators:
        fit = [q for q in range(1, max_denominator + 1) if lo <= Fraction(p, q) <= hi]
        if fit:
            bounds[p] = (fit[0], fit[-1])
    least, greatest = min(bounds), max(bounds)
    assert len(bounds) == greatest - least + 1, "the numerators must form a range"

    def fraction(p, q):
        q_min, q_max = bounds[p]
        return Fraction(p, min(max(q, q_min), q_max))

    return st.builds(fraction, st.integers(least, greatest),
                     st.integers(1, max_denominator))
